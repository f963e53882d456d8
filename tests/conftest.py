import itertools
import os
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from pathlib import Path

from flaghom import WeylGroup, root_system
from flaghom.rootsys import check_theta, negate
from flaghom.weyl import CoveringPair, _named

#: oracle data: the order of the Weyl group per family, as a function of the rank
WEYL_GROUP_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


#: the environment for a child python: this checkout's src first on PYTHONPATH
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


#: groups whose whole W the oracle tests walk
ORACLE_GROUPS = [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]


def is_positive(vector):
    """Whether an integer vector, a root or not, is nonzero and nonnegative."""
    return any(c > 0 for c in vector) and all(c >= 0 for c in vector)


def in_quotient(matrix, theta):
    """w is in W^Theta iff it sends every simple root of Theta to a positive vector."""
    return all(is_positive(matrix[k]) for k in theta)


def left_times(group, i, matrix):
    """s_i*w through the group's table of s_i = s_{a_i} (KeyError for a column
    that is not a root)."""
    return group.reflections[group.identity.matrix[i]].times(matrix)


def right_times(group, matrix, i):
    """w*s_i = s_gamma*w, gamma = +-w(a_i), through the group's table of s_gamma
    (KeyError for a column that is not a root)."""
    return group.reflections[matrix[i]].times(matrix)


def right_mult(group, matrix, i):
    """Oracle: the matrix of w*s_i by the dense rule, column j becoming
    col_j - C[i][j]*col_i, each the root system's own tuple (KeyError if it
    is not a root).  It reads the Cartan matrix alone, not the coroot
    pairings that the group's reflection tables reflect by."""
    row, roots = group.system.cartan.cartan_matrix[i], group.system.roots
    return tuple(roots[tuple(a - c * b for a, b in zip(col, matrix[i]))]
                 for col, c in zip(matrix, row))


def build(group, matrix, inverse):
    """Oracle: the element with this matrix, memoised first if ``by_matrix``
    lacks it, found by a descent search rather than a walk.

    Its canonical word is its smallest left descent j followed by the word
    of s_j*w, one length lower; a lower element that ``by_matrix`` lacks is
    built first by the same rule, through the group's own `_step`.
    """
    n = group.system.rank
    chain = []
    while (below := group.by_matrix.get(matrix)) is None:
        # j is a left descent iff w^{-1}(a_j) < 0; an element of W reaches
        # a stored one, at worst e, in at most l(w_0) steps
        j = next((k for k in range(n) if not is_positive(inverse[k])), None)
        chain.append((j, matrix, inverse))
        if j is None or len(chain) > len(group.system.positive_roots):
            raise AssertionError(f"matrix {chain[0][1]} is not an element of W")
        try:  # a product with a column that is not a root
            matrix, inverse = left_times(group, j, matrix), right_mult(group, inverse, j)
        except KeyError:
            raise AssertionError(f"matrix {chain[0][1]} is not an element of W") from None
    for j, matrix, inverse in reversed(chain):
        below = group._step(j, below, inverse)
    return below


@lru_cache(maxsize=None)
def cached_group(family: str, rank: int, max_length: int | None = None):
    """A group whose memo holds W up to max_length (all of W when None)."""
    group = WeylGroup(root_system(family, rank))
    group.minimal_representatives(frozenset(), max_length)
    return group


@lru_cache(maxsize=None)
def enumerated(family: str, rank: int, max_length: int | None = None):
    """Oracle: W up to max_length on a group of its own, in (length, word)
    order, by breadth-first right multiplication from e: no left weak order
    walk and no step test."""
    group = WeylGroup(root_system(family, rank))
    found, level = [group.identity], [group.identity]
    while level and (max_length is None or found[-1].length < max_length):
        nxt = []
        for w in level:
            for i in range(rank):
                if is_positive(w.matrix[i]):  # l(w*s_i) = l(w)+1
                    m = right_times(group, w.matrix, i)
                    if m not in group.by_matrix:
                        # the inverse of w*s_i is s_i*w^{-1}
                        nxt.append(build(group, m, left_times(group, i, w.inverse_matrix)))
        found += nxt
        level = nxt
    return tuple(sorted(found, key=lambda w: (w.length, w.word)))


def scan_representatives(system, theta, max_length=None):
    """Oracle: W^Theta up to max_length, scanned out of `enumerated`."""
    elements = enumerated(system.family, system.rank, max_length)
    return [w for w in elements if in_quotient(w.matrix, theta)]


def top_cell(group, theta):
    """Oracle: the longest element w_0 w_{0,Theta} of W^Theta, without enumeration.

    W^Theta is the interval [e, w_0 w_{0,Theta}] of the left weak order,
    so a walk from e that takes any step `_steps_up` allows can only stop
    at its top.
    """
    theta = check_theta(theta, group.system.rank)
    matrix = inverse = group.identity.matrix
    theta_roots = {matrix[k] for k in theta}
    i = 0
    while i < group.system.rank:
        if group._steps_up(inverse[i], theta_roots):
            matrix, inverse = left_times(group, i, matrix), right_times(group, inverse, i)
            i = 0
        else:
            i += 1
    return build(group, matrix, inverse)


def element_from_word(group, word):
    """Oracle: the element with this word, its matrix and inverse multiplied
    out letter by letter."""
    matrix = inverse = group.identity.matrix
    for i in word:
        # w*s_i, and its inverse s_i*w^{-1}
        matrix, inverse = right_mult(group, matrix, i), left_times(group, i, inverse)
    return build(group, matrix, inverse)


def direct_covers(group, w, theta):
    """Oracle: the covering pairs under w whose w' lies in W^Theta, each with its
    unique deleted position, read off w alone.

    Deleting letter I = i of w's word gives w' = w*s_gamma, gamma = u^{-1}(a_i)
    for u ``tail`` I times below w; the shorter word is reduced iff s_gamma
    keeps every earlier gamma' positive, that is iff the root s_gamma(gamma')
    has positive height ht gamma' - <gamma', gamma^v> ht gamma, and then
    w = s_beta*w' with beta = -w(gamma).  A w' outside W^Theta is dropped;
    the others are looked up in ``by_matrix``, never built (None if absent).
    """
    gammas, u = [], w
    for i in w.word:
        u = u.tail
        gammas.append(u.inverse_matrix[i])
    heights = [sum(gamma) for gamma in gammas]
    roots = group.system.roots
    seen = set()
    found = []
    for idx, (gamma, h) in enumerate(zip(gammas, heights)):
        pairing = group.system.coroot_pairings[gamma]  # <a_j, gamma^v>
        if not all(
            heights[k] > h * sum(p * x for p, x in zip(pairing, gammas[k]))
            for k in range(idx)
        ):
            continue
        try:  # a vector that is not a root: s_gamma does not act as a reflection
            beta = roots[negate(apply(w.matrix, gamma))]
            if not is_positive(beta):
                raise AssertionError(f"beta of a reduced deletion is not positive "
                                     f"on w={_named(w)} I={idx + 1}")
            # w'(a_j) = w(a_j - <a_j, gamma^v> gamma) = w(a_j) + <a_j, gamma^v> beta
            matrix = tuple(
                roots[tuple(a + p * b for a, b in zip(col, beta))] if p else col
                for col, p in zip(w.matrix, pairing)
            )
            if matrix in seen:
                raise AssertionError(f"deleted position is not unique "
                                     f"on w={_named(w)} I={idx + 1}")
            seen.add(matrix)
            if not in_quotient(matrix, theta):
                continue
        except KeyError:
            raise AssertionError(f"w' is not in W on w={_named(w)} I={idx + 1}") from None
        found.append(CoveringPair(w, group.by_matrix.get(matrix), idx + 1, beta, gamma))
    return found


def lifted_covers(group, w, theta):
    """The cell w's covers in W^Theta by `WeylGroup.bruhat_covers`, lifted
    along w's tail chain from e, whose covers are []; every tail of a cell is
    a cell."""
    chain = [w]
    while chain[-1].tail is not None:
        chain.append(chain[-1].tail)
    pairs = []
    for u in reversed(chain):
        pairs = group.bruhat_covers(u, theta, pairs)
    return pairs


def inversion_set_of_word(group, word):
    """Oracle: Pi_w in word order, beta_k = s_1 ... s_{k-1}(a_k), each read
    as a column of the multiplied-out prefix."""
    roots, prefix = [], group.identity.matrix
    for i in word:
        roots.append(prefix[i])
        prefix = right_times(group, prefix, i)
    return roots


def descent_chain(group, w):
    """The matrices of w and of every element below it on the left-descent
    chain of its canonical word, which is all that building w stores."""
    chain, m = {w.matrix}, w.matrix
    for i in w.word:
        m = left_times(group, i, m)
        chain.add(m)
    return chain


def from_one_line(group, perm):
    """The type A element with this one-line form, built from a reduced word:
    each bubble-sort swap at positions k+1, k+2 removes one inversion, so
    perm = s_{k_m} ... s_{k_1} for the swaps k_1, ..., k_m in order."""
    perm, word = list(perm), []
    while True:
        k = next((k for k in range(len(perm) - 1) if perm[k] > perm[k + 1]), None)
        if k is None:
            return element_from_word(group, tuple(reversed(word)))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        word.append(k)


def is_reduced(group, word):
    """Oracle: a word is reduced iff each letter i lengthens the prefix
    before it, i.e. the prefix sends the simple root a_i to a positive root."""
    m = group.identity.matrix
    for i in word:
        if not is_positive(m[i]):
            return False
        m = right_times(group, m, i)
    return True


def poincare_by_scan(group, theta):
    """Oracle: the length counts of W^Theta, read off the scan of all of W."""
    reps = scan_representatives(group.system, theta)
    coeffs = [0] * (max(w.length for w in reps) + 1)
    for w in reps:
        coeffs[w.length] += 1
    return coeffs


def orientable_by_root_sum(system, theta):
    """Oracle: F_Theta is orientable iff, for every simple root a, the sum of
    <b, a^v> over the positive roots b outside Theta's subsystem is even
    (the component group M is generated by the m_a, and m_a acts on g_b by
    the sign (-1)^<b, a^v>)."""
    outside = [
        b for b in system.positive_roots if any(c for i, c in enumerate(b) if i not in theta)
    ]
    return all(
        sum(system.killing_number(i, b) for b in outside) % 2 == 0 for i in range(system.rank)
    )


def phi_by_word(group, word):
    """Oracle: the componentwise sum of the inversion set read off a word."""
    inversions = inversion_set_of_word(group, word)
    return tuple(sum(delta[k] for delta in inversions) for k in range(group.system.rank))


def kappa_sigma_by_word(group, pair):
    """Oracle: 1 - sigma, with sigma summed root by root over the inversion
    set of the suffix of w's word after the deleted letter."""
    word = pair.w.word
    i_deleted = word[pair.deleted_index - 1]
    suffix = inversion_set_of_word(group, word[pair.deleted_index :])
    return 1 - sum(group.system.killing_number(i_deleted, delta) for delta in suffix)


def kappa_phi_by_word(group, pair):
    """Oracle: the kappa with phi(w) - phi(w') = kappa * beta, phi read off
    the words of w and w'."""
    diff = [a - b for a, b in zip(phi_by_word(group, pair.w.word),
                                  phi_by_word(group, pair.w_prime.word))]
    kappa = next(d // b for d, b in zip(diff, pair.beta) if b)
    assert diff == [kappa * b for b in pair.beta]
    return kappa


# -- roots: reflections, path sums and the invariant form ------------------


def reflect(system, i, beta):
    """Simple reflection s_i applied to beta."""
    k = system.killing_number(i, beta)
    return tuple(b - k if j == i else b for j, b in enumerate(beta))


def apply(matrix, root):
    """Image of a root under the element whose matrix has the images of the
    simple roots as columns."""
    return tuple(sum(r * col[k] for r, col in zip(root, matrix)) for k in range(len(matrix)))


def p_sum(system, sequence, x, y, l):
    """Alternating-product sum P^l_{x,y} over an ordered sequence of
    simple-root indices; x and y are 1-based positions in the sequence."""
    m = len(sequence)
    if not (1 <= x < y <= m) or not (0 <= l < y - x):
        raise ValueError("invalid P-sum indices")
    C = system.cartan.cartan_matrix
    if l == 0:
        return C[sequence[x - 1]][sequence[y - 1]]
    total = 0
    for js in itertools.combinations(range(x + 1, y), l):
        chain = (x, *js, y)
        prod = 1
        for a, b in zip(chain, chain[1:]):
            prod *= C[sequence[a - 1]][sequence[b - 1]]
        total += prod
    return total


def conjugated_root(system, sequence):
    """Oracle: s_1 ... s_{m-1}(d_m) by the closed alternating P-sum formula."""
    m = len(sequence)
    if m < 1:
        raise ValueError("sequence must be nonempty")
    result = [0] * system.rank
    result[sequence[-1]] += 1
    for i in range(1, m):
        result[sequence[i - 1]] += sum(
            (-1) ** (l - 1) * p_sum(system, sequence, i, m, l) for l in range(m - i)
        )
    return tuple(result)


@lru_cache(maxsize=None)
def symmetrizer(cartan_matrix):
    """The smallest positive integers d with d_i C[i][j] = d_j C[j][i], for a
    connected symmetrizable Cartan matrix C."""
    n = len(cartan_matrix)
    d = [Fraction(1)] + [None] * (n - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if cartan_matrix[i][j] and d[j] is None:
                d[j] = d[i] * cartan_matrix[i][j] / cartan_matrix[j][i]
                stack.append(j)
    scale = lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    return tuple(x // gcd(*ints) for x in ints)


def bilinear(system, alpha, beta):
    """Invariant inner product, normalized so (a_i, a_i) = 2 d_i."""
    C = system.cartan.cartan_matrix
    d = symmetrizer(C)
    n = system.rank
    return sum(alpha[i] * beta[j] * d[i] * C[i][j] for i in range(n) for j in range(n))


def coroot_by_form(system, root):
    """Oracle: the coroot coefficients c_i = 2 d_i r_i / (r, r)."""
    norm = bilinear(system, root, root)
    d = symmetrizer(system.cartan.cartan_matrix)
    assert all(2 * d[i] * r % norm == 0 for i, r in enumerate(root))
    return tuple(2 * d[i] * r // norm for i, r in enumerate(root))


# -- type A codes, by which the acceptance tests name cells --------------


def lehmer_code(perm):
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("invalid one-line form")
    return tuple(sum(1 for k in range(i + 1, n) if perm[k] < perm[i]) for i in range(n))


def from_lehmer_code(code):
    n = len(code)
    remaining = list(range(1, n + 1))
    out = []
    for i, c in enumerate(code):
        if not 0 <= c <= n - 1 - i:
            raise ValueError("invalid Lehmer code")
        out.append(remaining.pop(c))
    return tuple(out)


def code_spectrum(perm):
    """Partition re-encoding of the Lehmer code: value i appears code[i] times."""
    return tuple(sorted(i for i, c in enumerate(lehmer_code(perm), start=1) for _ in range(c)))


def from_code_spectrum(spectrum, n):
    """One-line form of the permutation in S_n with the given code spectrum."""
    spectrum = tuple(spectrum)
    if list(spectrum) != sorted(spectrum) or any(not 1 <= b <= n - 1 for b in spectrum):
        raise ValueError("invalid code spectrum")
    code = [0] * n
    for b in spectrum:
        code[b - 1] += 1
    if any(code[i] > n - 1 - i for i in range(n)):
        raise ValueError("invalid code spectrum")
    return from_lehmer_code(code)
