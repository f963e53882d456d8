"""Weyl group elements, reduced words, Bruhat covers and coset representatives.

Elements are identified by their action on the simple-root coordinates: the
``matrix`` field holds the images of the simple roots as columns, a faithful
finite representation.  These columns, those of ``inverse_matrix`` and each
cover's beta and gamma are the root system's own tuples from ``roots``, so a
group stores each root vector once.  Words are canonical (lexicographically
smallest reduced): the word of w is its smallest left descent j followed by
the word of s_j*w, which is one length lower, so each word costs one lookup.
Each element keeps that s_j*w as its ``tail`` (so following ``tail`` I times
gives the element whose word is ``word[I:]``) and the sum ``phi`` of its
inversion set, phi(w) = a_j + s_j(phi(s_j*w)), which moves one coordinate.
`WeylElement` and `CoveringPair` are `rootsys.Record`s, read-only
``__slots__`` records built by position; an element is equal to another, and
hashes, by its matrix alone.

A `WeylGroup` starts from e and builds the elements a query reads by this
rule, memoised in one dict ``by_matrix``.  W^Theta up to a length, the cells
of F_Theta, is one walk up the left weak order, whose steps stay in W^Theta
by Deodhar's lemma; it takes the step s_j*u only when j is the new element's
smallest left descent, so it makes each element once, from its tail.
Macdonald's count (`rootsys.poincare_mod2`) refuses a walk above the size
cap (`rootsys.check_size`) before it builds anything and must equal its level
sizes after; `_step` checks the cap as it stores each element too.  A root is
positive iff the root system's table of positive roots holds it.

The Bruhat covers of w = s_j*u, u its ``tail``, are lifted from u's: deleting
letter 1 gives u, and letter I + 1 gives s_j*v for each cover v of u at letter
I that a height read off the coroot pairings shows reduced.  `cells_with_covers`
walks W^Theta once, lifting each cell's covers from the level below.  A cover
outside W^Theta is dropped; every other w' is looked up in the memo, never built.

Type A one-line forms name cells in the CLI's output and feed the one-line
cover oracle `covers_oracle_typeA`, the fourth kappa route.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import groupby

from .rootsys import (
    Coeffs,
    Record,
    RootSystem,
    check_size,
    check_theta,
    nonzero_rows,
    poincare_mod2,
    simple_root,
)

Matrix = tuple[Coeffs, ...]  # columns: images of the simple roots


class WeylElement(Record):
    """word, matrix, inverse_matrix, tail (the element with word[1:]; None
    for e) and phi (the sum of the inversion set); equal by matrix alone."""

    __slots__ = ("word", "matrix", "inverse_matrix", "tail", "phi")

    @property
    def length(self) -> int:
        return len(self.word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)


def _named(w: WeylElement | None) -> str:
    """w's canonical word, 1-based, as the CLI prints it; "?" for None."""
    return "?" if w is None else str([i + 1 for i in w.word])


class CoveringPair(Record):
    """w covers w_prime, with the deleted 1-based position I in w's
    canonical word and the two reflection roots: w = s_beta * w' = w' * s_gamma.
    ``w_prime`` is the stored element, or None when no walk has built it."""

    __slots__ = ("w", "w_prime", "deleted_index", "beta", "gamma")

    def __str__(self) -> str:
        """The pair as the CLI names it: 1-based words and I."""
        return f"w={_named(self.w)} w'={_named(self.w_prime)} I={self.deleted_index}"


class WeylGroup:
    """Weyl group of a root system.  It holds e alone at first; the elements
    that queries read are built on demand and memoised in ``by_matrix``."""

    def __init__(self, system: RootSystem):
        self.system = system
        n = system.rank
        # support of row i of C: the columns that w*s_i changes, and the
        # coordinates that the pairing with a_i's coroot reads
        self._moved = nonzero_rows(system.cartan.cartan_matrix)
        matrix: Matrix = tuple(system.roots[simple_root(n, i)] for i in range(n))
        self.identity = WeylElement((), matrix, matrix, None, (0,) * n)
        self.by_matrix: dict[Matrix, WeylElement] = {matrix: self.identity}

    @property
    def elements(self):
        """Every element built so far: a read-only view of the memo."""
        return self.by_matrix.values()

    # -- construction -----------------------------------------------------

    def _right_mult(self, matrix: Matrix, i: int) -> Matrix:
        """Matrix of w*s_i: column j becomes col_j - C[i][j]*col_i, so only
        column i and its diagram neighbours move, each to the system's own root."""
        cols = list(matrix)
        ci = matrix[i]
        for j, c in self._moved[i]:
            cols[j] = self.system.roots[tuple(a - c * b for a, b in zip(matrix[j], ci))]
        return tuple(cols)

    def _left_mult(self, i: int, matrix: Matrix) -> Matrix:
        """Matrix of s_i*w: reflect every column, which moves its entry i by its
        pairing with a_i's coroot; a column that moves becomes the system's root."""
        moved, roots = self._moved[i], self.system.roots
        return tuple(
            roots[col[:i] + (col[i] - k,) + col[i + 1 :]]
            if (k := sum(c * col[j] for j, c in moved)) else col
            for col in matrix
        )

    def _step(self, i: int, tail: WeylElement, inverse: Matrix) -> WeylElement:
        """s_i*tail, memoised, for i its smallest left descent and ``inverse``
        its inverse matrix: its canonical word is i followed by tail's, and
        phi(s_i*tail) = a_i + s_i(phi(tail)) moves coordinate i only."""
        matrix = self._left_mult(i, tail.matrix)
        if (w := self.by_matrix.get(matrix)) is None:
            phi = tail.phi
            phi_i = phi[i] + 1 - sum(c * phi[k] for k, c in self._moved[i])
            w = WeylElement((i,) + tail.word, matrix, inverse, tail,
                            phi[:i] + (phi_i,) + phi[i + 1 :])
            self.by_matrix[matrix] = w
            check_size(len(self.by_matrix), "elements")
        return w

    # -- queries ----------------------------------------------------------

    def bruhat_covers(
        self, w: WeylElement, theta: frozenset[int] | set[int], below: list[CoveringPair]
    ) -> list[CoveringPair]:
        """The covering pairs under w whose w' lies in W^Theta, with their unique
        deleted positions I, lifted from ``below``, this method's pairs for
        u = ``w.tail`` and theta ([] for e).  For w = s_j*u, I = 1 gives w' = u,
        gamma = u^{-1}(a_j) and beta = a_j; a pair (u, v, I) of ``below`` gives
        s_j*v at I + 1, reduced iff s_gamma'(gamma) > 0 for its gamma', i.e. iff
        ht gamma > <gamma, gamma'^v> ht gamma', and then it keeps gamma' and has
        beta = s_j(beta').  A w' in W^Theta has its v there too (Deodhar's
        lemma); a w' outside is dropped, the others are looked up in
        ``by_matrix``, never built (None if absent)."""
        if w.tail is None:
            return []
        j, roots, pairings = w.word[0], self.system.roots, self.system.coroot_pairings
        positive = self.system.coroot_coeffs
        gamma_1 = w.tail.inverse_matrix[j]
        candidates = [(1, self.identity.matrix[j], gamma_1)]
        for p in below:
            if sum(gamma_1) > sum(x * c for x, c in zip(gamma_1, pairings[p.gamma])) * sum(p.gamma):
                b = p.beta  # s_j(b) moves entry j by b's pairing with a_j's coroot
                b_j = b[j] - sum(c * b[i] for i, c in self._moved[j])
                candidates.append((p.deleted_index + 1, b[:j] + (b_j,) + b[j + 1 :], p.gamma))
        seen: set[Matrix] = set()
        found: list[CoveringPair] = []
        for index, beta, gamma in candidates:
            try:  # a vector that is not a root: s_gamma does not act as a reflection
                beta = roots[beta]
                if beta not in positive:
                    raise AssertionError(f"beta of a reduced deletion is not positive "
                                         f"on w={_named(w)} I={index}")
                # w'(a_k) = w(a_k - <a_k, gamma^v> gamma) = w(a_k) + <a_k, gamma^v> beta
                matrix = tuple(roots[tuple(a + c * b for a, b in zip(col, beta))] if c else col
                               for col, c in zip(w.matrix, pairings[gamma]))
                if matrix in seen:
                    raise AssertionError(f"deleted position is not unique "
                                         f"on w={_named(w)} I={index}")
                seen.add(matrix)
                if not all(matrix[k] in positive for k in theta):
                    continue  # w' is in W^Theta iff it keeps Theta's simple roots positive
            except KeyError:
                raise AssertionError(f"w' is not in W on w={_named(w)} I={index}") from None
            found.append(CoveringPair(w, self.by_matrix.get(matrix), index, beta, gamma))
        return found

    def cells_with_covers(
        self, theta: frozenset[int] | set[int], max_length: int | None
    ) -> Iterator[tuple[WeylElement, list[CoveringPair]]]:
        """Each cell of W^Theta up to max_length (all when None) in (length, word)
        order, with its `bruhat_covers` lifted from the level below, the one kept."""
        reps, below = self.minimal_representatives(theta, max_length), {}
        for _, level in groupby(reps, lambda w: w.length):
            below = {w: self.bruhat_covers(w, theta, below.get(w.tail, [])) for w in level}
            yield from below.items()

    def minimal_representatives(
        self, theta: frozenset[int] | set[int], max_length: int | None = None
    ) -> list[WeylElement]:
        """W^Theta up to max_length (all of it when None), in (length, word) order.

        W^Theta is an order ideal of the left weak order, walked up level by
        level from e by the steps `_steps_up` allows.  A step s_i*v is taken
        only when i is its smallest left descent, so v is its tail and each
        element is made once, from its canonical tail.  The columns k < i of
        v^{-1} that s_i keeps (C[i][k] = 0) refuse most other steps before the
        product v^{-1}*s_i is built.  Taking i in ascending
        order and v in the previous level's order makes each level in word
        order.  Macdonald's count refuses a walk above the size cap before
        anything is built, and must equal the size of every level the walk finds.
        """
        theta = check_theta(theta, self.system.rank)
        if max_length is not None and max_length < 0:
            raise ValueError("max_length must be >= 0")
        counts = poincare_mod2(self.system, theta)[: None if max_length is None else max_length + 1]
        check_size(sum(counts), "elements")
        positive, rank = self.system.coroot_coeffs, self.system.rank
        # columns k < i of v^{-1}*s_i: v^{-1}'s own where C[i][k] = 0 (kept), else moved
        moved = [[k for k, _ in self._moved[i] if k < i] for i in range(rank)]
        kept = [[k for k in range(i) if k not in moved[i]] for i in range(rank)]
        levels = [[self.identity]]
        while max_length is None or len(levels) <= max_length:
            level = []
            for i in range(rank):
                for v in levels[-1]:
                    # the inverse of s_i*v is v^{-1}*s_i; column k is negative
                    # iff k is a left descent of s_i*v, and i must be the smallest
                    if (self._steps_up(v.matrix, v.inverse_matrix, i, theta)
                            and all(v.inverse_matrix[k] in positive for k in kept[i])):
                        inverse = self._right_mult(v.inverse_matrix, i)
                        if all(inverse[k] in positive for k in moved[i]):
                            level.append(self._step(i, v, inverse))
            if not level:
                break
            levels.append(level)
        if (sizes := [len(level) for level in levels]) != counts:
            raise AssertionError(f"walk of W^Theta finds {sizes} elements by length, "
                                 f"Macdonald's count {counts}")
        return [w for level in levels for w in level]

    def _steps_up(self, matrix: Matrix, inverse: Matrix, i: int, theta: frozenset[int]) -> bool:
        """For w in W^Theta: is s_i*w one longer and in W^Theta?  It is longer
        iff w^{-1}(a_i) > 0, and it then leaves W^Theta iff w sends some simple
        root of Theta to a_i (Deodhar's lemma)."""
        a_i = self.identity.matrix[i]
        return inverse[i] in self.system.coroot_coeffs and all(matrix[k] != a_i for k in theta)


# -- type A one-line combinatorics ---------------------------------------


def one_line(word: tuple[int, ...] | list[int], n: int) -> tuple[int, ...]:
    """One-line form in S_n of the type A_{n-1} element with this word:
    each letter i, read left to right, swaps the positions i+1 and i+2."""
    perm = list(range(1, n + 1))
    for i in word:
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def covers_oracle_typeA(
    w_one_line: tuple[int, ...], w_prime_one_line: tuple[int, ...]
) -> tuple[int, int] | None:
    """Transposition positions (i, j), 1-based, when w covers w' in S_n.

    Returns None unless w = w'*(i,j) with w'(i) < w'(j) and no intermediate
    value at a position strictly between i and j.
    """
    w, wp = tuple(w_one_line), tuple(w_prime_one_line)
    n = len(w)
    for p in (w, wp):
        if sorted(p) != list(range(1, n + 1)):
            raise ValueError("invalid one-line form")
    diff = [k for k in range(n) if w[k] != wp[k]]
    if len(diff) != 2:
        return None
    i, j = diff
    if w[i] != wp[j] or w[j] != wp[i] or not wp[i] < wp[j]:
        return None
    if any(wp[i] < wp[k] < wp[j] for k in range(i + 1, j)):
        return None
    return (i + 1, j + 1)
