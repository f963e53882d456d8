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

Each product is a table lookup per column (Casselman): a group keeps one
`Reflection` table per positive root b, built from b's coroot pairings, each
entry made on its first lookup; s_i is s_{a_i}, since a_i's pairings are row i
of the Cartan matrix.  s_i*w reflects w's columns by s_i, and w*s_i =
s_gamma*w, gamma = +-w(a_i), by s_gamma.

The Bruhat covers of w = s_j*u, u its ``tail``, are lifted from u's: deleting
letter 1 gives u, and letter I + 1 gives s_j*v for each cover v of u at letter
I whose gamma' keeps u^{-1}(a_j) positive.  `cells_with_covers` walks W^Theta
once, lifting each cell's covers from the level below.  A cover outside W^Theta
is dropped; every other w' is looked up in the memo, never built.

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
    negate,
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


class Reflection(dict):
    """The reflection x -> x - <x, b^v> b as a table from each root to the
    system's own tuple of its image, ``pairing`` listing the <a_k, b^v>.  An
    entry is made on its first lookup, so a walk of high rank that touches few
    roots does not fill every table.  KeyError for an image that is not a root."""

    __slots__ = ("roots", "root", "pairing")

    def __init__(self, roots: dict[Coeffs, Coeffs], root: Coeffs, pairing: Coeffs):
        super().__init__()
        self.roots, self.root, self.pairing = roots, root, pairing

    def __missing__(self, x: Coeffs) -> Coeffs:
        if k := sum(p * c for p, c in zip(self.pairing, x)):
            image = self.roots[tuple(c - k * r for c, r in zip(x, self.root))]
        else:
            image = self.roots[x]
        self[x] = image
        return image


class WeylGroup:
    """Weyl group of a root system.  It holds e alone at first; the elements
    that queries read are built on demand and memoised in ``by_matrix``, and
    ``reflections`` keeps the tables that their products look up."""

    def __init__(self, system: RootSystem):
        self.system = system
        n = system.rank
        # support of row i of C: the columns that w*s_i changes, and the
        # coordinates that the pairing with a_i's coroot reads
        self._moved = nonzero_rows(system.cartan.cartan_matrix)
        matrix: Matrix = tuple(system.roots[simple_root(n, i)] for i in range(n))
        self.identity = WeylElement((), matrix, matrix, None, (0,) * n)
        self.by_matrix: dict[Matrix, WeylElement] = {matrix: self.identity}
        # s_b from b's coroot pairings, keyed by b and -b; s_i is s_{a_i}, keyed by i too
        roots, self.reflections = system.roots, {}
        for b, pairing in system.coroot_pairings.items():
            self.reflections[b] = self.reflections[roots[negate(b)]] = Reflection(roots, b, pairing)
        self.reflections.update({i: self.reflections[a] for i, a in enumerate(matrix)})

    @property
    def elements(self):
        """Every element built so far: a read-only view of the memo."""
        return self.by_matrix.values()

    # -- construction -----------------------------------------------------

    def _right_mult(self, matrix: Matrix, i: int) -> Matrix:
        """Matrix of w*s_i = s_gamma*w, gamma = +-w(a_i) (s_-gamma = s_gamma):
        s_gamma's table applied to every column.  For w = v^{-1} it gives the
        inverse of s_i*v.  KeyError for a column that is not a root."""
        s = self.reflections[matrix[i]]
        return tuple([s[col] for col in matrix])

    def _left_mult(self, i: int, matrix: Matrix) -> Matrix:
        """Matrix of s_i*w: the table of s_i = s_{a_i} applied to every column.
        KeyError for a column that is not a root."""
        s = self.reflections[i]
        return tuple([s[col] for col in matrix])

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
        s_j*v at I + 1, reduced iff s_gamma'(gamma) > 0 for its gamma', and then
        it keeps gamma' and has beta = s_j(beta').  w' = s_beta*w, and a stored
        w' must have the inverse s_gamma*w^{-1}; each reflection is a table
        lookup.  A w' in W^Theta has its v there too (Deodhar's lemma); a w'
        outside is dropped, the others are looked up in ``by_matrix``, never
        built (None if absent).  `check_theta` refuses a theta out of range."""
        theta = check_theta(theta, self.system.rank)
        if w.tail is None:
            return []
        j, positive, reflections = w.word[0], self.system.coroot_coeffs, self.reflections
        s_j, gamma_1 = reflections[j], w.tail.inverse_matrix[j]
        seen: set[Matrix] = set()
        found: list[CoveringPair] = []
        for index, beta, gamma in [(1, self.identity.matrix[j], gamma_1)] + [
                (p.deleted_index + 1, p.beta, p.gamma) for p in below]:
            try:  # a table entry that is not a root: s_beta or s_gamma is no reflection
                if index > 1:
                    if reflections[gamma][gamma_1] not in positive:
                        continue  # deleting the letter leaves a word that is not reduced
                    beta = s_j[beta]
                if beta not in positive:
                    raise AssertionError(f"beta of a reduced deletion is not positive "
                                         f"on w={_named(w)} I={index}")
                s = reflections[beta]
                matrix = tuple([s[col] for col in w.matrix])
                if matrix in seen:
                    raise AssertionError(f"deleted position is not unique "
                                         f"on w={_named(w)} I={index}")
                seen.add(matrix)
                if not all(matrix[k] in positive for k in theta):
                    continue  # w' is in W^Theta iff it keeps Theta's simple roots positive
                if (w_prime := self.by_matrix.get(matrix)) is not None:
                    s = reflections[gamma]
                    if w_prime.inverse_matrix != tuple([s[col] for col in w.inverse_matrix]):
                        raise AssertionError(f"w' = s_beta*w is not w*s_gamma "
                                             f"on w={_named(w)} I={index}")
            except KeyError:
                raise AssertionError(f"w' is not in W on w={_named(w)} I={index}") from None
            found.append(CoveringPair(w, w_prime, index, beta, gamma))
        return found

    def cells_with_covers(
        self, theta: frozenset[int] | set[int], max_length: int | None
    ) -> Iterator[tuple[WeylElement, list[CoveringPair]]]:
        """Each cell of W^Theta up to max_length (all when None) in (length, word)
        order, with its `bruhat_covers` lifted from the level below, the one kept."""
        theta = check_theta(theta, self.system.rank)
        reps, below = self.minimal_representatives(theta, max_length), {}
        for _, level in groupby(reps, lambda w: w.length):
            below = {w: self.bruhat_covers(w, theta, below.get(w.tail, [])) for w in level}
            yield from below.items()

    def minimal_representatives(
        self, theta: frozenset[int] | set[int], max_length: int | None = None
    ) -> list[WeylElement]:
        """W^Theta up to max_length (all of it when None), in (length, word) order.

        W^Theta is an order ideal of the left weak order, walked up level by level
        from e by the steps `_steps_up` allows.  A step s_i*v is taken only when i
        is its smallest left descent, so v is its tail and each element is made
        once, from its canonical tail.  Column k < i of its inverse v^{-1}*s_i is
        v^{-1}'s own where C[i][k] = 0, else read in s_gamma's table, gamma =
        v^{-1}(a_i), so the product is built once per element.  Taking i in
        ascending order and v in the previous level's order makes each level in word
        order.  Macdonald's count refuses a walk above the size cap before anything
        is built, and must equal the size of every level the walk finds.
        """
        theta = check_theta(theta, self.system.rank)
        if max_length is not None and max_length < 0:
            raise ValueError("max_length must be >= 0")
        counts = poincare_mod2(self.system, theta)[: None if max_length is None else max_length + 1]
        check_size(sum(counts), "elements")
        positive, rank, reflections = self.system.coroot_coeffs, self.system.rank, self.reflections
        theta_roots = {self.identity.matrix[k] for k in theta}
        # columns k < i of v^{-1}*s_i: v^{-1}'s own where C[i][k] = 0 (kept), else moved
        moved = [[k for k, _ in self._moved[i] if k < i] for i in range(rank)]
        kept = [[k for k in range(i) if k not in moved[i]] for i in range(rank)]
        levels = [[self.identity]]
        while max_length is None or len(levels) <= max_length:
            level = []
            for i in range(rank):
                for v in levels[-1]:
                    # i is s_i*v's least left descent iff columns k < i of v^{-1}*s_i are > 0
                    inverse = v.inverse_matrix
                    if (self._steps_up(inverse, i, theta_roots)
                            and all(inverse[k] in positive for k in kept[i])):
                        s = reflections[inverse[i]]
                        if all(s[inverse[k]] in positive for k in moved[i]):
                            level.append(self._step(i, v, self._right_mult(inverse, i)))
            if not level:
                break
            levels.append(level)
        if (sizes := [len(level) for level in levels]) != counts:
            raise AssertionError(f"walk of W^Theta finds {sizes} elements by length, "
                                 f"Macdonald's count {counts}")
        return [w for level in levels for w in level]

    def _steps_up(self, inverse: Matrix, i: int, theta_roots: set[Coeffs]) -> bool:
        """For w in W^Theta, ``inverse`` its inverse: is s_i*w one longer and in
        W^Theta?  It is longer iff w^{-1}(a_i) > 0, and it then leaves W^Theta
        iff w(a_k) = a_i, that is w^{-1}(a_i) = a_k, for a_k in ``theta_roots``,
        the simple roots of Theta (Deodhar's lemma)."""
        return inverse[i] in self.system.coroot_coeffs and inverse[i] not in theta_roots


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
