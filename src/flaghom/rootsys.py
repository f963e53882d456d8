"""Finite reduced root systems from Cartan data, with exact integer arithmetic.

Roots are plain integer coefficient tuples over the simple basis.  Simple
roots are indexed 0..rank-1 throughout the library; positions inside words
and sequences are 1-based where the underlying formulas are (see `p_sum`).
Each positive root b carries its coroot and the row <a_j, b^v> of its pairings
with the simple roots, both tabulated once when the system is built.
`poincare_mod2` counts W^Theta by length from the root heights alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

Coeffs = tuple[int, ...]

#: classical number of positive roots per family, as a function of the rank
POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class NotFiniteTypeError(ValueError):
    """Raised when a Cartan matrix does not generate a finite root system."""


def height(root: Coeffs) -> int:
    """Sum of the simple-basis coefficients."""
    return sum(root)


def is_positive(root: Coeffs) -> bool:
    return any(c > 0 for c in root) and all(c >= 0 for c in root)


def is_negative(root: Coeffs) -> bool:
    return any(c < 0 for c in root) and all(c <= 0 for c in root)


def negate(root: Coeffs) -> Coeffs:
    return tuple(-c for c in root)


def simple_root(rank: int, i: int) -> Coeffs:
    return tuple(1 if j == i else 0 for j in range(rank))


@dataclass(frozen=True)
class CartanData:
    """A Cartan matrix of finite type together with its minimal symmetrizer.

    ``cartan_matrix[i][j]`` is the pairing of the i-th simple coroot with the
    j-th simple root.  ``symmetrizer`` holds the smallest positive integers
    d_i such that d_i * C[i][j] is symmetric; d_i plays the role of half the
    squared length of the i-th simple root, which keeps every coroot
    coefficient an exact integer.
    """

    family: str
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.rank
        if self.family not in RANK_BOUNDS:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = RANK_BOUNDS[self.family]
        if n < lo or (hi is not None and n > hi):
            raise ValueError(f"rank {n} out of range for family {self.family}")
        C = self.cartan_matrix
        d = self.symmetrizer
        if len(C) != n or any(len(row) != n for row in C) or len(d) != n:
            raise ValueError("Cartan matrix / symmetrizer shape mismatch")
        for i in range(n):
            if C[i][i] != 2:
                raise ValueError("diagonal Cartan entries must be 2")
            if d[i] <= 0:
                raise ValueError("symmetrizer entries must be positive")
            for j in range(n):
                if i != j and C[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (C[i][j] == 0) != (C[j][i] == 0):
                    raise ValueError("Cartan matrix zero pattern must be symmetric")
                if d[i] * C[i][j] != d[j] * C[j][i]:
                    raise ValueError("symmetrizer does not symmetrize the Cartan matrix")

    @classmethod
    def for_family(cls, family: str, rank: int) -> "CartanData":
        """Standard Cartan matrix for a classical or exceptional family.

        Type A follows the path ordering a_1 .. a_{n}; F_4 the canonical
        ordering with the long roots first.  B, C, D, E, G use the Bourbaki
        numbering (type B has the short root last, G_2 the short root first).
        """
        family = family.upper()
        C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

        def join(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
            C[i][j] = cij
            C[j][i] = cji

        if family in ("A", "B", "C", "F"):
            for i in range(rank - 1):
                join(i, i + 1)
            if family == "B":
                join(rank - 2, rank - 1, -1, -2)
            elif family == "C":
                join(rank - 2, rank - 1, -2, -1)
            elif family == "F":
                join(1, 2, -1, -2)
        elif family == "D":
            for i in range(rank - 2):
                join(i, i + 1)
            join(rank - 3, rank - 1)
        elif family == "E":
            # node 1 (0-based index 1) hangs off node 3 (index 3)
            join(0, 2)
            join(1, 3)
            for i in range(2, rank - 1):
                join(i, i + 1)
        elif family == "G":
            join(0, 1, -3, -1)
        else:
            raise ValueError(f"unknown family {family!r}")
        matrix = tuple(tuple(row) for row in C)
        return cls(family, rank, matrix, _minimal_symmetrizer(matrix))

    def bilinear(self, alpha: Coeffs, beta: Coeffs) -> int:
        """Invariant inner product, normalized so (a_i, a_i) = 2*d_i."""
        C, d = self.cartan_matrix, self.symmetrizer
        return sum(
            alpha[i] * beta[j] * d[i] * C[i][j]
            for i in range(self.rank)
            for j in range(self.rank)
        )


def _minimal_symmetrizer(C: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Smallest positive integers d with d_i*C[i][j] symmetric (connected
    components handled independently)."""
    n = len(C)
    d: list[int | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = 1
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i != j and C[i][j] != 0 and d[j] is None:
                    # d_j / d_i = C[i][j] / C[j][i]
                    num = d[i] * C[i][j]
                    den = C[j][i]
                    if num % den:
                        # scale the whole component to stay integral
                        scale = abs(den) // gcd(abs(num), abs(den))
                        for k in range(n):
                            if d[k] is not None:
                                d[k] *= scale
                        num = d[i] * C[i][j]
                    d[j] = num // den
                    queue.append(j)
    g = gcd(*[x for x in d if x is not None]) if n else 1
    return tuple(x // g for x in d)  # type: ignore[union-attr]


@dataclass(frozen=True)
class RootSystem:
    """Table of positive roots, their coroot coefficients and, per positive
    root b, its pairings (<a_0, b^v>, ..., <a_{n-1}, b^v>)."""

    cartan: CartanData
    positive_roots: tuple[Coeffs, ...]
    coroot_coeffs: dict[Coeffs, Coeffs] = field(repr=False)
    coroot_pairings: dict[Coeffs, Coeffs] = field(repr=False)

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def family(self) -> str:
        return self.cartan.family

    def simple(self, i: int) -> Coeffs:
        return simple_root(self.rank, i)

    def is_root(self, root: Coeffs) -> bool:
        return root in self.coroot_coeffs or negate(root) in self.coroot_coeffs

    def killing_number(self, i: int, beta: Coeffs) -> int:
        """Pairing of the i-th simple coroot with an arbitrary vector."""
        C = self.cartan.cartan_matrix
        return sum(C[i][j] * beta[j] for j in range(self.rank))

    def reflect(self, i: int, beta: Coeffs) -> Coeffs:
        """Simple reflection s_i applied to beta."""
        k = self.killing_number(i, beta)
        return tuple(b - k if j == i else b for j, b in enumerate(beta))

    def coroot(self, alpha: Coeffs) -> Coeffs:
        """Coefficient vector of the coroot over the dual simple basis."""
        if is_negative(alpha):
            return negate(self.coroot(negate(alpha)))
        try:
            return self.coroot_coeffs[alpha]
        except KeyError:
            raise ValueError(f"{alpha} is not a root of this system") from None

    def coroot_height(self, alpha: Coeffs) -> int:
        return height(self.coroot(alpha))

    def p_sum(self, sequence: list[int], x: int, y: int, l: int) -> int:
        """Alternating-product sum P^l_{x,y} over an ordered sequence of
        simple-root indices.  x and y are 1-based positions in the sequence.
        """
        m = len(sequence)
        if not (1 <= x < y <= m) or not (0 <= l < y - x):
            raise ValueError("invalid P-sum indices")
        C = self.cartan.cartan_matrix
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

    def conjugated_root(self, sequence: list[int]) -> Coeffs:
        """s_1 ... s_{m-1}(d_m) by the closed alternating P-sum formula."""
        m = len(sequence)
        if m < 1:
            raise ValueError("sequence must be nonempty")
        result = [0] * self.rank
        result[sequence[-1]] += 1
        for i in range(1, m):
            coeff = sum(
                (-1) ** (l - 1) * self.p_sum(sequence, i, m, l)
                for l in range(m - i)
            )
            result[sequence[i - 1]] += coeff
        return tuple(result)


def build_root_system(cartan: CartanData) -> RootSystem:
    """Close the simple roots under simple reflections.

    Breadth-first closure keeping the all-nonnegative vectors; a Cartan
    matrix that is not of finite type blows past the classical positive-root
    bound and is rejected.
    """
    n = cartan.rank
    C = cartan.cartan_matrix
    bound = POSITIVE_ROOT_COUNTS[cartan.family](n)

    positives = {simple_root(n, i) for i in range(n)}
    frontier = list(positives)
    while frontier:
        new: list[Coeffs] = []
        for root in frontier:
            for i in range(n):
                k = sum(C[i][j] * root[j] for j in range(n))
                image = tuple(
                    c - k if j == i else c for j, c in enumerate(root)
                )
                if is_positive(image) and image not in positives:
                    positives.add(image)
                    new.append(image)
        if len(positives) > bound:
            raise NotFiniteTypeError("not finite type")
        frontier = new
    if len(positives) != bound:
        raise NotFiniteTypeError("not finite type")

    ordered = tuple(sorted(positives, key=lambda r: (height(r), r)))
    coroots: dict[Coeffs, Coeffs] = {}
    pairings: dict[Coeffs, Coeffs] = {}
    nonzero = [(i, j, C[i][j]) for i in range(n) for j in range(n) if C[i][j]]
    d = cartan.symmetrizer
    for root in ordered:
        norm = cartan.bilinear(root, root)
        dual = []
        for i in range(n):
            num = root[i] * 2 * d[i]
            if num % norm:
                raise AssertionError("coroot coefficient is not integral")
            dual.append(num // norm)
        coroots[root] = tuple(dual)
        pairing = [0] * n  # <a_j, root^v> = sum_i dual_i C[i][j]
        for i, j, c in nonzero:
            pairing[j] += dual[i] * c
        pairings[root] = tuple(pairing)
    return RootSystem(cartan, ordered, coroots, pairings)


@lru_cache(maxsize=None)
def root_system(family: str, rank: int) -> RootSystem:
    """Convenience constructor from (family, rank), built once per process."""
    return build_root_system(CartanData.for_family(family, rank))


def poincare_mod2(system: RootSystem, theta: frozenset[int] | set[int]) -> list[int]:
    """Number of elements of W^Theta of each length, which is also the mod-2
    Poincare polynomial of F_Theta: every boundary entry is 0 or +-2.

    Macdonald's product W^Theta(q) = prod [ht b + 1]_q / [ht b]_q over the
    positive roots b outside Theta's subsystem, telescoped by height into one
    net power of each [k]_q and divided exactly.
    """
    theta = frozenset(theta)
    by_height = [0] * (len(system.positive_roots) + 2)
    for root in system.positive_roots:
        if any(c for i, c in enumerate(root) if i not in theta):
            by_height[height(root)] += 1
    # roots of height k-1 put [k]_q above the line, roots of height k below
    net = {k: by_height[k - 1] - by_height[k] for k in range(2, len(by_height))}
    num = _product_of_q_integers(k for k, e in net.items() for _ in range(e))
    den = _product_of_q_integers(k for k, e in net.items() for _ in range(-e))
    # den has constant term 1: long division from the low degree up
    quotient: list[int] = []
    for i in range(len(num) - len(den) + 1):
        quotient.append(num[i])
        for j, d in enumerate(den):
            num[i + j] -= quotient[i] * d
    if any(num):
        raise AssertionError("Macdonald product does not divide exactly")
    return quotient


def _product_of_q_integers(ks) -> list[int]:
    """Coefficients of the product of [k]_q = 1 + q + ... + q^(k-1) over ks."""
    poly = [1]
    for k in ks:
        poly = [sum(poly[max(0, i - k + 1) : i + 1]) for i in range(len(poly) + k - 1)]
    return poly
