"""Finite reduced root systems from Cartan data, with exact integer arithmetic.

Roots are integer coefficient tuples over the simple basis; simple roots, and
so theta's indices, are 0-based throughout the library.  The answers that need
no Weyl group live here, as do the input checks (`check_rank`, `check_theta`,
`check_size`) and the errors the CLI catches, so `roots`, `orientability`,
`sweep` and `homology --ring z2` compile no other module of the package.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import comb

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

#: the most positive roots a job may close under reflections; it bounds the
#: ranks of A-D, where `roots A 200` (20,100 roots) would run for minutes
MAX_POSITIVE_ROOTS = 2000

RANK_BOUNDS = {  # A-D up to the largest rank within MAX_POSITIVE_ROOTS
    family: (lo, next(n for n in count(lo)
                      if POSITIVE_ROOT_COUNTS[family](n + 1) > MAX_POSITIVE_ROOTS))
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
} | {"E": (6, 8), "F": (4, 4), "G": (2, 2)}


#: the most elements a Weyl group query, or theta rows a sweep, may store
DEFAULT_SIZE_CAP = 10**6


class NotFiniteTypeError(ValueError):
    """Raised when a Cartan matrix does not generate a finite root system."""


class GroupTooLargeError(ValueError):
    """Raised when a query would store more elements than the cap."""


class SignIndeterminateError(ValueError):
    """A homology degree depends on boundary rows with undetermined signs."""


def height(root: Coeffs) -> int:
    """Sum of the simple-basis coefficients."""
    return sum(root)


def negate(root: Coeffs) -> Coeffs:
    return tuple(-c for c in root)


def simple_root(rank: int, i: int) -> Coeffs:
    return tuple(1 if j == i else 0 for j in range(rank))


def check_rank(family: str, rank: int) -> None:
    """Refuse a family outside `RANK_BOUNDS` or a rank outside its bounds."""
    if family not in RANK_BOUNDS:
        raise ValueError(f"unknown family {family!r}")
    lo, hi = RANK_BOUNDS[family]
    if not lo <= rank <= hi:
        raise ValueError(f"rank {rank} out of range for family {family}")


def check_theta(theta: frozenset[int] | set[int], rank: int) -> frozenset[int]:
    """theta as a frozenset, refused unless its indices lie in range(rank)."""
    theta = frozenset(theta)
    if not theta <= set(range(rank)):
        raise ValueError("theta indices out of range")
    return theta


def check_size(size: int, what: str) -> None:
    """Refuse to store ``size`` items (``what`` names them) above `DEFAULT_SIZE_CAP`."""
    if size > DEFAULT_SIZE_CAP:
        raise GroupTooLargeError(f"too large: {size} {what}, more than {DEFAULT_SIZE_CAP}")


class Record:
    """A read-only value: ``__slots__`` names the fields, which ``__init__``
    sets by position; equal to a record of the same type with equal fields."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:
        return type(self), self._fields()  # copy and pickle rebuild by position


class CartanData(Record):
    """A Cartan matrix with the family and rank it is named by.

    ``cartan_matrix[i][j]`` is the pairing of the i-th simple coroot with the
    j-th simple root.
    """

    __slots__ = ("family", "rank", "cartan_matrix")

    def __init__(self, family: str, rank: int, cartan_matrix: tuple[tuple[int, ...], ...]) -> None:
        super().__init__(family, rank, cartan_matrix)
        check_rank(family, rank)
        n, C = rank, cartan_matrix
        if len(C) != n or any(len(row) != n for row in C):
            raise ValueError("Cartan matrix shape mismatch")
        for i in range(n):
            if C[i][i] != 2:
                raise ValueError("diagonal Cartan entries must be 2")
            for j in range(n):
                if i != j and C[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (C[i][j] == 0) != (C[j][i] == 0):
                    raise ValueError("Cartan matrix zero pattern must be symmetric")

    @classmethod
    def for_family(cls, family: str, rank: int) -> "CartanData":
        """Standard Cartan matrix for a classical or exceptional family.

        Type A follows the path ordering a_1 .. a_{n}; F_4 the canonical
        ordering with the long roots first.  B, C, D, E, G use the Bourbaki
        numbering (type B has the short root last, G_2 the short root first).
        """
        family = family.upper()
        check_rank(family, rank)
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
        return cls(family, rank, tuple(tuple(row) for row in C))


class RootSystem(Record):
    """Positive roots, their coroots, per positive root b its pairings
    (<a_0, b^v>, ..., <a_{n-1}, b^v>), and every root's one canonical tuple."""

    __slots__ = ("cartan", "positive_roots", "coroot_coeffs", "coroot_pairings", "roots")

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def family(self) -> str:
        return self.cartan.family

    def is_root(self, root: Coeffs) -> bool:
        """Whether root is a positive root of this system."""
        return root in self.coroot_coeffs

    def killing_number(self, i: int, beta: Coeffs) -> int:
        """Pairing of the i-th simple coroot with an arbitrary vector."""
        C = self.cartan.cartan_matrix
        return sum(C[i][j] * beta[j] for j in range(self.rank))

    def coroot(self, alpha: Coeffs) -> Coeffs:
        """Coefficients of a positive root's coroot over the simple coroots."""
        try:
            return self.coroot_coeffs[alpha]
        except KeyError:
            raise ValueError(f"{alpha} is not a positive root of this system") from None

    def coroot_height(self, alpha: Coeffs) -> int:
        return height(self.coroot(alpha))


def nonzero_rows(matrix: tuple[tuple[int, ...], ...]) -> list[tuple[tuple[int, int], ...]]:
    """Each row i of a Cartan matrix as its nonzero (j, C[i][j]) pairs."""
    return [tuple((j, c) for j, c in enumerate(row) if c) for row in matrix]


def build_root_system(cartan: CartanData) -> RootSystem:
    """Close the simple roots under simple reflections, coroots and pairings alongside.

    Breadth-first closure keeping the positive vectors; a Cartan matrix that
    is not of finite type (a non-symmetrizable one among them) blows past
    the classical positive-root bound and is rejected.  s_i(b) moves b_i only,
    by sum_j C[i][j] b_j over row i's nonzero entries; its coroot
    s_i(b^v) = b^v - <a_i, b^v> a_i^v moves b^v_i only, and its pairings
    <a_j, s_i(b^v)> = <a_j, b^v> - <a_i, b^v> C[i][j] move where row i does.
    """
    n = cartan.rank
    C = cartan.cartan_matrix
    rows = nonzero_rows(C)
    bound = POSITIVE_ROOT_COUNTS[cartan.family](n)

    coroots = {simple_root(n, i): simple_root(n, i) for i in range(n)}
    pairings = {simple_root(n, i): tuple(C[i]) for i in range(n)}
    frontier = list(coroots)
    while frontier:
        new: list[Coeffs] = []
        for root in frontier:
            for i, row in enumerate(rows):
                k = sum(c * root[j] for j, c in row)
                if not k or k > root[i]:  # b > 0, so s_i(b) > 0 iff coordinate i stays >= 0
                    continue
                image = root[:i] + (root[i] - k,) + root[i + 1 :]
                if image not in coroots:
                    dual, pairing = coroots[root], list(pairings[root])
                    dual_k = pairing[i]
                    coroots[image] = dual[:i] + (dual[i] - dual_k,) + dual[i + 1 :]
                    for j, c in row:
                        pairing[j] -= dual_k * c
                    pairings[image] = tuple(pairing)
                    new.append(image)
        if len(coroots) > bound:
            raise NotFiniteTypeError("not finite type")
        frontier = new
    if len(coroots) != bound:
        raise NotFiniteTypeError("not finite type")

    ordered = tuple(sorted(coroots, key=lambda r: (height(r), r)))
    roots = {root: root for root in ordered + tuple(map(negate, ordered))}
    return RootSystem(cartan, ordered, coroots, pairings, roots)


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
    theta = check_theta(theta, system.rank)
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


# -- answers that need no Weyl group ----------------------------------------


class HomologyGroup(Record):
    """Z^free_rank plus the cyclic groups of orders ``torsion``."""

    __slots__ = ("free_rank", "torsion")


def h1_h2_closed_form(n: int, theta: frozenset[int] | set[int]) -> dict[str, HomologyGroup]:
    """Closed-form H_1 and H_2 of the type A_{n-1} partial flag manifold, for
    theta a set of 0-based simple-root indices in range(n-1): {"H1": ...} from
    n = 3 on, with "H2" from n = 4 on, where the formulas hold; {} below."""
    theta = check_theta(theta, n - 1)
    closed = {}
    if n >= 3:
        closed["H1"] = HomologyGroup(0, (2,) * (n - len(theta) - 1))
    if n >= 4:
        runs = sum(1 for i in theta if i - 1 not in theta)  # components of theta
        closed["H2"] = HomologyGroup(0, (2,) * (comb(n - len(theta) - 1, 2) + runs - 1))
    return closed


def orientable_typeA(n: int, theta: frozenset[int] | set[int]) -> bool:
    """Parity criterion on the gaps of the complement positions.

    With complement positions d_1 < ... < d_k (1-based) and sentinels
    d_0 = 0, d_{k+1} = n, the manifold is orientable iff all consecutive
    differences share one parity.
    """
    theta = check_theta(theta, n - 1)
    complement = sorted(i + 1 for i in range(n - 1) if i not in theta)
    ds = [0, *complement, n]
    gaps = [b - a for a, b in zip(ds, ds[1:])]
    return len({g % 2 for g in gaps}) <= 1


def orientable_via_topcell(system: RootSystem, theta: frozenset[int] | set[int]) -> bool:
    """The top cell w_0 w_{0,Theta} of W^Theta has zero boundary iff kappa =
    ht(gamma^v) is odd on each of its covers w_0 s_i w_{0,Theta}, i outside
    Theta (x -> w_0 x w_{0,Theta} reverses the Bruhat order of W^Theta), whose
    gamma_i = w_{0,Theta}(a_i) is the highest root with coefficient 1 at a_i and
    0 at every other simple root outside Theta; no Weyl element is built."""
    theta = check_theta(theta, system.rank)
    top: dict[int, Coeffs] = {}
    for root in system.positive_roots:  # by height, so each gamma_i is kept last
        outside = [(i, c) for i, c in enumerate(root) if c and i not in theta]
        if len(outside) == 1 and outside[0][1] == 1:
            top[outside[0][0]] = root
    return all(system.coroot_height(gamma) % 2 for gamma in top.values())
