"""Cellular chain complexes of partial flag manifolds and their homology.

Cells in degree k are the minimal coset representatives of length k, walked
only up to the requested degree; the boundary entries come from the
coefficient engine.  Rows the low-degree sign table cannot sign are zeroed,
nothing above the first degree with one is built, and `homology_groups`
certifies the degree below it; in type A the table reaches degree 3, hence
H_1 and H_2.  Every entry is 0 or +-2, so mod-2 homology is the length count
of W^Theta, which `rootsys.poincare_mod2` takes from root heights without
building W.  Orientability, read off the top cell's covers, and the type A
closed forms need no Weyl group either and live in `rootsys` with the
`HomologyGroup` record; `poincare_mod2` and `orientable_via_topcell` are
re-exported here, as is `SignIndeterminateError`, which `rootsys` defines so
that the CLI can catch it without loading this module.  `coeffs` and `weyl`
are read as modules at call time.
"""

from __future__ import annotations

from . import coeffs, weyl
from .rootsys import (  # noqa: F401 (re-exported)
    HomologyGroup,
    Record,
    SignIndeterminateError,
    orientable_via_topcell,
    poincare_mod2,
)


class ChainComplex(Record):
    """Cells per degree; boundaries[k] has a row per k-cell and a column per
    (k-1)-cell; indeterminate_rows[k] lists the zeroed rows of degree k.  A
    complex built to degree d has a key in ``cells`` for every degree 0..d, so
    d is len(cells) - 1; the degrees above one with zeroed rows are empty."""

    __slots__ = ("cells", "boundaries", "indeterminate_rows")


def build_complex(
    group: weyl.WeylGroup, theta: frozenset[int] | set[int], max_degree: int
) -> ChainComplex:
    """Assemble integral boundary matrices on W^Theta through the given degree
    in one pass over `WeylGroup.cells_with_covers`, each row as its cell arrives;
    `homology_groups` reads H_0..H_{max_degree-1} off the result.

    A row with a magnitude-2 entry whose sign is undetermined is zeroed whole
    and recorded.  Every boundary row has even entries and lies in the kernel
    of the next boundary map, so a zeroed row of d_k can only remove redundant
    image; `homology_groups` re-verifies that before trusting H_{k-1}, and
    refuses H_k.  Nothing above degree k can then be read, so the pass stops at
    the first cell above it.  Every row of d_{k-1} is thus known when a row of
    d_k is built, and d o d = 0 is checked on each row as it is built.
    """
    cells: dict[int, list[weyl.WeylElement]] = {k: [] for k in range(max_degree + 1)}
    boundaries: dict[int, list[list[int]]] = {k: [] for k in range(1, max_degree + 1)}
    indeterminate: dict[int, list[int]] = {}
    index: dict[tuple, int] = {}  # a cell's matrix to its position within its degree
    for w, pairs in group.cells_with_covers(theta, max_degree):
        k = w.length
        if k - 1 in indeterminate:
            break
        index[w.matrix] = len(cells[k])
        cells[k].append(w)
        if not k:
            continue
        row = [0] * len(cells[k - 1])
        for pair in pairs:
            magnitude, sign = coeffs.coefficient(group, pair)
            if magnitude and sign is None:
                row = [0] * len(row)
                indeterminate.setdefault(k, []).append(index[w.matrix])
                break
            if magnitude:
                row[index[pair.w_prime.matrix]] = sign * magnitude
        # d_{k-1} of this row: the rows of d_{k-1} its nonzero entries pick, scaled, summed
        if k > 1 and any(map(sum, zip(*[[x * y for y in boundaries[k - 1][i]]
                                         for i, x in enumerate(row) if x]))):
            raise AssertionError(f"boundary of boundary is nonzero in degree {k}")
        boundaries[k].append(row)
    return ChainComplex(cells, boundaries, indeterminate)


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Invariant factors (d_1 | d_2 | ...) of an integer matrix; their number
    is its rank.

    Each pass clears the row and column of a smallest nonzero entry p by
    division with remainder; a remainder left is the next, smaller pivot.
    Once p stands alone, a row with an entry p does not divide is added to
    p's row mod p, which leaves a smaller pivot too; failing that, |p| is the
    next factor and its row and column go.  Python ints make growth harmless.
    """
    a = [row[:] for row in matrix]
    factors: list[int] = []
    while entries := [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]:
        _, pi, pj = min(entries)
        pivot_row = a[pi]
        p = pivot_row[pj]
        for i, row in enumerate(a):
            if i != pi and (q := row[pj] // p):
                a[i] = [x - q * y for x, y in zip(row, pivot_row)]
        for j, x in enumerate(pivot_row):
            if j != pj and (q := x // p):
                for row in a:
                    row[j] -= q * row[pj]
        if sum(map(bool, pivot_row)) > 1 or sum(bool(row[pj]) for row in a) > 1:
            continue
        offender = next((row for row in a if any(x % p for x in row)), None)
        if offender is not None:
            a[pi] = [p if j == pj else x % p for j, x in enumerate(offender)]
            continue
        factors.append(abs(p))
        del a[pi]
        for row in a:
            del row[pj]
    return factors


def homology_groups(complex_: ChainComplex) -> list[HomologyGroup]:
    """H_k for k = 0..d-1 of a complex built to degree d, from ranks and
    invariant factors: H_k needs d_{k+1}, so the top degree gives none.

    A boundary matrix with zeroed sign-indeterminate rows is acceptable one
    degree above the last homology answered, provided its image provably
    equals twice the kernel below it; every zeroed row lies in that
    sublattice, so the omission is then harmless.  The proof obligation is
    that the invariant factors of the remaining rows are exactly (2, ..., 2)
    with multiplicity equal to the kernel rank.
    """
    out = []
    rank_k = 0  # rank of d_k, carried over from the degree below
    for k in range(len(complex_.cells) - 1):
        if k in complex_.indeterminate_rows:
            raise SignIndeterminateError(
                f"cannot compute H_{k}: degree {k} has sign-indeterminate rows"
            )
        n_k = len(complex_.cells[k])
        factors_k1 = smith_normal_form(complex_.boundaries[k + 1])
        rank_k1 = len(factors_k1)
        if k + 1 in complex_.indeterminate_rows:
            kernel_rank = n_k - rank_k
            if factors_k1 != [2] * kernel_rank:
                raise SignIndeterminateError(
                    f"cannot certify homology in degree {k}: image of the "
                    "determined boundary rows is not twice the kernel"
                )
        free = n_k - rank_k - rank_k1
        torsion = tuple(f for f in factors_k1 if f > 1)
        out.append(HomologyGroup(free, torsion))
        rank_k = rank_k1
    return out
