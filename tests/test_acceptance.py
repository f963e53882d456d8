"""Acceptance suite.

Each test checks one acceptance criterion end to end and prints a single
pass/fail line (run with -s, or see captured output on failure).
"""

import itertools
import time

from flaghom import (
    build_complex,
    coefficient,
    covers_oracle_typeA,
    h1_h2_closed_form,
    homology_groups,
    kappa_report,
    kappa_via_dual_height_remarks,
    kappa_via_height,
    kappa_via_phi,
    kappa_via_sigma,
    one_line,
    orientable_typeA,
    orientable_via_topcell,
    poincare_mod2,
    root_system,
)

from conftest import cached_group, code_spectrum, from_code_spectrum, from_one_line, lifted_covers


def _verdict(number, name, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def _all_pairs(group, max_length=None):
    for w in group.elements:
        if w.length == 0 or (max_length is not None and w.length > max_length):
            continue
        yield from lifted_covers(group, w, frozenset())


def _subsets(rank):
    for size in range(rank + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(rank), size))


def test_criterion_1_kappa_route_agreement():
    def body():
        start = time.monotonic()
        cases = [
            ("A", 2, None), ("A", 3, None), ("A", 4, None),
            ("B", 2, None), ("B", 3, None), ("C", 3, None),
            ("D", 4, None), ("G", 2, None), ("F", 4, 6),
        ]
        checked = 0
        for family, rank, max_length in cases:
            g = cached_group(family, rank, max_length)
            for pair in _all_pairs(g, max_length):
                kh = kappa_via_height(g, pair)
                assert kh == kappa_via_sigma(g, pair) == kappa_via_phi(g, pair)
                checked += 1
        assert checked > 1000
        assert time.monotonic() - start < 60

    _verdict(1, "kappa agrees across three routes", body)


def test_criterion_2_typeA_kappa_j_minus_i():
    def body():
        start = time.monotonic()
        for n in (3, 4, 5, 6):
            g = cached_group("A", n - 1)
            for pair in _all_pairs(g):
                ij = covers_oracle_typeA(
                    one_line(pair.w.word, n), one_line(pair.w_prime.word, n)
                )
                assert ij is not None
                i, j = ij
                assert kappa_via_height(g, pair) == j - i
        # worked pair in S9, checked through the one-line oracle alone
        w = (1, 3, 7, 5, 8, 2, 9, 4, 6)
        w_prime = (1, 3, 7, 2, 8, 5, 9, 4, 6)
        assert covers_oracle_typeA(w, w_prime) == (4, 6)
        kappa = 6 - 4
        assert abs(1 + (-1) ** kappa) == 2
        assert time.monotonic() - start < 120

    _verdict(2, "type A kappa equals j - i", body)


def test_criterion_3_low_degree_boundary_table():
    def signed_boundary(group, n, spectrum):
        w = from_one_line(group, from_code_spectrum(spectrum, n))
        out = {}
        for pair in lifted_covers(group, w, frozenset()):
            magnitude, sign = coefficient(group, pair)
            if magnitude:
                assert sign is not None
                out[code_spectrum(one_line(pair.w_prime.word, n))] = sign * magnitude
        return out

    def body():
        for n in (4, 5, 6):
            g = cached_group("A", n - 1)
            for i in range(1, n - 1):
                assert signed_boundary(g, n, (i, i)) == {(i,): -2}
                assert signed_boundary(g, n, (i, i + 1)) == {(i + 1,): -2}
            for i in range(1, n - 2):
                for j in range(i + 2, n):
                    assert signed_boundary(g, n, (i, j)) == {}
                    assert signed_boundary(g, n, (i, j - 1, j)) == {(i, j): 2}
                assert signed_boundary(g, n, (i, i + 1, i + 1)) == {
                    (i, i + 1): 2,
                    (i + 1, i + 1): -2,
                }

    _verdict(3, "low-degree boundary table is entry-exact", body)


def test_criterion_4_h1_closed_form():
    def body():
        for n in (3, 4, 5, 6):
            g = cached_group("A", n - 1)
            for theta in _subsets(n - 1):
                c = build_complex(g, theta, 2)
                h1 = homology_groups(c)[1]
                want = h1_h2_closed_form(n, theta)["H1"]
                assert (h1.free_rank, h1.torsion) == (0, want.torsion)

    _verdict(4, "H1 matches the closed form for all theta, n=3..6", body)


def test_criterion_5_h2_closed_form():
    def body():
        for n in (4, 5, 6):
            g = cached_group("A", n - 1)
            for theta in _subsets(n - 1):
                c = build_complex(g, theta, 3)
                h2 = homology_groups(c)[2]
                want = h1_h2_closed_form(n, theta)["H2"]
                assert h2.free_rank == 0
                assert (0, h2.torsion) == (want.free_rank, want.torsion)

    _verdict(5, "H2 matches the closed form for all theta, n=4..6", body)


def test_criterion_6_orientability():
    def body():
        for n in (3, 4, 5, 6, 7, 8, 9):
            system = root_system("A", n - 1)  # the top-cell route needs no Weyl element
            for theta in _subsets(n - 1):
                assert orientable_typeA(n, theta) == orientable_via_topcell(system, theta)
            projective = frozenset(range(1, n - 1))
            assert orientable_typeA(n, projective) == (n % 2 == 0)

    _verdict(6, "orientability criterion matches the top-cell route, n<=9", body)


def test_criterion_7_mod2_structure():
    def body():
        for family, rank in [("A", 3), ("B", 3)]:
            g = cached_group(family, rank)
            full = [0] * (max(w.length for w in g.elements) + 1)
            for w in g.elements:
                full[w.length] += 1
            for theta in _subsets(rank):
                # every entry is 0 or +-2, so all boundaries vanish mod 2
                c = build_complex(g, theta, 3)
                assert all(
                    x % 2 == 0
                    for rows in c.boundaries.values()
                    for row in rows
                    for x in row
                )
                betti = poincare_mod2(g.system, theta)
                # independent oracle: divide the full length generating
                # function by that of the theta subgroup
                subgroup = [0] * len(full)
                for w in g.elements:
                    if all(letter in theta for letter in w.word):
                        subgroup[w.length] += 1
                quotient = _poly_divide(full, subgroup)
                assert betti == quotient

    _verdict(7, "mod-2 boundaries vanish and dims match the length counts", body)


def _poly_divide(numerator, denominator):
    num = list(numerator)
    den = list(denominator)
    while den and den[-1] == 0:
        den.pop()
    out = []
    while num and any(num):
        while num and num[-1] == 0:
            num.pop()
        c = num[0] // den[0]
        out.append(c)
        for i, d in enumerate(den):
            num[i] -= c * d
        assert num[0] == 0
        num.pop(0)
    return out


def test_criterion_8_complex_sanity():
    def body():
        for n in (4, 5, 6):
            g = cached_group("A", n - 1)
            for theta in _subsets(n - 1):
                c = build_complex(g, theta, 3)
                for k in range(2, 4):
                    rows_k = c.boundaries[k]
                    rows_k1 = c.boundaries[k - 1]
                    for row in rows_k:
                        composite = [
                            sum(row[a] * rows_k1[a][b] for a in range(len(row)))
                            for b in range(len(rows_k1[0]) if rows_k1 else 0)
                        ]
                        assert all(x == 0 for x in composite)
                groups = homology_groups(c)
                betti = poincare_mod2(g.system, theta)
                betti += [0] * (3 - len(betti))
                for k in (0, 1, 2):
                    below = len(groups[k - 1].torsion) if k else 0
                    assert betti[k] == (
                        groups[k].free_rank + len(groups[k].torsion) + below
                    )

    _verdict(8, "d o d = 0 and universal coefficients hold in low degrees", body)


def test_criterion_9_duality_routes():
    def body():
        for n in (2, 3):
            b, c = root_system("B", n), root_system("C", n)
            assert {b.coroot(r) for r in b.positive_roots} == set(c.positive_roots)
            assert {c.coroot(r) for r in c.positive_roots} == set(b.positive_roots)
        for family, rank, max_length in [("G", 2, None), ("F", 4, 4)]:
            g = cached_group(family, rank, max_length)
            for pair in _all_pairs(g, max_length):
                assert kappa_via_dual_height_remarks(g, pair) == kappa_via_height(
                    g, pair
                )

    _verdict(9, "duality remarks agree with the coroot-height route", body)


def test_report_routes_stay_consistent():
    # small spot check that the full report object is self-consistent
    g = cached_group("A", 3)
    for pair in _all_pairs(g, max_length=3):
        rep = kappa_report(g, pair)
        assert rep.kappa_height == rep.kappa_sigma == rep.kappa_phi == rep.kappa_typeA
