import itertools
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from flaghom import (
    WeylGroup,
    build_complex,
    coeffs,
    h1_h2_closed_form,
    homology_groups,
    orientable_typeA,
    orientable_via_topcell,
    poincare_mod2,
    smith_normal_form,
)
from flaghom.homology import SignIndeterminateError
from flaghom.rootsys import root_system

from conftest import (
    ORACLE_GROUPS,
    WEYL_GROUP_ORDERS,
    cached_group,
    descent_chain,
    direct_covers,
    lifted_covers,
    orientable_by_root_sum,
    poincare_by_scan,
    top_cell,
)


def subsets(rank):
    for size in range(rank + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(rank), size))


# -- Smith normal form ----------------------------------------------------


def test_snf_examples():
    assert smith_normal_form([[2]]) == [2]
    assert smith_normal_form([[2, 2], [2, 2]]) == [2]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([]) == []
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]  # 2 does not divide 3
    assert smith_normal_form([[-4, 6]]) == [2]  # a negative pivot leaves a remainder


def determinantal_divisors(matrix):
    """Oracle: k-th invariant factor = gcd of kxk minors / gcd of (k-1)x(k-1)."""
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                g = gcd(g, _det([[matrix[r][c] for c in cols] for r in rows]))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_matches_determinantal_divisor_oracle(nrows, ncols, data):
    matrix = [
        [data.draw(st.integers(-6, 6)) for _ in range(ncols)] for _ in range(nrows)
    ]
    factors = smith_normal_form(matrix)
    assert factors == determinantal_divisors(matrix)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


# -- complexes ------------------------------------------------------------


def test_a2_full_flag_boundaries():
    g = cached_group("A", 2)
    c = build_complex(g, frozenset(), 3)
    assert c.boundaries[1] == [[0], [0]]
    assert sorted(c.boundaries[2]) == [[-2, 0], [0, -2]]


def test_mod2_boundaries_vanish():
    # every integral entry is 0 or +-2, so every boundary vanishes mod 2
    for family, rank in [("A", 3), ("B", 2)]:
        g = cached_group(family, rank)
        for theta in subsets(rank):
            c = build_complex(g, theta, 3)
            assert all(
                x % 2 == 0 for rows in c.boundaries.values() for row in rows for x in row
            )


def test_a3_degree3_matrix_pattern():
    g = cached_group("A", 3)
    c = build_complex(g, frozenset(), 3)
    nonzero_rows = [row for row in c.boundaries[3] if any(row)]
    assert sorted(sorted(row) for row in nonzero_rows) == [[-2, 0, 0, 0, 2], [0, 0, 0, 0, 2]]


def test_uncertified_degree_raises():
    # H_3 of the A3 full flag needs the zeroed degree-3 rows themselves
    g = cached_group("A", 3)
    c = build_complex(g, frozenset(), 4)
    assert 3 in c.indeterminate_rows
    with pytest.raises(SignIndeterminateError, match="degree 3"):
        homology_groups(c)


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4), ("D", 4), ("F", 4)])
def test_d_squared_check_refuses_each_flipped_sign(monkeypatch, family, rank):
    """Each row of d_k is checked against d_{k-1} as it is built: flipping the
    sign of one entry whose column meets a nonzero row of d_{k-1} raises."""
    group = cached_group(family, rank, 3)
    c = build_complex(group, frozenset(), 3)
    homology_groups(c)
    signed = coeffs.coefficient
    flipped = 0
    for k in range(2, 4):
        for w, row in zip(c.cells[k], c.boundaries[k]):
            for j, x in enumerate(row):
                if x and any(c.boundaries[k - 1][j]):
                    w_prime = c.cells[k - 1][j]

                    def flip(group, pair, w=w, w_prime=w_prime):
                        magnitude, sign = signed(group, pair)
                        if (pair.w, pair.w_prime) == (w, w_prime):
                            sign = -sign
                        return magnitude, sign

                    monkeypatch.setattr("flaghom.coeffs.coefficient", flip)
                    with pytest.raises(AssertionError, match=f"nonzero in degree {k}"):
                        build_complex(group, frozenset(), 3)
                    flipped += 1
    assert flipped
    monkeypatch.setattr("flaghom.coeffs.coefficient", signed)
    assert build_complex(group, frozenset(), 3) == c


def test_build_stops_above_the_first_zeroed_degree(monkeypatch):
    """E6's degree-3 rows are zeroed, so no cell above degree 3 gets a row:
    H_3 and everything above it are refused before they are built."""
    group = WeylGroup(root_system("E", 6))
    signed = coeffs.coefficient
    lengths = set()

    def recorded(group, pair):
        lengths.add(pair.w.length)
        return signed(group, pair)

    monkeypatch.setattr("flaghom.coeffs.coefficient", recorded)
    c = build_complex(group, frozenset(), 10)
    assert max(lengths) == 3 and 3 in c.indeterminate_rows
    assert all(not c.cells[k] and not c.boundaries[k] for k in range(4, 11))
    with pytest.raises(SignIndeterminateError, match="cannot compute H_3"):
        homology_groups(c)
    # built to degree 3, the rows kept still certify H_2
    assert len(homology_groups(build_complex(group, frozenset(), 3))) == 3


def test_h0_is_z():
    for family, rank in [("A", 2), ("B", 2)]:
        g = cached_group(family, rank)
        c = build_complex(g, frozenset(), 1)
        h0 = homology_groups(c)[0]
        assert (h0.free_rank, h0.torsion) == (1, ())


def test_a3_full_flag_homology():
    g = cached_group("A", 3)
    c = build_complex(g, frozenset(), 3)
    h0, h1, h2 = homology_groups(c)
    assert (h0.free_rank, h0.torsion) == (1, ())
    assert (h1.free_rank, h1.torsion) == (0, (2, 2, 2))
    assert (h2.free_rank, h2.torsion) == (0, (2, 2))


@pytest.mark.parametrize(
    "family,rank,theta,max_degree", [("A", 3, frozenset(), 3), ("A", 4, frozenset({1, 2, 3}), 5)]
)
def test_homology_reduces_each_boundary_once(monkeypatch, family, rank, theta, max_degree):
    """rank(d_{k+1}) is carried into degree k+1, so d_1 .. d_max_degree are
    each reduced once, in order."""
    c = build_complex(cached_group(family, rank, max_degree), theta, max_degree)
    reduced = []

    def counting(matrix):
        reduced.append(matrix)
        return smith_normal_form(matrix)

    monkeypatch.setattr("flaghom.homology.smith_normal_form", counting)
    homology_groups(c)
    assert len(reduced) == max_degree
    assert all(m is c.boundaries[k] for k, m in enumerate(reduced, start=1))


@pytest.mark.parametrize("family,rank,theta,max_degree", [
    ("A", 2, frozenset(), 1), ("A", 3, frozenset(), 3), ("B", 3, frozenset({0}), 4),
    ("G", 2, frozenset(), 6), ("A", 4, frozenset({1, 2, 3}), 5),
])
def test_homology_answers_every_degree_below_the_built_one(family, rank, theta, max_degree):
    """A complex built to degree d answers H_0 .. H_{d-1}; the top degree has
    no d_{d+1} and so gives none."""
    c = build_complex(cached_group(family, rank, max_degree), theta, max_degree)
    assert len(homology_groups(c)) == max_degree


def test_negative_degree_is_a_value_error():
    g = WeylGroup(root_system("A", 2))
    with pytest.raises(ValueError, match="max_length must be >= 0"):
        build_complex(g, frozenset(), -1)


def _complex_and_homology(group, theta):
    c = build_complex(group, theta, 3)
    try:
        groups = homology_groups(c)
    except SignIndeterminateError as exc:
        groups = str(exc)
    cells = {k: [w.word for w in ws] for k, ws in c.cells.items()}
    return cells, c.boundaries, c.indeterminate_rows, groups


@pytest.mark.parametrize(
    "family,rank,thetas",
    [(f, r, list(subsets(r))) for f, r in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]]
    + [("F", 4, [frozenset()])],
)
def test_truncated_group_gives_full_group_complex(family, rank, thetas):
    """Cells of length <= 3 and their covers are all H_0..H_2 reads."""
    full = cached_group(family, rank)
    truncated = cached_group(family, rank, 3)
    for theta in thetas:
        assert _complex_and_homology(truncated, theta) == _complex_and_homology(full, theta)


def test_closed_form_examples():
    closed = h1_h2_closed_form(4, frozenset())
    assert closed["H1"].torsion == (2, 2, 2) and closed["H2"].torsion == (2, 2)
    closed = h1_h2_closed_form(5, frozenset({1, 2}))
    assert closed["H1"].torsion == (2, 2) and closed["H2"].torsion == (2,)
    # only the groups whose formulas hold: H1 from n = 3, H2 from n = 4
    assert list(h1_h2_closed_form(3, frozenset())) == ["H1"]
    assert h1_h2_closed_form(2, frozenset()) == {}


def test_point_has_trivial_h1_h2():
    g = cached_group("A", 3)
    c = build_complex(g, frozenset({0, 1, 2}), 3)
    _, h1, h2 = homology_groups(c)
    assert (h1.free_rank, h1.torsion) == (0, ())
    assert (h2.free_rank, h2.torsion) == (0, ())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_matches_complex(n):
    g = cached_group("A", n - 1)
    for theta in subsets(n - 1):
        c = build_complex(g, theta, 3)
        groups = homology_groups(c)
        closed = h1_h2_closed_form(n, theta)
        assert (groups[1].free_rank, groups[1].torsion) == (0, closed["H1"].torsion)
        if "H2" in closed:
            assert (groups[2].free_rank, groups[2].torsion) == (0, closed["H2"].torsion)


def diagram_components(system, theta):
    """Oracle: connected components of the sub-diagram spanned by theta, by a
    graph search on the Cartan matrix adjacency."""
    C = system.cartan.cartan_matrix
    seen: set[int] = set()
    components = 0
    for start in theta:
        if start in seen:
            continue
        components += 1
        stack = [start]
        while stack:
            i = stack.pop()
            if i not in seen:
                seen.add(i)
                stack.extend(j for j in theta if j not in seen and C[i][j] != 0)
    return components


def test_theta_components():
    a5 = cached_group("A", 5, 0).system
    assert diagram_components(a5, frozenset()) == 0
    assert diagram_components(a5, {0, 1, 3}) == 2
    assert diagram_components(a5, {0, 2, 4}) == 3
    # H_2 = Z2^(C(n - |theta| - 1, 2) + r - 1), r the components of theta
    for n in range(4, 9):
        system = cached_group("A", n - 1, 0).system
        for theta in subsets(n - 1):
            h2 = h1_h2_closed_form(n, theta)["H2"]
            r = diagram_components(system, theta)
            assert len(h2.torsion) == comb(n - len(theta) - 1, 2) + r - 1


# -- orientability --------------------------------------------------------


def test_projective_space_orientability():
    for n in range(3, 9):
        theta = frozenset(range(1, n - 1))  # complement {a_1}: RP^{n-1}
        assert orientable_typeA(n, theta) == (n % 2 == 0)


def test_full_flag_orientable():
    for n in (3, 4, 5, 6):
        assert orientable_typeA(n, frozenset())


def test_orientability_example_n5():
    assert not orientable_typeA(5, frozenset({0, 2, 3}))  # complement {a_2}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_orientability_criteria_agree(n):
    g = cached_group("A", n - 1)
    for theta in subsets(n - 1):
        assert orientable_typeA(n, theta) == orientable_via_topcell(g.system, theta)


def test_topcell_orientability_b2():
    g = cached_group("B", 2)
    from flaghom import kappa_via_height

    top = max(g.elements, key=lambda w: w.length)
    kappas = [kappa_via_height(g, p) for p in lifted_covers(g, top, frozenset())]
    assert orientable_via_topcell(g.system, frozenset()) == all(k % 2 for k in kappas)


ROOT_SUM = [("A", n) for n in range(1, 8)] + [("B", n) for n in (2, 3, 4, 5)] + [
    ("C", n) for n in (2, 3, 4, 5)
] + [("D", n) for n in (4, 5, 6)] + [("E", 6), ("E", 7), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family,rank", ROOT_SUM)
def test_root_sum_orientability_matches_top_cell(family, rank):
    """The sums agree by the identity that `test_top_cell_gammas_in_closed_form`
    checks, so they restate the top-cell route rather than give a second one."""
    system = root_system(family, rank)
    for theta in subsets(rank):
        by_root_sum = orientable_by_root_sum(system, theta)
        assert by_root_sum == orientable_via_topcell(system, theta)
        if family == "A":
            assert by_root_sum == orientable_typeA(rank + 1, theta)


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS + [("E", 6)])
def test_top_cell_gammas_in_closed_form(family, rank):
    """The covers of the top cell in W^Theta, walked to by the oracle and
    tested for reducedness, have gammas w_{0,Theta}(a_i), i outside Theta:
    each the unique highest root with coefficient 1 at a_i and 0 at the other
    simple roots outside Theta.  Its coroot height is
    <rho, w_{0,Theta}(a_i^v)> = 1 - sum over b in Phi_Theta^+ of <b, a_i^v>,
    and sum over all of Phi^+ is 2, so the root-sum rule has the same parity."""
    system = root_system(family, rank)
    for theta in subsets(rank):
        bare = WeylGroup(system)
        top = top_cell(bare, theta)
        route = [p.gamma for p in direct_covers(bare, top, theta)]
        inside = [b for b in system.positive_roots if all(i in theta for i, c in enumerate(b) if c)]
        closed = []
        for i in sorted(set(range(rank)) - theta):
            candidates = [b for b in system.positive_roots if b[i] == 1 and not any(
                c for j, c in enumerate(b) if c and j != i and j not in theta)]
            top_height = max(map(sum, candidates))
            (gamma,) = [b for b in candidates if sum(b) == top_height]
            assert system.coroot_height(gamma) == 1 - sum(
                system.killing_number(i, b) for b in inside)
            closed.append(gamma)
        assert sorted(route) == sorted(closed)
        assert orientable_via_topcell(system, theta) == all(
            system.coroot_height(gamma) % 2 for gamma in route)


def test_point_is_orientable():
    g = cached_group("A", 2)
    assert orientable_via_topcell(g.system, frozenset({0, 1}))
    assert orientable_typeA(3, frozenset({0, 1}))


# -- mod-2 Poincare polynomials -------------------------------------------


def test_poincare_mod2_a2():
    g = cached_group("A", 2)
    assert poincare_mod2(g.system, frozenset()) == [1, 2, 2, 1]
    assert poincare_mod2(g.system, frozenset({0})) == [1, 1, 1]  # RP^2


SCANNED = [("A", n) for n in range(1, 7)] + [("B", n) for n in (2, 3, 4)] + [
    ("C", n) for n in (2, 3, 4, 5)
] + [("D", n) for n in (3, 4, 5)] + [("F", 4), ("G", 2)]


@pytest.mark.parametrize("family,rank", SCANNED)
def test_poincare_matches_scan_of_w_theta(family, rank):
    g = cached_group(family, rank)
    for theta in subsets(rank):
        assert poincare_mod2(g.system, theta) == poincare_by_scan(g, theta)


@pytest.mark.parametrize("rank", [6, 7, 8])
def test_poincare_e_family_without_scan(rank):
    system = root_system("E", rank)
    bare = WeylGroup(system)
    chains = set()
    for theta in subsets(rank):
        betti = poincare_mod2(system, theta)
        assert betti == betti[::-1]
        top = top_cell(bare, theta)
        assert len(betti) - 1 == top.length
        assert betti[1:2] == ([rank - len(theta)] if len(theta) < rank else [])
        chains |= descent_chain(bare, top)
    assert sum(poincare_mod2(system, frozenset())) == WEYL_GROUP_ORDERS["E"](rank)
    # building the top cells stored their descent chains and nothing else
    assert set(bare.by_matrix) == chains


def test_poincare_product_rule():
    g = cached_group("A", 3)
    full = poincare_mod2(g.system, frozenset())
    for theta in subsets(3):
        quotient = poincare_mod2(g.system, theta)
        subgroup = [0] * (max(len(w.word) for w in g.elements) + 1)
        for w in g.elements:
            if all(letter in theta for letter in w.word):
                subgroup[w.length] += 1
        product = [0] * len(full)
        for i, a in enumerate(quotient):
            for j, b in enumerate(subgroup):
                if a and b:
                    product[i + j] += a * b
        assert product == full


def test_universal_coefficients_low_degrees():
    for n in (4, 5):
        g = cached_group("A", n - 1)
        for theta in subsets(n - 1):
            c = build_complex(g, theta, 3)
            groups = homology_groups(c)
            betti = poincare_mod2(g.system, theta)
            betti += [0] * (3 - len(betti))
            for k in (0, 1, 2):
                torsion_below = len(groups[k - 1].torsion) if k else 0
                assert betti[k] == groups[k].free_rank + len(groups[k].torsion) + torsion_below
