import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from flaghom import (
    CartanData,
    WeylGroup,
    build_root_system,
    h1_h2_closed_form,
    height,
    orientable_typeA,
    orientable_via_topcell,
    poincare_mod2,
    root_system,
)
from flaghom.rootsys import RANK_BOUNDS, NotFiniteTypeError, negate, simple_root

from conftest import (bilinear, conjugated_root, coroot_by_form, is_positive, p_sum, reflect,
                      symmetrizer)


def brute_force_positive_roots(system):
    """Independent closure oracle: iterate reflections to a fixed point."""
    roots = set(simple_root(system.rank, i) for i in range(system.rank))
    changed = True
    while changed:
        changed = False
        for r in list(roots):
            for i in range(system.rank):
                img = reflect(system, i, r)
                if is_positive(img) and img not in roots:
                    roots.add(img)
                    changed = True
    return roots


def test_a2_positive_roots():
    s = root_system("A", 2)
    assert set(s.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_b2_positive_roots_and_heights():
    s = root_system("B", 2)
    assert set(s.positive_roots) == brute_force_positive_roots(s)
    assert len(s.positive_roots) == 4
    assert sorted(height(r) for r in s.positive_roots) == [1, 1, 2, 3]


def test_g2_positive_roots():
    s = root_system("G", 2)
    assert set(s.positive_roots) == brute_force_positive_roots(s)
    assert len(s.positive_roots) == 6
    assert max(height(r) for r in s.positive_roots) == 5


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 3, 6), ("A", 4, 10), ("B", 3, 9), ("C", 3, 9), ("D", 4, 12), ("F", 4, 24), ("E", 6, 36)],
)
def test_classical_positive_root_counts(family, rank, count):
    assert len(root_system(family, rank).positive_roots) == count


def test_not_finite_type_rejected():
    affine = CartanData("A", 2, ((2, -2), (-2, 2)))
    with pytest.raises(NotFiniteTypeError):
        build_root_system(affine)


def test_cartan_data_validation():
    with pytest.raises(ValueError):
        CartanData("A", 2, ((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(ValueError):
        CartanData("A", 2, ((2, -1), (0, 2)))  # asymmetric zero pattern
    with pytest.raises(ValueError):
        CartanData("E", 5, ((2,),) * 5)  # rank out of range


def _out_of_range_ranks():
    for family, (lo, hi) in RANK_BOUNDS.items():
        ranks = {lo - 1, 0, -3} | ({hi + 1} if hi is not None else set())
        yield from ((family, rank) for rank in sorted(ranks))


@pytest.mark.parametrize("family,rank", list(_out_of_range_ranks()))
def test_out_of_range_rank_is_refused_before_the_matrix(family, rank):
    for build in (CartanData.for_family, root_system):
        with pytest.raises(ValueError) as exc:
            build(family, rank)
        assert str(exc.value) == f"rank {rank} out of range for family {family}"


def test_reflect_examples():
    a2 = root_system("A", 2)
    assert reflect(a2, 0, (0, 1)) == (1, 1)
    for s in (a2, root_system("B", 2)):
        for i in range(s.rank):
            assert reflect(s, i, simple_root(s.rank, i)) == negate(simple_root(s.rank, i))


def test_b2_reflection_orbit():
    # brute-force orbit of a1 under both generators: exactly the long roots
    s = root_system("B", 2)
    orbit = {simple_root(2, 0)}
    frontier = list(orbit)
    while frontier:
        root = frontier.pop()
        for i in range(2):
            img = reflect(s, i, root)
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    assert orbit == {(1, 0), (-1, 0), (1, 2), (-1, -2)}


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_reflection_closure_bijective(family, rank):
    s = root_system(family, rank)
    all_roots = set(s.positive_roots) | {negate(r) for r in s.positive_roots}
    for i in range(rank):
        image = {reflect(s, i, r) for r in all_roots}
        assert image == all_roots


def test_coroot_simply_laced_self_dual():
    for family, rank in [("A", 4), ("D", 4), ("E", 6)]:
        s = root_system(family, rank)
        for r in s.positive_roots:
            assert s.coroot(r) == r


def test_coroot_b2_long_root():
    s = root_system("B", 2)
    assert symmetrizer(s.cartan.cartan_matrix) == (2, 1)
    assert s.coroot((1, 2)) == (1, 1)


def test_coroot_simple_roots():
    for family, rank in [("B", 3), ("G", 2), ("F", 4)]:
        s = root_system(family, rank)
        for i in range(rank):
            assert s.coroot(simple_root(rank, i)) == simple_root(rank, i)
            assert s.coroot_height(simple_root(rank, i)) == 1


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 5), ("B", 2), ("B", 4), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)],
)
def test_coroot_involution(family, rank):
    """coroot(coroot(a)) = a, checked through the dual system built from the
    transposed Cartan matrix alone."""
    s = root_system(family, rank)
    C = s.cartan.cartan_matrix
    dual = build_root_system(
        CartanData(family, rank, tuple(tuple(C[j][i] for j in range(rank)) for i in range(rank)))
    )
    for r in s.positive_roots:
        assert dual.coroot(s.coroot(r)) == r


@pytest.mark.parametrize(
    "family,rank",
    [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_coroot_pairings_match_dense_cartan_sum(family, rank):
    """The table row of b is sum_i c_i C[i][j] over the coroot coefficients c
    of b, and it is also 2(a_j, b)/(b, b) from the invariant form."""
    s = root_system(family, rank)
    C = s.cartan.cartan_matrix
    assert set(s.coroot_pairings) == set(s.positive_roots)
    for root in s.positive_roots:
        c = s.coroot(root)
        dense = tuple(sum(c[i] * C[i][j] for i in range(rank)) for j in range(rank))
        assert s.coroot_pairings[root] == dense
        norm = bilinear(s, root, root)
        assert dense == tuple(2 * bilinear(s, simple_root(rank, j), root) // norm
                              for j in range(rank))


CLOSURE_CASES = (
    [("A", n) for n in range(1, 9)]
    + [(f, n) for f in "BC" for n in range(2, 7)]
    + [("D", n) for n in range(3, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", CLOSURE_CASES)
def test_closure_coroots_match_invariant_form(family, rank):
    """The coroots carried by the reflection closure equal 2 d_i r_i / (r, r)."""
    s = root_system(family, rank)
    for root in s.positive_roots:
        assert s.coroot(root) == coroot_by_form(s, root)


def test_non_symmetrizable_matrix_rejected():
    """A Cartan matrix that no diagonal d symmetrizes is not of finite type:
    the symmetric entries force d_0 = d_2 = d_1, C[0][1] = -1 and C[1][0] = -2
    force d_0 = 2 d_1."""
    cartan = CartanData("A", 3, ((2, -1, -1), (-2, 2, -1), (-1, -1, 2)))
    with pytest.raises(NotFiniteTypeError):
        build_root_system(cartan)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_b_c_duality(n):
    b, c = root_system("B", n), root_system("C", n)
    assert {b.coroot(r) for r in b.positive_roots} == set(c.positive_roots)
    assert {c.coroot(r) for r in c.positive_roots} == set(b.positive_roots)


def test_p_sum_examples():
    a2 = root_system("A", 2)
    assert p_sum(a2, [0, 1], 1, 2, 0) == -1
    a3 = root_system("A", 3)
    assert p_sum(a3, [0, 1, 2], 1, 3, 1) == (-1) * (-1)


def test_p_sum_index_errors():
    a3 = root_system("A", 3)
    for x, y, l in [(2, 2, 0), (0, 2, 0), (1, 3, 2), (1, 4, 0)]:
        with pytest.raises(ValueError, match="invalid P-sum indices"):
            p_sum(a3, [0, 1, 2], x, y, l)


@given(st.data())
def test_p_sum_shift_property(data):
    s = root_system("B", 3)
    m = data.draw(st.integers(3, 8))
    seq = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    x = data.draw(st.integers(2, m - 1))
    y = data.draw(st.integers(x + 1, m))
    l = data.draw(st.integers(0, y - x - 1))
    assert p_sum(s, seq, x, y, l) == p_sum(s, seq[1:], x - 1, y - 1, l)


@given(st.data())
def test_p_sum_recursion(data):
    s = root_system("F", 4)
    m = data.draw(st.integers(2, 8))
    seq = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    x = data.draw(st.integers(1, m - 1))
    y = data.draw(st.integers(x + 1, m))
    l = data.draw(st.integers(0, y - x - 2)) if y - x >= 2 else 0
    if l + 1 >= y - x:
        return
    lhs = p_sum(s, seq, x, y, l + 1)
    rhs = sum(
        p_sum(s, seq, x, k, 0) * p_sum(s, seq, k, y, l) for k in range(x + 1, y - l)
    )
    assert lhs == rhs


def fold_reflect(system, sequence):
    """Independent oracle: s_1 ... s_{m-1}(d_m) by iterated reflection."""
    root = simple_root(system.rank, sequence[-1])
    for i in reversed(sequence[:-1]):
        root = reflect(system, i, root)
    return root


def test_conjugated_root_short_cases():
    a2 = root_system("A", 2)
    assert conjugated_root(a2, [0]) == (1, 0)
    assert conjugated_root(a2, [0, 1]) == (1, 1)  # d2 - <d1*, d2> d1
    assert conjugated_root(a2, [0, 0]) == (-1, 0)  # s1(d1) = -d1


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3)])
def test_conjugated_root_equals_fold(family, rank):
    s = root_system(family, rank)
    for m in (1, 2, 3, 4):
        for seq in itertools.product(range(rank), repeat=m):
            assert conjugated_root(s, list(seq)) == fold_reflect(s, seq)
    rng = random.Random(7)
    for _ in range(200):
        seq = [rng.randrange(rank) for _ in range(rng.randint(5, 6))]
        assert conjugated_root(s, seq) == fold_reflect(s, seq)


def test_height_highest_roots():
    for n in (2, 3, 4, 5):
        s = root_system("A", n)
        assert max(height(r) for r in s.positive_roots) == n
    assert max(height(r) for r in root_system("G", 2).positive_roots) == 5


#: each function that checks theta itself, on A3 (rank 3, n = 4)
THETA_TAKERS = {
    "poincare_mod2": lambda theta: poincare_mod2(root_system("A", 3), theta),
    "orientable_via_topcell": lambda theta: orientable_via_topcell(root_system("A", 3), theta),
    "h1_h2_closed_form": lambda theta: h1_h2_closed_form(4, theta),
    "orientable_typeA": lambda theta: orientable_typeA(4, theta),
    "minimal_representatives":
        lambda theta: WeylGroup(root_system("A", 3)).minimal_representatives(theta),
}


@pytest.mark.parametrize("theta", [{3}, {-1}], ids=["rank", "minus-one"])
@pytest.mark.parametrize("name", THETA_TAKERS)
def test_out_of_range_theta_is_refused(name, theta):
    """theta's 0-based indices must lie in range(rank); an index at rank or
    below 0 is refused, not read as another simple root or ignored."""
    with pytest.raises(ValueError, match="^theta indices out of range$"):
        THETA_TAKERS[name](theta)
