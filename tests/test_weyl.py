import itertools
from functools import reduce

import pytest

from flaghom import (
    WeylGroup, build_complex, covers_oracle_typeA, one_line, orientable_via_topcell, root_system
)
from flaghom.rootsys import GroupTooLargeError, RootSystem, negate, simple_root
from flaghom.weyl import CoveringPair, Reflection, WeylElement

from conftest import (
    ORACLE_GROUPS,
    WEYL_GROUP_ORDERS,
    apply,
    bilinear,
    build,
    cached_group,
    code_spectrum,
    conjugated_root,
    descent_chain,
    direct_covers,
    element_from_word,
    enumerated,
    from_code_spectrum,
    from_lehmer_code,
    from_one_line,
    in_quotient,
    inversion_set_of_word,
    is_positive,
    is_reduced,
    left_times,
    lehmer_code,
    lifted_covers,
    phi_by_word,
    reflect,
    right_times,
    scan_representatives,
    top_cell,
)


def test_a2_enumeration():
    g = cached_group("A", 2)
    assert len(g.elements) == 6
    profile = [sum(1 for w in g.elements if w.length == k) for k in range(4)]
    assert profile == [1, 2, 2, 1]


def test_b2_enumeration():
    g = cached_group("B", 2)
    assert len(g.elements) == 8
    assert max(w.length for w in g.elements) == 4


def test_a3_truncated_enumeration():
    g = WeylGroup(root_system("A", 3))
    assert len(g.minimal_representatives(frozenset(), 2)) == 1 + 3 + 5
    assert len(g.by_matrix) == 1 + 3 + 5  # nothing above length 2 was built


def test_group_order_matches_factorial():
    for n, order in [(3, 24), (4, 120)]:
        assert len(cached_group("A", n).elements) == order


def test_size_cap(monkeypatch):
    g = WeylGroup(root_system("A", 4))
    monkeypatch.setattr("flaghom.rootsys.DEFAULT_SIZE_CAP", 50)
    with pytest.raises(GroupTooLargeError, match="^too large: 120 elements, more than 50$"):
        g.minimal_representatives(frozenset())
    # a truncated query is refused by its count, before it builds anything:
    # 1 + 4 + 9 > 10
    monkeypatch.setattr("flaghom.rootsys.DEFAULT_SIZE_CAP", 10)
    with pytest.raises(GroupTooLargeError, match="^too large: 14 elements, more than 10$"):
        g.minimal_representatives(frozenset(), 2)
    assert list(g.by_matrix) == [g.identity.matrix]
    # ... while RP^4's cells up to length 2 fit, and are all it builds
    assert len(g.minimal_representatives({1, 2, 3}, 2)) == len(g.by_matrix) == 3
    # elements built on demand count against the cap as they are stored
    monkeypatch.setattr("flaghom.rootsys.DEFAULT_SIZE_CAP", 5)
    g = WeylGroup(root_system("A", 4))
    with pytest.raises(GroupTooLargeError, match="^too large: 6 elements, more than 5$"):
        element_from_word(g, (0, 1, 2, 3, 0, 1))


@pytest.mark.parametrize(
    "family,rank",
    [("A", n) for n in range(1, 7)]
    + [("B", n) for n in (2, 3, 4)]
    + [("C", n) for n in (2, 3, 4, 5)]
    + [("D", n) for n in (3, 4, 5)]
    + [("F", 4), ("G", 2)],
)
def test_enumerated_order_matches_table(family, rank):
    group = WeylGroup(root_system(family, rank))
    assert len(group.minimal_representatives(frozenset())) == WEYL_GROUP_ORDERS[family](rank)
    assert len(enumerated(family, rank)) == WEYL_GROUP_ORDERS[family](rank)


def _peeled_word(g, w):
    """Oracle: the lex-smallest reduced word, peeled off w's matrix by
    repeatedly removing its smallest left descent."""
    word = []
    m, minv = w.matrix, w.inverse_matrix
    while m != g.identity.matrix:
        # i is a left descent iff w^{-1}(a_i) < 0
        i = next(j for j in range(g.system.rank) if not is_positive(minv[j]))
        word.append(i)
        m = left_times(g, i, m)
        minv = right_times(g, minv, i)
    return tuple(word)


@pytest.mark.parametrize(
    "family,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]
)
def test_words_match_peeled_oracle(family, rank):
    g = cached_group(family, rank)
    for w in g.elements:
        assert w.word == _peeled_word(g, w)


@pytest.mark.parametrize(
    "family,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]
)
def test_top_cell_is_longest_representative(family, rank):
    full = cached_group(family, rank)
    bare = WeylGroup(full.system)
    chains = set()
    for theta in _subsets(rank):
        longest = max(full.minimal_representatives(theta), key=lambda w: w.length)
        assert top_cell(full, theta).word == longest.word
        top = top_cell(bare, theta)
        assert (top.word, top.matrix, top.inverse_matrix) == (
            longest.word, longest.matrix, longest.inverse_matrix
        )
        chains |= descent_chain(bare, top)
    # building the top cells stored their descent chains and nothing else
    assert set(bare.by_matrix) == chains


def test_build_refuses_a_matrix_outside_w():
    # -1 is not in W(A2); its descent walk would cycle without reaching e
    g = WeylGroup(root_system("A", 2))
    minus_one = tuple(tuple(-x for x in col) for col in g.identity.matrix)
    with pytest.raises(AssertionError, match="not an element of W"):
        build(g, minus_one, minus_one)


def test_build_refuses_a_column_that_is_not_a_root():
    """2*a_1 is no root of A2: the first step of the descent walk reflects
    it to -2*a_1, which the root table lacks, and that is a cross-check
    failure, not a KeyError."""
    g = WeylGroup(root_system("A", 2))
    a1, a2 = g.identity.matrix
    matrix = (tuple(2 * x for x in a1), a2)
    inverse = (tuple(-x for x in a1), a2)  # a left descent at 1
    with pytest.raises(AssertionError, match="not an element of W"):
        build(g, matrix, inverse)


def _with_pairings(system, pairings):
    """The root system with another table of coroot pairings, the rest kept."""
    return RootSystem(system.cartan, system.positive_roots, system.coroot_coeffs, pairings,
                      system.roots)


def test_cover_outside_w_names_w_and_i():
    """Doubled pairings make s_gamma no reflection, so the first deletion
    gives a w' column that is not a root.  w and the covers of its tail come
    from the true system, on which they hold; only the tables are swapped."""
    system = root_system("A", 2)
    doubled = {root: tuple(2 * p for p in pairing)
               for root, pairing in system.coroot_pairings.items()}
    g = WeylGroup(system)
    w = element_from_word(g, (1, 0))
    below = lifted_covers(g, w.tail, frozenset())
    g.reflections = WeylGroup(_with_pairings(system, doubled)).reflections
    with pytest.raises(AssertionError) as exc:
        g.bruhat_covers(w, frozenset(), below)
    assert str(exc.value) == "w' is not in W on w=[2, 1] I=1"


def test_pair_names_a_w_prime_not_stored_as_unknown():
    """A cover outside W^Theta of a walked cell was never built: the pair
    names it w'=?, as text output renders None."""
    g = WeylGroup(root_system("A", 2))
    w = g.minimal_representatives({0})[-1]
    pairs = lifted_covers(g, w, frozenset())
    assert pairs[1].w_prime is None
    assert [str(p) for p in pairs] == ["w=[1, 2] w'=[2] I=1", "w=[1, 2] w'=? I=2"]


def _assert_own_root_tuples(g, pairs):
    """Every stored column, beta and gamma is the root system's own tuple."""
    roots = g.system.roots
    for w in g.by_matrix.values():
        for col in w.matrix + w.inverse_matrix:
            assert roots[col] is col
    for pair in pairs:
        assert roots[pair.beta] is pair.beta and roots[pair.gamma] is pair.gamma


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("G", 2)])
def test_full_flag_shares_the_root_tuples(family, rank):
    g = WeylGroup(root_system(family, rank))
    full = frozenset()
    pairs = [p for _, cell_pairs in g.cells_with_covers(full, None) for p in cell_pairs]
    assert len(g.by_matrix) == WEYL_GROUP_ORDERS[family](rank)
    assert pairs
    _assert_own_root_tuples(g, pairs)


def test_top_cells_share_the_root_tuples():
    g = WeylGroup(root_system("A", 4))
    pairs = [p for theta in _subsets(4) for p in lifted_covers(g, top_cell(g, theta), theta)]
    assert pairs
    _assert_own_root_tuples(g, pairs)


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 3), ("G", 2)])
def test_elements_on_demand_match_full_group(family, rank):
    full = cached_group(family, rank)
    bare = WeylGroup(full.system)

    def fields(w):
        return w.word, w.matrix, w.inverse_matrix

    for w in full.elements:
        assert fields(element_from_word(bare, w.word)) == fields(w)
        # a reduced word that need not be canonical: the reversal gives w^{-1}
        reverse = tuple(reversed(w.word))
        assert fields(element_from_word(bare, reverse)) == fields(element_from_word(full, reverse))
    # built on demand: exactly the elements of W
    assert set(bare.by_matrix) == set(full.by_matrix)


def test_words_are_reduced_and_canonical():
    g = cached_group("B", 3)
    for w in g.elements:
        assert is_reduced(g, w.word)
        assert len(w.word) == len(inversion_set_of_word(g, w.word))


def test_canonical_word_is_lex_min():
    # enumerate all reduced words of a few elements by brute force
    g = cached_group("A", 3)
    for w in g.elements:
        if w.length > 4:
            continue
        reduced = [
            word
            for word in itertools.product(range(3), repeat=w.length)
            if is_reduced(g, word) and element_from_word(g, word) == w
        ]
        assert w.word == min(reduced) if reduced else w.word == ()


def test_inversion_sets():
    g = cached_group("A", 2)
    assert inversion_set_of_word(g, g.identity.word) == []
    s1 = element_from_word(g, (0,))
    assert inversion_set_of_word(g, s1.word) == [(1, 0)]
    w0 = max(g.elements, key=lambda w: w.length)
    assert set(inversion_set_of_word(g, w0.word)) == set(g.system.positive_roots)


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_inversion_roots_match_path_sums(family, rank):
    """The k-th inversion root s_1 ... s_{k-1}(d_k) of a word equals the
    closed alternating P-sum formula on its first k letters (words up to
    length 10: the formula sums 2^k products)."""
    g = cached_group(family, rank, 10)
    for w in g.elements:
        inversions = inversion_set_of_word(g, w.word)
        for k in range(w.length):
            assert inversions[k] == conjugated_root(g.system, w.word[: k + 1])


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("G", 2)])
def test_inversion_set_is_negativity_set(family, rank):
    """Oracle: Pi_w = positive roots sent negative by w^{-1}."""
    g = cached_group(family, rank)
    for w in g.elements:
        brute = {
            r for r in g.system.positive_roots if not is_positive(apply(w.inverse_matrix, r))
        }
        assert set(inversion_set_of_word(g, w.word)) == brute
        assert len(inversion_set_of_word(g, w.word)) == w.length


def subword_le(g, small, big_word):
    """Bruhat order oracle by subword enumeration."""
    target = element_from_word(g, small.word)
    for positions in itertools.combinations(range(len(big_word)), small.length):
        word = tuple(big_word[p] for p in positions)
        if is_reduced(g, word) and element_from_word(g, word) == target:
            return True
    return small.length == 0


def test_bruhat_covers_examples():
    g = cached_group("A", 2)
    w = element_from_word(g, (0, 1))
    covered = {p.w_prime.word for p in lifted_covers(g, w, frozenset())}
    assert covered == {(0,), (1,)}
    w0 = max(g.elements, key=lambda w: w.length)
    assert len(lifted_covers(g, w0, frozenset())) == 2


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2)])
def test_bruhat_covers_against_subword_oracle(family, rank):
    g = cached_group(family, rank)
    for w in g.elements:
        expected = {
            u.word
            for u in g.elements
            if u.length == w.length - 1 and subword_le(g, u, w.word)
        }
        assert {p.w_prime.word for p in lifted_covers(g, w, frozenset())} == expected


def test_covering_pair_roots():
    g = cached_group("B", 3)
    for w in g.elements:
        for p in lifted_covers(g, w, frozenset()):
            # w = s_beta * w' and w = w' * s_gamma as actions on every root
            for r in g.system.positive_roots:
                lhs = apply(p.w.matrix, r)
                via_beta = _reflect_root(g.system, p.beta, apply(p.w_prime.matrix, r))
                assert lhs == via_beta
                via_gamma = apply(p.w_prime.matrix, _reflect_root(g.system, p.gamma, r))
                assert lhs == via_gamma


def _covers_by_subwords(g, w):
    """Oracle: delete each letter of w's word, keep the reduced subwords,
    multiply each out from the identity, and reflect the deleted simple root
    over the suffix for gamma.  Pairs as (w', I, beta, gamma) in order of I."""
    word = w.word
    inversions = inversion_set_of_word(g, word)
    found = {}
    for idx in range(len(word)):
        subword = word[:idx] + word[idx + 1 :]
        if not is_reduced(g, subword):
            continue
        w_prime = element_from_word(g, subword)
        gamma = reduce(
            lambda r, i: reflect(g.system, i, r), word[idx + 1 :], simple_root(g.system.rank, word[idx])
        )
        assert w_prime.matrix not in found
        found[w_prime.matrix] = (w_prime, idx + 1, inversions[idx], gamma)
    return sorted(found.values(), key=lambda pair: pair[1])


def _count_products(monkeypatch):
    """Record every later call of `Reflection.times`, the one product, as
    (table, matrix) in call order."""
    times, calls = Reflection.times, []

    def counted(table, matrix):
        calls.append((table, matrix))
        return times(table, matrix)

    monkeypatch.setattr(Reflection, "times", counted)
    return calls


def test_covers_multiply_out_no_word(monkeypatch):
    """On a warm memo every w' is stored already, so covers add no element
    and make exactly two products per pair kept: w' = s_beta*w, and its
    inverse s_gamma*w^{-1} checked against the stored one."""
    g = cached_group("B", 3)
    expected = dict(g.cells_with_covers(frozenset(), None))
    stored = dict(g.by_matrix)
    calls = _count_products(monkeypatch)
    for w, pairs in expected.items():
        calls.clear()
        assert g.bruhat_covers(w, frozenset(), expected.get(w.tail, [])) == pairs
        assert len(calls) == 2 * len(pairs)
        assert [table.root for table, _ in calls] == [
            root for p in pairs for root in (p.beta, g.reflections[p.gamma].root)]
    assert g.by_matrix == stored


def test_cover_beta_not_positive_names_w_and_i():
    """The lifted beta of w = s_j*u is s_j of the beta of u's pair, so a pair
    of u whose beta reads a_j lifts to beta = -a_j on the second deletion."""
    g = cached_group("A", 2)
    w = element_from_word(g, (1, 0))
    (pair,) = lifted_covers(g, w.tail, frozenset())
    a_j = g.identity.matrix[w.word[0]]
    below = [CoveringPair(pair.w, pair.w_prime, pair.deleted_index, a_j, pair.gamma)]
    with pytest.raises(AssertionError) as exc:
        g.bruhat_covers(w, frozenset(), below)
    assert str(exc.value) == "beta of a reduced deletion is not positive on w=[2, 1] I=2"


def test_cover_gamma_not_matching_beta_names_w_and_i():
    """A pair of u whose gamma is not the root its beta reflects by still
    passes the lift test, but the w' = s_beta*w it lifts to does not have the
    inverse s_gamma*w^{-1}."""
    g = cached_group("A", 2)
    w = element_from_word(g, (1, 0))
    (pair,) = lifted_covers(g, w.tail, frozenset())
    a_j = g.identity.matrix[w.word[0]]
    below = [CoveringPair(pair.w, pair.w_prime, pair.deleted_index, pair.beta, a_j)]
    with pytest.raises(AssertionError) as exc:
        g.bruhat_covers(w, frozenset(), below)
    assert str(exc.value) == "w' = s_beta*w is not w*s_gamma on w=[2, 1] I=2"


@pytest.mark.parametrize("theta", [{-1}, {5}, [-1], (5,)])
def test_covers_refuse_theta_out_of_range(theta):
    """A 0-based index outside range(rank) is refused, not read as another
    simple root ({-1} as {2}) or left to fail as an IndexError ({5}).  Any
    iterable of indices is a theta, as `check_theta` takes it.  w = s_1*s_3
    is a cell of Theta = {2} (1-based), not of {3}: w(a_3) < 0."""
    g = cached_group("A", 3)
    w = element_from_word(g, (0, 2))
    below = lifted_covers(g, w.tail, frozenset())
    for in_range in ({1}, [1], (1,), range(1, 2)):
        assert [str(p) for p in lifted_covers(g, w, in_range)] == [
            "w=[1, 3] w'=[3] I=1", "w=[1, 3] w'=[1] I=2"]
    with pytest.raises(ValueError, match=r"^w=\[3\] is not in W\^Theta$"):
        lifted_covers(g, w, {2})  # the first non-cell on w's tail chain is s_3
    for cell, pairs in ((w, below), (g.identity, [])):
        with pytest.raises(ValueError, match="theta indices out of range"):
            g.bruhat_covers(cell, theta, pairs)


class _CountedMatrix(tuple):
    """A matrix that counts the passes over its columns."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("family,rank,theta", [
    ("A", 2, {0}), ("A", 5, {1}), ("B", 4, {0}), ("D", 4, {1, 2}),
])
def test_covers_build_only_the_kept_w_primes(family, rank, theta):
    """`_steps_up` decides each lifted candidate before its w' is built, so
    w's matrix is read once per pair returned.  On A2 with Theta = {1}, the
    cell s_1*s_2 lifts the candidate s_1 from its tail's cover e, but s_1 is
    outside W^Theta, so only the pair at I = 1 is built."""
    g = WeylGroup(root_system(family, rank))
    walk = dict(g.cells_with_covers(theta, None))
    for w, pairs in walk.items():
        matrix = _CountedMatrix(w.matrix)
        copy = WeylElement(w.word, matrix, w.inverse_matrix, w.tail, w.phi)
        assert g.bruhat_covers(copy, theta, walk.get(w.tail, [])) == pairs
        assert matrix.passes == len(pairs)


@pytest.mark.parametrize("one_shot", [lambda: (k for k in [0]), lambda: iter([0])],
                         ids=["generator", "iterator"])
def test_one_shot_theta_gives_the_frozenset_answer(one_shot):
    """A generator or iterator theta is read once, so the walk and every
    `bruhat_covers` call see the same Theta: the cells, covers and complex
    are those of the frozenset theta."""
    def covers(theta):
        return list(WeylGroup(root_system("A", 3)).cells_with_covers(theta, 2))

    assert covers(one_shot()) == covers(frozenset({0}))
    expected = build_complex(WeylGroup(root_system("A", 3)), frozenset({0}), 3)
    assert build_complex(WeylGroup(root_system("A", 3)), one_shot(), 3) == expected


def test_repeated_deleted_position_names_w_and_i():
    """Zero pairings with every coroot make every deletion give w itself,
    so the second deletion repeats the first.  w and the covers of its tail
    come from the true system; only the tables are swapped."""
    system = root_system("A", 2)
    zero = {root: (0, 0) for root in system.positive_roots}
    g = WeylGroup(system)
    w = element_from_word(g, (1, 0))
    below = lifted_covers(g, w.tail, frozenset())
    g.reflections = WeylGroup(_with_pairings(system, zero)).reflections
    with pytest.raises(AssertionError) as exc:
        g.bruhat_covers(w, frozenset(), below)
    assert str(exc.value) == "deleted position is not unique on w=[2, 1] I=2"


def _cover_fields(w_prime, deleted_index, beta, gamma):
    return (
        w_prime.word, w_prime.matrix, w_prime.inverse_matrix, deleted_index, beta, gamma
    )


def _assert_covers_match_oracle(g, w, oracle_group):
    pairs = lifted_covers(g, w, frozenset())
    assert all(p.w is w for p in pairs)
    assert [_cover_fields(p.w_prime, p.deleted_index, p.beta, p.gamma) for p in pairs] == [
        _cover_fields(*pair) for pair in _covers_by_subwords(oracle_group, w)
    ]


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_tail_and_phi_match_the_word(family, rank):
    """Each element's tail is the stored element whose word drops the first
    letter (e has none), and its phi is the sum of the inversion set read
    off its word."""
    g = cached_group(family, rank)
    assert len(g.elements) == WEYL_GROUP_ORDERS[family](rank)
    for w in g.elements:
        if w.length == 0:
            assert w.tail is None
        else:
            assert w.tail.word == w.word[1:]
            assert g.by_matrix[w.tail.matrix] is w.tail
        assert w.phi == phi_by_word(g, w.word)


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_covers_match_subword_oracle(family, rank):
    g = cached_group(family, rank)
    for w in g.elements:
        _assert_covers_match_oracle(g, w, g)


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_top_cell_covers_match_subword_oracle(family, rank):
    """On a group that stores only a top cell's descent chain, its covers
    match the subword oracle in I, beta and gamma; w' is the stored element
    when ``by_matrix`` holds it and None when not, and nothing is built."""
    full = cached_group(family, rank)
    stored_count = missing_count = 0
    for theta in _subsets(rank):
        bare = WeylGroup(full.system)
        top = top_cell(bare, theta)
        memo = dict(bare.by_matrix)
        pairs = lifted_covers(bare, top, frozenset())
        oracle = _covers_by_subwords(full, top)
        assert [(p.w, p.deleted_index, p.beta, p.gamma) for p in pairs] == [
            (top, index, beta, gamma) for _, index, beta, gamma in oracle
        ]
        for p, (w_prime, *_) in zip(pairs, oracle):
            assert p.w_prime is memo.get(w_prime.matrix)
            stored_count += p.w_prime is not None
            missing_count += p.w_prime is None
        assert bare.by_matrix == memo
    assert stored_count > 0 and missing_count > 0


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_theta_covers_are_filtered_covers(family, rank):
    """Asking for theta's covers keeps exactly the unfiltered covers whose w'
    lies in W^Theta, in the same order and with the same fields."""
    g = cached_group(family, rank)
    unfiltered = {w: lifted_covers(g, w, frozenset()) for w in g.elements}

    def fields(p):
        return (p.w,) + _cover_fields(p.w_prime, p.deleted_index, p.beta, p.gamma)

    for theta in _subsets(rank):
        for w in g.minimal_representatives(theta):
            assert [fields(p) for p in lifted_covers(g, w, theta)] == [
                fields(p) for p in unfiltered[w] if in_quotient(p.w_prime.matrix, theta)
            ]


@pytest.mark.parametrize("family,rank,theta,max_length", [
    *[(family, rank, None, None) for family, rank in ORACLE_GROUPS],  # None: every theta
    ("A", 5, (), None),
    ("B", 4, (), None),
    ("D", 5, (), None),
    ("E", 6, (1,), 8),
    ("E", 8, tuple(range(1, 8)), 24),
])
def test_walk_covers_match_direct_covers(family, rank, theta, max_length):
    """Each cell's covers, lifted from its tail's as the one walk of W^Theta
    reaches it, equal the direct oracle's pair for pair: w, I, beta, gamma
    and the very w' element that the memo stores."""
    g = WeylGroup(root_system(family, rank))
    for th in _subsets(rank) if theta is None else [frozenset(theta)]:
        walk = list(g.cells_with_covers(th, max_length))
        assert [w for w, _ in walk] == g.minimal_representatives(th, max_length)
        for w, pairs in walk:
            expected = direct_covers(g, w, th)
            assert pairs == expected
            assert all(p.w_prime is q.w_prime for p, q in zip(pairs, expected))


def test_negative_max_length_is_a_value_error():
    """A negative length is a bad argument, not a walk that disagrees with
    Macdonald's count; nothing is built."""
    g = WeylGroup(root_system("A", 2))
    with pytest.raises(ValueError, match="max_length must be >= 0"):
        g.minimal_representatives(frozenset(), -1)
    with pytest.raises(ValueError, match="max_length must be >= 0"):
        next(g.cells_with_covers(frozenset(), -1))
    assert list(g.by_matrix) == [g.identity.matrix]


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_top_cell_memo_stays_in_quotient(family, rank, monkeypatch):
    """The oracle's walk to the top cell stores exactly its descent chain,
    which lies in W^Theta, and the parity of kappa on that cell's covers is
    the orientability that `orientable_via_topcell` reads off the root system
    while no `WeylGroup` can be built at all."""
    system = root_system(family, rank)
    verdicts = {}
    for theta in _subsets(rank):
        bare = WeylGroup(system)
        top = top_cell(bare, theta)
        assert set(bare.by_matrix) == descent_chain(bare, top)
        assert all(in_quotient(m, theta) for m in bare.by_matrix)
        verdicts[theta] = all(system.coroot_height(p.gamma) % 2
                              for p in lifted_covers(bare, top, theta))

    def refuse(*args, **kwargs):
        raise AssertionError("a Weyl group was built")

    monkeypatch.setattr(WeylGroup, "__init__", refuse)
    assert {theta: orientable_via_topcell(system, theta) for theta in verdicts} == verdicts


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
@pytest.mark.parametrize("max_length", [0, 1, 3, None])
def test_walk_matches_scan_of_w(family, rank, max_length):
    """The walk of W^Theta up the left weak order gives the scan of all of W
    for W^Theta, in the same order and field by field."""

    def fields(w):
        return w.word, w.matrix, w.inverse_matrix

    system = root_system(family, rank)
    for theta in _subsets(rank):
        walked = WeylGroup(system).minimal_representatives(theta, max_length)
        scanned = scan_representatives(system, theta, max_length)
        assert [fields(w) for w in walked] == [fields(w) for w in scanned]


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_walk_makes_each_element_once_from_its_tail(family, rank, monkeypatch):
    """The walk multiplies each element of W^Theta out once: it makes two
    products, s_i*v and its inverse, exactly as often as the memo gains an
    element, and each new element keeps the stored tail it was made from, its
    word that tail's with one letter in front."""
    calls = _count_products(monkeypatch)
    system = root_system(family, rank)
    for theta in _subsets(rank):
        g = WeylGroup(system)
        calls.clear()
        reps = g.minimal_representatives(theta)
        assert len(calls) == 2 * (len(g.by_matrix) - 1) == 2 * (len(reps) - 1)
        assert [m for _, m in calls] == [
            m for w in reps[1:] for m in (w.tail.inverse_matrix, w.tail.matrix)]
        for w in reps[1:]:
            assert g.by_matrix[w.tail.matrix] is w.tail
            assert w.word == (w.word[0],) + w.tail.word


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_walk_multiplies_only_steps_its_kept_columns_allow(family, rank, monkeypatch):
    """v^{-1}*s_i keeps v^{-1}'s column k wherever C[i][k] = 0, so a step
    s_i*v whose kept column k < i is negative has a smaller left descent and
    is refused before the product is built: every inverse v^{-1}*s_i =
    s_gamma*v^{-1}, gamma = v^{-1}(a_i), that the walk multiplies out has
    v^{-1}(a_k) > 0 for each k < i not adjacent to i, and is followed by the
    step's s_i*v.  The other columns k < i are read through s_gamma's table,
    so the walk multiplies only the steps it takes, one inverse per element
    besides e: W(A5) takes 719 inverses for its 720 elements, against 975
    when each step that passed the kept columns was multiplied, and 1,800
    when each step up was."""
    calls = _count_products(monkeypatch)
    system = root_system(family, rank)
    C = system.cartan.cartan_matrix
    for theta in _subsets(rank):
        g = WeylGroup(system)
        calls.clear()
        reps = g.minimal_representatives(theta)
        for (s_gamma, inverse), (s_i, _) in zip(calls[::2], calls[1::2]):
            i = g.identity.matrix.index(s_i.root)
            assert s_gamma.root == inverse[i]
            assert all(is_positive(inverse[k]) for k in range(i) if C[i][k] == 0)
        assert len(calls) == 2 * (len(reps) - 1)
    calls.clear()
    assert len(WeylGroup(root_system("A", 5)).minimal_representatives(set())) == 720
    assert len(calls) == 2 * 719


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_walk_and_covers_make_two_products_per_element_and_pair(family, rank, monkeypatch):
    """Every product goes through `Reflection.times`: `cells_with_covers` makes
    two per element of W^Theta besides e (s_i*v and its inverse) and two per
    cover kept (w' = s_beta*w and the check of its inverse s_gamma*w^{-1})."""
    calls = _count_products(monkeypatch)
    system = root_system(family, rank)
    for theta in _subsets(rank):
        calls.clear()
        cells = list(WeylGroup(system).cells_with_covers(theta, None))
        pairs = sum(len(found) for _, found in cells)
        assert len(calls) == 2 * (len(cells) - 1) + 2 * pairs
    # the A5 full flag, and Theta = {2} (1-based) of A5
    for theta, products in [(frozenset(), 8854), (frozenset({1}), 3730)]:
        calls.clear()
        list(WeylGroup(root_system("A", 5)).cells_with_covers(theta, None))
        assert len(calls) == products


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_simple_products_match_dense_rules(family, rank):
    """Oracle: w*s_i changes every column j to col_j - C[i][j]*col_i, and
    s_i*w applies the simple reflection s_i to every column."""
    g = cached_group(family, rank)
    C = g.system.cartan.cartan_matrix
    for w in g.elements:
        m = w.matrix
        for i in range(rank):
            dense = tuple(
                tuple(m[j][k] - C[i][j] * m[i][k] for k in range(rank)) for j in range(rank)
            )
            assert right_times(g, m, i) == dense
            assert left_times(g, i, m) == tuple(reflect(g.system, i, col) for col in m)


def _reflect_root(system, alpha, beta):
    # <alpha_v, beta> via the bilinear form: 2(alpha,beta)/(alpha,alpha)
    num = bilinear(system, alpha, beta) * 2
    den = bilinear(system, alpha, alpha)
    assert num % den == 0
    k = num // den
    return tuple(b - k * a for a, b in zip(alpha, beta))


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_reflection_tables_match_two_oracles(family, rank):
    """On every root, s_i's table gives `reflect`'s image, and s_b's, keyed
    by b and by -b alike, the image under the bilinear form's reflection;
    each value is the root system's own tuple."""
    g = WeylGroup(root_system(family, rank))
    roots = g.system.roots
    for x in roots:
        for i in range(rank):
            image = g.reflections[g.identity.matrix[i]][x]
            assert image == reflect(g.system, i, x) and roots[image] is image
        for b in g.system.positive_roots:
            image = g.reflections[b][x]
            assert image == _reflect_root(g.system, b, x) and roots[image] is image
            assert g.reflections[negate(b)][x] is image


def test_full_flag_walk_keeps_one_table_per_reflection():
    """s_i is the table of a_i, and each table is keyed by the root tuples b and
    -b alone, so the A5 walk with covers reads |Phi+| = 15 tables under
    2|Phi+| = 30 keys, each table holding at most the 30 roots."""
    g = WeylGroup(root_system("A", 5))
    assert sum(len(pairs) for _, pairs in g.cells_with_covers(frozenset(), None)) > 0
    roots = g.system.roots
    assert len(g.reflections) == 2 * len(g.system.positive_roots) == len(roots)
    assert all(type(key) is tuple and key in roots for key in g.reflections)
    tables = {id(t): t for t in g.reflections.values()}
    assert len(tables) == 15
    for table in tables.values():
        assert table and len(table) <= 30
        assert all(roots[x] is x and roots[y] is y for x, y in table.items())


def test_products_refuse_a_column_that_is_not_a_root():
    """2*a_1 is no root of A2: a product that reflects it, or reflects by it,
    raises KeyError, which the descent search `build` reports."""
    g = WeylGroup(root_system("A", 2))
    a1, a2 = g.identity.matrix
    two = tuple(2 * x for x in a1)
    for product in (lambda: g.reflections[a1].times((two, a2)),
                    lambda: g.reflections[two].times((two, a2)),
                    lambda: g.reflections[a2].times((a2, two))):
        with pytest.raises(KeyError):
            product()


def test_covers_oracle_s9_example():
    w = (1, 3, 7, 5, 8, 2, 9, 4, 6)
    w_prime = (1, 3, 7, 2, 8, 5, 9, 4, 6)
    assert covers_oracle_typeA(w, w_prime) == (4, 6)


def test_covers_oracle_adjacent_transposition():
    n = 5
    identity = tuple(range(1, n + 1))
    for i in range(1, n):
        w = list(identity)
        w[i - 1], w[i] = w[i], w[i - 1]
        assert covers_oracle_typeA(tuple(w), identity) == (i, i + 1)


def test_covers_oracle_rejects_non_permutation():
    with pytest.raises(ValueError, match="invalid one-line form"):
        covers_oracle_typeA((1, 1, 2), (1, 2, 3))


@pytest.mark.parametrize("n", [4, 5])
def test_covers_oracle_matches_word_covers(n):
    g = cached_group("A", n - 1)
    line = {w: one_line(w.word, n) for w in g.elements}
    word_covers = {
        (line[p.w], line[p.w_prime])
        for w in g.elements
        for p in lifted_covers(g, w, frozenset())
    }
    oracle_covers = set()
    for w in g.elements:
        for u in g.elements:
            if u.length == w.length - 1 and covers_oracle_typeA(line[w], line[u]):
                oracle_covers.add((line[w], line[u]))
    assert word_covers == oracle_covers
    assert set(line.values()) == set(itertools.permutations(range(1, n + 1)))


@pytest.mark.parametrize("n", range(2, 7))
def test_one_line_matches_value_swap_rule(n):
    """Oracle: s_j*w swaps the values j+1 and j+2 of w's one-line form."""
    g = cached_group("A", n - 1)
    for w in g.elements:
        perm = tuple(range(1, n + 1))
        for j in reversed(w.word):
            perm = tuple(j + 2 if v == j + 1 else j + 1 if v == j + 2 else v for v in perm)
        assert one_line(w.word, n) == perm
        assert from_one_line(g, perm) == w
    assert len({one_line(w.word, n) for w in g.elements}) == len(g.elements)


def test_minimal_representatives():
    g = cached_group("A", 2)
    assert len(g.minimal_representatives(set())) == 6
    assert g.minimal_representatives({0, 1}) == [g.identity]
    assert len(g.minimal_representatives({0})) == 3  # cells of RP^2


def test_minimal_representative_factorization():
    """Every w factors uniquely as w^Theta * w_Theta with additive length."""
    g = cached_group("A", 3)
    for theta in _subsets(3):
        reps = g.minimal_representatives(theta)
        subgroup = [
            w for w in g.elements if all(letter in theta for letter in w.word)
        ]
        assert len(reps) * len(subgroup) == len(g.elements)
        seen = set()
        for rep in reps:
            for sub in subgroup:
                prod = element_from_word(g, rep.word + sub.word)
                assert prod.length == rep.length + sub.length
                assert prod not in seen
                seen.add(prod)
        assert len(seen) == len(g.elements)


def _subsets(rank):
    for size in range(rank + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(rank), size))


def test_code_spectrum_worked_example():
    w = from_lehmer_code((0, 2, 0, 1, 0))
    assert code_spectrum(w) == (2, 2, 4)


def test_code_spectrum_identity():
    assert code_spectrum((1, 2, 3, 4)) == ()


def test_spectrum_ii_is_si1_si():
    g = cached_group("A", 3)
    for i in (1, 2):
        w = from_one_line(g, from_code_spectrum((i, i), 4))
        assert w.word == (i, i - 1)  # s_{i+1} s_i in 1-based letters


def test_code_spectrum_round_trip_s5():
    for perm in itertools.permutations(range(1, 6)):
        spectrum = code_spectrum(perm)
        assert from_code_spectrum(spectrum, 5) == perm
        assert len(spectrum) == sum(lehmer_code(perm))


def test_from_code_spectrum_rejects_malformed():
    for bad in [(3, 2), (0,), (5,), (1, 1, 1, 1)]:
        with pytest.raises(ValueError, match="invalid code spectrum"):
            from_code_spectrum(bad, 4)


def test_canonical_words_match_fixed_low_length_decompositions():
    """The lex-min canonical words agree with the fixed choices for all
    spectra of length up to three (1-based): <i>=s_i, <i,j>=s_i s_j,
    <i,i>=s_{i+1}s_i, <i,j,k>=s_i s_j s_k, <i,i,k>=s_{i+1}s_i s_k,
    <i,j,j>=s_i s_{j+1}s_j, <i,i,i>=s_{i+2}s_{i+1}s_i."""
    for n in (4, 5):
        g = cached_group("A", n - 1)
        m = n - 1  # number of generators, 1-based letters below

        def elem(spectrum):
            return from_one_line(g, from_code_spectrum(spectrum, n))

        for i in range(1, m + 1):
            assert elem((i,)).word == (i - 1,)
        for i in range(1, m):
            assert elem((i, i)).word == (i, i - 1)
        for i, j in itertools.combinations(range(1, m + 1), 2):
            assert elem((i, j)).word == (i - 1, j - 1)
        for i, j, k in itertools.combinations(range(1, m + 1), 3):
            assert elem((i, j, k)).word == (i - 1, j - 1, k - 1)
        for i in range(1, m):
            for k in range(i + 1, m + 1):
                if k == i + 1:
                    # braid exception: s_{i+1} s_i s_{i+1} = s_i s_{i+1} s_i,
                    # and the latter is lex-smaller; this cell is not used by
                    # the low-degree sign table, so the deviation is harmless
                    assert elem((i, i, k)).word == (i - 1, i, i - 1)
                else:
                    assert elem((i, i, k)).word == (i, i - 1, k - 1)
        for i in range(1, m - 1):
            for j in range(i + 1, m):
                assert elem((i, j, j)).word == (i - 1, j, j - 1)
        for i in range(1, m - 1):
            assert elem((i, i, i)).word == (i + 1, i, i - 1)
