import itertools

import pytest

import flaghom.coeffs

from flaghom import (
    WeylGroup,
    coefficient,
    kappa_report,
    kappa_via_dual_height_remarks,
    kappa_via_height,
    kappa_via_phi,
    kappa_via_sigma,
    one_line,
)
from flaghom.rootsys import RootSystem, height, simple_root
from flaghom.weyl import CoveringPair

from conftest import (
    ORACLE_GROUPS,
    cached_group,
    code_spectrum,
    element_from_word,
    from_code_spectrum,
    from_one_line,
    kappa_phi_by_word,
    kappa_sigma_by_word,
    lifted_covers,
)


def all_pairs(group, max_length=None):
    for w in group.elements:
        if w.length == 0 or (max_length is not None and w.length > max_length):
            continue
        yield from lifted_covers(group, w, frozenset())


def test_kappa_one_when_last_letter_deleted():
    g = cached_group("B", 3)
    for pair in all_pairs(g):
        if pair.deleted_index == pair.w.length:
            assert pair.gamma == simple_root(3, pair.w.word[-1])
            assert kappa_via_height(g, pair) == 1
            assert kappa_via_sigma(g, pair) == 1


def test_kappa_sigma_worked_example():
    g = cached_group("A", 2)
    w = element_from_word(g, (0, 1))
    pair = next(p for p in lifted_covers(g, w, frozenset()) if p.w_prime.word == (1,))
    assert pair.deleted_index == 1
    assert kappa_via_sigma(g, pair) == 2
    # equals the height of (s2 a1)^v = ht(a1 + a2) = 2
    assert kappa_via_height(g, pair) == 2


def test_kappa_phi_worked_examples():
    g = cached_group("A", 2)
    w = element_from_word(g, (0, 1))
    pair = next(p for p in lifted_covers(g, w, frozenset()) if p.w_prime.word == (1,))
    assert pair.beta == (1, 0)
    assert kappa_via_phi(g, pair) == 2
    for i in range(2):
        s = element_from_word(g, (i,))
        (p,) = lifted_covers(g, s, frozenset())
        assert p.w_prime == g.identity
        assert kappa_via_phi(g, p) == 1


def _with_beta(pair, beta):
    """The pair with another beta and every other field kept."""
    return CoveringPair(pair.w, pair.w_prime, pair.deleted_index, beta, pair.gamma)


def test_kappa_phi_rejects_a_difference_off_beta():
    """phi(w) - phi(w') = kappa * beta with kappa >= 1, so no other positive
    root divides it, and twice beta does not when kappa is odd."""
    g = cached_group("B", 3)
    for pair in all_pairs(g):
        other = next(r for r in g.system.positive_roots if r != pair.beta)
        bad = [_with_beta(pair, other)]
        if kappa_via_phi(g, pair) % 2:
            bad.append(_with_beta(pair, tuple(2 * b for b in pair.beta)))
        for fake in bad:
            with pytest.raises(AssertionError, match="phi-difference inconsistency"):
                kappa_via_phi(g, fake)


def _pair(family, rank, word, w_prime_word):
    """The covering pair of the cached group from word down to w_prime_word, 0-based."""
    g = cached_group(family, rank)
    w = element_from_word(g, word)
    pair = next(p for p in lifted_covers(g, w, frozenset()) if p.w_prime.word == w_prime_word)
    return g, pair


def test_phi_difference_inconsistency_names_the_pair():
    g, pair = _pair("A", 2, (1, 0), (0,))
    with pytest.raises(AssertionError) as exc:
        kappa_via_phi(g, _with_beta(pair, (1, 0)))  # the true beta is (0, 1)
    assert str(exc.value) == "phi-difference inconsistency on w=[2, 1] w'=[1] I=1"


def test_untransported_root_names_the_pair(monkeypatch):
    g, pair = _pair("G", 2, (0, 1), (0,))
    monkeypatch.setattr(RootSystem, "is_root", lambda system, root: False)
    with pytest.raises(AssertionError) as exc:
        kappa_via_dual_height_remarks(g, pair)
    assert str(exc.value) == (
        "transported root is not a root of the dual system on w=[1, 2] w'=[1] I=2"
    )


def test_one_line_oracle_rejection_names_the_pair(monkeypatch):
    g, pair = _pair("A", 2, (1, 0), (1,))
    monkeypatch.setattr(flaghom.coeffs, "covers_oracle_typeA", lambda w, w_prime: None)
    with pytest.raises(AssertionError) as exc:
        kappa_report(g, pair)
    assert str(exc.value) == (
        "covering pair rejected by the one-line oracle on w=[2, 1] w'=[2] I=2"
    )


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_three_way_agreement(family, rank):
    g = cached_group(family, rank)
    for pair in all_pairs(g):
        kh = kappa_via_height(g, pair)
        assert kh == kappa_via_sigma(g, pair) == kappa_via_phi(g, pair)
        assert kh >= 1


def test_kappa_one_iff_gamma_simple():
    g = cached_group("B", 3)
    for pair in all_pairs(g):
        assert (kappa_via_height(g, pair) == 1) == (sum(pair.gamma) == 1)


def test_typeA_kappa_is_j_minus_i():
    g = cached_group("A", 3)
    for pair in all_pairs(g):
        rep = kappa_report(g, pair)
        assert rep.kappa_typeA == rep.kappa_height


def test_dual_remarks_g2():
    g = cached_group("G", 2)
    for pair in all_pairs(g):
        assert kappa_via_dual_height_remarks(g, pair) == kappa_via_height(g, pair)


def test_dual_remarks_f4_simple_gamma():
    g = cached_group("F", 4, 3)
    seen = False
    for pair in all_pairs(g):
        if pair.gamma == simple_root(4, 0):
            # gamma = a1 maps to the reversed simple root a4, height 1
            assert kappa_via_dual_height_remarks(g, pair) == 1
            seen = True
    assert seen


def test_dual_remarks_f4_matches_height():
    g = cached_group("F", 4, 4)
    for pair in all_pairs(g):
        assert kappa_via_dual_height_remarks(g, pair) == kappa_via_height(g, pair)


def test_b2_c2_kappa_tables_identical():
    # B2 and C2 share the same Coxeter structure; under the generator
    # relabeling (1,2) -> (2,1) the kappa tables coincide
    gb, gc = cached_group("B", 2), cached_group("C", 2)
    table_b = sorted(
        (p.w.word, p.w_prime.word, kappa_via_height(gb, p)) for p in all_pairs(gb)
    )
    relabeled = sorted(
        (
            element_from_word(gb, tuple(1 - i for i in p.w.word)).word,
            element_from_word(gb, tuple(1 - i for i in p.w_prime.word)).word,
            kappa_via_height(gc, p),
        )
        for p in all_pairs(gc)
    )
    assert table_b == relabeled


def test_remark_route_rejects_other_families():
    g = cached_group("A", 2)
    pair = next(all_pairs(g))
    with pytest.raises(ValueError, match="remark route not applicable"):
        kappa_via_dual_height_remarks(g, pair)


def test_magnitude_parity_law():
    g = cached_group("B", 2)
    for pair in all_pairs(g):
        magnitude, _ = coefficient(g, pair)
        assert magnitude == (0 if kappa_via_height(g, pair) % 2 else 2)


def _signed(group, pair):
    magnitude, sign = coefficient(group, pair)
    if magnitude == 0:
        return 0
    assert sign is not None
    return sign * magnitude


def boundary_of(group, n, spectrum):
    """Signed boundary of the cell with the given code spectrum, as a map
    from cover spectra to coefficients (zeros dropped)."""
    w = from_one_line(group, from_code_spectrum(spectrum, n))
    out = {}
    for pair in lifted_covers(group, w, frozenset()):
        c = _signed(group, pair)
        if c:
            out[code_spectrum(one_line(pair.w_prime.word, n))] = c
    return out


@pytest.mark.parametrize("n", [4, 5])
def test_low_degree_sign_table(n, request=None):
    g = cached_group("A", n - 1)
    for i in range(1, n - 1):
        assert boundary_of(g, n, (i, i)) == {(i,): -2}
        assert boundary_of(g, n, (i, i + 1)) == {(i + 1,): -2}
    for i in range(1, n - 2):
        for j in range(i + 2, n):
            assert boundary_of(g, n, (i, j)) == {}
            assert boundary_of(g, n, (i, j - 1, j)) == {(i, j): 2}
        assert boundary_of(g, n, (i, i + 1, i + 1)) == {
            (i, i + 1): 2,
            (i + 1, i + 1): -2,
        }


def test_report_consistency():
    g = cached_group("A", 3)
    for pair in all_pairs(g, max_length=3):
        rep = kappa_report(g, pair)
        assert rep.kappa_height == rep.kappa_sigma == rep.kappa_phi
        assert rep.magnitude == abs(1 + (-1) ** rep.kappa_height)
        if rep.sign is not None:
            assert rep.magnitude == 2


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_kappa_report_evaluates_each_route_once(monkeypatch, family, rank):
    routes = [
        "kappa_via_height", "kappa_via_sigma", "kappa_via_phi", "kappa_via_dual_height_remarks"
    ]
    calls = dict.fromkeys(routes, 0)

    def counted(name, route):
        def wrapper(group, pair):
            calls[name] += 1
            return route(group, pair)

        return wrapper

    for name in routes:
        monkeypatch.setattr(flaghom.coeffs, name, counted(name, getattr(flaghom.coeffs, name)))
    g = cached_group(family, rank)
    pairs = list(all_pairs(g))
    for pair in pairs:
        kappa_report(g, pair)
    dual = len(pairs) if family != "A" else 0
    assert calls == {
        "kappa_via_height": len(pairs),
        "kappa_via_sigma": len(pairs),
        "kappa_via_phi": len(pairs),
        "kappa_via_dual_height_remarks": dual,
    }


@pytest.mark.parametrize("family,rank", ORACLE_GROUPS)
def test_sigma_and_phi_routes_match_word_oracles(family, rank):
    """The routes that read tail and phi equal the sums over inversion sets
    read off the words: on every cover of W, and on the covers in W^Theta of
    a group that builds only W^Theta, for every maximal theta."""
    full = cached_group(family, rank)
    for theta in [frozenset()] + [frozenset(range(rank)) - {i} for i in range(rank)]:
        g = WeylGroup(full.system) if theta else full
        for _, pairs in g.cells_with_covers(theta, None):
            for pair in pairs:
                assert kappa_via_sigma(g, pair) == kappa_sigma_by_word(g, pair)
                assert kappa_via_phi(g, pair) == kappa_phi_by_word(g, pair)


def test_routes_rebuild_no_inversion_set(monkeypatch):
    g = cached_group("B", 3)
    pairs = list(all_pairs(g))

    def refuse(*args):
        raise AssertionError("a kappa route multiplied out a word")

    monkeypatch.setattr(WeylGroup, "_right_mult", refuse)
    monkeypatch.setattr(WeylGroup, "_left_mult", refuse)
    for pair in pairs:
        kappa_via_sigma(g, pair)
        kappa_via_phi(g, pair)
        kappa_report(g, pair)
