"""Boundary-coefficient engine: the exponent kappa by independent routes,
coefficient magnitudes, and table-backed signs.

For a covering pair w = w'*s_gamma the coefficient is +-(1 + (-1)^kappa), so
kappa's parity decides magnitude 0 vs 2.  Three routes compute kappa from
different data (coroot height, the sigma sum over the suffix inversion set,
and the difference of inversion-set sums); they must always agree, and any
disagreement is treated as a bug, never voted away.  The two inversion-set
routes read the sums ``phi`` and the ``tail`` chain that each `WeylElement`
carries from its construction, so neither rebuilds an inversion set.
"""

from __future__ import annotations

from .rootsys import Coeffs, Record, height, root_system
from .weyl import CoveringPair, WeylGroup, covers_oracle_typeA, one_line


class RouteDisagreementError(AssertionError):
    """Two mathematically equal kappa routes produced different values."""


def kappa_via_height(group: WeylGroup, pair: CoveringPair) -> int:
    """kappa = height of gamma's coroot in the dual root system."""
    return group.system.coroot_height(pair.gamma)


def kappa_via_sigma(group: WeylGroup, pair: CoveringPair) -> int:
    """kappa = 1 - sigma, with sigma summed over the inversion set of the
    suffix u = s_{I+1} ... s_l of w's canonical word: by linearity, the
    pairing of the deleted letter's coroot with phi(u), u being w's I-th tail."""
    u = pair.w
    for _ in range(pair.deleted_index):
        u = u.tail
    return 1 - group.system.killing_number(pair.w.word[pair.deleted_index - 1], u.phi)


def kappa_via_phi(group: WeylGroup, pair: CoveringPair) -> int:
    """kappa from phi(w) - phi(w') = kappa * beta, phi summing the inversion set."""
    diff = [a - b for a, b in zip(pair.w.phi, pair.w_prime.phi)]
    i = next(i for i, b in enumerate(pair.beta) if b)  # beta is a positive root
    kappa = diff[i] // pair.beta[i]
    if diff != [kappa * b for b in pair.beta]:
        raise AssertionError(f"phi-difference inconsistency on {pair}")
    return kappa


_DUAL_FAMILY = {"B": "C", "C": "B", "F": "F", "G": "G"}


def kappa_via_dual_height_remarks(group: WeylGroup, pair: CoveringPair) -> int:
    """kappa as a plain height after transporting gamma to the dual system
    realized concretely: diagram reversal for F4/G2, relabeling B <-> C.

    The transported coefficient vector must itself be a root of the target
    system, which is the content of the self-duality / B-C duality remarks.
    """
    system = group.system
    family = system.family
    if family not in _DUAL_FAMILY:
        raise ValueError("remark route not applicable")
    dual_coeffs = system.coroot(pair.gamma)
    if family in ("F", "G"):
        # dual simple roots are the same diagram read backwards
        image: Coeffs = tuple(reversed(dual_coeffs))
        target = system
    else:
        target = root_system(_DUAL_FAMILY[family], system.rank)
        image = dual_coeffs
    if not target.is_root(image):
        raise AssertionError(f"transported root is not a root of the dual system on {pair}")
    return height(image)


class KappaReport(Record):
    """All kappa routes for one covering pair, plus magnitude and sign
    (kappa_typeA and sign None where they do not apply or are unknown)."""

    __slots__ = ("pair", "kappa_height", "kappa_sigma", "kappa_phi", "kappa_typeA",
                 "magnitude", "sign")


def _magnitude_and_sign(pair: CoveringPair, kappa: int) -> tuple[int, int | None]:
    """Magnitude 0 or 2 from kappa's parity.  A sign is emitted only when the
    deletion of position I from w's canonical word reproduces w's cover
    letter-by-letter, in which case the characteristic-map degree is 1 and
    the sign is (-1)^I; otherwise the sign is None (unknown)."""
    if kappa % 2:
        return 0, None
    word = pair.w.word
    deleted = word[: pair.deleted_index - 1] + word[pair.deleted_index :]
    return 2, ((-1) ** pair.deleted_index if deleted == pair.w_prime.word else None)


def coefficient(group: WeylGroup, pair: CoveringPair) -> tuple[int, int | None]:
    """(magnitude, sign) of c(w, w'); the height and sigma routes are both
    evaluated and must agree."""
    kh = kappa_via_height(group, pair)
    ks = kappa_via_sigma(group, pair)
    if kh != ks:
        raise RouteDisagreementError(
            f"kappa routes disagree on {pair}: height={kh} sigma={ks}"
        )
    return _magnitude_and_sign(pair, kh)


def kappa_report(group: WeylGroup, pair: CoveringPair) -> KappaReport:
    """Evaluate every applicable route once; hard-fail on any disagreement."""
    kh = kappa_via_height(group, pair)
    ks = kappa_via_sigma(group, pair)
    kp = kappa_via_phi(group, pair)
    values = {kh, ks, kp}
    ka: int | None = None
    if group.system.family == "A":
        n = group.system.rank + 1
        positions = covers_oracle_typeA(
            one_line(pair.w.word, n), one_line(pair.w_prime.word, n)
        )
        if positions is None:
            raise AssertionError(f"covering pair rejected by the one-line oracle on {pair}")
        ka = positions[1] - positions[0]
        values.add(ka)
    if group.system.family in _DUAL_FAMILY:
        values.add(kappa_via_dual_height_remarks(group, pair))
    if len(values) != 1:
        raise RouteDisagreementError(f"kappa routes disagree on {pair}: {sorted(values)}")
    return KappaReport(pair, kh, ks, kp, ka, *_magnitude_and_sign(pair, kh))
