from functools import lru_cache

from flaghom import WeylGroup, root_system
from flaghom.rootsys import is_positive


@lru_cache(maxsize=None)
def cached_group(family: str, rank: int, max_length: int | None = None):
    return WeylGroup(root_system(family, rank), max_length=max_length)


def from_one_line(group, perm):
    """The type A element with this one-line form, built from a reduced word:
    each bubble-sort swap at positions k+1, k+2 removes one inversion, so
    perm = s_{k_m} ... s_{k_1} for the swaps k_1, ..., k_m in order."""
    perm, word = list(perm), []
    while True:
        k = next((k for k in range(len(perm) - 1) if perm[k] > perm[k + 1]), None)
        if k is None:
            return group.element_from_word(tuple(reversed(word)))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        word.append(k)


def is_reduced(group, word):
    """Oracle: a word is reduced iff each letter i lengthens the prefix
    before it, i.e. the prefix sends the simple root a_i to a positive root."""
    m = group.identity.matrix
    for i in word:
        if not is_positive(m[i]):
            return False
        m = group._right_mult(m, i)
    return True


def poincare_by_scan(group, theta):
    """Oracle: the length counts of W^Theta, read off a fully enumerated group."""
    reps = group.minimal_representatives(frozenset(theta))
    coeffs = [0] * (max(w.length for w in reps) + 1)
    for w in reps:
        coeffs[w.length] += 1
    return coeffs


def orientable_by_root_sum(system, theta):
    """Oracle: F_Theta is orientable iff, for every simple root a, the sum of
    <b, a^v> over the positive roots b outside Theta's subsystem is even
    (the component group M is generated by the m_a, and m_a acts on g_b by
    the sign (-1)^<b, a^v>)."""
    outside = [
        b for b in system.positive_roots if any(c for i, c in enumerate(b) if i not in theta)
    ]
    return all(
        sum(system.killing_number(i, b) for b in outside) % 2 == 0 for i in range(system.rank)
    )
