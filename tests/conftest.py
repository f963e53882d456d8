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
