"""Weyl group elements, reduced words, Bruhat covers and coset representatives.

Elements are identified by their action on the simple-root coordinates: the
``matrix`` field holds the images of the simple roots as columns, which is a
faithful finite representation.  Words are canonical (lexicographically
smallest reduced), computed greedily from left descents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .rootsys import Coeffs, RootSystem, is_positive, simple_root

Matrix = tuple[Coeffs, ...]  # columns: images of the simple roots

DEFAULT_SIZE_CAP = 10**6


class GroupTooLargeError(ValueError):
    """Raised when full enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class WeylElement:
    word: tuple[int, ...]
    matrix: Matrix
    inverse_matrix: Matrix
    one_line: tuple[int, ...] | None = None

    @property
    def length(self) -> int:
        return len(self.word)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def apply(self, root: Coeffs) -> Coeffs:
        """Image of a root under this element."""
        return _apply(self.matrix, root)

    def inverse_apply(self, root: Coeffs) -> Coeffs:
        return _apply(self.inverse_matrix, root)


def _apply(matrix: Matrix, root: Coeffs) -> Coeffs:
    n = len(matrix)
    return tuple(
        sum(root[j] * matrix[j][i] for j in range(n)) for i in range(n)
    )


@dataclass(frozen=True)
class CoveringPair:
    """w covers w_prime, with the deleted 1-based position I in w's
    canonical word and the two reflection roots: w = s_beta * w' = w' * s_gamma."""

    w: WeylElement
    w_prime: WeylElement
    deleted_index: int
    beta: Coeffs
    gamma: Coeffs

    def __str__(self) -> str:
        """The pair as the CLI names it: 1-based words and I."""
        w = [i + 1 for i in self.w.word]
        w_prime = [i + 1 for i in self.w_prime.word]
        return f"w={w} w'={w_prime} I={self.deleted_index}"


class WeylGroup:
    """Enumerated Weyl group (optionally truncated by length) of a root system."""

    def __init__(
        self,
        system: RootSystem,
        max_length: int | None = None,
        size_cap: int = DEFAULT_SIZE_CAP,
    ):
        self.system = system
        self.max_length = max_length
        n = system.rank
        self._identity_matrix: Matrix = tuple(simple_root(n, i) for i in range(n))
        self.elements: list[WeylElement] = []
        self.by_matrix: dict[Matrix, WeylElement] = {}
        self._enumerate(size_cap)

    # -- construction -----------------------------------------------------

    def _right_mult(self, matrix: Matrix, i: int) -> Matrix:
        """Matrix of w*s_i: column j becomes col_j - C[i][j]*col_i."""
        C = self.system.cartan.cartan_matrix
        n = self.system.rank
        cols = list(matrix)
        ci = cols[i]
        cols = [
            tuple(cols[j][k] - C[i][j] * ci[k] for k in range(n))
            for j in range(n)
        ]
        return tuple(cols)

    def _left_mult(self, i: int, matrix: Matrix) -> Matrix:
        """Matrix of s_i*w: reflect every column."""
        return tuple(self.system.reflect(i, col) for col in matrix)

    def _enumerate(self, size_cap: int) -> None:
        n = self.system.rank
        seen: dict[Matrix, Matrix] = {self._identity_matrix: self._identity_matrix}
        level = [self._identity_matrix]
        levels = [level]
        length = 0
        while level and (self.max_length is None or length < self.max_length):
            nxt: list[Matrix] = []
            for m in level:
                for i in range(n):
                    if is_positive(m[i]):  # l(w*s_i) = l(w)+1
                        m2 = self._right_mult(m, i)
                        if m2 not in seen:
                            seen[m2] = self._left_mult(i, seen[m])  # inv of w*s_i
                            nxt.append(m2)
            if len(seen) > size_cap:
                raise GroupTooLargeError(f"group too large: more than {size_cap} elements")
            level = nxt
            levels.append(level)
            length += 1

        elements = []
        for m in seen:
            word = self._canonical_word(m, seen[m])
            one_line = (
                self._word_to_one_line(word) if self.system.family == "A" else None
            )
            elements.append(WeylElement(word, m, seen[m], one_line))
        elements.sort(key=lambda w: (w.length, w.word))
        self.elements = elements
        self.by_matrix = {w.matrix: w for w in elements}

    def _canonical_word(self, matrix: Matrix, inverse: Matrix) -> tuple[int, ...]:
        """Lex-smallest reduced word, by greedily peeling smallest left descents."""
        n = self.system.rank
        word: list[int] = []
        m, minv = matrix, inverse
        while m != self._identity_matrix:
            # i is a left descent iff w^{-1}(a_i) < 0
            i = next(j for j in range(n) if not is_positive(minv[j]))
            word.append(i)
            m = self._left_mult(i, m)
            minv = self._right_mult(minv, i)
        return tuple(word)

    def _word_to_one_line(self, word: tuple[int, ...]) -> tuple[int, ...]:
        n = self.system.rank + 1
        perm = list(range(1, n + 1))
        for i in word:
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    # -- queries ----------------------------------------------------------

    @property
    def identity(self) -> WeylElement:
        return self.by_matrix[self._identity_matrix]

    def element_from_word(self, word: tuple[int, ...] | list[int]) -> WeylElement:
        m = reduce(self._right_mult, word, self._identity_matrix)
        return self.by_matrix[m]

    def from_one_line(self, one_line: tuple[int, ...]) -> WeylElement:
        if self.system.family != "A":
            raise ValueError("one-line forms exist only in type A")
        return next(w for w in self.elements if w.one_line == tuple(one_line))

    def is_reduced(self, word: tuple[int, ...] | list[int]) -> bool:
        m = self._identity_matrix
        for i in word:
            if not is_positive(m[i]):
                return False
            m = self._right_mult(m, i)
        return True

    def inversion_set(self, w: WeylElement) -> list[Coeffs]:
        """Pi_w in word order: beta_k = s_1 ... s_{k-1}(d_k)."""
        return self.inversion_set_of_word(w.word)

    def inversion_set_of_word(self, word: tuple[int, ...] | list[int]) -> list[Coeffs]:
        roots: list[Coeffs] = []
        prefix = self._identity_matrix
        for i in word:
            roots.append(prefix[i])  # prefix applied to a_i is its i-th column
            prefix = self._right_mult(prefix, i)
        return roots

    def bruhat_covers(self, w: WeylElement) -> list[CoveringPair]:
        """All covering pairs under w, each with its unique deleted position."""
        word = w.word
        inversions = self.inversion_set_of_word(word)
        found: dict[Matrix, CoveringPair] = {}
        for idx in range(len(word)):
            subword = word[:idx] + word[idx + 1 :]
            if not self.is_reduced(subword):
                continue
            w_prime = self.element_from_word(subword)
            beta = inversions[idx]
            gamma = reduce(
                lambda r, i: self.system.reflect(i, r),
                word[idx + 1 :],
                self.system.simple(word[idx]),
            )
            assert is_positive(gamma), "gamma of a reduced deletion must be positive"
            pair = CoveringPair(w, w_prime, idx + 1, beta, gamma)
            if w_prime.matrix in found:
                raise AssertionError("deleted position is not unique")
            found[w_prime.matrix] = pair
        return sorted(found.values(), key=lambda p: p.deleted_index)

    def minimal_representatives(self, theta: frozenset[int] | set[int]) -> list[WeylElement]:
        """W^Theta: elements sending every simple root of Theta to a positive root."""
        theta = set(theta)
        if not theta <= set(range(self.system.rank)):
            raise ValueError("theta indices out of range")
        return [
            w
            for w in self.elements
            if all(is_positive(w.matrix[i]) for i in theta)
        ]


# -- type A one-line combinatorics ---------------------------------------


def covers_oracle_typeA(
    w_one_line: tuple[int, ...], w_prime_one_line: tuple[int, ...]
) -> tuple[int, int] | None:
    """Transposition positions (i, j), 1-based, when w covers w' in S_n.

    Returns None unless w = w'*(i,j) with w'(i) < w'(j) and no intermediate
    value at a position strictly between i and j.
    """
    w, wp = tuple(w_one_line), tuple(w_prime_one_line)
    n = len(w)
    for p in (w, wp):
        if sorted(p) != list(range(1, n + 1)):
            raise ValueError("invalid one-line form")
    diff = [k for k in range(n) if w[k] != wp[k]]
    if len(diff) != 2:
        return None
    i, j = diff
    if w[i] != wp[j] or w[j] != wp[i] or not wp[i] < wp[j]:
        return None
    if any(wp[i] < wp[k] < wp[j] for k in range(i + 1, j)):
        return None
    return (i + 1, j + 1)


def lehmer_code(one_line: tuple[int, ...]) -> tuple[int, ...]:
    n = len(one_line)
    if sorted(one_line) != list(range(1, n + 1)):
        raise ValueError("invalid one-line form")
    return tuple(
        sum(1 for k in range(i + 1, n) if one_line[k] < one_line[i])
        for i in range(n)
    )


def from_lehmer_code(code: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    n = len(code)
    remaining = list(range(1, n + 1))
    out = []
    for i, c in enumerate(code):
        if not 0 <= c <= n - 1 - i:
            raise ValueError("invalid Lehmer code")
        out.append(remaining.pop(c))
    return tuple(out)


def code_spectrum(one_line: tuple[int, ...]) -> tuple[int, ...]:
    """Partition re-encoding of the Lehmer code: value i appears code[i] times."""
    code = lehmer_code(one_line)
    spectrum: list[int] = []
    for i, c in enumerate(code, start=1):
        spectrum.extend([i] * c)
    return tuple(sorted(spectrum))


def from_code_spectrum(spectrum: tuple[int, ...] | list[int], n: int) -> tuple[int, ...]:
    """One-line form of the permutation in S_n with the given code spectrum."""
    spectrum = tuple(spectrum)
    if list(spectrum) != sorted(spectrum) or any(
        not 1 <= b <= n - 1 for b in spectrum
    ):
        raise ValueError("invalid code spectrum")
    code = [0] * n
    for b in spectrum:
        code[b - 1] += 1
    if any(code[i] > n - 1 - i for i in range(n)):
        raise ValueError("invalid code spectrum")
    return from_lehmer_code(code)
