"""Cyclic gluing words: rotation classes, stabilizers, and necklace counts.

A word over {1, ..., r} read around Z/mZ encodes which building piece
sits at each slot of a cyclic gluing; two words describe commensurable
glued objects exactly when they lie in the same rotation orbit.  This
module canonicalizes words (Booth's least-rotation algorithm), decides
orbit equality with a witness shift, reports dihedral stabilizers, and
counts fixed-content rotation classes exactly.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

__all__ = [
    "CyclicWord",
    "StabilizerReport",
    "brute_force_class_count",
    "canonical_rotation",
    "dihedral_stabilizer",
    "enumerate_classes",
    "isometry_upper_bound",
    "multinomial_lower_bound",
    "necklace_count",
    "primitive_root",
    "same_class",
]


@dataclass(frozen=True)
class CyclicWord:
    """Letters in [1, r] indexed by Z/mZ; equality of tuples is position-wise."""

    letters: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if len(letters) < 1:
            raise ValueError("word must have length >= 1")
        if self.r < 1:
            raise ValueError("alphabet size r must be >= 1")
        for x in letters:
            if not isinstance(x, int) or not 1 <= x <= self.r:
                raise ValueError(f"letter {x!r} outside alphabet [1, {self.r}]")

    @property
    def m(self) -> int:
        return len(self.letters)

    def rotate(self, s: int) -> "CyclicWord":
        s %= self.m
        return CyclicWord(self.letters[s:] + self.letters[:s], self.r)

    @classmethod
    def parse(cls, text: str, r: Optional[int] = None) -> "CyclicWord":
        """Parse a comma-separated word like "2,1,1"; r defaults to the largest letter."""
        try:
            letters = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"malformed word {text!r}: expected comma-separated integers")
        if not letters:
            raise ValueError("empty word")
        return cls(letters, max(letters) if r is None else r)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.letters)


def _least_rotation_index(seq: tuple[int, ...]) -> int:
    """Booth's algorithm: smallest index starting the lexicographically least rotation."""
    s = seq + seq
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k % len(seq)


def canonical_rotation(w: CyclicWord) -> tuple[CyclicWord, int]:
    """Lexicographically least rotation and the shift that realizes it."""
    shift = _least_rotation_index(w.letters)
    return w.rotate(shift), shift


def _period(letters: tuple[int, ...]) -> int:
    m = len(letters)
    return next(
        d for d in range(1, m + 1) if m % d == 0 and letters[d:] + letters[:d] == letters
    )


def primitive_root(w: CyclicWord) -> CyclicWord:
    """Shortest word g with w = g repeated m/|g| times."""
    return CyclicWord(w.letters[: _period(w.letters)], w.r)


def same_class(alpha: CyclicWord, beta: CyclicWord) -> tuple[bool, Optional[int]]:
    """Rotation-orbit equality, with the smallest witness shift.

    A witness p satisfies beta[j] = alpha[(j + p) mod m] for all j, i.e.
    alpha.rotate(p) == beta.  Words of different lengths or alphabets are
    a contract violation, not a negative answer.
    """
    if alpha.m != beta.m:
        raise ValueError(f"length mismatch: {alpha.m} vs {beta.m}")
    if alpha.r != beta.r:
        raise ValueError(f"alphabet mismatch: {alpha.r} vs {beta.r}")
    canon_a, shift_a = canonical_rotation(alpha)
    canon_b, shift_b = canonical_rotation(beta)
    if canon_a.letters != canon_b.letters:
        return False, None
    return True, (shift_a - shift_b) % _period(alpha.letters)


# -------------------------------------------------------------- stabilizers


@dataclass(frozen=True)
class StabilizerReport:
    """Rotations and reflections of Z/mZ preserving the coloring."""

    rotation_order: int
    reflection_exists: bool

    @property
    def dihedral_order(self) -> int:
        return self.rotation_order * (2 if self.reflection_exists else 1)


def dihedral_stabilizer(w: CyclicWord) -> StabilizerReport:
    """Count the rotations and detect a reflection of Z/mZ preserving the coloring.

    The shifts fixing w form a subgroup of Z/mZ generated by the period d of
    w, so there are m/d of them.  The reflection i -> t - i sends w to the
    word i -> w[(t - i) mod m], which is the reversed word rotated by
    m - 1 - t; so some reflection fixes w exactly when the reversed word
    lies in the rotation class of w.
    """
    rotations = w.m // _period(w.letters)
    reflection = same_class(w, CyclicWord(w.letters[::-1], w.r))[0]
    return StabilizerReport(rotations, reflection)


def isometry_upper_bound(w: CyclicWord, piece_bound: int) -> int:
    """dihedral_order(w) * piece_bound, an upper-bound factor for the glued
    object's isometry count; reflections are counted as potential, not realized."""
    if piece_bound < 1:
        raise ValueError("piece_bound must be >= 1")
    return dihedral_stabilizer(w).dihedral_order * piece_bound


# ----------------------------------------------------------------- counting


def _totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


class _MultinomialWalk:
    """M(r, k) = (rk)! / (k!)^r for k = 0, 1, 2, ..., for one alphabet size r.

    M(r, k) = M(r, k-1) * (rk-r+1)...(rk) / k^r, and the division is exact,
    so extending the sequence by one term costs a multiplication and a
    division of its numbers by small ones, no factorial.  Only the last r
    asked for is kept: a new r starts the sequence again at k = 0.  The
    lock makes the check of r and the extension one step for concurrent
    callers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._r = 0
        self._values = [1]

    def __call__(self, r: int, k: int) -> int:
        with self._lock:
            if r != self._r:
                self._r, self._values = r, [1]
            values = self._values
            for j in range(len(values), k + 1):
                values.append(values[-1] * math.perm(r * j, r) // j**r)
            return values[k]


_multinomial = _MultinomialWalk()


def necklace_count(r: int, m: int) -> int:
    """Number of rotation classes of words of length r*m with exactly m copies
    of each of r letters.

    Burnside over the rotation group: (1/(rm)) * sum over d | m of
    phi(d) * (rm/d)! / ((m/d)!)^r, with the divisors taken in pairs
    (d, m/d) for d up to isqrt(m).
    """
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    total = 0
    for d in range(1, math.isqrt(m) + 1):
        if m % d == 0:
            e = m // d
            total += _totient(d) * _multinomial(r, e)
            if e != d:
                total += _totient(e) * _multinomial(r, d)
    return total // (r * m)


def multinomial_lower_bound(r: int, m: int) -> Fraction:
    """(rm)! / ((m!)^r * rm): the orbit count is at least this, exactly."""
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    return Fraction(_multinomial(r, m), r * m)


def _fixed_content_words(r: int, m: int) -> Iterator[tuple[int, ...]]:
    """All words with m copies of each of 1..r, in lexicographic order."""
    w = [k for k in range(1, r + 1) for _ in range(m)]
    yield tuple(w)
    n = len(w)
    while True:
        i = n - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1 :] = reversed(w[i + 1 :])
        yield tuple(w)


def _necklaces(a: list[int], left: list[int], t: int, p: int, out: list) -> None:
    """Fredricksen-Kessler-Maiorana recursion restricted to fixed content.

    a[1:t] is a prenecklace (every prefix of a necklace is one) whose
    longest Lyndon prefix has length p; a[0] = 0 is a sentinel.  The next
    letter either repeats a[t - p], keeping p, or exceeds it, making the
    whole prefix Lyndon (p = t); only letters with copies left are tried.
    A full prenecklace is a necklace iff p divides its length.
    """
    n = len(a) - 1
    if t > n:
        if n % p == 0:
            out.append(tuple(a[1:]))
        return
    for j in range(a[t - p], len(left)):
        if left[j]:
            left[j] -= 1
            a[t] = j
            _necklaces(a, left, t + 1, p if j == a[t - p] else t, out)
            left[j] += 1


def enumerate_classes(r: int, m: int, cap: int = 20) -> list[CyclicWord]:
    """One canonical representative per rotation class of fixed-content words,
    in lexicographic order.  Refuses word lengths above the cap.

    The canonical representatives are the necklaces (words that are their
    own least rotation).  `_necklaces` (Sawada, TCS 301, 2003) builds them
    in lexicographic order through prenecklace prefixes only, never
    visiting the other words; a necklace starts with its least letter, so
    it starts after a leading 1.  For r = 1 the one class is written down
    directly, since the recursion is as deep as the word.  For r >= 2 words
    longer than half the interpreter's recursion limit are refused before
    recursing, leaving the other half to the caller's frames.  Under the
    default limit of 1000 that refuses rm > 500, where there are more than
    2^480 classes, too many to list anyway.
    """
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    if r * m > cap:
        raise ValueError(f"enumeration cap exceeded: r*m = {r * m} > {cap}")
    if r == 1:
        return [CyclicWord((1,) * m, 1)]
    depth = sys.getrecursionlimit() // 2
    if r * m > depth:
        raise ValueError(f"word length r*m = {r * m} exceeds the recursion depth {depth}")
    out: list[tuple[int, ...]] = []
    _necklaces([0, 1] + [0] * (r * m - 1), [0, m - 1] + [m] * (r - 1), 2, 1, out)
    return [CyclicWord(word, r) for word in out]


def brute_force_class_count(r: int, m: int) -> int:
    """Independent oracle for necklace_count: generate every fixed-content word
    and bucket by naive minimum-over-rotations.  Only sensible for rm <= 12."""
    seen = set()
    for word in _fixed_content_words(r, m):
        doubled = word + word
        n = len(word)
        seen.add(min(doubled[s : s + n] for s in range(n)))
    return len(seen)
