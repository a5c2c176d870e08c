"""Cyclic gluing words: rotation classes, stabilizers, and necklace counts.

A word over {1, ..., r} read around Z/mZ encodes which building piece
sits at each slot of a cyclic gluing; two words describe commensurable
glued objects exactly when they lie in the same rotation orbit.  One
Duval pass over w.w yields the least rotation, which canonicalizes words.
The orbit test, the period and the reflection test are substring searches
on w.w: each word is encoded as a str with one character per letter, and
`str.find` (two-way search in C since CPython 3.10) finds beta in
alpha.alpha at the smallest witness shift, w in w.w from position 1 at
the period, and reversed w in w.w.  On crafted words of about 1,100 to
2,000 letters, such as 1^m against 1^h 2 1^(m-h-1), CPython's search
takes a quadratic-time path: up to about 3 ms at m = 2,000, some four
times two Duval passes.  Longer words get the linear two-way search.
Fixed-content rotation classes are counted exactly, by Burnside's lemma
with Euler's phi read from one totient sieve.

Only `CyclicWord(...)` and `CyclicWord.parse` check letters, where a word
comes in from outside; both refuse bool letters and an alphabet size that
is not an int.  Every word the module builds itself (rotations and
canonical forms of checked words, and the enumerated
classes, whose letters are 1..r by construction) goes through
`CyclicWord._unchecked`, which skips the check and fills the word's two
slots through their own setters.
"""

from __future__ import annotations

import math
import sys
import threading
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

__all__ = [
    "CLASS_LIMIT",
    "CyclicWord",
    "StabilizerReport",
    "brute_force_class_count",
    "canonical_rotation",
    "dihedral_stabilizer",
    "enumerate_classes",
    "isometry_upper_bound",
    "multinomial_lower_bound",
    "necklace_count",
    "same_class",
]


def _check_alphabet(r: object) -> None:
    """Refuse an alphabet size that is not an int >= 1; a bool is not one."""
    if not isinstance(r, int) or isinstance(r, bool):
        raise ValueError(f"alphabet size r must be an int, not {r!r}")
    if r < 1:
        raise ValueError("alphabet size r must be >= 1")


@dataclass(frozen=True, slots=True)
class CyclicWord:
    """Letters in [1, r] indexed by Z/mZ; equality of tuples is position-wise."""

    letters: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if len(letters) < 1:
            raise ValueError("word must have length >= 1")
        _check_alphabet(self.r)
        for x in letters:
            if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= self.r:
                raise ValueError(f"letter {x!r} outside alphabet [1, {self.r}]")

    @classmethod
    def _unchecked(cls, letters: tuple[int, ...], r: int) -> "CyclicWord":
        """A word whose letters the library already knows lie in [1, r], stored as given."""
        word = cls.__new__(cls)
        _set_letters(word, letters)
        _set_r(word, r)
        return word

    @property
    def m(self) -> int:
        return len(self.letters)

    def rotate(self, s: int) -> "CyclicWord":
        s %= self.m
        return CyclicWord._unchecked(self.letters[s:] + self.letters[:s], self.r)

    @classmethod
    def parse(cls, text: str, r: Optional[int] = None) -> "CyclicWord":
        """Parse a comma-separated word like "2,1,1"; r defaults to the largest
        letter, or 1 when no letter is positive, so that the error names a letter.

        Each distinct token is read once with `int`, which gives exact ints,
        and the letters are looked up from those reads; so only the range is
        checked, over the distinct letters.  The letters are scanned in order
        only to name the first one out of range.
        """
        tokens = text.split(",")
        try:
            value = {token: int(token) for token in set(tokens)}
        except ValueError:
            raise ValueError(f"malformed word {text!r}: expected comma-separated integers")
        letters = tuple(map(value.__getitem__, tokens))
        distinct = value.values()
        if r is None:
            r = max(max(distinct), 1)
        _check_alphabet(r)
        if min(distinct) < 1 or max(distinct) > r:
            bad = next(x for x in letters if not 1 <= x <= r)
            raise ValueError(f"letter {bad!r} outside alphabet [1, {r}]")
        return cls._unchecked(letters, r)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.letters)


# the slots' own setters, which a frozen class's __setattr__ does not guard
_set_letters = CyclicWord.letters.__set__
_set_r = CyclicWord.r.__set__


def _duval(letters: tuple[int, ...]) -> int:
    """Smallest start of the least rotation of a word, in one pass.

    Duval's Lyndon factorization (J. Algorithms 4, 1983) of w.w: each step
    reads a run u^e u' (u Lyndon, u' a proper prefix of u) and skips its
    copies of u.  The last step starting in the first copy of w starts the
    least rotation, at its run's first copy.
    """
    s = letters + letters
    m, n = len(letters), len(s)
    i = 0
    while True:
        start, j, k = i, i + 1, i
        while j < n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
        if i >= m:
            return start


def _texts(*words: CyclicWord) -> list[str]:
    """Each word as a str with one character per letter, equal letters giving
    equal characters, with one code for all the words given.

    Letters up to sys.maxunicode are their own code points; over a larger
    alphabet each letter is coded by its rank among the distinct letters.
    """
    if max(w.r for w in words) <= sys.maxunicode:
        return ["".join(map(chr, w.letters)) for w in words]
    distinct = sorted(set().union(*(w.letters for w in words)))
    if len(distinct) > sys.maxunicode + 1:
        raise ValueError(
            f"{len(distinct)} distinct letters cannot be encoded: "
            f"the limit is sys.maxunicode + 1 = {sys.maxunicode + 1}"
        )
    rank = {x: chr(i) for i, x in enumerate(distinct)}
    return ["".join([rank[x] for x in w.letters]) for w in words]


def canonical_rotation(w: CyclicWord) -> tuple[CyclicWord, int]:
    """Lexicographically least rotation and the smallest shift that realizes it."""
    shift = _duval(w.letters)
    return w.rotate(shift), shift


def same_class(alpha: CyclicWord, beta: CyclicWord) -> tuple[bool, Optional[int]]:
    """Rotation-orbit equality, with the smallest witness shift.

    A witness p satisfies beta[j] = alpha[(j + p) mod m] for all j, i.e.
    alpha.rotate(p) == beta, i.e. beta occurs at position p of alpha.alpha;
    the first occurrence is the smallest witness.  Words of different
    lengths or alphabets are a contract violation, not a negative answer.
    """
    if alpha.m != beta.m:
        raise ValueError(f"length mismatch: {alpha.m} vs {beta.m}")
    if alpha.r != beta.r:
        raise ValueError(f"alphabet mismatch: {alpha.r} vs {beta.r}")
    a, b = _texts(alpha, beta)
    p = (a + a).find(b)
    return (False, None) if p < 0 else (True, p)


# -------------------------------------------------------------- stabilizers


@dataclass(frozen=True, slots=True)
class StabilizerReport:
    """Rotations and reflections of Z/mZ preserving the coloring."""

    rotation_order: int
    reflection_exists: bool

    @property
    def dihedral_order(self) -> int:
        return self.rotation_order * (2 if self.reflection_exists else 1)


def dihedral_stabilizer(w: CyclicWord) -> StabilizerReport:
    """Count the rotations and detect a reflection of Z/mZ preserving the coloring.

    The shifts fixing w form a subgroup of Z/mZ generated by the period d
    of w, the first position >= 1 where w occurs in w.w, so there are m/d
    of them.  The reflection
    i -> t - i sends w to the word i -> w[(t - i) mod m], which is the
    reversed word rotated by m - 1 - t; so some reflection fixes w exactly
    when the reversed word lies in the rotation class of w, that is,
    occurs in w.w.
    """
    (text,) = _texts(w)
    doubled = text + text
    return StabilizerReport(w.m // doubled.find(text, 1), text[::-1] in doubled)


def isometry_upper_bound(w: CyclicWord, piece_bound: int) -> int:
    """dihedral_order(w) * piece_bound, an upper-bound factor for the glued
    object's isometry count; reflections are counted as potential, not realized."""
    if piece_bound < 1:
        raise ValueError("piece_bound must be >= 1")
    return dihedral_stabilizer(w).dihedral_order * piece_bound


# ----------------------------------------------------------------- counting


# Euler's phi(d) at index d; index 0 is unused
_phi = array("q", [0, 1])


def _totients(n: int) -> array:
    """An array holding Euler's phi(d) at index d for every d <= n.

    The module keeps one sieve.  When n is past its end, a sieve of at least
    twice the length replaces it: start from phi(d) = d and, for each prime
    p, take p's share off every multiple.  The new sieve is complete before
    it is assigned, and an assigned array is never written again, so a
    caller may read the one it got while another thread replaces it; two
    threads that grow it at once at worst repeat work.
    """
    global _phi
    phi = _phi
    if n < len(phi):
        return phi
    size = max(n + 1, 2 * len(phi))
    values = list(range(size))
    for p in range(2, size):
        if values[p] == p:  # no smaller prime divides p
            values[p::p] = [x - x // p for x in values[p::p]]
    _phi = phi = array("q", values)
    return phi


_walk_lock = threading.Lock()
_walk: dict[int, list[int]] = {}


def _multinomials(r: int, k: int) -> list[int]:
    """[M(r, 0), ..., M(r, k), ...] with M(r, j) = (rj)! / (j!)^r.

    M(r, j) = M(r, j-1) * (rj-r+1)...(rj) / j^r, and the division is exact,
    so extending the list by one term costs a multiplication and a division
    of its numbers by small ones, no factorial.  Only the last r asked for
    is kept: a new r starts a new list at j = 0.  The lock makes the check
    of r and the extension one step for concurrent callers; a list is only
    ever appended to, so the caller may index it below k + 1 unlocked.
    """
    with _walk_lock:
        values = _walk.get(r)
        if values is None:
            _walk.clear()
            values = _walk[r] = [1]
        for j in range(len(values), k + 1):
            values.append(values[-1] * math.perm(r * j, r) // j**r)
        return values


def necklace_count(r: int, m: int) -> int:
    """Number of rotation classes of words of length r*m with exactly m copies
    of each of r letters.

    Burnside over the rotation group: (1/(rm)) * sum over d | m of
    phi(d) * (rm/d)! / ((m/d)!)^r, with the divisors taken in pairs
    (d, m/d) for d up to isqrt(m), phi read from the module's totient
    sieve and the multinomials from its walk.
    """
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    values = _multinomials(r, m)
    phi = _totients(m)
    total = 0
    for d in range(1, math.isqrt(m) + 1):
        if m % d == 0:
            e = m // d
            total += phi[d] * values[e]
            if e != d:
                total += phi[e] * values[d]
    return total // (r * m)


def multinomial_lower_bound(r: int, m: int) -> Fraction:
    """(rm)! / ((m!)^r * rm): the orbit count is at least this, exactly."""
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    return Fraction(_multinomials(r, m)[m], r * m)


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


# the most classes enumerate_classes lists, checked after the recursion depth
CLASS_LIMIT = 10**6


def enumerate_classes(r: int, m: int) -> list[CyclicWord]:
    """One canonical representative per rotation class of fixed-content words,
    in lexicographic order.  Refuses words longer than half the recursion
    limit, and inputs with more than CLASS_LIMIT classes.

    The canonical representatives are the necklaces (words that are their
    own least rotation).  `_necklaces` (Sawada, TCS 301, 2003) builds them
    in lexicographic order through prenecklace prefixes only, never
    visiting the other words; a necklace starts with its least letter, so
    it starts after a leading 1.  The recursion is as deep as the word, so
    words longer than half the interpreter's recursion limit are refused
    first, leaving the other half to the caller's frames: rm > 500 under
    the default limit of 1000, where r >= 2 gives over 2^480 classes.

    Below that depth `necklace_count(r, m)` is checked against CLASS_LIMIT
    before recursing, since the recursion emits every class: (20, 1) asks
    for 19! classes, which would be appended until the process is killed.
    The limit, 10^6, lies well above the benchmark's largest list, 11,352
    classes at (5, 2).  The largest list it lets through, 953,056 classes
    at (3, 6), is nineteen times the 50,452 of (3, 5), which take 0.4 s to
    list and print.
    """
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    depth = sys.getrecursionlimit() // 2
    if r * m > depth:
        raise ValueError(f"word length r*m = {r * m} exceeds the recursion depth {depth}")
    count = necklace_count(r, m)
    if count > CLASS_LIMIT:
        raise ValueError(f"class limit exceeded: {count} classes > {CLASS_LIMIT}")
    out: list[tuple[int, ...]] = []
    _necklaces([0, 1] + [0] * (r * m - 1), [0, m - 1] + [m] * (r - 1), 2, 1, out)
    return [CyclicWord._unchecked(word, r) for word in out]


def brute_force_class_count(r: int, m: int) -> int:
    """Independent oracle for necklace_count: generate every fixed-content word
    and bucket by naive minimum-over-rotations.  Only sensible for rm <= 12."""
    seen = set()
    for word in _fixed_content_words(r, m):
        doubled = word + word
        n = len(word)
        seen.add(min(doubled[s : s + n] for s in range(n)))
    return len(seen)
