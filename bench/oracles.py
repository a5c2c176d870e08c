"""Independent reference computations that benchmark outputs are checked against.

Nothing here imports hybridcensus.  Word questions are answered by other
algorithms than the program uses (a two-pointer least rotation instead of
Booth, a KMP failure function instead of a divisor scan), and census counts
by a Burnside sum written out here.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction


def least_rotation(seq: tuple[int, ...]) -> int:
    """Smallest start index of the lexicographically least rotation of seq."""
    n = len(seq)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def rotate(seq: tuple[int, ...], s: int) -> tuple[int, ...]:
    return seq[s:] + seq[:s]


def canonical(seq: tuple[int, ...]) -> tuple[int, ...]:
    return rotate(seq, least_rotation(seq))


def period(seq: tuple[int, ...]) -> int:
    """Length of the shortest block that seq repeats (len(seq) if primitive)."""
    n = len(seq)
    fail = [0] * (n + 1)
    fail[0] = -1
    k = -1
    for i in range(n):
        while k >= 0 and seq[k] != seq[i]:
            k = fail[k]
        k += 1
        fail[i + 1] = k
    p = n - fail[n]
    return p if n % p == 0 else n


def primes_up_to(limit: int) -> list[int]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


def _phi(n: int) -> int:
    result = n
    for p in primes_up_to(math.isqrt(n)):
        if n % p == 0:
            result -= result // p
            while n % p == 0:
                n //= p
    if n > 1:
        result -= result // n
    return result


def renders(x: int) -> bool:
    """True iff str(x) succeeds under the interpreter's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    if limit == 0 or abs(x).bit_length() * 0.30103 < limit - 2:
        return True
    try:
        str(x)
    except ValueError:
        return False
    return True


class CensusOracle:
    """Exact fixed-content necklace counts and the strings a census row prints.

    Values are cached per (r, m), so a census op that repeats rows costs the
    check nothing after the first time.
    """

    def __init__(self) -> None:
        self._rows: dict[tuple[int, int], tuple[int, str, str, str, bool]] = {}

    def necklaces(self, r: int, m: int) -> int:
        """Burnside: (1/(rm)) * sum over d | m of phi(d) (rm/d)! / ((m/d)!)^r."""
        return self.row(r, m)[0]

    def row(self, r: int, m: int) -> tuple[int, str, str, str, bool]:
        """(a_m, a_m text, 2^m text, multinomial bound text, renderable)."""
        key = (r, m)
        if key not in self._rows:
            total = 0
            for d in range(1, m + 1):
                if m % d == 0:
                    total += _phi(d) * math.factorial(r * m // d) // math.factorial(m // d) ** r
            a_m, rem = divmod(total, r * m)
            if rem:
                raise ArithmeticError(f"Burnside sum not divisible for r={r}, m={m}")
            bound = Fraction(math.factorial(r * m), math.factorial(m) ** r * (r * m))
            ok = renders(a_m) and renders(bound.numerator) and renders(bound.denominator)
            texts = (
                (str(a_m), str(2**m), f"{bound.numerator}/{bound.denominator}")
                if ok
                else ("", "", "")
            )
            self._rows[key] = (a_m, *texts, ok)
        return self._rows[key]
