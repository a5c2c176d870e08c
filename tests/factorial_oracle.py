"""Factorial formulas for fixed-content counts: the test oracle for the
multinomials that `hybridcensus.gluing` walks upward."""

import math
from fractions import Fraction


def multinomial(r: int, m: int) -> int:
    """(rm)! / (m!)^r, the number of words with m copies of each of r letters."""
    return math.factorial(r * m) // math.factorial(m) ** r


def multinomial_bound(r: int, m: int) -> Fraction:
    return Fraction(multinomial(r, m), r * m)


def burnside_count(r: int, m: int) -> int:
    """Rotation classes by Burnside over every d in 1..m, with phi(d) counted
    by gcds."""
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
            total += phi * multinomial(r, m // d)
    return total // (r * m)
