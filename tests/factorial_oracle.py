"""Factorial formulas for fixed-content counts, and Euler's phi by trial
division: the test oracles for the multinomials that `hybridcensus.gluing`
walks upward and the totients it sieves."""

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


def totient(n: int) -> int:
    """Euler's phi(n) by trial division."""
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
