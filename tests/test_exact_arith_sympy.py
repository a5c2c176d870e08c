"""exact_arith against sympy's number theory, an independent implementation.

Primality is compared on a full small range, on seeded random values up
to the deterministic bound and the primes that follow them, on every band
[psi_(k-1), psi_k) in which is_prime runs k bases, on the 12-base strong
pseudoprime and on the values just below the bound.
Legendre symbols, square roots (as sets of roots) and the smallest
non-residue are compared for every odd prime below 3,000, on every
residue for the small primes and on seeded samples for the rest.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import legendre_symbol
from sympy.ntheory import sqrt_mod

from hybridcensus.exact_arith import (
    _MR_BOUND,
    _MR_PSI,
    is_prime,
    legendre,
    smallest_nonresidue,
    sqrt_mod_p,
)

# A strong pseudoprime to each of the twelve prime bases 2, ..., 37.
PSEUDOPRIME_12 = 318665857834031151167461
ODD_PRIMES = list(sympy.primerange(3, 3000))


def residues(p, rng):
    """Every residue mod a small p; 0, 1, p - 1 and a seeded sample otherwise."""
    if p < 100:
        return range(p)
    return [0, 1, p - 1] + rng.sample(range(2, p - 1), 12)


def test_is_prime_small_range():
    assert [n for n in range(-5, 20000) if is_prime(n)] == list(sympy.primerange(2, 20000))


def test_is_prime_seeded_values():
    rng = random.Random(0)
    for bits in range(15, _MR_BOUND.bit_length() + 1):
        for _ in range(20):
            n = rng.randrange(2 ** (bits - 1), min(2**bits, _MR_BOUND))
            assert is_prime(n) == sympy.isprime(n), n
            q = sympy.nextprime(n)
            assert q >= _MR_BOUND or is_prime(q), q


def test_is_prime_in_every_band_of_bases():
    # is_prime runs k bases on n in [psi_(k-1), psi_k); sample each band's
    # ends, random values and the primes after them
    rng = random.Random(2)
    bands = zip((2,) + _MR_PSI, _MR_PSI)
    for k, (low, high) in enumerate(bands, 1):
        if low == high:
            continue
        values = [low, low + 1, high - 2, high - 1] + [rng.randrange(low, high) for _ in range(200)]
        for n in values:
            assert is_prime(n) == sympy.isprime(n), (k, n)
        for n in values[4:24]:
            q = sympy.nextprime(n)
            assert q >= high or is_prime(q), (k, q)
        assert not sympy.isprime(high) and (high == _MR_BOUND or not is_prime(high)), k


def test_is_prime_twelve_base_pseudoprime():
    assert not sympy.isprime(PSEUDOPRIME_12)
    assert not is_prime(PSEUDOPRIME_12)


def test_is_prime_just_below_the_bound():
    for n in range(_MR_BOUND - 3000, _MR_BOUND):
        assert is_prime(n) == sympy.isprime(n), n
    with pytest.raises(ValueError):
        is_prime(_MR_BOUND)


def test_legendre_and_sqrt_mod_p():
    rng = random.Random(1)
    for p in ODD_PRIMES:
        for a in residues(p, rng):
            assert legendre(a, p) == legendre_symbol(a, p), (a, p)
            roots = set(sqrt_mod(a, p, all_roots=True) or ())
            c = sqrt_mod_p(a, p)
            if a == 0 or not roots:
                assert c is None, (a, p)
            else:
                assert c == min(roots) and {c, p - c} == roots, (a, p)


def test_smallest_nonresidue():
    for p in ODD_PRIMES:
        expected = next(a for a in range(2, p) if legendre_symbol(a, p) == -1)
        assert smallest_nonresidue(p) == expected, p
