"""exact_arith against sympy's number theory, an independent implementation.

Primality is compared on a full small range, on seeded random values up
to the deterministic bound and the primes that follow them, on every band
[psi_(k-1), psi_k) in which is_prime runs k bases, on the 12-base strong
pseudoprime and on the values just below the bound.
Legendre symbols and the smallest non-residue are compared for every odd
prime below 3,000, on every residue for the small primes and on seeded
samples for the rest.  The roots of 2 that `LocalPlace.at` picks are
compared with sympy's on seeded split primes of every size below the bound.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import legendre_symbol
from sympy.ntheory import sqrt_mod

from hybridcensus.exact_arith import (
    _MR_BOUND,
    _MR_PSI,
    LocalPlace,
    is_prime,
    legendre,
    smallest_nonresidue,
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


def test_legendre():
    rng = random.Random(1)
    for p in ODD_PRIMES:
        for a in residues(p, rng):
            assert legendre(a, p) == legendre_symbol(a, p), (a, p)


def test_place_roots_at_seeded_split_primes():
    # the smaller root at p = 1 (mod 8), the residue root at p = 7, for
    # primes after seeded values of every bit length up to the bound
    rng = random.Random(4)
    seen = {1: 0, 7: 0}
    for bits in range(5, _MR_BOUND.bit_length() + 1):
        for _ in range(6):
            p = sympy.nextprime(rng.randrange(2 ** (bits - 1), 2**bits))
            if p >= _MR_BOUND or p % 8 not in seen:
                continue
            seen[p % 8] += 1
            c = LocalPlace.at(p).sqrt2_root
            roots = set(sqrt_mod(2, p, all_roots=True))
            assert {c, p - c} == roots, p
            if p % 8 == 1:
                assert c == min(roots), p
            else:
                assert legendre_symbol(c, p) == 1, p
    assert min(seen.values()) >= 100, seen


def test_smallest_nonresidue():
    for p in ODD_PRIMES:
        expected = next(a for a in range(2, p) if legendre_symbol(a, p) == -1)
        assert smallest_nonresidue(p) == expected, p
