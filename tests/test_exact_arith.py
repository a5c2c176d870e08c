import dataclasses
import math
import random
from fractions import Fraction

import pytest

from hybridcensus.exact_arith import (
    _MR_BASES,
    _MR_BOUND,
    _MR_PSI,
    SQRT2,
    LocalPlace,
    Sqrt2Int,
    hensel_lift_sqrt2,
    is_prime,
    is_square_f,
    is_square_q,
    legendre,
    smallest_nonresidue,
    sqrt_mod_p,
    square_test_f,
    valuation_f,
)
from hybridcensus.quadform import certify_noncommensurable, generate_family, verify_certificate

SPLIT_PRIMES = [7, 17, 23, 31, 41, 47, 71, 73, 79, 89, 97, 103]

# every place below 200: both roots of 2 at each split prime
PLACES = [
    LocalPlace(p, c)
    for p in range(7, 200, 2)
    if p % 8 in (1, 7) and is_prime(p)
    for c in (sqrt_mod_p(2, p), p - sqrt_mod_p(2, p))
]


def vp(n, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def lifted_valuation(x, place):
    """Slow oracle for valuation_f: embed x through the root of 2 lifted to
    p^(v_p(norm x) + 1), then strip the powers of p from the residue.  The
    precision is enough because the conjugate embedding is integral too."""
    p = place.p
    k = vp(x.norm(), p) + 1
    t = (x.u + x.v * hensel_lift_sqrt2(place, k)) % p**k
    assert t, (x, place)
    val = 0
    while t % p == 0:
        t //= p
        val += 1
    return val, t % p


def brute_square_root_f(x, bound):
    """Grid oracle: search y = s + t*sqrt2 with 1 <= s <= bound, solving 2st = v."""
    if x.v == 0:
        for t in range(bound + 1):
            if 2 * t * t == x.u:
                return Sqrt2Int(0, t)
            if t * t == x.u:
                return Sqrt2Int(t, 0)
        return None
    for s in range(1, bound + 1):
        if x.v % (2 * s):
            continue
        t = x.v // (2 * s)
        if s * s + 2 * t * t == x.u:
            return Sqrt2Int(s, t)
    return None


def strong_probable_prime(n: int, a: int) -> bool:
    """Whether the odd n > a passes the strong probable-prime test to base a:
    with n - 1 = d 2^s and d odd, a^d = 1 or a^(d 2^r) = -1 (mod n) for some r < s."""
    d = (n - 1) // ((n - 1) & -(n - 1))
    x = pow(a, d, n)
    if x == 1:
        return True
    while d < n - 1:
        if x == n - 1:
            return True
        x, d = x * x % n, 2 * d
    return False


class TestPrimes:
    def test_small_table(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(n)

    def test_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)
        # 399165290221 * 798330580441 passes Miller-Rabin for 2, 3, ..., 37
        assert not is_prime(318665857834031151167461)

    def test_above_deterministic_bound_refused(self):
        # 1287836182261 * 2575672364521 passes Miller-Rabin for 2, 3, ..., 41
        for n in (3317044064679887385961981, 3317044064679887385962191, 2**89 - 1):
            with pytest.raises(ValueError, match="deterministic bound"):
                is_prime(n)

    def test_matches_sieve(self):
        # the range reaches past psi_1 = 2047 and psi_2 = 1373653, so is_prime's
        # one-, two- and three-base bands are all checked against the sieve
        limit = 1_400_000
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for q in range(2, math.isqrt(limit) + 1):
            if sieve[q]:
                sieve[q * q :: q] = bytes(len(range(q * q, limit, q)))
        assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]

    def test_base_table(self):
        # psi_k, the least strong pseudoprime to the first k prime bases, is
        # one to those k bases, so the table is no larger than it should be,
        # and is_prime runs at least k + 1 bases on it
        assert len(_MR_PSI) == len(_MR_BASES) and _MR_PSI == tuple(sorted(_MR_PSI))
        assert _MR_PSI[-1] == _MR_BOUND
        for k, psi in enumerate(_MR_PSI, 1):
            assert all(strong_probable_prime(psi, a) for a in _MR_BASES[:k]), k
            if psi < _MR_BOUND:
                assert not is_prime(psi), k


class TestLegendre:
    def test_examples(self):
        assert legendre(2, 7) == 1  # 3^2 = 9 = 2 mod 7
        assert legendre(-1, 7) == -1
        assert legendre(14, 7) == 0

    def test_invalid_modulus(self):
        for p in (2, 9, 15, 1):
            with pytest.raises(ValueError):
                legendre(3, p)

    def test_against_exhaustive_residues(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            residues = {x * x % p for x in range(1, p)}
            for a in range(2 * p):
                expected = 0 if a % p == 0 else (1 if a % p in residues else -1)
                assert legendre(a, p) == expected

    def test_multiplicative(self):
        rng = random.Random(1729)
        for _ in range(1000):
            p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 199])
            a, b = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
            assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


class TestSqrtModP:
    def test_examples(self):
        assert sqrt_mod_p(2, 7) == 3  # roots {3, 4}
        assert sqrt_mod_p(2, 23) == 5  # roots {5, 18}
        assert sqrt_mod_p(3, 7) is None

    def test_exhaustive_small_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 41, 73):
            roots = {}
            for x in range(1, p):
                roots.setdefault(x * x % p, set()).add(x)
            for a in range(p):
                got = sqrt_mod_p(a, p)
                if a % p in roots:
                    assert got == min(roots[a])
                else:
                    assert got is None

    def test_tonelli_branch_large(self):
        # p = 1 mod 4 exercises the full Tonelli-Shanks loop
        p = 10009
        assert p % 4 == 1
        rng = random.Random(5)
        for _ in range(50):
            x = rng.randrange(1, p)
            c = sqrt_mod_p(x * x % p, p)
            assert c is not None and c * c % p == x * x % p


class TestLocalPlace:
    def test_qr_root_convention_for_7_mod_8(self):
        for p in (7, 23, 31, 47, 71, 79):
            place = LocalPlace.at(p)
            assert place.p % 8 == 7
            assert place.sqrt2_root ** 2 % p == 2
            assert legendre(place.sqrt2_root, p) == 1
            assert place.root_is_qr

    def test_smaller_root_for_1_mod_8(self):
        for p in (17, 41, 73, 89, 97):
            place = LocalPlace.at(p)
            assert place.sqrt2_root == sqrt_mod_p(2, p)

    def test_known_roots(self):
        assert LocalPlace.at(7).sqrt2_root == 4
        assert LocalPlace.at(23).sqrt2_root == 18
        assert LocalPlace.at(17).sqrt2_root == 6

    def test_invalid_places(self):
        for p in (2, 3, 5, 9, 13, 15):
            with pytest.raises(ValueError):
                LocalPlace.at(p)
        # 2 is a non-residue mod 13, so no root is accepted there
        for c in range(1, 13):
            with pytest.raises(ValueError):
                LocalPlace(13, c)
        with pytest.raises(ValueError):
            LocalPlace(17, 5)

    @pytest.mark.parametrize(
        "p, message",
        [
            (9, "sqrt_mod_p: modulus 9 is not an odd prime"),
            (13, "invalid place: 2 is not a square mod 13"),
            (15, "invalid place: 15 is not an odd prime"),
        ],
    )
    def test_invalid_place_messages(self, p, message):
        with pytest.raises(ValueError) as excinfo:
            LocalPlace.at(p)
        assert str(excinfo.value) == message

    def test_wrong_root_rejected_at_7_mod_8(self):
        # the place accepts the non-residue root, but certificates record the
        # root `LocalPlace.at` picks and verify refuses one naming the other
        forms = generate_family(4, 2)
        cert = certify_noncommensurable(forms[0], forms[1])
        p, c = cert.witness["p"], cert.witness["sqrt2_root"]
        assert p % 8 == 7 and LocalPlace.at(p) == LocalPlace(p, c)
        assert not LocalPlace(p, p - c).root_is_qr
        other = dataclasses.replace(cert, witness=dict(cert.witness, sqrt2_root=p - c))
        assert verify_certificate(cert)
        assert not verify_certificate(other)

    def test_other_root_allowed_at_1_mod_8(self):
        # either root names a place, at p = 7 (mod 8) the non-residue one too
        for p, c in ((17, 11), (7, 3)):
            place = LocalPlace(p, c)
            assert place.sqrt2_root == c
            assert place.root_is_qr == (legendre(c, p) == 1)
        assert not LocalPlace(7, 3).root_is_qr


class TestHensel:
    def test_base_case(self):
        assert hensel_lift_sqrt2(LocalPlace.at(7), 1) == 4

    def test_level_two_against_scan(self):
        # scan x = 4 mod 7 for x^2 = 2 mod 49
        expected = [x for x in range(49) if x % 7 == 4 and x * x % 49 == 2]
        assert expected == [39]
        assert hensel_lift_sqrt2(LocalPlace.at(7), 2) == 39

    def test_tower_coherence(self):
        for p in SPLIT_PRIMES:
            place = LocalPlace.at(p)
            prev = place.sqrt2_root
            for k in range(2, 9):
                c = hensel_lift_sqrt2(place, k)
                assert c * c % p**k == 2
                assert c % p ** (k - 1) == prev
                prev = c

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            hensel_lift_sqrt2(LocalPlace.at(7), 0)


class TestSqrt2Int:
    def test_zero_iff_both_zero(self):
        assert not Sqrt2Int(0, 0)
        assert Sqrt2Int(0, 1) and Sqrt2Int(1, 0)

    def test_norm_multiplicative(self):
        rng = random.Random(2)
        for _ in range(500):
            x = Sqrt2Int(rng.randint(-999, 999), rng.randint(-999, 999))
            y = Sqrt2Int(rng.randint(-999, 999), rng.randint(-999, 999))
            assert (x * y).norm() == x.norm() * y.norm()
            assert x.conjugate().conjugate() == x
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    def test_int_coercion(self):
        assert 3 * SQRT2 == Sqrt2Int(0, 3)
        assert Sqrt2Int(1, 1) * 2 == Sqrt2Int(2, 2)

    def test_json_roundtrip(self):
        x = Sqrt2Int(-(10**30), 10**31)
        assert Sqrt2Int.from_json(x.to_json()) == x

    @pytest.mark.parametrize("u, v", [(True, False), (1, True), (False, 0), (1.0, 0), ("1", 0)])
    def test_non_int_components_refused(self, u, v):
        with pytest.raises(TypeError, match="Sqrt2Int components must be integers"):
            Sqrt2Int(u, v)


class TestValuationF:
    def test_examples_at_7(self):
        p7 = LocalPlace.at(7)
        assert valuation_f(-SQRT2, p7) == (0, 3)  # -4 = 3 mod 7
        assert valuation_f(Sqrt2Int(7), p7) == (1, 1)
        assert valuation_f(Sqrt2Int(23), p7) == (0, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="valuation of zero"):
            valuation_f(Sqrt2Int(0, 0), LocalPlace.at(7))

    def test_deep_divisibility(self):
        p7 = LocalPlace.at(7)
        x = Sqrt2Int(7**5, 0) * Sqrt2Int(3, 1)
        v3 = valuation_f(Sqrt2Int(3, 1), p7)
        got = valuation_f(x, p7)
        assert got.val == 5 + v3.val
        assert got.unit == v3.unit

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(300):
            place = LocalPlace.at(rng.choice(SPLIT_PRIMES))
            x = Sqrt2Int(rng.randint(-500, 500), rng.randint(-500, 500))
            y = Sqrt2Int(rng.randint(-500, 500), rng.randint(-500, 500))
            if not x or not y:
                continue
            vx, vy, vxy = (valuation_f(z, place) for z in (x, y, x * y))
            assert vxy.val == vx.val + vy.val
            assert vxy.unit == vx.unit * vy.unit % place.p

    def test_norm_splits_across_conjugate(self):
        # v(x) + v(conj x) at one place equals v_p(norm x); and the conjugate
        # seen through the other root has the valuation of x itself.
        rng = random.Random(4)
        for _ in range(200):
            p = rng.choice([7, 17, 23, 41, 47, 73, 89, 97])
            place = LocalPlace.at(p)
            other = LocalPlace(p, p - place.sqrt2_root)
            x = Sqrt2Int(rng.randint(-3000, 3000), rng.randint(-3000, 3000))
            if not x:
                continue
            vx = valuation_f(x, place)
            vconj_same = valuation_f(x.conjugate(), place)
            assert vx.val + vconj_same.val == vp(x.norm(), p)
            assert valuation_f(x.conjugate(), other) == vx

    def test_norm_splits_at_7_mod_8(self):
        rng = random.Random(5)
        for _ in range(200):
            place = LocalPlace.at(rng.choice([7, 23, 31, 47]))
            x = Sqrt2Int(rng.randint(-3000, 3000), rng.randint(-3000, 3000))
            if not x:
                continue
            total = valuation_f(x, place).val + valuation_f(x.conjugate(), place).val
            assert total == vp(x.norm(), place.p)

    @pytest.mark.parametrize("place", PLACES, ids=lambda pl: f"p{pl.p}c{pl.sqrt2_root}")
    def test_matches_lifted_root(self, place):
        # random elements, pushed into the place's prime by powers of c - sqrt2
        # and into p^j by a common factor
        p = place.p
        prime = Sqrt2Int(place.sqrt2_root, -1)
        rng = random.Random(p * 1000 + place.sqrt2_root)
        for _ in range(200):
            x = Sqrt2Int(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
            for _ in range(rng.choice([0, 0, 1, 2, 3, 4])):
                x = x * prime
            x = x * p ** rng.randint(0, 3)
            if x:
                assert valuation_f(x, place) == lifted_valuation(x, place), x


class TestSquareTests:
    def test_is_square_q(self):
        assert is_square_q(Fraction(9, 4))
        assert not is_square_q(-1)
        assert not is_square_q(3)
        assert is_square_q(0)
        assert not is_square_q(Fraction(3, 2))

    def test_is_square_f_examples(self):
        assert is_square_f(Sqrt2Int(3, 2))  # (1 + sqrt2)^2
        assert is_square_f(Sqrt2Int(2, 0))  # sqrt2^2
        assert not is_square_f(Sqrt2Int(3, 0))
        assert not is_square_f(Sqrt2Int(7 * 23, 0))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_square_f(Sqrt2Int(0, 0))

    def test_grid_squares_roundtrip(self):
        for s in range(-15, 16):
            for t in range(-15, 16):
                y = Sqrt2Int(s, t)
                if not y:
                    continue
                x = y * y
                assert is_square_f(x)
                assert brute_square_root_f(x, 16) is not None

    def test_grid_nonsquares(self):
        # small elements whose square root, if any, would land in the grid
        rng = random.Random(6)
        checked = 0
        while checked < 300:
            x = Sqrt2Int(rng.randint(-60, 60), rng.randint(-40, 40))
            if not x:
                continue
            root = brute_square_root_f(x, 12)
            # any root of x has s^2 <= |u| + something small; bound 12 covers u <= 60
            if root is not None:
                assert is_square_f(x)
            elif x.u > 0 and x.norm() > 0:
                assert not is_square_f(x)
            checked += 1

    def test_random_squares(self):
        rng = random.Random(7)
        for _ in range(1000):
            y = Sqrt2Int(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
            if not y:
                continue
            assert is_square_f(y * y)

    def test_modp_rejected_nonsquares(self):
        # a square has even valuation and residue unit part at every split place
        places = [LocalPlace.at(p) for p in SPLIT_PRIMES]
        rng = random.Random(8)
        rejected = 0
        while rejected < 300:
            x = Sqrt2Int(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
            if not x:
                continue
            obstructed = False
            for place in places:
                lv = valuation_f(x, place)
                if lv.val % 2 or legendre(lv.unit, place.p) == -1:
                    obstructed = True
                    break
            if obstructed:
                assert not is_square_f(x)
                rejected += 1

    def test_transcript_shape(self):
        ok, rec = square_test_f(Sqrt2Int(3, 2))
        assert ok and rec["branch"] == "mixed" and rec["norm"] == "1"
        ok, rec = square_test_f(Sqrt2Int(21, 0))
        assert not ok and rec["branch"] == "rational"
        assert [c["is_square"] for c in rec["candidates"]] == [False, False]


class TestSmallestNonresidue:
    def test_values(self):
        assert smallest_nonresidue(7) == 3
        assert smallest_nonresidue(23) == 5
        assert smallest_nonresidue(17) == 3
        for p in SPLIT_PRIMES:
            u = smallest_nonresidue(p)
            assert legendre(u, p) == -1
            assert all(legendre(a, p) == 1 for a in range(2, u))
