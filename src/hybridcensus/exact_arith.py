"""Exact arithmetic over Z, Q and Z[sqrt(2)], plus p-adic primitives.

Everything in this module is arbitrary precision; no floats anywhere.
A LocalPlace pins down an embedding of Q(sqrt(2)) into Q_p at an odd
prime p where 2 is a quadratic residue, and valuation_f reads off exact
valuations and unit residues of embedded ring elements modulo p, from the
element and its norm.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

Rational = Union[int, Fraction]

__all__ = [
    "LocalPlace",
    "LocalValue",
    "Rational",
    "Sqrt2Int",
    "hensel_lift_sqrt2",
    "is_prime",
    "is_square_f",
    "is_square_q",
    "legendre",
    "primes_from",
    "smallest_nonresidue",
    "square_test_f",
    "valuation_f",
]


# ------------------------------------------------------------------ primes

# Miller-Rabin with the first k prime bases is deterministic below psi_k, the
# least strong pseudoprime to all of them (OEIS A014233), so is_prime runs
# only the first k bases for n < psi_k.  psi_13 = _MR_BOUND (Sorenson and
# Webster, Math. Comp. 86, 2017); the first 12 alone are fooled by
# psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_MR_BOUND = _MR_PSI[-1]


def is_prime(n: int) -> bool:
    """Exact primality for n below _MR_BOUND; larger n raise ValueError."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime: {n} is not below the deterministic bound {_MR_BOUND}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: bisect.bisect_right(_MR_PSI, n) + 1]:  # the first k with n < psi_k
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_from(start: int = 2) -> Iterator[int]:
    """Yield primes >= start in increasing order."""
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1


# ---------------------------------------------------------------- residues


def legendre(a: int, p: int, *, validate: bool = True) -> int:
    """Legendre symbol (a|p) by Euler's criterion: +1 QR, -1 non-residue, 0 if p | a."""
    if validate and (p < 3 or p % 2 == 0 or not is_prime(p)):
        raise ValueError(f"legendre: modulus {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime p."""
    for a in range(2, p):
        if legendre(a, p, validate=False) == -1:
            return a
    raise ValueError(f"no non-residue mod {p}")


# ------------------------------------------------------------- Z[sqrt(2)]


@dataclass(frozen=True, slots=True)
class Sqrt2Int:
    """u + v*sqrt(2) with arbitrary-precision integer components."""

    u: int
    v: int = 0

    def __post_init__(self) -> None:
        u, v = self.u, self.v
        if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
            raise TypeError("Sqrt2Int components must be integers")

    def __bool__(self) -> bool:
        return self.u != 0 or self.v != 0

    def __add__(self, other: "Sqrt2Int") -> "Sqrt2Int":
        other = _coerce(other)
        return Sqrt2Int(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "Sqrt2Int") -> "Sqrt2Int":
        other = _coerce(other)
        return Sqrt2Int(self.u - other.u, self.v - other.v)

    def __neg__(self) -> "Sqrt2Int":
        return Sqrt2Int(-self.u, -self.v)

    def __mul__(self, other: Union["Sqrt2Int", int]) -> "Sqrt2Int":
        other = _coerce(other)
        return Sqrt2Int(
            self.u * other.u + 2 * self.v * other.v,
            self.u * other.v + self.v * other.u,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "Sqrt2Int":
        return Sqrt2Int(self.u, -self.v)

    def norm(self) -> int:
        """Field norm u^2 - 2 v^2 (multiplicative, exact)."""
        return self.u * self.u - 2 * self.v * self.v

    def __repr__(self) -> str:
        if self.v == 0:
            return str(self.u)
        if self.u == 0:
            return f"{self.v}*sqrt2"
        sign = "+" if self.v > 0 else "-"
        return f"{self.u}{sign}{abs(self.v)}*sqrt2"

    def to_json(self) -> dict:
        return {"u": str(self.u), "v": str(self.v)}

    @staticmethod
    def from_json(obj: dict) -> "Sqrt2Int":
        return Sqrt2Int(_json_numeral(obj, "u"), _json_numeral(obj, "v"))


def _json_numeral(obj: dict, field: str) -> int:
    """The integer a `to_json` field holds as a decimal numeral string."""
    value = obj[field]
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    # a long value is cut to 200 characters, as int() cuts it in its own message
    raise ValueError(f"coefficient field {field!r} is not a decimal numeral: {value!r:.200}")


SQRT2 = Sqrt2Int(0, 1)


def _coerce(x: Union[Sqrt2Int, int]) -> Sqrt2Int:
    if isinstance(x, Sqrt2Int):
        return x
    if isinstance(x, int):
        return Sqrt2Int(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Sqrt2Int")


# ------------------------------------------------------------ local places


@dataclass(frozen=True, slots=True)
class LocalPlace:
    """An odd prime p split in Q(sqrt(2)) together with a chosen root of 2 mod p.

    The chosen root c fixes the embedding sqrt(2) -> c of the field into
    Q_p, and either root of 2 names one of the two places above p.
    `LocalPlace.at` picks one in closed form: at p = 7 (mod 8) the residue
    root 2^((p+1)/4) (one root is a residue, as -1 is not), at p = 1 (mod 8)
    the smaller of +-(w + w^7), w = z^((p-1)/8) for the least non-residue z.
    Certificates record the root `at` picks, and `verify_certificate`
    refuses one that names the other.
    """

    p: int
    sqrt2_root: int

    def __post_init__(self) -> None:
        p, c = self.p, self.sqrt2_root
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"invalid place: {p} is not an odd prime")
        if not (1 <= c < p) or c * c % p != 2:
            raise ValueError(f"invalid place: {c}^2 != 2 mod {p}")

    @classmethod
    def at(cls, p: int) -> "LocalPlace":
        """The canonical place at p: the QR root 2^((p+1)/4) for p = 7 (mod 8),
        the smaller root +-(w + w^7) with w^4 = -1 for p = 1 (mod 8)."""
        if p >= _MR_BOUND:  # refused before the power, whose cost grows with p
            raise ValueError(f"invalid place: p is not below the primality bound {_MR_BOUND}")
        if p % 8 == 7:
            # (p + 1)/4 is even, so c = 2^((p+1)/4) is a square, and
            # c^2 = 2 * 2^((p-1)/2) = 2 * (2|p) = 2, since 2 is a residue mod a
            # prime p = 7 (mod 8); __post_init__ still refuses a composite p
            return cls(p, pow(2, (p + 1) // 4, p))
        # primality first: the non-residue search may run to p on a composite (1729)
        if p < 3 or not is_prime(p):
            raise ValueError(f"invalid place: {p} is not an odd prime")
        if p % 8 != 1:
            raise ValueError(f"invalid place: 2 is not a square mod {p}")
        # for a non-residue z, w = z^((p-1)/8) has w^4 = z^((p-1)/2) = -1, so
        # w^8 = 1 and (w + w^7)^2 = (w + 1/w)^2 = w^2 + 2 + w^-2 = 2
        w = pow(smallest_nonresidue(p), (p - 1) // 8, p)
        c = (w + pow(w, 7, p)) % p
        return cls(p, min(c, p - c))


def hensel_lift_sqrt2(place: LocalPlace, k: int) -> int:
    """Root of x^2 = 2 mod p^k congruent to place.sqrt2_root mod p.

    Newton iteration x <- (x + 2/x) / 2 doubles the precision each step.
    No production path calls it: `valuation_f` works modulo p only, and the
    tests use this lift as its reference.
    """
    if k < 1:
        raise ValueError("precision k must be >= 1")
    x, prec = place.sqrt2_root, 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = place.p**prec
        x = (x + 2 * pow(x, -1, mod)) * pow(2, -1, mod) % mod
    return x


class LocalValue(NamedTuple):
    """Valuation and first unit digit of a nonzero element of Q_p."""

    val: int
    unit: int  # (x / p^val) mod p, in [1, p-1]


def valuation_f(x: Sqrt2Int, place: LocalPlace) -> LocalValue:
    """Valuation and unit residue of x under the place's embedding into Q_p.

    Write x = p^j (u + v*sqrt(2)) with p not dividing both u and v, and let
    c be the place's root.  If u + v*c is a unit mod p, x has valuation j and
    that unit digit.  Otherwise u = -v*c (mod p), so p does not divide v, and
    the conjugate u - v*sqrt(2) = -2*v*c (mod p) is a unit at this place.
    The norm N = u^2 - 2*v^2 is the product of the two, so u + v*sqrt(2)
    carries all of p^k = p^v_p(N), with unit digit (N / p^k) / (u - v*c).
    """
    if not x:
        raise ValueError("valuation of zero undefined")
    p, c = place.p, place.sqrt2_root
    u, v, j = x.u, x.v, 0
    while u % p == 0 and v % p == 0:
        u, v, j = u // p, v // p, j + 1
    digit = (u + v * c) % p
    if digit:
        return LocalValue(j, digit)
    norm, k = u * u - 2 * v * v, 0
    while norm % p == 0:
        norm, k = norm // p, k + 1
    return LocalValue(j + k, norm * pow(u - v * c, -1, p) % p)


# ------------------------------------------------------------ square tests


def is_square_q(x: Rational) -> bool:
    """True iff x is the square of a rational."""
    x = Fraction(x)
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    rn = math.isqrt(n)
    if rn * rn != n:
        return False
    rd = math.isqrt(d)
    return rd * rd == d


def square_test_f(x: Sqrt2Int) -> tuple[bool, dict]:
    """Square test in Q(sqrt(2)) with a replayable transcript.

    Writing x = u + v*sqrt(2): if x = (s + t*sqrt(2))^2 then
    norm(x) = (s^2 - 2t^2)^2 must be a rational square w^2, and
    (u+w)/2, (u-w)/2 equal {s^2, 2t^2} in some order.  For v = 0 the root
    may be purely rational (x = s^2) or a rational multiple of sqrt(2)
    (x = 2t^2), hence the u and u/2 candidates.
    """
    if not x:
        raise ValueError("square test of zero undefined")
    d = x.norm()
    rec: dict = {"value": x.to_json(), "norm": str(d)}
    if d < 0:
        rec.update(norm_is_square=False, result=False)
        return False, rec
    w = math.isqrt(d)
    if w * w != d:
        rec.update(norm_is_square=False, result=False)
        return False, rec
    rec.update(norm_is_square=True, norm_sqrt=str(w))
    if x.v == 0:
        rec["branch"] = "rational"
        candidates = [Fraction(x.u), Fraction(x.u, 2)]
    else:
        rec["branch"] = "mixed"
        candidates = [Fraction(x.u + w, 2), Fraction(x.u - w, 2)]
    hits = [is_square_q(c) for c in candidates]
    rec["candidates"] = [
        {"value": f"{c.numerator}/{c.denominator}", "is_square": h}
        for c, h in zip(candidates, hits)
    ]
    rec["result"] = any(hits)
    return rec["result"], rec


def is_square_f(x: Sqrt2Int) -> bool:
    """True iff x is a square in Q(sqrt(2))."""
    return square_test_f(x)[0]
