"""Diagonal quadratic forms over Q(sqrt(2)) and their local invariants.

Provides admissibility and anisotropy checks, Hilbert symbols and
Hasse-Witt invariants at split places, and machine-checkable
noncommensurability certificates for families of such forms: two
admissible forms give commensurable integer-point lattices only if the
forms are isometric up to a scalar, so a local invariant separating one
form from every scaling of the other is a witness of
noncommensurability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .exact_arith import (
    SQRT2,
    LocalPlace,
    LocalValue,
    Sqrt2Int,
    is_prime,
    legendre,
    primes_from,
    smallest_nonresidue,
    square_test_f,
    valuation_f,
)

__all__ = [
    "SQUARE_CLASSES",
    "DiagonalForm",
    "LocalInvariants",
    "NoncommCertificate",
    "certify_noncommensurable",
    "disc_class",
    "generate_family",
    "hasse_witt",
    "hilbert_symbol",
    "is_admissible",
    "is_anisotropic_certified",
    "local_invariants",
    "scaled_invariants",
    "signatures",
    "verify_certificate",
]

SQUARE_CLASSES = ("1", "u", "p", "up")


# ------------------------------------------------------------------- forms


@dataclass(frozen=True)
class DiagonalForm:
    """a_1 x_1^2 + ... + a_{n+1} x_{n+1}^2 with nonzero coefficients in Z[sqrt(2)]."""

    coeffs: tuple[Sqrt2Int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 3:
            raise ValueError("need at least 3 coefficients (hyperbolic dimension >= 2)")
        for c in coeffs:
            if not isinstance(c, Sqrt2Int):
                raise TypeError("coefficients must be Sqrt2Int")
            if not c:
                raise ValueError("zero coefficient makes the form degenerate")

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @classmethod
    def standard(cls, a: Union[Sqrt2Int, int], n: int) -> "DiagonalForm":
        """a x_1^2 + x_2^2 + ... + x_n^2 - sqrt(2) x_{n+1}^2."""
        if n < 2:
            raise ValueError("hyperbolic dimension n must be >= 2")
        lead = a if isinstance(a, Sqrt2Int) else Sqrt2Int(a)
        ones = tuple(Sqrt2Int(1) for _ in range(n - 1))
        return cls((lead,) + ones + (-SQRT2,))

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "DiagonalForm":
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"form dimension n must be an int, not {n!r}")
        form = DiagonalForm(tuple(Sqrt2Int.from_json(c) for c in obj["coeffs"]))
        if form.n != n:
            raise ValueError("form dimension does not match coefficient count")
        return form


# -------------------------------------------------------------- signatures


def _sign_at_embedding(c: Sqrt2Int, conjugate: bool) -> int:
    u, v = c.u, -c.v if conjugate else c.v
    if u >= 0 and v >= 0:
        return 1
    if u <= 0 and v <= 0:
        return -1
    d = u * u - 2 * v * v  # nonzero: u^2 = 2 v^2 has no nonzero integer solutions
    if u > 0:
        return 1 if d > 0 else -1
    return 1 if d < 0 else -1


def signatures(q: DiagonalForm) -> tuple[int, int]:
    """Negative coefficient counts under the embeddings sqrt(2) -> +/- sqrt(2)."""
    neg_plus = sum(1 for c in q.coeffs if _sign_at_embedding(c, False) < 0)
    neg_minus = sum(1 for c in q.coeffs if _sign_at_embedding(c, True) < 0)
    return neg_plus, neg_minus


def is_admissible(q: DiagonalForm) -> bool:
    """Definite at one real embedding, signature (1, n) at the other."""
    return sorted(signatures(q)) == [0, 1]


def is_anisotropic_certified(q: DiagonalForm) -> bool:
    """True iff some real embedding makes q definite (sufficient for anisotropy)."""
    dim = q.dim
    return any(neg in (0, dim) for neg in signatures(q))


# --------------------------------------------------------- local invariants


@dataclass(frozen=True)
class LocalInvariants:
    """Isometry invariants of a form over Q_p: dimension, discriminant class, Hasse-Witt."""

    dim: int
    disc_val_parity: int
    disc_unit_qr: int
    hasse: int


def hilbert_symbol(
    a: LocalValue, b: LocalValue, place: Union[LocalPlace, int]
) -> int:
    """Hilbert symbol (a, b) over Q_p for odd p.

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over Q_p.  For
    a = p^alpha u, b = p^beta w this is
    (-1)^(alpha beta (p-1)/2) * (u|p)^beta * (w|p)^alpha.
    """
    p = place.p if isinstance(place, LocalPlace) else place
    if p < 3 or p % 2 == 0:
        raise ValueError(f"hilbert_symbol needs an odd prime, got {p}")
    alpha, beta = a.val % 2, b.val % 2
    s = 1
    if alpha and beta and (p - 1) // 2 % 2:
        s = -s
    if beta:
        s *= legendre(a.unit, p, validate=False)
    if alpha:
        s *= legendre(b.unit, p, validate=False)
    return s


def _square_classes(p: int) -> Iterator[tuple[str, LocalValue]]:
    """The square classes of Q_p^* with representatives 1, u, p, up, where u is
    the smallest non-residue, searched for once and only when first needed."""
    yield "1", LocalValue(0, 1)
    u = smallest_nonresidue(p)
    yield "u", LocalValue(0, u)
    yield "p", LocalValue(1, 1)
    yield "up", LocalValue(1, u)


def _local_values(q: DiagonalForm, place: LocalPlace) -> list[LocalValue]:
    return [valuation_f(c, place) for c in q.coeffs]


def _scale(local: list[LocalValue], scale: LocalValue, p: int) -> list[LocalValue]:
    return [LocalValue(c.val + scale.val, c.unit * scale.unit % p) for c in local]


def _table(local: list[LocalValue], p: int) -> dict:
    """The invariants and Hilbert-symbol table of the diagonal form with these
    local coefficient values, as a certificate records them."""
    symbols = []
    hasse = 1
    for i, j in itertools.combinations(range(len(local)), 2):
        s = hilbert_symbol(local[i], local[j], p)
        symbols.append({"i": i, "j": j, "symbol": s})
        hasse *= s
    disc_unit = 1
    for c in local:
        disc_unit = disc_unit * c.unit % p
    invariants = {
        "dim": len(local),
        "disc_val_parity": sum(c.val for c in local) % 2,
        "disc_unit_qr": legendre(disc_unit, p, validate=False),
        "hasse": hasse,
    }
    return {
        "invariants": invariants,
        "coeffs_local": [{"val": c.val, "unit": c.unit} for c in local],
        "symbols": symbols,
    }


def local_invariants(
    q: DiagonalForm, place: LocalPlace, scale: Optional[LocalValue] = None
) -> LocalInvariants:
    """Invariants of q (or of lambda * q when scale is the class of lambda) over Q_p."""
    local = _local_values(q, place)
    if scale is not None:
        local = _scale(local, scale, place.p)
    return LocalInvariants(**_table(local, place.p)["invariants"])


def hasse_witt(q: DiagonalForm, place: LocalPlace) -> int:
    """Product of Hilbert symbols (a_i, a_j) over all coefficient pairs i < j."""
    return local_invariants(q, place).hasse


def disc_class(q: DiagonalForm, place: LocalPlace) -> tuple[int, int]:
    """Class of the product of coefficients in Q_p^*/(Q_p^*)^2: (valuation mod 2, Legendre of unit part)."""
    inv = local_invariants(q, place)
    return inv.disc_val_parity, inv.disc_unit_qr


def scaled_invariants(q: DiagonalForm, place: LocalPlace, lam: str) -> LocalInvariants:
    """Invariants of lambda * q for lambda in the square class "1", "u", "p" or "up"."""
    if lam not in SQUARE_CLASSES:
        raise ValueError(f"unknown square class {lam!r}, expected one of {SQUARE_CLASSES}")
    return local_invariants(q, place, dict(_square_classes(place.p))[lam])


# ------------------------------------------------------------- certificates


@dataclass(frozen=True)
class NoncommCertificate:
    """Witness that two admissible forms are nonisometric after every scaling.

    kind "OddDiscWitness": the discriminant ratio of the two forms is not a
    square of the field, which no scaling can repair in even rank.
    kind "LocalWitness": at one place every square class of scalars leaves
    a mismatch in (discriminant class, Hasse-Witt) against the target form.
    """

    kind: str
    form: DiagonalForm
    other_form: DiagonalForm
    witness: dict
    swapped: Optional[dict] = None

    @property
    def n(self) -> int:
        return self.form.n

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "form": self.form.to_json(),
            "other_form": self.other_form.to_json(),
            "witness": self.witness,
            "swapped": self.swapped,
        }

    @staticmethod
    def from_json(obj: dict) -> "NoncommCertificate":
        """Parse a certificate document; only the document `to_json` writes is
        accepted, so a missing, extra or ill-typed field is a ValueError."""
        try:
            cert = NoncommCertificate(
                obj["kind"],
                DiagonalForm.from_json(obj["form"]),
                DiagonalForm.from_json(obj["other_form"]),
                obj["witness"],
                obj["swapped"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate: {type(exc).__name__}: {exc}") from None
        if cert.to_json() != obj:
            raise ValueError("malformed certificate: not the document to_json writes")
        return cert


def _disc_ratio_product(q: DiagonalForm, q2: DiagonalForm) -> Sqrt2Int:
    # disc(q) * disc(q2) represents disc(q)/disc(q2) modulo squares; when the
    # forms differ only in the leading coefficient the shared tail cancels.
    if q.coeffs[1:] == q2.coeffs[1:]:
        return q.coeffs[0] * q2.coeffs[0]
    prod = Sqrt2Int(1)
    for c in q.coeffs + q2.coeffs:
        prod = prod * c
    return prod


def _witness_at(target: DiagonalForm, scaled: DiagonalForm, p: int) -> Optional[dict]:
    """The LocalWitness table at the place p: the target's invariants and one
    row per square class of scalars, or None when p is not 7 (mod 8) or as
    soon as some class matches."""
    if p % 8 != 7:
        return None
    place = LocalPlace.at(p)
    target_table = _table(_local_values(target, place), p)
    target_inv = target_table["invariants"]
    scaled_local = _local_values(scaled, place)
    rows = []
    for lam, scale in _square_classes(p):
        table = _table(_scale(scaled_local, scale, p), p)
        inv = table["invariants"]
        mismatches = [f for f, v in inv.items() if v != target_inv[f]]
        if not mismatches:
            return None
        rows.append({"lambda": lam, "invariants": inv, "mismatches": mismatches} | table)
    return {"p": p, "sqrt2_root": place.sqrt2_root, "target": target_table, "rows": rows}


def _scan_local_witness(
    target: DiagonalForm, scaled: DiagonalForm, place_budget: int
) -> Optional[dict]:
    """First place p = 7 (mod 8) up to the budget, unimodular for the scaled
    form, where all four square classes of scalars mismatch the target.

    Only places dividing the norm of a target coefficient are visited; at
    any other the target is unimodular too (v_p(c) <= v_p(norm c)).  Where
    both forms are unimodular every Hilbert symbol is 1 and both discriminant
    valuations are even; the rank n + 1 is odd, so lambda = u flips the
    discriminant's unit class and lambda = 1 does not, and one of the two
    matches the target.  So the first witness, and the certificate, is the
    same as that of a walk over every place.  The norms are nonzero, so no
    place above the largest of them divides one, and the scan stops there.
    """
    tgt_norms = [c.norm() for c in target.coeffs]
    norms = [c.norm() for c in scaled.coeffs]
    for p in range(7, min(place_budget, max(abs(n) for n in tgt_norms)) + 1, 8):
        if any(n % p == 0 for n in tgt_norms) and all(n % p for n in norms) and is_prime(p):
            witness = _witness_at(target, scaled, p)
            if witness is not None:
                return witness
    return None


def _check_pair(q: DiagonalForm, q2: DiagonalForm) -> None:
    if q.dim != q2.dim:
        raise ValueError("forms must have the same dimension")
    if not is_admissible(q) or not is_admissible(q2):
        raise ValueError("both forms must be admissible")


def _odd_certificate(q: DiagonalForm, q2: DiagonalForm) -> Optional[NoncommCertificate]:
    """The OddDiscWitness, or None when the discriminant ratio is a square."""
    product = _disc_ratio_product(q, q2)
    is_sq, transcript = square_test_f(product)
    if is_sq:
        return None
    witness = {"ratio_product": product.to_json(), "square_test": transcript}
    return NoncommCertificate("OddDiscWitness", q, q2, witness)


def _local_certificate(
    q: DiagonalForm, q2: DiagonalForm, forward: Optional[dict], swapped: Optional[dict]
) -> Optional[NoncommCertificate]:
    """The LocalWitness certificate from the tables with q and with q2 as target.

    A forward witness records the swapped table beside it.  When only the
    swapped orientation separates, it certifies the same conclusion, since
    q ~ lambda q2 iff q2 ~ (1/lambda) q.
    """
    if forward is not None:
        return NoncommCertificate("LocalWitness", q, q2, dict(forward, direction="forward"), swapped)
    if swapped is not None:
        return NoncommCertificate("LocalWitness", q, q2, dict(swapped, direction="reverse"))
    return None


def certify_noncommensurable(
    q_a: DiagonalForm,
    q_a2: DiagonalForm,
    n: Optional[int] = None,
    place_budget: int = 1000,
) -> Optional[NoncommCertificate]:
    """Certificate that q_a and lambda * q_a2 are nonisometric for every scalar lambda.

    Odd n: the discriminant is a similarity invariant in even rank, so a
    non-square discriminant ratio is a witness.  Even n: scan places
    p = 7 (mod 8) at which the scaled form is unimodular and look for one
    where all four scalar square classes mismatch; the roles-swapped scan
    is run as well and recorded.  Returns None when no witness exists
    within the budget; that is absence of a certificate, not a proof of
    commensurability.
    """
    _check_pair(q_a, q_a2)
    if n is not None and n != q_a.n:
        raise ValueError(f"stated n = {n} does not match the forms (n = {q_a.n})")
    if q_a.n % 2 == 1:
        return _odd_certificate(q_a, q_a2)
    forward = _scan_local_witness(q_a, q_a2, place_budget)
    return _local_certificate(q_a, q_a2, forward, _scan_local_witness(q_a2, q_a, place_budget))


def verify_certificate(cert: NoncommCertificate) -> bool:
    """Re-check a certificate from scratch: rebuild it with certify's own code
    at the places it names, and accept only an identical certificate."""
    q, q2 = cert.form, cert.other_form
    try:
        _check_pair(q, q2)
        if q.n % 2 == 1:
            return _odd_certificate(q, q2) == cert
        witness = cert.witness
        if witness["direction"] == "reverse":
            forward, swapped = None, _witness_at(q2, q, witness["p"])
        else:
            forward = _witness_at(q, q2, witness["p"])
            swapped = None if cert.swapped is None else _witness_at(q2, q, cert.swapped["p"])
        return _local_certificate(q, q2, forward, swapped) == cert
    except (KeyError, TypeError, ValueError):
        return False


# ------------------------------------------------------------------ family


def generate_family(n: int, count: int) -> list[DiagonalForm]:
    """The first `count` forms of hyperbolic dimension n with distinct prime
    leading coefficients.

    Odd n: leading coefficients run over the rational primes.  A rational x
    is a square in Q(sqrt(2)) iff x or 2x is a rational square, and a
    product of two distinct primes is neither, so the product (like the
    ratio) of two leading coefficients is never a square and the
    odd-discriminant witness separates every pair; 1 is excluded since
    1/2 = (1/sqrt(2))^2 would collide with 2.
    Even n: leading coefficients run over the primes p = 7 (mod 8).  With
    q_a as target the scan visits only p = a, the one odd prime dividing a
    target norm.  There q_a has odd discriminant valuation and Hasse-Witt
    -1, so lambda in {1, u} mismatch, and lambda in {p, up} give Hasse-Witt
    (-1)^(n(n+1)/2) with discriminant unit classes of opposite sign.  So
    n = 0 (mod 4) pairs get a witness at p = a, and no budget gives
    n = 2 (mod 4) pairs a witness in either direction.
    """
    if n < 2:
        raise ValueError("hyperbolic dimension n must be >= 2")
    if count < 1:
        raise ValueError("count must be >= 1")
    if n % 2:
        leads = primes_from(2)
    else:
        leads = (p for p in itertools.count(7, 8) if is_prime(p))
    return [DiagonalForm.standard(a, n) for a in itertools.islice(leads, count)]
