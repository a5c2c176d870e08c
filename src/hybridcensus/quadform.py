"""Diagonal quadratic forms over Q(sqrt(2)) and their local invariants.

Provides admissibility and anisotropy checks, the local invariants of a
form at a split place, and machine-checkable noncommensurability
certificates for families of such forms.  Local
invariants have one representation: the `invariants` dict of the table a
certificate records, with keys dim, disc_val_parity, disc_unit_qr and
hasse.  An admissible form is hyperbolic at one real embedding of
Q(sqrt(2)), and its integer-point lattice acts on hyperbolic space
through that embedding.  Two admissible forms hyperbolic at the same
embedding give commensurable lattices only if the forms are isometric up
to a scalar, so a local invariant separating one form from every scaling
of the other is a witness of noncommensurability.  A form and its
conjugate (u + v*sqrt(2) -> u - v*sqrt(2) in every coefficient) give the
same lattice through the two embeddings, so a pair hyperbolic at
different embeddings is refused.

A table's Hilbert symbols depend only on the square classes of the
coefficients in Q_p^*, so each symbol is read from a 4 x 4 table by two
class indices.  The table depends only on p mod 4; its two copies are
computed at import by `hilbert_symbol` on the class representatives at
p = 5 and p = 3.  A witness reads the classes of each form once: the
four scaled rows' classes follow from the scaled form's.  A witness
prints by filling one %-template per table dimension.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cache
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
    "DiagonalForm",
    "NoncommCertificate",
    "certify_noncommensurable",
    "disc_class",
    "generate_family",
    "hasse_witt",
    "hilbert_symbol",
    "is_admissible",
    "is_anisotropic_certified",
    "local_invariants",
    "signatures",
    "verify_certificate",
]


# ------------------------------------------------------------------- forms


@dataclass(frozen=True, slots=True)
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

    def json_text(self) -> str:
        """`json.dumps(self.to_json(), sort_keys=True)`, joined as text; a
        coefficient past the int-to-str digit limit raises the same ValueError."""
        coeffs = ", ".join(f'{{"u": "{c.u}", "v": "{c.v}"}}' for c in self.coeffs)
        return f'{{"coeffs": [{coeffs}], "n": {self.n}}}'

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


def is_admissible(sig: tuple[int, int]) -> bool:
    """Whether a form of these `signatures` is definite at one real embedding
    and of signature (1, n) at the other."""
    return sorted(sig) == [0, 1]


def is_anisotropic_certified(sig: tuple[int, int], dim: int) -> bool:
    """Whether a form of these `signatures` and dimension is definite at some
    real embedding (sufficient for anisotropy)."""
    return any(neg in (0, dim) for neg in sig)


# --------------------------------------------------------- local invariants


def hilbert_symbol(a: LocalValue, b: LocalValue, p: int) -> int:
    """Hilbert symbol (a, b) over Q_p for an odd prime p.

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over Q_p.  For
    a = p^alpha u, b = p^beta w this is
    (-1)^(alpha beta (p-1)/2) * (u|p)^beta * (w|p)^alpha.  `_SYMBOLS`, the
    table `_table` reads, is tabulated from it at import, through 32 calls.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
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
    the smallest non-residue, searched for once and only when first needed.
    Their class indices (see `_classes`) are 0, 1, 2, 3 in this order."""
    yield "1", LocalValue(0, 1)
    u = smallest_nonresidue(p)
    yield "u", LocalValue(0, u)
    yield "p", LocalValue(1, 1)
    yield "up", LocalValue(1, u)


def _local_values(q: DiagonalForm, place: LocalPlace) -> list[LocalValue]:
    return [valuation_f(c, place) for c in q.coeffs]


def _scale(local: list[LocalValue], scale: LocalValue, p: int) -> list[LocalValue]:
    return [LocalValue(c.val + scale.val, c.unit * scale.unit % p) for c in local]


def _classes(local: list[LocalValue], p: int) -> list[int]:
    """The square class of each value as an index 2 alpha + nu: alpha is the
    valuation's parity and nu is 1 when the unit is a non-residue.  The
    classes form the group (Z/2)^2, so the class of a product is the XOR of
    the indices."""
    return [2 * (c.val % 2) + (legendre(c.unit, p, validate=False) == -1) for c in local]


# The Hilbert symbols (a, b) over Q_p for a and b in the square classes 0..3,
# by p mod 4.  They depend on nothing else, so they are read at p = 5 and p = 3.
_SYMBOLS = {
    p % 4: tuple(tuple(hilbert_symbol(a, b, p) for _, b in _square_classes(p)) for _, a in _square_classes(p))
    for p in (5, 3)
}


@cache
def _pairs(dim: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(dim), 2))


def _table(local: list[LocalValue], p: int, classes: Optional[list[int]] = None) -> dict:
    """The invariants and Hilbert-symbol table of the diagonal form with these
    local coefficient values, as a certificate records them.

    Each symbol (a_i, a_j) depends only on the square classes of a_i and a_j,
    so it is read from the 4 x 4 table `_SYMBOLS` by the two class indices.
    The classes are read from one Legendre symbol per coefficient unless
    they are given.  The discriminant's valuation parity and unit class are
    the sums of the alphas and of the nus mod 2, since the Legendre symbol
    is multiplicative.
    """
    if classes is None:
        classes = _classes(local, p)
    rows = [_SYMBOLS[p % 4][k] for k in classes]
    pairs = _pairs(len(local))
    values = [rows[i][classes[j]] for i, j in pairs]
    invariants = {
        "dim": len(local),
        "disc_val_parity": (classes.count(2) + classes.count(3)) % 2,
        "disc_unit_qr": -1 if (classes.count(1) + classes.count(3)) % 2 else 1,
        "hasse": -1 if values.count(-1) % 2 else 1,
    }
    return {
        "invariants": invariants,
        "coeffs_local": [{"val": val, "unit": unit} for val, unit in local],
        "symbols": [{"i": i, "j": j, "symbol": s} for (i, j), s in zip(pairs, values)],
    }


def _class_tables(local: list[LocalValue], p: int) -> Iterator[tuple[str, dict]]:
    """(lambda, the table of lambda times the form) for the square classes
    lambda = 1, u, p, up in turn, for the form with these local values.

    The Legendre symbols are read once, for the form itself: lambda's class
    flips the parity (p, up) and the character (u, up) of every coefficient,
    since (cs|p) = (c|p)(s|p) and u is a non-residue.
    """
    classes = _classes(local, p)
    for index, (lam, scale) in enumerate(_square_classes(p)):
        yield lam, _table(_scale(local, scale, p), p, [k ^ index for k in classes])


def local_invariants(q: DiagonalForm, place: LocalPlace) -> dict:
    """Invariants of q over Q_p, as the `invariants` dict of the table a
    certificate records."""
    return _table(_local_values(q, place), place.p)["invariants"]


def hasse_witt(q: DiagonalForm, place: LocalPlace) -> int:
    """Product of Hilbert symbols (a_i, a_j) over all coefficient pairs i < j."""
    return local_invariants(q, place)["hasse"]


def disc_class(q: DiagonalForm, place: LocalPlace) -> tuple[int, int]:
    """Class of the product of coefficients in Q_p^*/(Q_p^*)^2: (valuation mod 2, Legendre of unit part)."""
    inv = local_invariants(q, place)
    return inv["disc_val_parity"], inv["disc_unit_qr"]


# ------------------------------------------------------------- certificates


@dataclass(frozen=True, slots=True)
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

    def json_text(self) -> str:
        """`json.dumps(self.to_json(), sort_keys=True)`, for a certificate that
        `certify_noncommensurable` returns.

        Both kinds are joined as text into one envelope.  A LocalWitness's
        witnesses are joined from their tables: their string fields (lambda,
        mismatches, direction) hold identifiers, which JSON does not escape,
        and their numbers are ints, not the bools `verify_certificate` also
        takes for 1 and 0.  An OddDiscWitness's witness is small, and its
        square_test keys depend on the branch, so it goes through `json.dumps`.
        """
        def body(witness: dict) -> str:
            local = self.kind == "LocalWitness"
            return _witness_text(witness) if local else json.dumps(witness, sort_keys=True)

        swapped = "null" if self.swapped is None else body(self.swapped)
        return (
            f'{{"form": {self.form.json_text()}, "kind": "{self.kind}", "n": {self.n}, '
            f'"other_form": {self.other_form.json_text()}, "swapped": {swapped}, '
            f'"witness": {body(self.witness)}}}'
        )

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


def _disc_ratio_factors(q: DiagonalForm, q2: DiagonalForm) -> tuple[Sqrt2Int, ...]:
    """The coefficients whose product is the discriminant ratio's representative.

    disc(q) * disc(q2) represents disc(q)/disc(q2) modulo squares; when the
    forms differ only in the leading coefficient the shared tail cancels.
    """
    if q.coeffs[1:] == q2.coeffs[1:]:
        return q.coeffs[0], q2.coeffs[0]
    return q.coeffs + q2.coeffs


def _disc_ratio_product(q: DiagonalForm, q2: DiagonalForm) -> Sqrt2Int:
    return math.prod(_disc_ratio_factors(q, q2), start=Sqrt2Int(1))


def _product_outgrows(q: DiagonalForm, q2: DiagonalForm, product: Sqrt2Int) -> bool:
    """Whether `_disc_ratio_product(q, q2)` is certainly not product, from the
    sizes of the factors' norms alone.

    The norm is multiplicative and a nonzero norm N has |N| >= 2^(bit_length - 1),
    so the product's norm is at least 2^s, s the sum of those exponents, while
    |N(u + v sqrt(2))| <= u^2 + 2 v^2.  The test costs one norm per factor, where
    the product costs time quadratic in the total size of the factors.
    """
    s = sum(abs(c.norm()).bit_length() - 1 for c in _disc_ratio_factors(q, q2))
    return s >= (product.u * product.u + 2 * product.v * product.v).bit_length()


def _witness_at(target: DiagonalForm, scaled: DiagonalForm, p: int) -> Optional[dict]:
    """The LocalWitness table at the place p: the target's invariants and one
    row per square class of scalars, or None when p is not a prime 7 (mod 8)
    below the primality bound or as soon as some class matches."""
    if p % 8 != 7:
        return None
    try:
        place = LocalPlace.at(p)
    except ValueError:
        return None
    target_table = _table(_local_values(target, place), p)
    target_inv = target_table["invariants"]
    rows = []
    for lam, table in _class_tables(_local_values(scaled, place), p):
        inv = table["invariants"]
        mismatches = [f for f, v in inv.items() if v != target_inv[f]]
        if not mismatches:
            return None
        rows.append({"lambda": lam, "invariants": inv, "mismatches": mismatches} | table)
    return {"p": p, "sqrt2_root": place.sqrt2_root, "target": target_table, "rows": rows}


# the numbers of a table in the order its sorted-key JSON text holds them
_UNIT_VAL = operator.itemgetter("unit", "val")
_INVARIANTS = operator.itemgetter("dim", "disc_unit_qr", "disc_val_parity", "hasse")
_SYMBOL = operator.itemgetter("symbol")


@cache
def _table_template(dim: int) -> str:
    """The %-template `_table_text` fills for a table of dim coefficients: the
    sorted-key JSON text with each pair (i, j) written in, a %d for every
    other number and a %s for the row fields."""
    local = ", ".join(['{"unit": %d, "val": %d}'] * dim)
    symbols = ", ".join('{"i": %d, "j": %d, "symbol": %%d}' % ij for ij in _pairs(dim))
    return (
        '{"coeffs_local": [' + local + '], "invariants": {"dim": %d, "disc_unit_qr": %d, '
        '"disc_val_parity": %d, "hasse": %d}, %s"symbols": [' + symbols + "]}"
    )


def _table_text(table: dict, row_fields: str = "") -> str:
    """The sorted-key JSON text of a `_table` dict, with a row's lambda and
    mismatches fields, given as text, between invariants and symbols."""
    local = table["coeffs_local"]
    values = (
        *itertools.chain.from_iterable(map(_UNIT_VAL, local)),
        *_INVARIANTS(table["invariants"]),
        row_fields,
        *map(_SYMBOL, table["symbols"]),
    )
    return _table_template(len(local)) % values


def _witness_text(witness: dict) -> str:
    """The sorted-key JSON text of a `_witness_at` dict, with its direction if
    it has one."""
    rows = []
    for row in witness["rows"]:
        mismatches = '", "'.join(row["mismatches"])  # a row has at least one
        fields = f'"lambda": "{row["lambda"]}", "mismatches": ["{mismatches}"], '
        rows.append(_table_text(row, fields))
    direction = f'"direction": "{witness["direction"]}", ' if "direction" in witness else ""
    return (
        f'{{{direction}"p": {witness["p"]}, "rows": [{", ".join(rows)}], '
        f'"sqrt2_root": {witness["sqrt2_root"]}, "target": {_table_text(witness["target"])}}}'
    )


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
    A prime divides a product of norms exactly when it divides one of them,
    so each place tests the two products; a composite p that passes is
    refused by `_witness_at`, which `LocalPlace.at` tests for primality.
    """
    tgt_norms = [abs(c.norm()) for c in target.coeffs]
    tgt_prod = math.prod(tgt_norms)
    scaled_prod = math.prod(c.norm() for c in scaled.coeffs)
    for p in range(7, min(place_budget, max(tgt_norms)) + 1, 8):
        if tgt_prod % p == 0 and scaled_prod % p:
            witness = _witness_at(target, scaled, p)
            if witness is not None:
                return witness
    return None


def _check_pair(q: DiagonalForm, q2: DiagonalForm) -> None:
    if q.dim != q2.dim:
        raise ValueError("forms must have the same dimension")
    sig, sig2 = signatures(q), signatures(q2)
    if not is_admissible(sig) or not is_admissible(sig2):
        raise ValueError("both forms must be admissible")
    if sig != sig2:
        # q and its conjugate define the same lattice, read through the two embeddings
        raise ValueError("the forms must be hyperbolic at the same real embedding")


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
    commensurability.  Both forms must be admissible and hyperbolic at the
    same real embedding, or a ValueError is raised.
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
            product = Sqrt2Int.from_json(cert.witness["ratio_product"])
            return not _product_outgrows(q, q2, product) and _odd_certificate(q, q2) == cert
        shape = [(q.dim, q.dim * (q.dim - 1) // 2)] * 5  # the target and four rows
        for w in filter(None, (cert.witness, cert.swapped)):  # refused before any rebuild
            if [(len(t["coeffs_local"]), len(t["symbols"])) for t in [w["target"], *w["rows"]]] != shape:
                return False
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
