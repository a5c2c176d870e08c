"""Certificates survive a JSON round trip, still verify, and keep their layout.

For pairs drawn from the admissible families and for random admissible
forms, a certificate written by `certify_noncommensurable`, passed through
`json.dumps` and `json.loads` and read back by
`NoncommCertificate.from_json`, equals the original and verifies.  Every
LocalWitness table is laid out as documented: one local value per
coefficient, symbols in pair order, invariants that recompute from the
local values, rows in square-class order and key order fixed, so that
`json.dumps` without `sort_keys` writes the same bytes.  The tables, read
from one Legendre symbol per coefficient, agree symbol by symbol with
`hilbert_symbol`, and the four rows derived from the form's square classes
equal the tables of the scaled values, each with its own Legendre symbols.
A table's text filled from the template of its dimension is the sorted-key
`json.dumps` of it.  `json_text` prints exactly the bytes
`json.dumps(to_json(), sort_keys=True)` would, for forms and for every
kind and shape of certificate.
Examples are bounded and derandomized so that the suite stays fast and
repeatable.
"""

import itertools
import json
import math
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcensus.exact_arith import SQRT2, LocalValue, Sqrt2Int, legendre
from hybridcensus.quadform import (
    DiagonalForm,
    NoncommCertificate,
    _class_tables,
    _classes,
    _square_classes,
    _table,
    _table_text,
    certify_noncommensurable,
    generate_family,
    hilbert_symbol,
    is_admissible,
    signatures,
    verify_certificate,
)

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)
DIMENSIONS = (3, 4, 8)
EVEN_DIMENSIONS = (4, 8)
FAMILIES = {n: generate_family(n, 16) for n in DIMENSIONS + (12,)}
INVARIANTS = ["dim", "disc_val_parity", "disc_unit_qr", "hasse"]


def round_trip(cert):
    return NoncommCertificate.from_json(json.loads(json.dumps(cert.to_json())))


def assert_round_trip_verifies(q, q2):
    cert = certify_noncommensurable(q, q2, q.n, place_budget=200)
    if cert is not None:
        back = round_trip(cert)
        assert back == cert and back.to_json() == cert.to_json()
        assert verify_certificate(back)


@st.composite
def family_pairs(draw, dimensions=DIMENSIONS):
    family = FAMILIES[draw(st.sampled_from(dimensions))]
    i, j = draw(st.lists(st.integers(0, len(family) - 1), min_size=2, max_size=2, unique=True))
    return family[i], family[j]


@st.composite
def coefficient(draw, positive_norm):
    """u + v sqrt(2) with |v| <= 20: totally positive (u > |v| sqrt(2)) or of
    negative norm (v != 0, |u| < |v| sqrt(2))."""
    v = draw(st.integers(-20, 20) if positive_norm else st.integers(-20, 20).filter(bool))
    bound = math.isqrt(2 * v * v)  # 2v^2 is not a square for v != 0
    u = draw(st.integers(bound + 1, bound + 40) if positive_norm else st.integers(-bound, bound))
    return Sqrt2Int(u, v)


@st.composite
def admissible_pairs(draw, dimensions=DIMENSIONS):
    n = draw(st.sampled_from(dimensions))

    def form():
        leading = draw(st.lists(coefficient(True), min_size=n, max_size=n))
        last = draw(coefficient(False))
        # hyperbolic at the identity embedding, as certify requires of a pair
        return DiagonalForm(tuple(leading) + (last if last.v < 0 else last.conjugate(),))

    return form(), form()


@PROPERTY
@given(family_pairs())
def test_family_certificates_round_trip(pair):
    assert_round_trip_verifies(*pair)


@PROPERTY
@given(admissible_pairs())
def test_random_admissible_certificates_round_trip(pair):
    q, q2 = pair
    assert is_admissible(signatures(q)) and is_admissible(signatures(q2))
    assert_round_trip_verifies(q, q2)


def assert_table_layout(table, p, dim):
    local = table["coeffs_local"]
    assert len(local) == dim and all(list(c) == ["val", "unit"] for c in local)
    symbols = table["symbols"]
    assert all(list(s) == ["i", "j", "symbol"] for s in symbols)
    assert [(s["i"], s["j"]) for s in symbols] == list(itertools.combinations(range(dim), 2))
    inv = table["invariants"]
    assert list(inv) == INVARIANTS and inv["dim"] == dim
    assert inv["hasse"] == math.prod(s["symbol"] for s in symbols)
    assert inv["disc_val_parity"] == sum(c["val"] for c in local) % 2
    assert inv["disc_unit_qr"] == legendre(math.prod(c["unit"] for c in local), p)


def assert_witness_layout(witness, dim):
    p = witness["p"]
    assert list(witness)[:4] == ["p", "sqrt2_root", "target", "rows"]
    target = witness["target"]
    assert list(target) == ["invariants", "coeffs_local", "symbols"]
    assert_table_layout(target, p, dim)
    assert [row["lambda"] for row in witness["rows"]] == list(dict(_square_classes(p)))
    for row in witness["rows"]:
        assert list(row) == ["lambda", "invariants", "mismatches", "coeffs_local", "symbols"]
        assert_table_layout(row, p, dim)
        differ = [f for f in INVARIANTS if row["invariants"][f] != target["invariants"][f]]
        assert row["mismatches"] == differ and differ


def assert_certificate_layout(q, q2):
    cert = certify_noncommensurable(q, q2, q.n, place_budget=200)
    if cert is None:
        return
    assert cert.kind == "LocalWitness"
    assert list(cert.witness) == ["p", "sqrt2_root", "target", "rows", "direction"]
    assert_witness_layout(cert.witness, q.dim)
    if cert.swapped is not None:
        assert cert.witness["direction"] == "forward"
        assert list(cert.swapped) == ["p", "sqrt2_root", "target", "rows"]
        assert_witness_layout(cert.swapped, q.dim)


@PROPERTY
@given(family_pairs(EVEN_DIMENSIONS))
def test_family_certificate_layout(pair):
    assert_certificate_layout(*pair)


@PROPERTY
@given(admissible_pairs(EVEN_DIMENSIONS))
def test_random_admissible_certificate_layout(pair):
    assert_certificate_layout(*pair)


@pytest.mark.parametrize("p", [7, 23, 47, 17, 41, 73])  # (p-1)/2 odd, then even
@PROPERTY
@given(data=st.data())
def test_table_matches_hilbert_symbol(p, data):
    value = st.builds(LocalValue, st.integers(0, 3), st.integers(1, p - 1))
    local = data.draw(st.lists(value, min_size=3, max_size=10))
    table = _table(local, p, _classes(local, p))
    symbols = [s["symbol"] for s in table["symbols"]]
    pairs = itertools.combinations(range(len(local)), 2)
    assert symbols == [hilbert_symbol(local[i], local[j], p) for i, j in pairs]
    inv = table["invariants"]
    assert inv["hasse"] == math.prod(symbols)
    assert inv["disc_unit_qr"] == legendre(math.prod(c.unit for c in local) % p, p)


def table_oracle(local, p):
    """`_table` as it read one Legendre symbol per coefficient of every table,
    scaled rows included, with each symbol and invariant worked out alone."""
    alphas = [c.val % 2 for c in local]
    chis = [legendre(c.unit, p) for c in local]
    both_odd = -1 if p % 4 == 3 else 1
    symbols, hasse = [], 1
    for i, j in itertools.combinations(range(len(local)), 2):
        s = (chis[i] if alphas[j] else 1) * (chis[j] if alphas[i] else 1)
        if alphas[i] and alphas[j]:
            s *= both_odd
        symbols.append({"i": i, "j": j, "symbol": s})
        hasse *= s
    invariants = {
        "dim": len(local),
        "disc_val_parity": sum(c.val for c in local) % 2,
        "disc_unit_qr": math.prod(chis),
        "hasse": hasse,
    }
    return {
        "invariants": invariants,
        "coeffs_local": [{"val": c.val, "unit": c.unit} for c in local],
        "symbols": symbols,
    }


@pytest.mark.parametrize("p", [7, 23, 47, 17, 41, 73])  # (p-1)/2 odd, then even
@PROPERTY
@given(data=st.data())
def test_class_tables_match_scaled_tables(p, data):
    # each row's classes come from the unscaled form's, flipped by lambda's
    value = st.builds(LocalValue, st.integers(0, 3), st.integers(1, p - 1))
    local = data.draw(st.lists(value, min_size=3, max_size=10))
    expected = [
        (lam, table_oracle([LocalValue(c.val + val, c.unit * unit % p) for c in local], p))
        for lam, (val, unit) in _square_classes(p)
    ]
    assert list(_class_tables(local, p)) == expected
    assert _table(local, p, _classes(local, p)) == table_oracle(local, p)


@pytest.mark.parametrize("dim", range(3, 14))
@PROPERTY
@given(data=st.data())
def test_table_text_is_sorted_json(dim, data):
    p = data.draw(st.sampled_from([7, 17, 23, 41, 1031]))
    value = st.builds(LocalValue, st.integers(0, 40), st.integers(1, p - 1))
    local = data.draw(st.lists(value, min_size=dim, max_size=dim))
    table = _table(local, p, _classes(local, p))
    assert _table_text(table) == json.dumps(table, sort_keys=True)
    lam = data.draw(st.sampled_from(["1", "u", "p", "up"]))
    row = {"lambda": lam, "mismatches": ["dim", "hasse"]} | table
    row_fields = f'"lambda": "{lam}", "mismatches": ["dim", "hasse"], '
    assert _table_text(table, row_fields) == json.dumps(row, sort_keys=True)


def assert_json_text(cert):
    assert cert.json_text() == json.dumps(cert.to_json(), sort_keys=True)


@PROPERTY
@given(family_pairs((3, 4, 8, 12)))
def test_family_certificate_json_text(pair):
    q, q2 = pair
    assert_json_text(certify_noncommensurable(q, q2, q.n))


@PROPERTY
@given(admissible_pairs((2, 4, 6, 8)))
def test_random_admissible_certificate_json_text(pair):
    q, q2 = pair
    cert = certify_noncommensurable(q, q2, q.n, place_budget=200)
    if cert is not None:
        assert_json_text(cert)


@pytest.mark.parametrize(
    "a, a2, direction, has_swapped",
    [(7, 23, "forward", True), (7, 1, "forward", False), (1, 7, "reverse", False)],
)
def test_json_text_of_each_witness_shape(a, a2, direction, has_swapped):
    cert = certify_noncommensurable(DiagonalForm.standard(a, 4), DiagonalForm.standard(a2, 4))
    assert cert.witness["direction"] == direction
    assert (cert.swapped is not None) == has_swapped
    assert_json_text(cert)


@st.composite
def odd_disc_pairs(draw):
    """Odd-n pairs whose leading coefficients c and t c, t not a square,
    differ by a non-square of square norm: c rational gives the square
    test's "rational" branch, c with a sqrt(2) part the "mixed" one."""
    branch = draw(st.sampled_from(["rational", "mixed"]))
    n = draw(st.sampled_from([3, 5]))
    c = draw(coefficient(True).filter(lambda c: c.v))
    if branch == "rational":
        c = Sqrt2Int(c.u)
    t = draw(st.sampled_from([3, 5, 6, 7, 11, 13]))
    forms = [DiagonalForm((lead,) + (Sqrt2Int(1),) * (n - 1) + (-SQRT2,)) for lead in (c, c * t)]
    return branch, forms


@PROPERTY
@given(odd_disc_pairs())
def test_odd_disc_certificate_json_text(case):
    branch, (q, q2) = case
    cert = certify_noncommensurable(q, q2)
    assert cert.kind == "OddDiscWitness"
    assert cert.witness["square_test"]["branch"] == branch
    assert_json_text(cert)


component = st.one_of(st.integers(-3, 3), st.integers(-(10**60), 10**60))


@PROPERTY
@given(st.lists(st.builds(Sqrt2Int, component, component).filter(bool), min_size=3, max_size=8))
def test_form_json_text(coeffs):
    form = DiagonalForm(tuple(coeffs))
    assert form.json_text() == json.dumps(form.to_json(), sort_keys=True)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int-to-str digit limit"
)
@pytest.mark.parametrize("component", ["u", "v"])
def test_form_json_text_refuses_what_to_json_refuses(component):
    huge = 10**4300  # 4,301 digits, one past the default limit
    c = Sqrt2Int(huge, 1) if component == "u" else Sqrt2Int(1, huge)
    form = DiagonalForm((c, Sqrt2Int(1), -SQRT2))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as by_to_json:
            form.to_json()
        with pytest.raises(ValueError) as by_text:
            form.json_text()
    finally:
        sys.set_int_max_str_digits(saved)
    assert str(by_text.value) == str(by_to_json.value)
