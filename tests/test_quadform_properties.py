"""Certificates survive a JSON round trip and still verify.

For pairs drawn from the admissible families and for random admissible
forms, a certificate written by `certify_noncommensurable`, passed through
`json.dumps` and `json.loads` and read back by
`NoncommCertificate.from_json`, equals the original and verifies.
Examples are bounded and derandomized so that the suite stays fast and
repeatable.
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcensus.exact_arith import Sqrt2Int
from hybridcensus.quadform import (
    DiagonalForm,
    NoncommCertificate,
    certify_noncommensurable,
    generate_family,
    is_admissible,
    verify_certificate,
)

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)
DIMENSIONS = (3, 4, 8)
FAMILIES = {n: generate_family(n, 16) for n in DIMENSIONS}


def round_trip(cert):
    return NoncommCertificate.from_json(json.loads(json.dumps(cert.to_json())))


def assert_round_trip_verifies(q, q2):
    cert = certify_noncommensurable(q, q2, q.n, place_budget=200)
    if cert is not None:
        back = round_trip(cert)
        assert back == cert and back.to_json() == cert.to_json()
        assert verify_certificate(back)


@st.composite
def family_pairs(draw):
    family = FAMILIES[draw(st.sampled_from(DIMENSIONS))]
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
def admissible_pairs(draw):
    n = draw(st.sampled_from(DIMENSIONS))

    def form():
        leading = draw(st.lists(coefficient(True), min_size=n, max_size=n))
        return DiagonalForm(tuple(leading) + (draw(coefficient(False)),))

    return form(), form()


@PROPERTY
@given(family_pairs())
def test_family_certificates_round_trip(pair):
    assert_round_trip_verifies(*pair)


@PROPERTY
@given(admissible_pairs())
def test_random_admissible_certificates_round_trip(pair):
    q, q2 = pair
    assert is_admissible(q) and is_admissible(q2)
    assert_round_trip_verifies(q, q2)
