"""Property tests for census rendering and the liminf quotient.

`liminf_check` compares quotients by integer cross-multiplication; it must
return the minimum of the Fraction quotients and refuse a table at the
first row an exact scan over Fractions refuses.  `table_to_json` must print
the bytes `json.dumps` prints for a row's volume, whose count keys sort as
strings, for any letters and any insertion order.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcensus.census import CensusRow, VolumeVector, liminf_check, table_to_json

PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)

# denominators up to 10^40 are far wider than any count times numerator
positive = st.builds(
    Fraction, st.integers(1, 10**30), st.integers(1, 10**40)
) | st.builds(Fraction, st.integers(1, 50), st.integers(1, 6))


def row(m: int, count: int, total) -> CensusRow:
    return CensusRow(m, count, 2**m, Fraction(1), 0.0, VolumeVector({1: m}, total))


def assert_one_row_table_is_json_dumps(volume: VolumeVector) -> None:
    rows = [CensusRow(1, 1, 2, Fraction(1), 0.0, volume)]
    assert table_to_json(rows) == json.dumps([r.to_json() for r in rows], sort_keys=True)


def fraction_oracle(rows):
    """The quotient by an exact scan over Fractions, or the refusal."""
    if not rows:
        return "empty table"
    quotients = []
    for r in rows:
        total = r.volume.numeric_total
        if total is None:
            return "rows lack numeric volumes"
        if total <= 0:
            return "volumes must be positive"
        quotients.append(Fraction(r.exact_count.bit_length() - 1) / total)
    return min(quotients)


def answer(rows):
    try:
        return liminf_check(rows)
    except ValueError as exc:
        return str(exc)


@PROPERTY
@given(st.lists(st.tuples(st.integers(1, 2**300), positive), min_size=1, max_size=30))
def test_liminf_is_the_fraction_minimum(entries):
    rows = [row(m, count, total) for m, (count, total) in enumerate(entries, 1)]
    assert answer(rows) == fraction_oracle(rows)
    assert type(liminf_check(rows)) is Fraction


@PROPERTY
@given(
    st.lists(
        st.tuples(
            st.integers(1, 2**80),
            positive | st.none() | st.builds(Fraction, st.integers(-50, 0), st.integers(1, 9)),
        ),
        max_size=12,
    )
)
def test_liminf_refuses_at_the_same_row(entries):
    rows = [row(m, count, total) for m, (count, total) in enumerate(entries, 1)]
    assert answer(rows) == fraction_oracle(rows)


@PROPERTY
@given(
    st.dictionaries(st.integers(1, 40), st.integers(0, 10**6), max_size=15),
    st.none() | positive,
)
def test_volume_text_is_json_dumps(counts, total):
    assert_one_row_table_is_json_dumps(VolumeVector(counts, total))


@PROPERTY
@given(
    st.integers(1, 14).flatmap(lambda r: st.permutations(range(1, r + 1))),
    st.lists(st.just(0) | st.integers(0, 10**100 - 1), min_size=14, max_size=14),
    st.none() | positive,
)
def test_full_alphabet_volume_text_is_json_dumps(letters, counts, total):
    # the letters 1..r in any insertion order: r >= 10 puts "10" before "2"
    assert_one_row_table_is_json_dumps(VolumeVector(dict(zip(letters, counts)), total))
