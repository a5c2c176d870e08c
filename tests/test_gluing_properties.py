"""Property tests for words against brute-force answers.

The least rotation and the period are checked against scans over every
rotation.  Words the library builds without the letter check (rotations,
canonical forms, primitive roots, enumerated classes and parsed words)
must equal, and hash like, the word the checked constructor builds from
the same letters, and `parse` must accept and refuse exactly as that
constructor does.  Examples are bounded and derandomized so that the
suite stays fast and repeatable.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcensus.gluing import (
    CyclicWord,
    canonical_rotation,
    enumerate_classes,
    primitive_root,
)

PROPERTY = settings(max_examples=100, deadline=None, database=None, derandomize=True)


@st.composite
def words(draw, max_len=40):
    """A random word, or a random block repeated 2 to 6 times."""
    r = draw(st.integers(1, 4))
    letter = st.integers(1, r)
    if draw(st.booleans()):
        letters = draw(st.lists(letter, min_size=1, max_size=max_len))
    else:
        block = draw(st.lists(letter, min_size=1, max_size=8))
        letters = block * draw(st.integers(2, 6))
    return CyclicWord(tuple(letters), r)


def rotations(letters):
    return [letters[s:] + letters[:s] for s in range(len(letters))]


def assert_like_checked(w, r):
    checked = CyclicWord(w.letters, r)
    assert type(w.letters) is tuple
    assert w == checked and hash(w) == hash(checked)


@PROPERTY
@given(words())
def test_least_rotation_and_period_match_brute_force(w):
    every = rotations(w.letters)
    least = min(every)
    canon, shift = canonical_rotation(w)
    assert canon.letters == least and shift == every.index(least)
    period = next(d for d in range(1, w.m + 1) if every[d % w.m] == w.letters)
    assert primitive_root(w).letters == w.letters[:period]


@PROPERTY
@given(words(), st.integers(-100, 100))
def test_derived_words_match_checked_words(w, s):
    for derived in (w.rotate(s), canonical_rotation(w)[0], primitive_root(w)):
        assert_like_checked(derived, w.r)
    parsed = CyclicWord.parse(str(w), w.r)
    assert_like_checked(parsed, w.r)
    assert parsed == w


@pytest.mark.parametrize("r, m", [(1, 5), (2, 4), (3, 2), (4, 1)])
def test_enumerated_classes_match_checked_words(r, m):
    for w in enumerate_classes(r, m):
        assert_like_checked(w, r)


def outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@PROPERTY
@given(
    st.lists(st.integers(-2, 6), min_size=1, max_size=12),
    st.one_of(st.none(), st.integers(-1, 5)),
)
def test_parse_refuses_as_the_checked_constructor(letters, r):
    text = ",".join(map(str, letters))
    expected = outcome(lambda: CyclicWord(tuple(letters), max(letters) if r is None else r))
    assert outcome(lambda: CyclicWord.parse(text, r)) == expected
