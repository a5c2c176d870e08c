"""Property tests for words against brute-force answers.

The least rotation, the period, the orbit test with its smallest witness
shift and the dihedral stabilizer are checked against scans over every
rotation and reflection, over small letters and over letters past
sys.maxunicode, which take the rank encoding.  Words the library builds
without the letter check (`CyclicWord._unchecked` itself, rotations,
canonical forms, primitive roots, enumerated classes and parsed words)
must equal the word the checked constructor builds from the same
letters, with the same hash and repr, also over letters past
sys.maxunicode, and `parse` must accept and refuse exactly as that
constructor does, also for a bool or float alphabet size.  Over tokens
that `int` reads or refuses, `parse`, which reads each distinct token
once, must give the letters or the error of reading every token in
turn.  Examples are bounded and derandomized so that the suite stays
fast and repeatable.
"""

import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcensus.gluing import (
    CyclicWord,
    StabilizerReport,
    canonical_rotation,
    dihedral_stabilizer,
    enumerate_classes,
    primitive_root,
    same_class,
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
    assert w == checked and hash(w) == hash(checked) and repr(w) == repr(checked)


@PROPERTY
@given(words())
def test_least_rotation_and_period_match_brute_force(w):
    every = rotations(w.letters)
    least = min(every)
    canon, shift = canonical_rotation(w)
    assert canon.letters == least and shift == every.index(least)
    period = next(d for d in range(1, w.m + 1) if every[d % w.m] == w.letters)
    assert primitive_root(w).letters == w.letters[:period]


@st.composite
def word_pairs(draw):
    """A word and a rotation of it, a shuffle of it, or a rotation with one
    cyclically adjacent pair of letters swapped."""
    alpha = draw(words())
    kind = draw(st.sampled_from(["rotation", "shuffle", "swap"]))
    if kind == "shuffle":
        return alpha, CyclicWord(tuple(draw(st.permutations(alpha.letters))), alpha.r)
    beta = list(alpha.rotate(draw(st.integers(0, alpha.m - 1))).letters)
    if kind == "swap":
        i = draw(st.integers(0, alpha.m - 1))
        j = (i + 1) % alpha.m
        beta[i], beta[j] = beta[j], beta[i]
    return alpha, CyclicWord(tuple(beta), alpha.r)


def brute_same_class(alpha, beta):
    hits = [p for p, rot in enumerate(rotations(alpha.letters)) if rot == beta.letters]
    return (True, hits[0]) if hits else (False, None)


def brute_stabilizer(w):
    x, m = w.letters, w.m
    rotation_order = sum(rot == x for rot in rotations(x))
    reflection = any(all(x[(t - i) % m] == x[i] for i in range(m)) for t in range(m))
    return StabilizerReport(rotation_order, reflection)


BIG = 2**70


def big(w):
    """The same word over letters BIG + 1, ..., BIG + r, past sys.maxunicode."""
    return CyclicWord(tuple(BIG + x for x in w.letters), BIG + w.r)


@PROPERTY
@given(word_pairs())
def test_same_class_matches_brute_force(pair):
    alpha, beta = pair
    expected = brute_same_class(alpha, beta)
    assert same_class(alpha, beta) == expected
    assert same_class(big(alpha), big(beta)) == expected


@PROPERTY
@given(words())
def test_stabilizer_matches_brute_force(w):
    assert dihedral_stabilizer(w) == brute_stabilizer(w)


@PROPERTY
@given(words())
def test_large_alphabet_gives_the_same_answers(w):
    wide = big(w)
    assert BIG + w.r > sys.maxunicode
    assert dihedral_stabilizer(wide) == dihedral_stabilizer(w)
    assert primitive_root(wide) == big(primitive_root(w))
    assert canonical_rotation(wide)[1] == canonical_rotation(w)[1]
    assert same_class(wide, wide.rotate(3)) == same_class(w, w.rotate(3))


def test_too_many_distinct_letters_are_refused():
    n = sys.maxunicode + 2
    w = CyclicWord(tuple(range(BIG, BIG + n)), BIG + n)
    message = f"{n} distinct letters cannot be encoded: the limit is sys.maxunicode + 1 = {n - 1}"
    with pytest.raises(ValueError) as exc:
        dihedral_stabilizer(w)
    assert str(exc.value) == message


@PROPERTY
@given(words(), st.booleans(), st.integers(-100, 100))
def test_derived_words_match_checked_words(w, wide, s):
    if wide:
        w = big(w)
    unchecked = CyclicWord._unchecked(w.letters, w.r)
    for derived in (unchecked, w.rotate(s), canonical_rotation(w)[0], primitive_root(w)):
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
    st.one_of(st.none(), st.integers(-1, 5), st.sampled_from([True, False, 2.0, 2.5])),
)
def test_parse_refuses_as_the_checked_constructor(letters, r):
    text = ",".join(map(str, letters))
    derived = max(max(letters), 1)  # a derived alphabet is never empty
    expected = outcome(lambda: CyclicWord(tuple(letters), derived if r is None else r))
    assert outcome(lambda: CyclicWord.parse(text, r)) == expected


def read_each_token(text, r):
    """The outcome of the letter-by-letter parse: `int` on every token in
    order, then the checked constructor over the alphabet parse uses."""
    try:
        letters = tuple(map(int, text.split(",")))
    except ValueError:
        return f"malformed word {text!r}: expected comma-separated integers"
    return outcome(lambda: CyclicWord(letters, max(max(letters), 1) if r is None else r).letters)


# tokens int reads or refuses: signs, spaces, underscores, zeros and
# leading zeros, a non-ASCII digit, empty tokens, and tokens at and past
# the 4,300-digit int-to-str limit
TOKENS = st.one_of(
    st.integers(-3, 13).map(str),
    st.sampled_from(
        [" 2", "3 ", " +1 ", "+4", "-0", "-2", "0", "00", "007", "1_0", "_1", "1__0", "١", "٣",
         "", " ", "x", "1.0", "0" * 4299 + "2", "0" * 4300 + "2", "1" * 4301]
    ),
)


@PROPERTY
@given(st.lists(TOKENS, min_size=1, max_size=8).map(",".join), st.none() | st.integers(-1, 13))
def test_parse_reads_as_each_token_read(text, r):
    assert outcome(lambda: CyclicWord.parse(text, r).letters) == read_each_token(text, r)
