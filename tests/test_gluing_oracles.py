"""Word answers on long words against the bench's reference oracles.

`bench/oracles.py` finds the least rotation with a two-pointer scan and
the period with a KMP failure function, neither of which the library
uses.  The words here run to about 3,000 letters, far past the short
words of `test_gluing.py`, so every branch of the library's Duval pass
over w.w is taken many times per word.  The crafted pairs are the inputs
on which CPython's substring search, which answers the orbit, period and
reflection questions, takes its slowest path.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from hybridcensus.gluing import (
    CyclicWord,
    StabilizerReport,
    canonical_rotation,
    dihedral_stabilizer,
    primitive_root,
    same_class,
)

ORACLES = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"


def load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = load_oracles()


def letters(rng, r, m):
    return tuple(rng.randrange(1, r + 1) for _ in range(m))


def long_words(seed):
    """Random, periodic, nearly periodic and rotated palindromic words."""
    rng = random.Random(seed)
    for _ in range(8):
        r = rng.randrange(1, 5)
        yield CyclicWord(letters(rng, r, rng.randrange(1, 3001)), r)
    for _ in range(8):
        r = rng.randrange(1, 4)
        block = letters(rng, r, rng.randrange(1, 40))
        yield CyclicWord(block * rng.randrange(2, 3000 // len(block) + 1), r)
    for _ in range(6):
        block = letters(rng, 2, rng.randrange(1, 6))
        word = list(block * (2000 // len(block)))
        word[rng.randrange(len(word))] = rng.randrange(1, 3)
        yield CyclicWord(tuple(word), 2).rotate(rng.randrange(len(word)))
    for _ in range(8):
        r = rng.randrange(1, 4)
        half = letters(rng, r, rng.randrange(1, 1500))
        middle = letters(rng, r, rng.randrange(0, 2))
        word = CyclicWord(half + middle + half[::-1], r)
        yield word.rotate(rng.randrange(word.m))


@pytest.mark.parametrize("seed", range(3))
def test_long_words_match_oracles(seed):
    rng = random.Random(100 + seed)
    for w in long_words(seed):
        period = oracles.period(w.letters)
        canon, shift = canonical_rotation(w)
        assert shift == oracles.least_rotation(w.letters)
        assert canon.letters == oracles.canonical(w.letters)
        assert primitive_root(w).m == period
        reflection = oracles.canonical(w.letters) == oracles.canonical(w.letters[::-1])
        assert dihedral_stabilizer(w) == StabilizerReport(w.m // period, reflection)
        k = rng.randrange(w.m)
        assert same_class(w, w.rotate(k)) == (True, k % period)


def crafted_words(m):
    """Pairs on which CPython's substring search takes its slowest path:
    1^m against one 2 among the 1s, and (12)^k 11 against (12)^k 22."""
    k = (m - 2) // 2
    ones = (1,) * m
    for h in (0, m // 3, m // 2, m - 1):
        yield ones, ones[:h] + (2,) + ones[h + 1 :]
    yield (1, 2) * k + (1, 1), (1, 2) * k + (2, 2)


def oracle_same_class(a, b):
    if oracles.canonical(a) != oracles.canonical(b):
        return False, None
    return True, (oracles.least_rotation(a) - oracles.least_rotation(b)) % oracles.period(a)


@pytest.mark.parametrize("m", [1000, 2000])
def test_crafted_words_match_oracles(m):
    for a, b in crafted_words(m):
        alpha, beta = CyclicWord(a, 2), CyclicWord(b, 2)
        for x, y in ((alpha, beta), (beta, alpha), (beta, beta.rotate(m // 3))):
            assert same_class(x, y) == oracle_same_class(x.letters, y.letters)
        for w in (alpha, beta):
            period = oracles.period(w.letters)
            reflection = oracles.canonical(w.letters) == oracles.canonical(w.letters[::-1])
            assert primitive_root(w).m == period
            assert dihedral_stabilizer(w) == StabilizerReport(w.m // period, reflection)
