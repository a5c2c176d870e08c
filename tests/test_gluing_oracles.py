"""Word answers on long words against the bench's reference oracles.

`bench/oracles.py` finds the least rotation with a two-pointer scan and
the period with a KMP failure function, neither of which the library
uses.  The words here run to about 3,000 letters, far past the short
words of `test_gluing.py`, so every branch of the library's pass over
w.w is taken many times per word.
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
