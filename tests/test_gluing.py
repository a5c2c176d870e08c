import os
import random
import sys
import threading
from itertools import chain, takewhile

import pytest
from factorial_oracle import burnside_count, multinomial, multinomial_bound

from hybridcensus import gluing
from hybridcensus.gluing import (
    CLASS_LIMIT,
    CyclicWord,
    _fixed_content_words,
    brute_force_class_count,
    canonical_rotation,
    dihedral_stabilizer,
    enumerate_classes,
    isometry_upper_bound,
    multinomial_lower_bound,
    necklace_count,
    primitive_root,
    same_class,
)


def naive_min_rotation(letters):
    doubled = letters + letters
    n = len(letters)
    return min(doubled[s : s + n] for s in range(n))


def is_least_rotation(letters):
    """letters == naive_min_rotation(letters), stopping at the first smaller rotation."""
    doubled = letters + letters
    n = len(letters)
    return all(doubled[s : s + n] >= letters for s in range(1, n))


def random_word(rng, max_len=12, max_r=3):
    r = rng.randrange(1, max_r + 1)
    m = rng.randrange(1, max_len + 1)
    return CyclicWord(tuple(rng.randrange(1, r + 1) for _ in range(m)), r)


def periodic_word(rng, max_block=4):
    """A random block of at most max_block letters repeated 2 to 5 times."""
    block = random_word(rng, max_len=max_block)
    return CyclicWord(block.letters * rng.randrange(2, 6), block.r)


class TestCyclicWord:
    def test_parse(self):
        w = CyclicWord.parse("2,1,1")
        assert w.letters == (2, 1, 1) and w.r == 2 and w.m == 3

    def test_parse_explicit_alphabet(self):
        assert CyclicWord.parse("1,1", 3).r == 3

    def test_parse_malformed(self):
        for text in ("", "1,,2", "a,b", "1;2"):
            with pytest.raises(ValueError):
                CyclicWord.parse(text)

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            CyclicWord((0, 1), 2)
        with pytest.raises(ValueError):
            CyclicWord((3,), 2)

    # Outcomes of the two checked entry points, each message as the
    # letter-by-letter check in CyclicWord.__post_init__ words it; None
    # means accepted.  parse names the first bad letter in word order.
    @pytest.mark.parametrize(
        "letters, r, message",
        [
            ((0, 1, 2), 2, "letter 0 outside alphabet [1, 2]"),
            ((1, 2, 0), 2, "letter 0 outside alphabet [1, 2]"),
            ((1, 3, 2, 4, 1), 2, "letter 3 outside alphabet [1, 2]"),
            ((-1,), 1, "letter -1 outside alphabet [1, 1]"),
            ((1, -2, 1), 2, "letter -2 outside alphabet [1, 2]"),
            ((1, 2, 3), 2, "letter 3 outside alphabet [1, 2]"),
            ((1.0, 2), 2, "letter 1.0 outside alphabet [1, 2]"),
            ((2, 1.0), 2, "letter 1.0 outside alphabet [1, 2]"),
            ((1, [1]), 2, "letter [1] outside alphabet [1, 2]"),
            ((True, 2), 2, "letter True outside alphabet [1, 2]"),
            ((1, 2), 0, "alphabet size r must be >= 1"),
            ((1,), -1, "alphabet size r must be >= 1"),
            ((), 2, "word must have length >= 1"),
            ([1, 2], 2, None),
            ((1, False), 2, "letter False outside alphabet [1, 2]"),
            ((1, 2), 2.5, "alphabet size r must be an int, not 2.5"),
            ((1, 2), True, "alphabet size r must be an int, not True"),
        ],
    )
    def test_constructor_outcomes(self, letters, r, message):
        if message is None:
            assert CyclicWord(letters, r).letters == tuple(letters)
        else:
            with pytest.raises(ValueError) as exc:
                CyclicWord(letters, r)
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, r, message",
        [
            ("0,1,2", 2, "letter 0 outside alphabet [1, 2]"),
            ("1,2,0", 2, "letter 0 outside alphabet [1, 2]"),
            ("1,3,2,4,1", 2, "letter 3 outside alphabet [1, 2]"),
            ("3,1,2", 2, "letter 3 outside alphabet [1, 2]"),
            ("1,2,3,5,4", 4, "letter 5 outside alphabet [1, 4]"),
            ("-1", 1, "letter -1 outside alphabet [1, 1]"),
            ("1,-2,1", None, "letter -2 outside alphabet [1, 1]"),
            ("1,-2,1", 2, "letter -2 outside alphabet [1, 2]"),
            ("-1", None, "letter -1 outside alphabet [1, 1]"),
            ("0", None, "letter 0 outside alphabet [1, 1]"),
            ("0,-3", None, "letter 0 outside alphabet [1, 1]"),
            ("1,2", 0, "alphabet size r must be >= 1"),
            ("1", -1, "alphabet size r must be >= 1"),
            ("1,2", 2.5, "alphabet size r must be an int, not 2.5"),
            ("1,2", True, "alphabet size r must be an int, not True"),
            ("1.0,2", None, "malformed word '1.0,2': expected comma-separated integers"),
            ("2,1.0", 2, "malformed word '2,1.0': expected comma-separated integers"),
            ("True,2", None, "malformed word 'True,2': expected comma-separated integers"),
            ("[1]", None, "malformed word '[1]': expected comma-separated integers"),
            ("1,[1]", 2, "malformed word '1,[1]': expected comma-separated integers"),
            ("", None, "malformed word '': expected comma-separated integers"),
            ("1,3,2,4,1", None, None),
            (" 2, +1", None, None),
            ("2,1", 3, None),
        ],
    )
    def test_parse_outcomes(self, text, r, message):
        if message is None:
            w = CyclicWord.parse(text, r)
            assert w == CyclicWord(tuple(int(x) for x in text.split(",")), r or max(w.letters))
        else:
            with pytest.raises(ValueError) as exc:
                CyclicWord.parse(text, r)
            assert str(exc.value) == message

    def test_rotate(self):
        w = CyclicWord((1, 2, 3), 3)
        assert w.rotate(1).letters == (2, 3, 1)
        assert w.rotate(3) == w
        assert w.rotate(-1).letters == (3, 1, 2)


class TestCanonicalRotation:
    def test_examples(self):
        canon, shift = canonical_rotation(CyclicWord((2, 1, 1), 2))
        assert canon.letters == (1, 1, 2) and shift == 1
        canon, shift = canonical_rotation(CyclicWord((1, 2, 1, 2), 2))
        assert canon.letters == (1, 2, 1, 2) and shift == 0

    def test_idempotent(self):
        rng = random.Random(21)
        for _ in range(200):
            w = random_word(rng)
            canon, _ = canonical_rotation(w)
            again, shift = canonical_rotation(canon)
            assert again == canon and shift == 0

    def test_matches_naive_minimum(self):
        rng = random.Random(22)
        random_words = [random_word(rng) for _ in range(500)]
        for w in random_words + [periodic_word(rng) for _ in range(300)]:
            canon, shift = canonical_rotation(w)
            least = naive_min_rotation(w.letters)
            assert canon.letters == least
            assert w.rotate(shift) == canon
            # the CLI prints the shift, so it must be the smallest start
            assert shift == min(s for s in range(w.m) if w.rotate(s).letters == least)

    def test_rotation_invariance(self):
        rng = random.Random(23)
        for _ in range(200):
            w = random_word(rng)
            k = rng.randrange(w.m)
            assert canonical_rotation(w.rotate(k))[0] == canonical_rotation(w)[0]


class TestSameClass:
    def test_shift_witness(self):
        ok, p = same_class(CyclicWord((1, 2, 2, 1), 2), CyclicWord((1, 1, 2, 2), 2))
        assert ok and p == 3

    def test_distinct_necklaces(self):
        ok, p = same_class(CyclicWord((1, 1, 2, 2), 2), CyclicWord((1, 2, 1, 2), 2))
        assert not ok and p is None

    def test_constant_words(self):
        ok, p = same_class(CyclicWord((2, 2, 2), 2), CyclicWord((2, 2, 2), 2))
        assert ok and p == 0
        ok, _ = same_class(CyclicWord((1, 1, 1), 2), CyclicWord((2, 2, 2), 2))
        assert not ok

    def test_length_mismatch_is_error(self):
        with pytest.raises(ValueError, match="length"):
            same_class(CyclicWord((1, 2), 2), CyclicWord((1, 2, 1), 2))

    def test_alphabet_mismatch_is_error(self):
        with pytest.raises(ValueError, match="alphabet"):
            same_class(CyclicWord((1, 2), 2), CyclicWord((1, 2), 3))

    def test_witness_is_valid_and_smallest(self):
        rng = random.Random(24)
        for _ in range(300):
            w = random_word(rng)
            k = rng.randrange(w.m)
            other = w.rotate(k)
            ok, p = same_class(w, other)
            assert ok
            assert w.rotate(p) == other
            assert all(w.rotate(q) != other for q in range(p))

    def test_equivalence_laws(self):
        rng = random.Random(25)
        for _ in range(1000):
            a = random_word(rng, max_len=8)
            b = a.rotate(rng.randrange(a.m)) if rng.random() < 0.7 else random_word(
                rng, max_len=8
            )
            if b.m != a.m or b.r != a.r:
                continue
            c = b.rotate(rng.randrange(b.m)) if rng.random() < 0.7 else random_word(
                rng, max_len=8
            )
            if c.m != a.m or c.r != a.r:
                continue
            ok_aa, p_aa = same_class(a, a)
            assert ok_aa and p_aa == 0
            ok_ab, p_ab = same_class(a, b)
            ok_ba, p_ba = same_class(b, a)
            assert ok_ab == ok_ba
            if ok_ab:
                assert a.rotate(p_ab) == b and b.rotate(p_ba) == a
            ok_bc, _ = same_class(b, c)
            ok_ac, _ = same_class(a, c)
            if ok_ab and ok_bc:
                assert ok_ac


class TestPrimitiveRoot:
    def test_examples(self):
        assert primitive_root(CyclicWord((1, 2, 1, 2), 2)).letters == (1, 2)
        assert primitive_root(CyclicWord((1, 2, 2), 2)).letters == (1, 2, 2)
        assert primitive_root(CyclicWord((1, 1, 1), 1)).letters == (1,)

    def test_root_reconstructs_word(self):
        rng = random.Random(26)
        random_words = [random_word(rng) for _ in range(200)]
        for w in random_words + [periodic_word(rng) for _ in range(200)]:
            g = primitive_root(w)
            letters = w.letters
            shortest = min(
                d for d in range(1, w.m + 1) if w.m % d == 0 and letters[d:] + letters[:d] == letters
            )
            assert g.m == shortest
            assert g.letters * (w.m // g.m) == letters


class TestDihedralStabilizer:
    def test_constant_word(self):
        rep = dihedral_stabilizer(CyclicWord((1, 1, 1), 1))
        assert rep.rotation_order == 3 and rep.reflection_exists
        assert rep.dihedral_order == 6

    def test_single_special_piece(self):
        rep = dihedral_stabilizer(CyclicWord((2, 1, 1), 2))
        assert rep.rotation_order == 1 and rep.reflection_exists
        assert rep.dihedral_order == 2

    def test_alternating_word(self):
        rep = dihedral_stabilizer(CyclicWord((1, 2, 1, 2), 2))
        assert rep.rotation_order == 2 and rep.reflection_exists
        assert rep.dihedral_order == 4

    def test_chiral_word(self):
        rep = dihedral_stabilizer(CyclicWord((1, 1, 2, 1, 2, 2), 2))
        assert rep.rotation_order == 1 and not rep.reflection_exists
        assert rep.dihedral_order == 1

    def test_order_matches_symmetry_enumeration(self):
        rng = random.Random(27)
        random_words = (random_word(rng, max_len=10) for _ in range(200))
        # periodic words (a block repeated) and rotated palindromes, with and
        # without a middle letter
        periodic = (
            CyclicWord(b.letters * rng.randrange(2, 5), b.r)
            for b in (random_word(rng, max_len=4) for _ in range(100))
        )
        palindromes = (
            CyclicWord(h.letters + mid + h.letters[::-1], h.r).rotate(rng.randrange(10))
            for h in (random_word(rng, max_len=5) for _ in range(100))
            for mid in ((), (rng.randrange(1, h.r + 1),))
        )
        for w in chain(random_words, periodic, palindromes):
            m, letters = w.m, w.letters
            preserved = 0
            for s in range(m):
                if all(letters[(i + s) % m] == letters[i] for i in range(m)):
                    preserved += 1
            for t in range(m):
                if all(letters[(t - i) % m] == letters[i] for i in range(m)):
                    preserved += 1
            # counting maps with multiplicity: m rotations plus m reflections
            assert dihedral_stabilizer(w).dihedral_order == preserved

    def test_dihedral_order_divides_2m(self):
        rng = random.Random(28)
        for _ in range(200):
            w = random_word(rng)
            rep = dihedral_stabilizer(w)
            assert 2 * w.m % rep.dihedral_order == 0
            assert w.m % rep.rotation_order == 0


class TestIsometryBound:
    def test_single_special_piece_sequence(self):
        for k in range(1, 20):
            w = CyclicWord((2,) + (1,) * k, 2)
            assert isometry_upper_bound(w, 17) == 2 * 17

    def test_constant_word(self):
        for m in (1, 2, 5, 8):
            w = CyclicWord((1,) * m, 1)
            assert isometry_upper_bound(w, 3) == 2 * m * 3

    def test_chiral_aperiodic_word(self):
        w = CyclicWord((1, 1, 2, 1, 2, 2), 2)
        assert isometry_upper_bound(w, 11) == 11

    def test_invalid_piece_bound(self):
        with pytest.raises(ValueError):
            isometry_upper_bound(CyclicWord((1,), 1), 0)


class TestNecklaceCount:
    def test_examples(self):
        assert necklace_count(2, 1) == 1
        assert necklace_count(2, 2) == 2  # {1122}, {1212}
        assert necklace_count(2, 3) == 4  # 111222, 112122, 112212, 121212
        assert necklace_count(3, 1) == 2  # {123}, {132}
        assert necklace_count(1, 5) == 1

    def test_matches_brute_force(self):
        for r in (1, 2, 3):
            for m in range(1, 13):
                if r * m > 12:
                    break
                assert necklace_count(r, m) == brute_force_class_count(r, m)

    def test_multinomial_bound(self):
        for r in (2, 3):
            for m in range(1, 16):
                assert necklace_count(r, m) >= multinomial_lower_bound(r, m)

    def test_walk_matches_factorial_oracle(self):
        # a shuffled order meets the walk cold, warm and just after a change of r
        pairs = [(r, m) for r in range(1, 9) for m in range(1, 49)] * 2
        random.Random(0).shuffle(pairs)
        for r, m in pairs:
            assert necklace_count(r, m) == burnside_count(r, m), (r, m)
            assert multinomial_lower_bound(r, m) == multinomial_bound(r, m), (r, m)

    def test_concurrent_callers_agree_with_oracle(self):
        pairs = [(r, m) for r in (2, 3, 5, 8) for m in range(1, 41)]
        expected = {(r, m): (burnside_count(r, m), multinomial_bound(r, m)) for r, m in pairs}
        n_threads = (os.cpu_count() or 1) + 4
        wrong: list[tuple] = []
        done: list[int] = []

        def work(seed: int) -> None:
            order = pairs * 4
            random.Random(seed).shuffle(order)
            for r, m in order:
                got = (necklace_count(r, m), multinomial_lower_bound(r, m))
                if got != expected[(r, m)]:
                    wrong.append((r, m, got))
            done.append(seed)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert sorted(done) == list(range(n_threads))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            necklace_count(0, 3)
        with pytest.raises(ValueError):
            necklace_count(2, 0)


class TestEnumerateClasses:
    def test_small_case(self):
        reps = enumerate_classes(2, 2)
        assert [w.letters for w in reps] == [(1, 1, 2, 2), (1, 2, 1, 2)]

    def test_counts_match_formula(self):
        for r, m in ((1, 6), (2, 2), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)):
            assert len(enumerate_classes(r, m)) == necklace_count(r, m)

    def test_matches_permutation_filter(self):
        # the exact ordered list of least rotations among all fixed-content
        # words; a least rotation starts with the letter 1, and the words come
        # in lexicographic order, so the filter stops at the first that does not
        cases = [(r, m) for r in (1, 2, 3) for m in range(1, 13) if r * m <= 12]
        for r, m in cases + [(2, 7), (3, 4), (4, 3)]:
            words = takewhile(lambda w: w[0] == 1, _fixed_content_words(r, m))
            expected = [w for w in words if is_least_rotation(w)]
            got = enumerate_classes(r, m)
            assert [w.letters for w in got] == expected, (r, m)

    def test_representatives_are_canonical(self):
        for w in enumerate_classes(3, 3):
            canon, shift = canonical_rotation(w)
            assert canon == w and shift == 0

    def test_depth_and_class_limits(self):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter's default
        try:
            # words up to half the recursion limit are listed, one letter too
            assert enumerate_classes(1, 500) == [CyclicWord((1,) * 500, 1)]
            # longer words are refused before the recursion runs past the stack
            for r, m in ((1, 501), (2, 251)):
                with pytest.raises(ValueError, match="recursion depth 500"):
                    enumerate_classes(r, m)
        finally:
            sys.setrecursionlimit(saved)
        assert len(enumerate_classes(2, 11)) == necklace_count(2, 11) == 32066
        # shorter words with too many classes are refused from the count
        with pytest.raises(ValueError, match="class limit"):
            enumerate_classes(2, 14)

    def test_class_limit(self, monkeypatch):
        # refused from necklace_count, before the recursion emits a class
        for r, m in ((20, 1), (4, 5), (6, 3)):
            message = f"class limit exceeded: {necklace_count(r, m)} classes > {CLASS_LIMIT}"
            with pytest.raises(ValueError) as exc:
                enumerate_classes(r, m)
            assert str(exc.value) == message
        # the limit is inclusive: (5, 2) has 11,352 classes
        monkeypatch.setattr(gluing, "CLASS_LIMIT", 11352)
        assert len(enumerate_classes(5, 2)) == 11352
        monkeypatch.setattr(gluing, "CLASS_LIMIT", 11351)
        with pytest.raises(ValueError, match="class limit"):
            enumerate_classes(5, 2)

    def test_twenty_letters(self):
        assert len(enumerate_classes(2, 10)) == necklace_count(2, 10) == 9252

    def test_orbit_stabilizer_accounting(self):
        # orbit sizes rm / rotation_order over all classes sum to the word count
        for r, m in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
            total = sum(
                r * m // dihedral_stabilizer(w).rotation_order
                for w in enumerate_classes(r, m)
            )
            assert total == multinomial(r, m)
