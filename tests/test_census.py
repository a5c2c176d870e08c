import math
import random
from fractions import Fraction

import pytest
from factorial_oracle import burnside_count, multinomial_bound

from hybridcensus.census import (
    CensusRow,
    asymptotic_log,
    lcom_lower_bound,
    liminf_check,
    render_log_scientific,
    table_to_csv,
    theorem_table,
    volume_of,
)
from hybridcensus.gluing import CyclicWord, necklace_count

UNIT_VOLUMES = {1: Fraction(1), 2: Fraction(1)}


class TestVolumeOf:
    def test_alternating_word(self):
        vv = volume_of(CyclicWord((1, 2, 1, 2), 2))
        assert vv.counts == {1: 2, 2: 2}
        assert vv.symbolic() == "2*v1 + 2*v2"
        assert vv.numeric_total is None

    def test_special_piece_word(self):
        vv = volume_of(CyclicWord((2, 1, 1), 2))
        assert vv.counts == {1: 2, 2: 1}

    def test_rotation_invariance(self):
        rng = random.Random(31)
        for _ in range(100):
            m = rng.randrange(1, 10)
            w = CyclicWord(tuple(rng.randrange(1, 3) for _ in range(m)), 2)
            k = rng.randrange(m)
            assert volume_of(w).counts == volume_of(w.rotate(k)).counts

    def test_numeric_total(self):
        vv = volume_of(CyclicWord((2, 1, 1), 2), {1: Fraction(1, 2), 2: Fraction(3)})
        assert vv.numeric_total == Fraction(4)

    def test_unused_letters_counted_as_zero(self):
        vv = volume_of(CyclicWord((1, 1), 3))
        assert vv.counts == {1: 2, 2: 0, 3: 0}

    def test_linear_growth_in_word_length(self):
        totals = [
            volume_of(CyclicWord((2,) + (1,) * k, 2), UNIT_VOLUMES).numeric_total
            for k in range(1, 20)
        ]
        assert totals == [Fraction(k + 1) for k in range(1, 20)]


class TestTheoremTable:
    def test_counts_match_oracle(self):
        for r, m_max in ((2, 8), (2, 300), (5, 80), (8, 60)):
            rows = theorem_table(r, m_max)
            assert [(row.exact_count, row.multinomial_bound) for row in rows] == [
                (burnside_count(r, m), multinomial_bound(r, m)) for m in range(1, m_max + 1)
            ]

    def test_m2_row(self):
        row = theorem_table(2, 2)[1]
        assert row.exact_count == 2
        assert row.multinomial_bound == Fraction(6, 4)
        assert row.power_bound == 4

    def test_empty_table(self):
        assert theorem_table(2, 0) == []

    def test_single_letter_alphabet(self):
        rows = theorem_table(1, 12)
        assert all(row.exact_count == 1 for row in rows)

    def test_bound_invariant(self):
        for r in (2, 3):
            for row in theorem_table(r, 40):
                assert row.exact_count >= row.multinomial_bound

    def test_power_threshold_small_range(self):
        rows = theorem_table(2, 64)
        below = [row.m for row in rows if row.exact_count < row.power_bound]
        assert below == [1, 2, 3, 4, 5]
        assert rows[4].exact_count == 26 and rows[4].power_bound == 32

    def test_volumes_attached(self):
        rows = theorem_table(2, 4, UNIT_VOLUMES)
        assert [row.volume.numeric_total for row in rows] == [Fraction(2 * m) for m in range(1, 5)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            theorem_table(0, 4)
        with pytest.raises(ValueError):
            theorem_table(2, -1)


class TestAsymptotic:
    def test_small_value(self):
        # r = 2, m = 1: closed form is 2 / (1 * sqrt(2 pi))
        assert math.isclose(asymptotic_log(2, 1), math.log(2 / math.sqrt(2 * math.pi)))

    def test_ratio_converges_to_sqrt_r(self):
        for r in (2, 3):
            diffs = []
            for m in (32, 64, 128):
                a_m = necklace_count(r, m)
                diffs.append(math.log(a_m) - asymptotic_log(r, m) - math.log(r) / 2)
            assert abs(diffs[-1]) <= 0.01
            assert abs(diffs[0]) > abs(diffs[1]) > abs(diffs[2])

    def test_row_ratio_matches_log_difference(self):
        row = theorem_table(2, 32)[-1]
        assert math.isclose(
            row.ratio, math.exp(math.log(row.exact_count) - row.asymptotic_log)
        )

    def test_render_scientific(self):
        assert render_log_scientific(math.log(1500.0)).startswith("1.5")
        assert render_log_scientific(math.log(1500.0)).endswith("e+3")
        # 10^(log10 1000 - 2) rounds up to 10: the carry goes into the exponent
        assert render_log_scientific(math.log(1000.0)) == "1.000000000e+3"
        big = render_log_scientific(asymptotic_log(3, 512))
        mant, exp10 = big.split("e")
        assert 1.0 <= float(mant) < 10.0 and int(exp10) > 700


class TestLcomBound:
    def test_two_steps(self):
        assert lcom_lower_bound(Fraction(2), Fraction(1), Fraction(1)) == 4

    def test_below_threshold(self):
        assert lcom_lower_bound(Fraction(1, 2), Fraction(1), Fraction(1)) == 1

    def test_monotone(self):
        rng = random.Random(32)
        K, V = Fraction(7, 3), Fraction(2)
        for _ in range(100):
            v1 = Fraction(rng.randrange(1, 400), rng.randrange(1, 20))
            v2 = v1 + Fraction(rng.randrange(0, 100), rng.randrange(1, 20))
            assert lcom_lower_bound(v1, K, V) <= lcom_lower_bound(v2, K, V)

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            lcom_lower_bound(Fraction(1), Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            lcom_lower_bound(Fraction(1), Fraction(1), Fraction(-1))


class TestLiminfCheck:
    def test_unit_volume_quotients(self):
        rows = theorem_table(2, 64, UNIT_VOLUMES)[5:]
        assert liminf_check(rows) >= Fraction(1, 4)

    def test_single_row(self):
        rows = theorem_table(2, 6, UNIT_VOLUMES)[5:6]
        a6 = rows[0].exact_count
        assert liminf_check(rows) == Fraction(a6.bit_length() - 1, 12)

    def test_quotient_scales_with_volume(self):
        half = {1: Fraction(1, 2), 2: Fraction(1, 2)}
        full_rows = theorem_table(2, 16, UNIT_VOLUMES)[5:]
        half_rows = theorem_table(2, 16, half)[5:]
        assert liminf_check(half_rows) == 2 * liminf_check(full_rows)

    def test_fallback_to_K(self):
        rows = theorem_table(2, 16)[5:]
        assert liminf_check(rows, K=Fraction(2)) == liminf_check(
            theorem_table(2, 16, UNIT_VOLUMES)[5:]
        )

    def test_missing_volumes_and_K(self):
        with pytest.raises(ValueError):
            liminf_check(theorem_table(2, 4))
        with pytest.raises(ValueError):
            liminf_check([])


class TestCsv:
    def test_header_and_shape(self):
        text = table_to_csv(theorem_table(2, 3))
        lines = text.strip().split("\n")
        assert lines[0] == "m,a_m,pow2,multinomial_bound,asymptotic,ratio"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1" and first[2] == "2"
        assert first[3] == "1/1"

    def test_exact_big_integers(self):
        text = table_to_csv(theorem_table(2, 70))
        last = text.strip().split("\n")[-1].split(",")
        assert int(last[1]) == necklace_count(2, 70)
