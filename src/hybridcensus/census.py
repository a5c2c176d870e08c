"""Census tables: exact class counts against power and Stirling benchmarks.

Volumes of glued objects are linear in the word content, so fixed-content
families share a volume.  Piece volumes stay formal symbols v_k unless
numeric rationals are supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .gluing import CyclicWord, multinomial_lower_bound, necklace_count

__all__ = [
    "CensusRow",
    "VolumeVector",
    "asymptotic_log",
    "lcom_lower_bound",
    "liminf_check",
    "render_log_scientific",
    "table_to_csv",
    "theorem_table",
    "volume_of",
]


@dataclass(frozen=True)
class VolumeVector:
    """Letter multiplicities of a word; the rendered volume is sum m_k * v_k."""

    counts: dict[int, int]
    numeric_total: Optional[Fraction] = None

    def symbolic(self) -> str:
        return " + ".join(f"{mult}*v{k}" for k, mult in sorted(self.counts.items()))

    def to_json(self) -> dict:
        out: dict = {"counts": {str(k): v for k, v in sorted(self.counts.items())}}
        out["symbolic"] = self.symbolic()
        if self.numeric_total is not None:
            out["total"] = _frac_str(self.numeric_total)
        return out


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _piece_volume(piece_volumes: dict[int, Fraction], k: int) -> Fraction:
    if k not in piece_volumes:
        raise ValueError(f"piece volumes are missing piece {k}")
    return Fraction(piece_volumes[k])


def volume_of(
    w: CyclicWord, piece_volumes: Optional[dict[int, Fraction]] = None
) -> VolumeVector:
    """Content of a word over its full alphabet; numeric total only when
    piece volumes are supplied."""
    counts = {k: 0 for k in range(1, w.r + 1)}
    for x in w.letters:
        counts[x] += 1
    total = None
    if piece_volumes is not None:
        total = sum((_piece_volume(piece_volumes, k) * counts[k] for k in counts), Fraction(0))
    return VolumeVector(counts, total)


def asymptotic_log(r: int, m: int) -> float:
    """Natural log of m^-1 (2 pi m)^-((r-1)/2) r^(rm-1).

    Stirling applied to the multinomial over rm makes the true count a
    factor sqrt(r) above this closed form; callers that compare against
    exact counts must multiply by sqrt(r).
    """
    return -math.log(m) - (r - 1) / 2 * math.log(2 * math.pi * m) + (r * m - 1) * math.log(r)


@dataclass(frozen=True)
class CensusRow:
    m: int
    exact_count: int
    power_bound: int
    multinomial_bound: Fraction
    asymptotic_log: float
    volume: VolumeVector

    @property
    def ratio(self) -> float:
        """exact_count / asymptotic, evaluated in log space to dodge overflow."""
        return math.exp(math.log(self.exact_count) - self.asymptotic_log)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "a_m": str(self.exact_count),
            "pow2": str(self.power_bound),
            "multinomial_bound": _frac_str(self.multinomial_bound),
            "asymptotic": render_log_scientific(self.asymptotic_log),
            "ratio": self.ratio,
            "volume": self.volume.to_json(),
        }


_MANTISSA_DIGITS = 9


def render_log_scientific(log_value: float) -> str:
    """Scientific-notation string for exp(log_value) without overflowing floats."""
    log10 = log_value / math.log(10)
    exp10 = math.floor(log10)
    mantissa = f"{10.0 ** (log10 - exp10):.{_MANTISSA_DIGITS}f}"
    if mantissa.startswith("10"):  # rounding carried into the next decade
        mantissa, exp10 = f"{1:.{_MANTISSA_DIGITS}f}", exp10 + 1
    return f"{mantissa}e{exp10:+d}"


def theorem_table(
    r: int, m_max: int, piece_volumes: Optional[dict[int, Fraction]] = None
) -> list[CensusRow]:
    """Rows m = 1..m_max of exact counts, 2^m, the multinomial bound and the
    Stirling asymptotic (kept in log space).

    Rows are built in increasing m, so each row's counts extend the
    multinomials `gluing` walked upward for the row before.
    """
    if r < 1:
        raise ValueError("alphabet size r must be >= 1")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    unit_volume = None
    if piece_volumes is not None:
        unit_volume = sum(
            (_piece_volume(piece_volumes, k) for k in range(1, r + 1)), Fraction(0)
        )
    rows = []
    for m in range(1, m_max + 1):
        rows.append(
            CensusRow(
                m=m,
                exact_count=necklace_count(r, m),
                power_bound=2**m,
                multinomial_bound=multinomial_lower_bound(r, m),
                asymptotic_log=asymptotic_log(r, m),
                volume=VolumeVector(
                    {k: m for k in range(1, r + 1)},
                    None if unit_volume is None else unit_volume * m,
                ),
            )
        )
    return rows


def table_to_csv(rows: list[CensusRow]) -> str:
    lines = ["m,a_m,pow2,multinomial_bound,asymptotic,ratio"]
    for row in rows:
        lines.append(
            f"{row.m},{row.exact_count},{row.power_bound},"
            f"{_frac_str(row.multinomial_bound)},"
            f"{render_log_scientific(row.asymptotic_log)},{row.ratio!r}"
        )
    return "\n".join(lines) + "\n"


def lcom_lower_bound(v: Fraction, K: Fraction, V: Fraction) -> int:
    """Step lower bound for the number of commensurability classes reachable
    with volume v: 2^floor(v/K) once v >= V, else 1."""
    v, K, V = Fraction(v), Fraction(K), Fraction(V)
    if K <= 0 or V <= 0:
        raise ValueError("K and V must be positive")
    if v < V:
        return 1
    return 2 ** (v // K)


def liminf_check(rows: list[CensusRow]) -> Fraction:
    """Minimum over rows of floor(log2 a_m) / volume, as an exact rational.

    floor(log2 a_m) = bit_length - 1 keeps the quotient rational while
    staying a true lower bound.  Rows carry a numeric volume only when the
    table was built with piece volumes, and every row must carry one.
    """
    if not rows:
        raise ValueError("empty table")
    quotients = []
    for row in rows:
        denom = row.volume.numeric_total
        if denom is None:
            raise ValueError("rows lack numeric volumes")
        if denom <= 0:
            raise ValueError("volumes must be positive")
        quotients.append(Fraction(row.exact_count.bit_length() - 1) / denom)
    return min(quotients)
