"""Census tables: exact class counts against power and Stirling benchmarks.

Volumes of glued objects are linear in the word content, so fixed-content
families share a volume.  Piece volumes stay formal symbols v_k unless
numeric rationals are supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .gluing import CyclicWord, multinomial_lower_bound, necklace_count

__all__ = [
    "CensusRow",
    "VolumeVector",
    "asymptotic_log",
    "lcom_lower_bound",
    "liminf_check",
    "render_log_scientific",
    "table_to_csv",
    "table_to_json",
    "theorem_table",
    "volume_of",
]


@dataclass(frozen=True, slots=True)
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


@lru_cache(maxsize=64)
def _volume_layout(keys: tuple) -> str:
    """The format string of `json.dumps(volume.to_json(), sort_keys=True)` for
    a VolumeVector whose count keys are keys, in that insertion order: field i
    is the count of keys[i], and field len(keys) is the text of the total, if any.

    JSON sorts the count keys as strings ("10" before "2"), while the
    symbolic sum lists them in numeric order, as `symbolic` does.
    """
    fields = [f"{{{i}}}" for i in range(len(keys) + 1)]  # "{0}", "{1}", ...
    field = dict(zip(keys, fields))
    counts = ", ".join([f'"{k}": {field[k]}' for k in sorted(keys, key=str)])
    symbolic = " + ".join([f"{field[k]}*v{k}" for k in sorted(keys)])
    # outside the fields, format prints a doubled brace as one
    return '{{"counts": {{' + counts + '}}, "symbolic": "' + symbolic + '"' + fields[-1] + "}}"


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


# the fields of a row that JSON and CSV share, in CSV column order
_ROW_FIELDS = ("m", "a_m", "pow2", "multinomial_bound", "asymptotic", "ratio")


@dataclass(frozen=True, slots=True)
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

    def _fields(self) -> tuple:
        """The fields named in _ROW_FIELDS, rendered as JSON and CSV both write
        them; str(float) == repr(float), so CSV can join them with str."""
        return (
            self.m,
            str(self.exact_count),
            str(self.power_bound),
            _frac_str(self.multinomial_bound),
            render_log_scientific(self.asymptotic_log),
            self.ratio,
        )

    def to_json(self) -> dict:
        return dict(zip(_ROW_FIELDS, self._fields()), volume=self.volume.to_json())


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
    letters = range(1, r + 1)
    unit_volume = None
    if piece_volumes is not None:
        unit_volume = sum((_piece_volume(piece_volumes, k) for k in letters), Fraction(0))
    rows = []
    for m in range(1, m_max + 1):
        volume = VolumeVector(
            dict.fromkeys(letters, m), None if unit_volume is None else unit_volume * m
        )
        rows.append(
            CensusRow(
                m,
                necklace_count(r, m),
                2**m,
                multinomial_lower_bound(r, m),
                asymptotic_log(r, m),
                volume,
            )
        )
    return rows


def _render_last_first(rows: list, render: Callable) -> list:
    """render(row) for every row, called from the last row back and returned
    in row order.

    The last row normally holds a table's widest rendered field, so a table
    past the interpreter's int-to-str digit limit usually raises its
    ValueError on the first render instead of after every row below the
    limit.  Every row is still rendered, so an over-limit field in an earlier
    row (a multinomial numerator wider than any field of the last row) fails
    as well.
    """
    out = [render(row) for row in reversed(rows)]
    out.reverse()
    return out


def _row_json_text(row: CensusRow) -> str:
    """`json.dumps(row.to_json(), sort_keys=True)`, rendered in the order
    `to_json` renders: the row's fields, then its volume.  The string fields
    hold only digits, signs, "/", "." and "e", which JSON does not escape."""
    m, a_m, pow2, bound, asymptotic, ratio = row._fields()
    counts, total = row.volume.counts, row.volume.numeric_total
    tail = "" if total is None else f', "total": "{_frac_str(total)}"'
    volume = _volume_layout(tuple(counts)).format(*counts.values(), tail)
    return (
        f'{{"a_m": "{a_m}", "asymptotic": "{asymptotic}", "m": {m}, '
        f'"multinomial_bound": "{bound}", "pow2": "{pow2}", "ratio": {ratio!r}, '
        f'"volume": {volume}}}'
    )


def table_to_json(rows: list[CensusRow]) -> str:
    """The JSON text of the `rows` array of the census command's output:
    `json.dumps([row.to_json() for row in rows], sort_keys=True)`."""
    return "[" + ", ".join(_render_last_first(rows, _row_json_text)) + "]"


def table_to_csv(rows: list[CensusRow]) -> str:
    lines = _render_last_first(rows, lambda row: ",".join(map(str, row._fields())))
    return "\n".join([",".join(_ROW_FIELDS), *lines, ""])


def lcom_lower_bound(v: Fraction, K: Fraction, V: Fraction) -> int:
    """Step lower bound for the number of commensurability classes reachable
    with volume v: 2^floor(v/K) once v >= V, else 1.

    v, K and V are ints or Fractions and are used as they are, so a caller
    parses K and V once for a whole table.
    """
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

    A row with volume p/q has quotient (bit_length - 1) * q / p, and p > 0,
    so two quotients compare by cross-multiplying in integers; only the
    minimum becomes a Fraction.
    """
    if not rows:
        raise ValueError("empty table")
    best_num, best_den = None, 1
    for row in rows:
        total = row.volume.numeric_total
        if total is None:
            raise ValueError("rows lack numeric volumes")
        p, q = total.numerator, total.denominator
        if p <= 0:
            raise ValueError("volumes must be positive")
        num = (row.exact_count.bit_length() - 1) * q
        if best_num is None or num * best_den < best_num * p:
            best_num, best_den = num, p
    return Fraction(best_num, best_den)
