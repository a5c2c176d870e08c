"""The machine's speed at a moment, for scaling measured times to a fixed speed.

The shared 2-vCPU VM the benchmark was tuned on (Xeon, Python 3.11.7) runs
pure-Python code up to half slower for stretches of seconds to minutes,
whatever runs in it, so a whole run can fall in a slow stretch.  Every time
the benchmark reports is therefore multiplied by NOMINAL_S / r, where r is
the time `reference()` took next to the measurement.  NOMINAL_S is about
the reference's time on the tuning machine in its fast state, so reported
times read as times on that machine at its fast state; the raw times are
kept in the result file.

This module imports nothing but `time`, so setup_probe.py loads it before
its clock starts without loading anything the program imports.
"""

import time

NOMINAL_S = 400e-6
MODULI = ((1 << 61) - 1, (1 << 31) - 1, 4294967291, 1000000007, 998244353)


def reference() -> float:
    """Seconds a fixed mix of pure-Python work takes now: an integer loop,
    modular powers on word-sized primes, and string and dict work, the kinds
    of work the program's ops do."""
    start = time.perf_counter()
    total = 0
    for i in range(2500):
        total += i * i % 7
    for k in range(30):
        n = MODULI[k % 5]
        total += pow(3 + k, n - 1, n)
    counts: dict[int, int] = {}
    parts = []
    for i in range(300):
        counts[i % 97] = counts.get(i % 97, 0) + i
        parts.append(str(i * 7919 % 1000))
    total += len(",".join(parts).split(",")) + sum(counts.values())
    return time.perf_counter() - start


def scaled(seconds: float, ref: float) -> float:
    return seconds * NOMINAL_S / ref


def moving_median(values: list[float], half: int) -> list[float]:
    """Median of each value's window of up to 2 * half + 1 neighbours."""
    out = []
    for i in range(len(values)):
        window = sorted(values[max(0, i - half) : i + half + 1])
        out.append(window[len(window) // 2])
    return out
