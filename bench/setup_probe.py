"""The program's share of one workload's setup, timed in a fresh interpreter.

    python3 -I bench/setup_probe.py <workload> <seed> <workdir> [--smoke]

run.py starts this several times per run and reports the median as
`setup_s`.  Nothing but what the interpreter loads at start-up is imported
before the clock starts, so the import of hybridcensus includes its own
stdlib dependencies (argparse, json, fractions, dataclasses, ...).  The
workload's builder then makes its inputs as run.py does, with every
library call it makes timed; the benchmark's own generation (random words,
tampering, file writes) is not counted.  The machine's speed is sampled
with speed.reference() before and after, and `setup_s` is
`import_s` + `program_s` scaled to the reference speed (see speed.py).
The last line of stdout is one JSON object: `started` (perf_counter at the
first statement), `import_s`, `program_s`, `ref_s` and `setup_s`.
"""

import os
import sys
import time

started = time.perf_counter()
BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]
MODULES = ("cli", "quadform", "exact_arith", "gluing", "census")
REFS = 8  # reference samples before the import, and again after the inputs

import speed  # noqa: E402  (imports only time)

refs = [speed.reference() for _ in range(REFS)]

clock = time.perf_counter()
for _name in MODULES:
    __import__(f"hybridcensus.{_name}")
import_s = time.perf_counter() - clock

import json  # noqa: E402
import random  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import workloads  # noqa: E402


class Timed:
    """A module stand-in whose function calls add their seconds to `seconds`."""

    def __init__(self, module) -> None:
        self._module = module
        self.seconds = 0.0

    def __getattr__(self, name: str):
        attr = getattr(self._module, name)
        if not callable(attr):
            return attr

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        return timed


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    workdir.mkdir(parents=True, exist_ok=True)
    proxies = {m: Timed(sys.modules[f"hybridcensus.{m}"]) for m in MODULES}
    workloads.BUILDERS[workload](SimpleNamespace(**proxies), random.Random(f"{workload}:{seed}"), workdir,
                                 "--smoke" in argv)
    program_s = sum(p.seconds for p in proxies.values())
    refs.extend(speed.reference() for _ in range(REFS))
    ref_s = sorted(refs)[len(refs) // 2]
    print(json.dumps({"started": started, "import_s": import_s, "program_s": program_s, "ref_s": ref_s,
                      "setup_s": speed.scaled(import_s + program_s, ref_s)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
