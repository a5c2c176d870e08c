"""End-to-end benchmark of the hybridcensus command line, with an optional traced run.

    python3 bench/run.py --workload certify --seed 3 --seconds 20 --trace 0
    python3 bench/run.py                 # all four workloads, one fresh interpreter each

Each workload is a closed loop with one client and no threads: one
`hybridcensus.cli.main(argv)` call per op, stdout and stderr captured in
memory.  Setup imports the package from `src/` of the checkout this file
sits in and builds the seeded op pool (see workloads.py).  `setup_s` is
the median of SETUP_REPEATS runs of setup_probe.py, each in a fresh
interpreter, spread over the timed phase: the import of the package plus
the library calls that make the inputs.  The timed phase runs whole rounds of the
pool until `--seconds` have passed, each round on a fresh import of the
package; see `timed_phase`.  Every reported time is scaled to a fixed
machine speed with speed.py.  NOTES.md describes the workloads, metrics
and known gaps.

With `--trace 1` the pool runs once untraced and once with the wrappers of
tracing.py installed; the run reports per-layer counts and times, checks
that both passes printed the same bytes, and writes the spans to
bench/out/.  The last line of stdout is always one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 0
SETUP_REPEATS = 9
REF_HALF_WINDOW = 7  # speed samples on each side of an op that scale its time
MODULES = ("cli", "quadform", "exact_arith", "gluing", "census")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("quadform.certify.calls", "count"),
    ("quadform.certify.s", "s"),
    ("quadform.verify.calls", "count"),
    ("quadform.verify.s", "s"),
    ("quadform.generate_family.calls", "count"),
    ("quadform.generate_family.s", "s"),
    ("quadform.hilbert_symbol.calls", "count"),
    ("quadform.self_s", "s"),
    ("exact_arith.is_prime.calls", "count"),
    ("exact_arith.primes_from.yielded", "count"),
    ("exact_arith.primes_from.s", "s"),
    ("exact_arith.local_place.calls", "count"),
    ("exact_arith.valuation_f.calls", "count"),
    ("exact_arith.valuation_f.s", "s"),
    ("exact_arith.hensel_lift.calls", "count"),
    ("exact_arith.legendre.calls", "count"),
    ("exact_arith.smallest_nonresidue.calls", "count"),
    ("exact_arith.square_test_f.calls", "count"),
    ("exact_arith.square_test_f.s", "s"),
    ("exact_arith.self_s", "s"),
    ("gluing.canonical_rotation.calls", "count"),
    ("gluing.canonical_rotation.s", "s"),
    ("gluing.same_class.calls", "count"),
    ("gluing.same_class.s", "s"),
    ("gluing.dihedral_stabilizer.calls", "count"),
    ("gluing.dihedral_stabilizer.s", "s"),
    ("gluing.enumerate_classes.calls", "count"),
    ("gluing.enumerate_classes.s", "s"),
    ("gluing.enumerate.classes_emitted", "count"),
    ("gluing.necklace_count.calls", "count"),
    ("gluing.necklace_count.s", "s"),
    ("gluing.multinomial_lower_bound.s", "s"),
    ("gluing.self_s", "s"),
    ("census.theorem_table.calls", "count"),
    ("census.theorem_table.s", "s"),
    ("census.render_log_scientific.calls", "count"),
    ("census.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


# -------------------------------------------------------------- environment


def _git_revision() -> Optional[str]:
    # The ceiling keeps git from reporting a repository that merely encloses the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    with contextlib.suppress(OSError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return None


def _cpu_model() -> Optional[str]:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# -------------------------------------------------------------------- setup


def import_fresh() -> SimpleNamespace:
    """Import hybridcensus from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "hybridcensus" or n.startswith("hybridcensus.")]:
        del sys.modules[name]
    hc = SimpleNamespace(**{m: importlib.import_module(f"hybridcensus.{m}") for m in MODULES})
    if Path(hc.cli.__file__).resolve().parent != SRC / "hybridcensus":
        raise ImportError(f"hybridcensus imported from {hc.cli.__file__}, not from {SRC}")
    return hc


def setup(workload: str, seed: int, workdir: Path, smoke: bool) -> tuple[SimpleNamespace, workloads.Pool, float]:
    """Fresh import plus every input of the workload, written under workdir; returns its seconds."""
    start = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    hc = import_fresh()
    pool = workloads.BUILDERS[workload](hc, random.Random(f"{workload}:{seed}"), workdir, smoke)
    return hc, pool, time.perf_counter() - start


def probe_setup(workload: str, seed: int, workdir: Path, smoke: bool) -> dict:
    """One run of setup_probe.py in a fresh interpreter; its timings, plus the
    interpreter's own start-up as seen from here (not part of `setup_s`)."""
    argv = [sys.executable, "-I", str(BENCH / "setup_probe.py"), workload, str(seed), str(workdir)]
    spawned = time.perf_counter()
    proc = subprocess.run(argv + (["--smoke"] if smoke else []), capture_output=True, text=True)
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["interpreter_start_s"] = probe.pop("started") - spawned
    return probe


# ------------------------------------------------------------------ running


def run_op(cli, argv: tuple[str, ...]) -> tuple[Optional[int], str, float, Optional[str]]:
    """One cli.main call: (exit code, stdout, seconds, exception text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code, error = cli.main(list(argv)), None
        except Exception as exc:  # an op that raises counts as failed; the loop goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, error


class Failures:
    def __init__(self) -> None:
        self.count = 0
        self.first: list[str] = []

    def add(self, op: workloads.Op, reason: str) -> None:
        self.count += 1
        if len(self.first) < 5:
            self.first.append(f"{op.kind} {' '.join(op.argv)[:120]}: {reason}")


def _check(checker, failures: Failures, op, code, out, error) -> bool:
    reason = error or checker.check(op, code, out)
    if reason:
        failures.add(op, reason)
    return not reason


def warm_up(hc: SimpleNamespace, pool: workloads.Pool, checker, failures: Failures) -> None:
    for op in pool.warmups:
        code, out, _, error = run_op(hc.cli, op.argv)
        _check(checker, failures, op, code, out, error)
    gc.collect()


def timed_phase(hc, pool, checker, failures, seconds: float, seed: int, between_rounds, between_ops) -> dict:
    """Rounds of the pool until `seconds` of op time have passed.

    The first round runs in pool order and checks each output; the run's
    digest covers its exit codes and stdout bytes.  Later rounds run in a
    seeded shuffle and must print the same bytes as the first.  Each round
    after the first runs on the fresh import of the package that
    `between_rounds()` returns, so a cache the program keeps across calls
    cannot carry an op's answer over from an earlier round.  After each op,
    `between_ops(t)` gets the op time t run so far.  Checking, both
    callbacks and the speed samples are excluded from the timed phase.

    Before each op the reference work of speed.py is timed; each op's time
    is scaled by the moving median of those samples around it.  An op's
    latency is the median of its scaled times over the rounds.  The raw
    figures are returned as well, under `raw_*`.
    """
    order_rng = random.Random(f"order:{seed}")
    digest = hashlib.sha256()
    first: list[Optional[bytes]] = []  # None where the first round's check failed
    samples: list[list[float]] = [[] for _ in pool.ops]
    raw: list[list[float]] = [[] for _ in pool.ops]
    refs_all: list[float] = []
    rounds, excluded = 0, 0.0
    start = time.perf_counter()
    while time.perf_counter() - start - excluded < seconds or not rounds:
        order = list(range(len(pool.ops)))
        if rounds:
            order_rng.shuffle(order)
        refs = []
        for i in order:
            t0 = time.perf_counter()
            refs.append(speed.reference())
            excluded += time.perf_counter() - t0
            op = pool.ops[i]
            code, out, elapsed, error = run_op(hc.cli, op.argv)
            raw[i].append(elapsed)
            t0 = time.perf_counter()
            blob = f"{code}\n{out}".encode()
            seen = hashlib.sha256(blob).digest()
            if not rounds:
                digest.update(blob)
                first.append(seen if _check(checker, failures, op, code, out, error) else None)
            elif seen != first[i]:
                failures.add(op, error or "output is not the checked first-round output")
            between_ops(t0 - start - excluded)
            excluded += time.perf_counter() - t0
        for i, ref in zip(order, speed.moving_median(refs, REF_HALF_WINDOW)):
            samples[i].append(speed.scaled(raw[i][-1], ref))
        refs_all += refs
        rounds += 1
        t0 = time.perf_counter()
        hc = between_rounds()
        excluded += time.perf_counter() - t0
    wall = time.perf_counter() - start - excluded
    ops = sum(len(s) for s in samples)
    return {
        "digest": digest.hexdigest(),
        "rounds": rounds,
        "ops": ops,
        **_latency(samples),
        **{f"raw_{k}": v for k, v in _latency(raw).items()},
        "ref_median_s": statistics.median(refs_all),
        "wall_s": wall,
        "wall_ops_per_s": ops / wall,
    }


def _latency(samples: list[list[float]]) -> dict:
    per_op = [statistics.median(s) for s in samples]
    p95 = statistics.quantiles(per_op, n=100, method="inclusive")[94]
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p95_ms": p95 * 1e3,
        "ops_beyond_p95": sum(1 for x in per_op if x > p95),
    }


def traced_phase(hc, pool, checker, failures, tracer: tracing.Tracer) -> dict:
    """The pool once untraced (checked) and once traced; both must print the same bytes."""
    untraced, digest = [], hashlib.sha256()
    start = time.perf_counter()
    for op in pool.ops:
        untraced.append(run_op(hc.cli, op.argv))
    wall_untraced = time.perf_counter() - start
    start = time.perf_counter()
    with tracing.installed(tracer, hc):
        traced = []
        for idx, op in enumerate(pool.ops):
            tracer.op = idx
            traced.append(tracer.call("cli.main", run_op, hc.cli, op.argv))
    wall_traced = time.perf_counter() - start
    stdout_bytes = 0
    for op, (code, out, _, error), (code_t, out_t, _, _) in zip(pool.ops, untraced, traced):
        digest.update(f"{code}\n{out}".encode())
        _check(checker, failures, op, code, out, error)
        if (code, out) != (code_t, out_t):
            failures.add(op, "output differs with tracing on")
        stdout_bytes += len(out_t.encode())
    return {
        "digest": digest.hexdigest(),
        "wall_untraced_s": wall_untraced,
        "wall_traced_s": wall_traced,
        "stdout_bytes": stdout_bytes,
    }


def layer_metrics(tracer: tracing.Tracer, phase: dict, ops: int) -> dict:
    counts, busy, own = tracer.counts, tracer.busy(), tracer.self_time()
    values = {}
    for name, unit in PER_LAYER:
        if name == "cli.calls":
            value = ops
        elif name == "cli.stdout_bytes":
            value = phase["stdout_bytes"]
        elif name == "trace.overhead_ratio":
            value = phase["wall_traced_s"] / phase["wall_untraced_s"]
        elif name.endswith(".self_s"):
            value = own[name.split(".")[0]]
        elif name.endswith(".s"):
            value = busy[name[:-2]]
        elif name.endswith(".calls"):
            value = counts[name[: -len(".calls")]]
        else:
            value = counts[name]
        values[name] = {"value": value, "unit": unit}
    return values


def _expected_digest(workload: str, smoke: bool) -> Optional[str]:
    stored = json.loads((BENCH / "digests.json").read_text())
    return stored["smoke" if smoke else "full"].get(workload)


def run_workload(args: argparse.Namespace) -> dict:
    workload, seed, smoke = args.workload, args.seed, args.smoke
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    sys.path.insert(0, str(SRC))
    try:
        failures = Failures()
        hc, pool, bench_setup_s = setup(workload, seed, workdir / "pool", smoke)
        probes: list[dict] = []

        def between_rounds() -> SimpleNamespace:
            fresh = import_fresh()
            gc.collect()
            return fresh

        def between_ops(op_time: float) -> None:
            # The setup probes are spread evenly over the timed phase, so that
            # their median samples the machine at several moments of the run.
            if len(probes) < SETUP_REPEATS and op_time >= len(probes) * args.seconds / SETUP_REPEATS:
                probes.append(probe_setup(workload, seed, workdir / "probe", smoke))

        checker = workloads.Checker(hc)
        warm_up(hc, pool, checker, failures)
        if args.trace:
            tracer = tracing.Tracer()
            phase = traced_phase(hc, pool, checker, failures, tracer)
            attempted = len(pool.warmups) + 2 * len(pool.ops)
            metrics = layer_metrics(tracer, phase, len(pool.ops))
            OUT.mkdir(exist_ok=True)
            phase["spans_file"] = str(OUT / f"spans-{workload}-seed{seed}.csv")
            tracer.write_spans(phase["spans_file"])
        else:
            phase = timed_phase(hc, pool, checker, failures, args.seconds, seed, between_rounds, between_ops)
            while len(probes) < SETUP_REPEATS:
                probes.append(probe_setup(workload, seed, workdir / "probe", smoke))
            attempted = len(pool.warmups) + phase["ops"]
            phase["setup_probes"] = probes
            phase["bench_setup_s"] = bench_setup_s
            values = {
                "setup_s": statistics.median(p["setup_s"] for p in probes),
                "ops_per_s": phase["ops_per_s"],
                "op_p50_ms": phase["op_p50_ms"],
                "op_p95_ms": phase["op_p95_ms"],
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest_ok = True
    if seed == DEFAULT_SEED:
        expected = _expected_digest(workload, smoke)
        digest_ok = phase["digest"] == expected
        if not digest_ok:
            print(f"output digest {phase['digest']} != stored {expected}", file=sys.stderr)
    for line in failures.first:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "result": {
            "correct": failures.count == 0 and digest_ok,
            "attempted": attempted,
            "failed": failures.count,
            "metrics": metrics,
        },
        "detail": {
            "workload": workload,
            "seed": seed,
            "smoke": smoke,
            "trace": args.trace,
            "pool_ops": len(pool.ops),
            "error_rate": failures.count / attempted,
            "digest_checked": seed == DEFAULT_SEED,
            "failures": failures.first,
            "environment": environment(),
            **phase,
        },
    }


def _print_metrics(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:8s} {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{workload:8s} {'error_rate':40s} {result['failed'] / result['attempted']:>16.6g} failed/attempted")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        _print_metrics(workload, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                        help="one workload; omit to run all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny pools, for the self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "hybridcensus" / "__init__.py").is_file():
        print(f"no hybridcensus sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    run = run_workload(args)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")
    _print_metrics(args.workload, run["result"])
    print("environment " + json.dumps(run["detail"]["environment"], sort_keys=True))
    print(json.dumps(run["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
