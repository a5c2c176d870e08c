"""Self-tests of the benchmark: smoke-sized runs of every workload, the metric
contract, the output oracles, and restoration of the tracing wrappers.

    python3 -m pytest bench
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXTRA_SEED = 7


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--smoke", "--seconds", "0.1", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def _all_workloads(seed: int, trace: int) -> tuple[str, dict]:
    proc = _bench("--seed", str(seed), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return proc.stdout, result


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, EXTRA_SEED])
def test_every_workload_prints_every_end_to_end_metric(seed):
    stdout, result = _all_workloads(seed, trace=0)
    for workload in workloads.WORKLOADS:
        for name, unit in run.END_TO_END:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
            assert any(line.split()[:2] == [workload, name] and line.endswith(unit) for line in stdout.splitlines())
        detail = json.loads((run.OUT / f"result-{workload}-seed{seed}-trace0-smoke.json").read_text())["detail"]
        assert set(detail["environment"]) >= {"python", "git_revision", "nproc", "cpu_model"}
        assert detail["digest_checked"] == (seed == run.DEFAULT_SEED)
        assert detail["raw_op_p50_ms"] > 0 and detail["ref_median_s"] > 0
        probes = detail["setup_probes"]
        assert len(probes) == run.SETUP_REPEATS and all(p["import_s"] > 0 for p in probes)
        # words and census make their inputs without the library; certify and verify call it
        assert all((p["program_s"] > 0) == (workload in ("certify", "verify")) for p in probes), workload


def test_traced_run_emits_every_layer_metric_and_counts_repeat():
    _, first = _all_workloads(EXTRA_SEED, trace=1)
    _, second = _all_workloads(EXTRA_SEED, trace=1)
    for workload in workloads.WORKLOADS:
        for name, unit in run.PER_LAYER:
            key = f"{workload}.{name}"
            assert first["metrics"][key]["unit"] == unit
            if unit in ("count", "bytes"):
                assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    busy = {
        "certify": ("quadform.certify.calls", "exact_arith.is_prime.calls", "exact_arith.local_place.calls"),
        "verify": ("quadform.verify.calls", "exact_arith.valuation_f.calls"),
        "words": ("gluing.canonical_rotation.calls", "gluing.enumerate.classes_emitted"),
        "census": ("census.theorem_table.calls", "gluing.necklace_count.calls"),
    }
    for workload, names in busy.items():
        for name in names:
            assert first["metrics"][f"{workload}.{name}"]["value"] > 0, (workload, name)
    assert first["metrics"]["words.quadform.certify.calls"]["value"] == 0
    assert first["metrics"]["census.gluing.canonical_rotation.calls"]["value"] == 0


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_wrappers_are_restored_even_on_error():
    sys.path.insert(0, str(run.SRC))
    hc = run.import_fresh()
    before = tracing.snapshot(hc)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer, hc):
            assert all(tracing.snapshot(hc)[key] is not value for key, value in before.items())
            hc.cli.main(["forms", "certify", "--n", "4", "--a", "7", "--a-prime", "23"])
            raise RuntimeError("op failed mid-trace")
    after = tracing.snapshot(hc)
    assert all(after[key] is value for key, value in before.items())
    assert tracer.counts["quadform.certify"] == 1 and tracer.counts["exact_arith.is_prime"] > 0


def _spy(hc, seen: list):
    """hc for run_op that records which cli module each op ran on."""
    def main(argv):
        seen.append(hc.cli)
        return hc.cli.main(argv)
    return SimpleNamespace(cli=SimpleNamespace(main=main))


def test_each_round_runs_on_a_fresh_import(tmp_path):
    sys.path.insert(0, str(run.SRC))
    hc, pool, _ = run.setup("words", EXTRA_SEED, tmp_path, smoke=True)
    seen, fresh = [], [hc.cli]

    def between_rounds():
        new = run.import_fresh()
        fresh.append(new.cli)
        return _spy(new, seen)

    failures = run.Failures()
    phase = run.timed_phase(_spy(hc, seen), pool, workloads.Checker(hc), failures, 0.3, EXTRA_SEED, between_rounds,
                           lambda _: None)
    assert failures.count == 0 and phase["rounds"] >= 2
    n = len(pool.ops)
    for k in range(phase["rounds"]):
        assert all(cli is fresh[k] for cli in seen[k * n : (k + 1) * n]), k
    assert len({id(cli) for cli in fresh}) == len(fresh)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "words", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_moving_median_is_the_upper_median_of_each_window():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 0.5]
    for half in (0, 1, 3, 10):
        want = [statistics.median_high(values[max(0, i - half) : i + half + 1]) for i in range(len(values))]
        assert speed.moving_median(values, half) == want


@pytest.mark.parametrize("r,n", [(2, 1), (2, 7), (3, 5)])
def test_word_oracles_against_brute_force(r, n):
    for word in itertools.product(range(1, r + 1), repeat=n):
        rotations = [word[s:] + word[:s] for s in range(n)]
        least = min(rotations)
        assert oracles.least_rotation(word) == rotations.index(least)
        assert oracles.period(word) == min(p for p in range(1, n + 1) if n % p == 0 and rotations[p % n] == word)


@pytest.mark.parametrize("r,m", [(2, 1), (2, 3), (3, 2), (2, 4)])
def test_census_oracle_counts_necklaces(r, m):
    content = [k for k in range(1, r + 1) for _ in range(m)]
    classes = {oracles.canonical(w) for w in itertools.permutations(content)}
    assert oracles.CensusOracle().necklaces(r, m) == len(classes)


def test_census_past_the_digit_limit_is_an_expected_exit_2(tmp_path):
    sys.path.insert(0, str(run.SRC))
    hc = run.import_fresh()
    op = workloads._census_op(8, 600, "json", None, tmp_path / "unused.json")
    code, out, _, error = run.run_op(hc.cli, op.argv)
    assert (code, error) == (2, None)
    checker = workloads.Checker(hc)
    assert checker.check(op, code, out) is None
    assert checker.check(op, 0, out) is not None
