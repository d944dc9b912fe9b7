"""Tests of the benchmark itself: every check rejects a corrupted output, and
each workload runs once at a tiny length.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import prepare
import run
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _frame_output(op, steps=3):
    """A correct `widesense frame` output for ``op``, built from its tones."""
    truth = workloads.tone_spectrum(op.expect["tones"], steps)
    support = sorted(truth)
    decisions = []
    bins = [m for m, _a, _ph in op.expect["tones"]]
    for b in range(workloads.BAND_COUNT):
        low, high = b * workloads.BAND_BINS, (b + 1) * workloads.BAND_BINS
        occupied = any(low <= m <= high for m in bins)
        decisions.append({"decision": "H1" if occupied else "H0"})
    return {
        "halted": True,
        "steps_used": steps,
        "saved_slots": 8 - steps,
        "spectrum_length": steps * workloads.NYQUIST_PER_STEP,
        "spectrum_support": support,
        "spectrum_values": [[truth[j].real, truth[j].imag] for j in support],
        "decisions": decisions,
    }


@pytest.fixture
def frame_op():
    return workloads.frame_op(random.Random(5), 60, 24)


def test_frame_check_accepts_the_truth(frame_op):
    assert workloads.check_frame(frame_op, _frame_output(frame_op)) == []


def test_frame_check_rejects_a_moved_bin(frame_op):
    out = _frame_output(frame_op)
    out["spectrum_support"][0] += 1
    assert any("relative squared error" in p for p in workloads.check_frame(frame_op, out))


def test_frame_check_rejects_budget_and_early_halt(frame_op):
    out = _frame_output(frame_op)
    out["saved_slots"] += 1
    assert any("budget" in p for p in workloads.check_frame(frame_op, out))
    out = _frame_output(frame_op, steps=2)          # 120 testing rows < 168
    assert any("fewer than 168" in p for p in workloads.check_frame(frame_op, out))


def test_band_check_judges_inside_and_empty_bands_only():
    tones = [[10, 1.0, 0.0], [100, 1.0, 0.0]]       # bin 100 sits on the edge of bands 1 and 2
    decisions = [{"decision": "H0"}] * workloads.BAND_COUNT
    problems = workloads.check_bands(tones, decisions)
    assert problems == ["band 0 decided H0, expected H1"]
    decisions = [{"decision": "H1"}] + [{"decision": "H0"}] * (workloads.BAND_COUNT - 1)
    decisions[3] = {"decision": "H1"}
    assert workloads.check_bands(tones, decisions) == ["band 3 decided H1, expected H0"]


def _row_op(name, grid, trials=400, **expect):
    return workloads.Op("run", {"name": name}, trials, dict(expect, grid=grid))


def test_coverage_check_rejects_a_value_below_the_floor():
    floor = workloads.coverage_floor(60, 0.2, 1.0)
    assert floor == pytest.approx(1 - 4 * math.exp(-2.4))
    grid = {"confidence_factor": 0.2, "testing_size": 60}
    op = _row_op("interval_coverage", grid, floor=floor)
    row = dict(grid, trials=400, bound_value=floor, empirical_coverage=0.96)
    assert workloads.check_row(op, row) == []
    row["empirical_coverage"] = floor - 0.15
    assert any("floor" in p for p in workloads.check_row(op, row))
    row = dict(grid, trials=400, bound_value=floor + 0.01, empirical_coverage=0.96)
    assert any("bound_value" in p for p in workloads.check_row(op, row))


def test_halting_check_rejects_a_value_below_the_floor():
    floor = workloads.halting_floor(40, 0.65, 1.0)
    grid = {"accuracy_factor": 0.65, "testing_size": 40}
    op = _row_op("halting_probability", grid, trials=300, floor=floor)
    row = dict(grid, trials=300, bound_value=floor, halt_probability=1.0)
    assert workloads.check_row(op, row) == []
    row["halt_probability"] = 0.98                      # 6 misses where ~0.2 are expected
    assert workloads.check_row(op, row) != []


def test_allowed_misses_is_a_binomial_quantile():
    assert workloads.allowed_misses(100, 0.0) == 0
    assert workloads.allowed_misses(100, 1.0) == 100
    k = workloads.allowed_misses(400, 0.363)
    mean, sd = 400 * 0.363, math.sqrt(400 * 0.363 * 0.637)
    assert mean + 4 * sd < k < mean + 6 * sd


def test_phase_transition_check_rejects_success_rising_with_sparsity():
    ops = [_row_op("phase_transition", {"measurements": 100, "sparsity": k}, trials=30)
           for k in (5, 15)]
    falling = [{"success_rate": 1.0}, {"success_rate": 0.8}]
    assert workloads.check_sweep_small_round(ops, falling) == {}
    rising = [{"success_rate": 0.2}, {"success_rate": 1.0}]
    assert list(workloads.check_sweep_small_round(ops, rising)) == [1]


def test_pursuit_checks():
    op = _row_op("sasr_vs_omp", {"sparsity": 32, "noise_power": 1.0}, trials=3)
    row = dict(op.expect["grid"], trials=3, mean_mse=1e-4, baseline_mse=2e-4, mean_iterations=33.0)
    assert workloads.check_row(op, row) == []
    assert len(workloads.check_row(op, dict(row, mean_mse=3e-4, mean_iterations=29.0))) == 2
    op = _row_op("acss_vs_cs", {"sub_nyquist_rate": 1e9, "sparsity": 8}, trials=4, budget=8)
    row = dict(op.expect["grid"], trials=4, success_rate=1.0, baseline_success_rate=1.0,
               mean_p_final=1.5, baseline_steps=8)
    assert workloads.check_row(op, row) == []
    assert len(workloads.check_row(op, dict(row, success_rate=0.75, mean_p_final=9.0))) == 2


def test_non_zero_exit_fails_the_operation(tmp_path):
    package = prepare.import_program()
    op = workloads.frame_op(random.Random(1), 60, 24)
    del op.config["halting"]
    op.path = tmp_path / "broken.json"
    op.path.write_text(json.dumps(op.config))
    code, _wall, _cpu, said = run.execute(package.cli, op, tmp_path / "out.json")
    assert code == 1 and "halting" in said
    assert run.read_output(op, code, tmp_path / "out.json") == (None, ["exit code 1"])


def test_gauge_times_its_kernel_and_its_process_ends():
    with hostspeed.Gauge() as gauge:
        readings = [gauge.read() for _ in range(3)]
    assert all(0 < wall < 10 and 0 < cpu < 10 for wall, cpu in readings)
    assert gauge.proc.returncode == 0


def _bench(*args, cwd=BENCH.parent):
    done = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)
    return done


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_one_round(workload):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.ROUNDS[workload](7, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_accounts_for_its_time_and_repeats_its_counts():
    results = []
    for _ in range(2):
        done = _bench("--workload", "sweep_small", "--seed", "7", "--seconds", "0.01", "--trace", "1")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        record = json.loads((BENCH / "runs" / "sweep_small-seed7-trace1" / "result.json").read_text())
        accounting = record["trace_accounting"]
        assert accounting["missing_targets"] == []
        assert 0 <= accounting["unwrapped_ms"] <= 0.01 * accounting["traced_wall_ms"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    first, second = (r["metrics"] for r in results)
    assert {k: v["unit"] for k, v in first.items()} == expected
    counts = [k for k, v in first.items() if v["unit"] in ("count", "MB")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["recovery.correlations.calls"]["value"] > 0
    assert results[0]["correct"] and results[0]["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    done = _bench("--workload", "sweep_small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
