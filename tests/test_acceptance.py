"""End-to-end acceptance runs at full desk scale.

Each test exercises one headline claim of the package on its default
experiment configuration and checks the published tolerances.  The digest
printed after the run (see conftest) gives one PASS/FAIL line per claim.
"""

import math
import time

import numpy as np
import pytest

from widesense.experiments import ExperimentConfig, default_config, run_experiment
from oracles import (
    DenseDictionary,
    accuracy_from_confidence,
    brute_force_l0,
    dft,
    idft,
    testing_size_noisy,
)
from widesense.recovery import omp
from widesense.signals import TimeSeries
from widesense.validation import (
    FOUR_MINUS_PI,
    HaltingConfig,
    confidence_floor_noisy,
    noiseless_threshold,
)

pytestmark = pytest.mark.acceptance


def _cells(table, *keys):
    return {tuple(row[k] for k in keys): row for row in table.rows}


def test_phase_transition_success_boundaries():
    start = time.monotonic()
    table = run_experiment(default_config("phase_transition"))
    elapsed = time.monotonic() - start

    rows = _cells(table, "measurements", "sparsity")
    assert rows[(66, 10)]["success_rate"] >= 0.95
    assert rows[(20, 20)]["success_rate"] <= 0.05
    # success must not climb with sparsity at fixed measurements (3% slack)
    for m in sorted({m for m, _k in rows}):
        rates = [rows[(m, k)]["success_rate"]
                 for _m, k in sorted(rows) if _m == m
                 if rows[(m, k)]["success_rate"] is not None]
        for earlier, later in zip(rates, rates[1:]):
            assert later <= earlier + 0.03
    assert elapsed < 600.0


def test_interval_coverage_beats_floor():
    table = run_experiment(default_config("interval_coverage"))
    for row in table.rows:
        assert row["empirical_coverage"] >= row["bound_value"]
    # more testing rows, better coverage (3% slack on adjacent sizes)
    by_eta: dict[float, list] = {}
    for row in table.rows:
        by_eta.setdefault(row["confidence_factor"], []).append(row)
    for rows in by_eta.values():
        rows.sort(key=lambda r: r["testing_size"])
        for earlier, later in zip(rows, rows[1:]):
            assert later["empirical_coverage"] >= earlier["empirical_coverage"] - 0.03


def test_error_tracking_window_and_halting():
    table = run_experiment(default_config("error_tracking"))
    first = {row["testing_per_step"]: row["mean_p_final"] for row in table.rows}
    assert first[60] <= 4.0
    assert first[40] <= 7.0
    # pooled over every (trial, step) pair with at least 40 testing rows
    hits = total = 0
    for row in table.rows:
        if row["testing_per_step"] * row["step"] >= 40:
            hits += row["window_fraction"] * row["reached"]
            total += row["reached"]
    assert total > 0
    assert hits / total >= 0.90


def test_halting_probability_floor_and_gap():
    start = time.monotonic()
    table = run_experiment(default_config("halting_probability"))
    elapsed = time.monotonic() - start

    for row in table.rows:
        assert row["halt_probability"] >= row["bound_value"]
        if row["testing_size"] >= 40:
            assert row["halt_probability"] - row["bound_value"] <= 0.1
    assert elapsed < 120.0


def test_sasr_beats_exhaustive_omp():
    table = run_experiment(default_config("sasr_vs_omp"))
    for row in table.rows:
        assert row["mean_mse"] < row["baseline_mse"]
    rows = _cells(table, "sparsity", "noise_power")
    assert abs(rows[(32, 1.0)]["mean_iterations"] - 32.0) <= 2.0


def test_adaptive_matches_fixed_budget_baseline():
    table = run_experiment(default_config("acss_vs_cs"))
    for row in table.rows:
        assert row["success_rate"] >= row["baseline_success_rate"]


def test_transform_identities():
    for seed, n in ((0, 64), (1, 200), (2, 333), (3, 1000)):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        ts = TimeSeries(samples=x, rate=float(n))
        X = dft(ts)
        assert abs(np.linalg.norm(X.bins) - math.sqrt(n) * np.linalg.norm(x)) <= (
            1e-10 * np.linalg.norm(X.bins)
        )
        back = idft(X)
        assert np.max(np.abs(back.samples - x)) <= 1e-10
        tail = X.bins[1:]
        assert np.max(np.abs(tail - np.conj(tail[::-1]))) <= 1e-10 * np.max(np.abs(X.bins))


def test_pursuit_invariants_and_oracle():
    certified = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((10, 16))
        k = int(rng.integers(1, 3))
        support = rng.choice(16, size=k, replace=False)
        y = (A[:, support] @ (rng.standard_normal(k) + 1.0)).astype(complex)
        result = omp(y, DenseDictionary(A), k)

        trace = result.residual_trace
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
        assert len(set(result.support)) == len(result.support) == result.iterations
        resid = y - A @ result.estimate.bins
        taken = list(result.support)
        assert np.max(np.abs(A[:, taken].conj().T @ resid)) < 1e-8 * np.linalg.norm(y)

        if np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y):
            exact = brute_force_l0(y, A, k)
            assert np.allclose(exact.bins, result.estimate.bins, atol=1e-8)
            certified += 1
    assert certified >= 50


def test_formula_self_consistency():
    rng = np.random.default_rng(123)

    # achievable accuracy satisfies its defining quadratic to 1e-9 relative
    for _ in range(5):
        fail = float(rng.uniform(0.01, 1.9))
        delta = float(rng.uniform(0.2, 3.0))
        v = int(rng.integers(5, 500))
        theta = accuracy_from_confidence(fail, delta, v)
        log_term = math.log(2.0 / fail)
        lhs = v * theta**2 - 0.5 * log_term * delta * theta - FOUR_MINUS_PI * log_term * delta**2
        assert abs(lhs) <= 1e-9 * v * theta**2

    # the sized testing set reaches the promised confidence
    for _ in range(5):
        theta = float(rng.uniform(0.2, 1.5))
        delta = float(rng.uniform(0.2, 3.0))
        fail = float(rng.uniform(0.01, 1.0))
        v = testing_size_noisy(theta, delta, fail)
        assert confidence_floor_noisy(v, theta, delta) >= 1.0 - fail

    # the halting threshold equals its closed form
    for _ in range(5):
        p = int(rng.integers(1, 9))
        N = int(rng.integers(50, 2000))
        margin = float(rng.uniform(0.1, 5.0))
        eta = float(rng.uniform(0.05, 0.45))
        cfg = HaltingConfig(mode="noiseless", max_sparsity=5,
                            error_threshold=margin, confidence_factor=eta)
        expected = margin * (1.0 - eta) * math.sqrt(2.0 / (math.pi * p * N))
        assert noiseless_threshold(p * N, cfg) == pytest.approx(expected, rel=1e-12)


def test_byte_identical_reruns():
    def cfg(workers):
        return ExperimentConfig(
            name="interval_coverage",
            trials=100,
            grid={"confidence_factor": [0.2], "testing_size": [20, 40]},
            base={"signal_length": 64},
            master_seed=99,
            workers=workers,
        )

    first = run_experiment(cfg(1))
    again = run_experiment(cfg(1))
    pooled = run_experiment(cfg(2))
    assert first.to_csv_text() == again.to_csv_text() == pooled.to_csv_text()
    assert first.to_json_text() == again.to_json_text() == pooled.to_json_text()
