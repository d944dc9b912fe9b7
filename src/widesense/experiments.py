"""Config-driven Monte Carlo harness for the sensing laboratory.

Seven registered experiments sweep a parameter grid, run seeded independent
trials, and aggregate one :class:`ResultTable` row per grid cell:

``phase_transition``
    Fixed-k greedy recovery success over a (measurements, sparsity) grid.
``interval_coverage``
    Empirical coverage of the validation-error interval vs the analytic floor.
``error_tracking``
    Scaled validation parameter vs the true recovery error along a sequential
    frame, and where the halting criterion first fires.
``acss_vs_cs``
    Adaptive sequential acquisition vs a single-shot fixed-budget baseline.
``halting_probability``
    Firing frequency of the noisy criterion with an exact estimate vs bound.
``sasr_vs_omp``
    Validation-halted recovery vs exhaustive-iteration pursuit under noise.
``single_frame``
    A handful of complete sensing frames with band decisions, one row each.

Every stochastic quantity derives from (master_seed, experiment, cell, trial)
via :func:`widesense.rng.stream_seed`, trials are order-independent, and rows
are emitted in canonical grid order, so a fixed config serializes to
byte-identical CSV/JSON no matter how many workers run the trials.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .engine import DetectorConfig, FrameConfig, iter_frame_steps, max_steps, run_frame, uniform_bands
from .errors import InvalidSpecError, ParameterError, require_finite
from .recovery import FourierDictionary, omp, sasr
from .rng import stream_seed
from .sensing import acquire
from .signals import GridSpectrumSpec, random_grid_spectrum, signal_time_series
from .validation import (
    HaltingConfig,
    confidence_interval,
    confidence_floor_noisy,
    halting_rule,
    testing_size_noiseless,
)

__all__ = [
    "SUCCESS_MSE",
    "EXPERIMENT_NAMES",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ResultTable",
    "default_config",
    "load_config",
    "run_experiment",
    "significant_relative_mse",
    "run_phase_transition",
    "run_interval_coverage",
    "run_error_tracking",
    "run_acss_vs_cs",
    "run_halting_probability",
    "run_sasr_vs_omp",
    "run_single_frame",
]

# A recovery counts as successful at relative squared error 1e-3 or better.
SUCCESS_MSE = 1e-3

EXPERIMENT_NAMES = (
    "phase_transition",
    "interval_coverage",
    "error_tracking",
    "acss_vs_cs",
    "halting_probability",
    "sasr_vs_omp",
    "single_frame",
)

_GRID_KEYS = {
    "phase_transition": {"measurements", "sparsity"},
    "interval_coverage": {"confidence_factor", "testing_size"},
    "error_tracking": {"testing_per_step"},
    "acss_vs_cs": {"sub_nyquist_rate", "sparsity"},
    "halting_probability": {"accuracy_factor", "testing_size"},
    "sasr_vs_omp": {"sparsity", "noise_power"},
    "single_frame": set(),
}

_BASE_KEYS = {
    "phase_transition": {"signal_length"},
    "interval_coverage": {"signal_length", "jl_constant"},
    "error_tracking": {
        "frame_length", "min_transmission", "time_step", "nyquist_rate",
        "sub_nyquist_rate", "sparsity", "tone_groups", "amplitude_scale",
        "background_level", "max_sparsity", "error_threshold",
        "confidence_factor", "min_testing",
    },
    "acss_vs_cs": {
        "frame_length", "min_transmission", "time_step", "nyquist_rate",
        "testing_per_step", "max_sparsity", "error_threshold",
        "confidence_factor",
    },
    "halting_probability": {"noise_std", "signal_length"},
    "sasr_vs_omp": {
        "signal_length", "training_size", "testing_size", "max_sparsity",
        "accuracy_factor", "amplitude_scale",
    },
    "single_frame": {
        "frame_length", "min_transmission", "time_step", "nyquist_rate",
        "sub_nyquist_rate", "testing_per_step", "sparsity", "tone_groups",
        "amplitude_scale", "background_level", "max_sparsity",
        "error_threshold", "confidence_factor", "min_testing",
        "band_count", "detection_threshold",
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment request: which sweep to run, how hard, and from which seed.

    ``grid`` maps parameter names to value lists swept in the given order;
    ``base`` overrides scalar defaults of the named experiment.  ``workers``
    sizes the trial pool and never affects results, only wall time.
    """

    name: str
    trials: int
    grid: dict = field(default_factory=dict)
    base: dict = field(default_factory=dict)
    master_seed: int = 0
    output_path: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENT_NAMES:
            raise InvalidSpecError(
                f"unknown experiment {self.name!r}; expected one of {', '.join(EXPERIMENT_NAMES)}"
            )
        if self.trials < 1:
            raise InvalidSpecError("trials must be >= 1")
        if self.workers < 1:
            raise InvalidSpecError("workers must be >= 1")
        bad = set(self.grid) - _GRID_KEYS[self.name]
        if bad:
            raise InvalidSpecError(
                f"grid keys {sorted(bad)} not valid for {self.name}; "
                f"allowed: {sorted(_GRID_KEYS[self.name])}"
            )
        for key, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise InvalidSpecError(f"grid entry {key!r} must be a non-empty list")
        bad = set(self.base) - _BASE_KEYS[self.name]
        if bad:
            raise InvalidSpecError(
                f"base keys {sorted(bad)} not valid for {self.name}; "
                f"allowed: {sorted(_BASE_KEYS[self.name])}"
            )
        # Every grid and base key is numeric; a null min_testing means unset.
        numeric = [(f"grid {key}", v) for key, values in self.grid.items() for v in values]
        numeric += [(f"base {key}", v) for key, v in self.base.items()
                    if not (key == "min_testing" and v is None)]
        for name, value in numeric:
            if value is None:
                raise InvalidSpecError(f"{self.name} {name} must be a real number, got None")
            require_finite(self.name, {name: value})

    def digest(self) -> str:
        """12-hex-digit hash of the result-determining fields."""
        payload = json.dumps(
            {
                "name": self.name,
                "trials": self.trials,
                "grid": {k: list(v) for k, v in sorted(self.grid.items())},
                "base": dict(sorted(self.base.items())),
                "master_seed": self.master_seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "grid": {k: list(v) for k, v in self.grid.items()},
            "base": dict(self.base),
            "master_seed": self.master_seed,
            "output_path": self.output_path,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise InvalidSpecError("experiment config must be a JSON object")
        known = {"name", "trials", "grid", "base", "master_seed", "output_path", "workers"}
        extra = set(raw) - known
        if extra:
            raise InvalidSpecError(f"unknown config keys: {sorted(extra)}")
        try:
            return cls(
                name=raw["name"],
                trials=int(raw.get("trials", 1)),
                grid=dict(raw.get("grid", {})),
                base=dict(raw.get("base", {})),
                master_seed=int(raw.get("master_seed", 0)),
                output_path=raw.get("output_path"),
                workers=int(raw.get("workers", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpecError(f"malformed experiment config: {exc}") from exc


def read_json(path: str):
    """Parse a JSON config file; unreadable or malformed files are config errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidSpecError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"config {path} is not valid JSON: {exc}") from exc


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file, so partial files
    never land on disk."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_config(path: str) -> ExperimentConfig:
    """Read an :class:`ExperimentConfig` from a JSON file."""
    return ExperimentConfig.from_dict(read_json(path))


_SCHEMAS = {
    "phase_transition": (
        "measurements", "sparsity", "success_rate", "mean_mse", "status",
        "trials", "seed_base", "config_digest",
    ),
    "interval_coverage": (
        "confidence_factor", "testing_size", "empirical_coverage",
        "bound_value", "trials", "seed_base", "config_digest",
    ),
    "error_tracking": (
        "testing_per_step", "step", "reached", "mean_scaled_rho", "mean_error",
        "mean_interval_low", "mean_interval_high", "window_fraction",
        "halted_fraction", "mean_p_final", "trials", "seed_base",
        "config_digest",
    ),
    "acss_vs_cs": (
        "sub_nyquist_rate", "sparsity", "success_rate",
        "baseline_success_rate", "mean_p_final", "baseline_steps", "trials",
        "seed_base", "config_digest",
    ),
    "halting_probability": (
        "accuracy_factor", "testing_size", "noise_std", "halt_probability",
        "bound_value", "trials", "seed_base", "config_digest",
    ),
    "sasr_vs_omp": (
        "sparsity", "noise_power", "mean_mse", "baseline_mse",
        "mean_iterations", "trials", "seed_base", "config_digest",
    ),
    "single_frame": (
        "trial", "p_final", "halted", "saved_slots", "occupied_bands",
        "mean_mse", "trials", "seed_base", "config_digest",
    ),
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _plain(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


@dataclass(frozen=True)
class ResultTable:
    """Grid-cell statistics of one experiment, in canonical row order.

    Rows are plain dicts keyed exactly by ``schema``; serialization formats
    every float through ``repr`` so equal tables yield equal bytes.
    """

    name: str
    schema: tuple[str, ...]
    rows: tuple[dict, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "rows", tuple(dict(r) for r in self.rows))
        for row in self.rows:
            if set(row) != set(self.schema):
                raise ParameterError(
                    f"row keys {sorted(row)} do not match schema {list(self.schema)}"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, key: str) -> list:
        if key not in self.schema:
            raise ParameterError(f"no column {key!r} in table {self.name}")
        return [row[key] for row in self.rows]

    def to_csv_text(self) -> str:
        lines = [",".join(self.schema)]
        for row in self.rows:
            lines.append(",".join(_fmt(row[key]) for key in self.schema))
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload = {
            "experiment": self.name,
            "schema": list(self.schema),
            "rows": [{key: _plain(row[key]) for key in self.schema} for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"

    def write(self, path: str, fmt: str = "csv") -> None:
        """Atomically write the table; partial files never land on disk."""
        if fmt not in ("csv", "json"):
            raise ParameterError(f"format must be 'csv' or 'json', got {fmt!r}")
        write_atomic(path, self.to_csv_text() if fmt == "csv" else self.to_json_text())


def _map_trials(fn, argses, workers: int) -> list:
    if workers <= 1 or len(argses) <= 1:
        return [fn(a) for a in argses]
    chunk = max(1, len(argses) // (workers * 8))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, argses, chunksize=chunk))


def significant_relative_mse(truth: np.ndarray, estimate: np.ndarray,
                             floor_fraction: float = 0.01) -> float:
    """Mean per-bin relative squared error over the significant bins.

    Bins below ``floor_fraction`` of the peak modulus are excluded so the
    ratio is never taken against a (near-)zero bin.  Zero spectra return the
    plain squared error of the estimate.
    """
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    if truth.shape != estimate.shape:
        raise ParameterError("truth and estimate must have the same shape")
    peak = float(np.abs(truth).max(initial=0.0))
    if peak == 0.0:
        return float(np.sum(np.abs(estimate) ** 2))
    mask = np.abs(truth) > floor_fraction * peak
    ratios = np.abs(estimate[mask] - truth[mask]) ** 2 / np.abs(truth[mask]) ** 2
    return float(ratios.mean())


def _relative_sq_error(truth: np.ndarray, estimate: np.ndarray) -> float:
    denom = float(np.linalg.norm(truth) ** 2)
    err = float(np.linalg.norm(estimate - truth) ** 2)
    if denom == 0.0:
        return 0.0 if err <= 1e-24 else math.inf
    return err / denom


# ---------------------------------------------------------------------------
# phase transition


def _phase_transition_trial(args):
    m, k, n, seed = args
    rng = np.random.default_rng(seed)
    spectrum = np.zeros(n, dtype=complex)
    if k:
        support = rng.choice(n, size=k, replace=False)
        spectrum[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    phi = rng.standard_normal((m, n))
    training = phi @ np.fft.ifft(spectrum)
    result = omp(training, FourierDictionary(phi), k)
    rel = _relative_sq_error(spectrum, result.estimate.bins)
    return rel <= SUCCESS_MSE, rel


def run_phase_transition(cfg: ExperimentConfig) -> ResultTable:
    """Success-rate grid of fixed-k pursuit under a Gaussian sensing matrix.

    Cells with more atoms than measurements cannot be refit and are marked
    ``not_applicable`` instead of being run.
    """
    _expect(cfg, "phase_transition")
    n = int(cfg.base.get("signal_length", 200))
    m_list = [int(m) for m in cfg.grid.get("measurements", (20, 40, 66, 100, 140, 180))]
    k_list = [int(k) for k in cfg.grid.get("sparsity", (0, 1, 2, 5, 10, 20, 40, 80, 120))]
    digest = cfg.digest()
    rows = []
    for m in m_list:
        for k in k_list:
            seed_base = stream_seed(cfg.master_seed, cfg.name, f"{m}:{k}")
            row = {
                "measurements": m, "sparsity": k, "trials": cfg.trials,
                "seed_base": seed_base, "config_digest": digest,
            }
            if k > m:
                row.update(success_rate=None, mean_mse=None, status="not_applicable")
            else:
                tasks = [(m, k, n, stream_seed(seed_base, "trial", t)) for t in range(cfg.trials)]
                outcomes = _map_trials(_phase_transition_trial, tasks, cfg.workers)
                finite = [rel for _ok, rel in outcomes if math.isfinite(rel)]
                row.update(
                    success_rate=float(np.mean([ok for ok, _rel in outcomes])),
                    mean_mse=float(np.mean(finite)) if finite else None,
                    status="ok",
                )
            rows.append(row)
    return ResultTable(cfg.name, _SCHEMAS[cfg.name], tuple(rows))


# ---------------------------------------------------------------------------
# interval coverage


def _coverage_trial(args):
    eta, v, n, jl_c, seed = args
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    psi = rng.standard_normal((v, n))
    rho = float(np.abs(psi @ direction).mean())
    report = confidence_interval(rho, 1, n, eta, v, jl_c)
    true_error = math.sqrt(n)  # unit time-domain direction
    return report.interval_low <= true_error <= report.interval_high


def run_interval_coverage(cfg: ExperimentConfig) -> ResultTable:
    """Empirical probability that the error interval covers the true error."""
    _expect(cfg, "interval_coverage")
    n = int(cfg.base.get("signal_length", 200))
    jl_c = float(cfg.base.get("jl_constant", 1.0))
    etas = [float(e) for e in cfg.grid.get("confidence_factor", (0.2, 0.3, 0.4))]
    v_list = [int(v) for v in cfg.grid.get("testing_size", (20, 40, 60, 80))]
    digest = cfg.digest()
    rows = []
    for eta in etas:
        for v in v_list:
            seed_base = stream_seed(cfg.master_seed, cfg.name, f"{eta}:{v}")
            tasks = [(eta, v, n, jl_c, stream_seed(seed_base, "trial", t)) for t in range(cfg.trials)]
            hits = _map_trials(_coverage_trial, tasks, cfg.workers)
            floor = 1.0 - 4.0 * math.exp(-v * eta * eta / jl_c)
            rows.append({
                "confidence_factor": eta, "testing_size": v,
                "empirical_coverage": float(np.mean(hits)),
                "bound_value": max(floor, 0.0),
                "trials": cfg.trials, "seed_base": seed_base,
                "config_digest": digest,
            })
    return ResultTable(cfg.name, _SCHEMAS[cfg.name], tuple(rows))


# ---------------------------------------------------------------------------
# error tracking


_TRACKING_BASE = {
    "frame_length": 4e-6,
    "min_transmission": 2.4e-6,
    "time_step": 0.2e-6,
    "nyquist_rate": 5e9,
    "sub_nyquist_rate": 1e9,
    "sparsity": 32,
    "tone_groups": 8,
    "amplitude_scale": 0.08,
    "background_level": 1e-4,
    "max_sparsity": 80,
    "error_threshold": 1.0,
    "confidence_factor": 0.2,
}


def _tracking_halting(base: dict) -> HaltingConfig:
    min_testing = base.get("min_testing")
    if min_testing is None:
        # trust validation only once it carries interval confidence 99.5%
        min_testing = testing_size_noiseless(float(base["confidence_factor"]), 0.005)
    return HaltingConfig(
        mode="noiseless",
        max_sparsity=int(base["max_sparsity"]),
        error_threshold=float(base["error_threshold"]),
        confidence_factor=float(base["confidence_factor"]),
        min_testing=int(min_testing),
    )


def _tracking_trial(args):
    v, seed, base = args
    rng = np.random.default_rng(seed)
    spec = random_grid_spectrum(
        rng,
        reference_length=int(round(base["nyquist_rate"] * base["time_step"])),
        nyquist_rate=base["nyquist_rate"],
        sparsity=int(base["sparsity"]),
        n_groups=int(base["tone_groups"]),
        amplitude_scale=float(base["amplitude_scale"]),
        background_level=float(base["background_level"]),
    )
    frame = FrameConfig(
        frame_length=base["frame_length"],
        min_transmission=base["min_transmission"],
        time_step=base["time_step"],
        nyquist_rate=base["nyquist_rate"],
        sub_nyquist_rate=base["sub_nyquist_rate"],
        testing_per_step=v,
    )
    halting = _tracking_halting(base)
    eta = float(base["confidence_factor"])
    records = []
    p_final = 0
    for p, _measurements, recovery in iter_frame_steps(spec, frame, halting, seed):
        truth = np.fft.fft(signal_time_series(spec, p * frame.time_step).samples)
        error = float(np.linalg.norm(truth - recovery.estimate.bins))
        report = confidence_interval(recovery.rho_trace[-1], p, frame.nyquist_per_step, eta, v * p)
        halted = recovery.halted_by == "criterion"
        in_window = (
            error > 0.0
            and 1.0 / (1.0 + eta) <= report.scaled_rho / error <= 1.0 / (1.0 - eta)
        )
        records.append((p, report.scaled_rho, error, report.interval_low,
                        report.interval_high, in_window, halted))
        p_final = p
    return records, p_final


def run_error_tracking(cfg: ExperimentConfig) -> ResultTable:
    """Track the scaled validation parameter against the true spectral error.

    One row per (testing_per_step, step) aggregates every trial that reached
    that step; ``halted_fraction`` flags where the criterion first fires and
    ``window_fraction`` measures how often the scaled parameter sits within
    the two-sided confidence bracket of the true error.
    """
    _expect(cfg, "error_tracking")
    base = dict(_TRACKING_BASE)
    base.update(cfg.base)
    v_list = [int(v) for v in cfg.grid.get("testing_per_step", (40, 60))]
    digest = cfg.digest()
    rows = []
    for v in v_list:
        seed_base = stream_seed(cfg.master_seed, cfg.name, f"v{v}")
        tasks = [(v, stream_seed(seed_base, "trial", t), base) for t in range(cfg.trials)]
        outcomes = _map_trials(_tracking_trial, tasks, cfg.workers)
        mean_p_final = float(np.mean([p_final for _records, p_final in outcomes]))
        by_step: dict[int, list] = {}
        for records, _p_final in outcomes:
            for rec in records:
                by_step.setdefault(rec[0], []).append(rec)
        for p in sorted(by_step):
            recs = by_step[p]
            rows.append({
                "testing_per_step": v,
                "step": p,
                "reached": len(recs),
                "mean_scaled_rho": float(np.mean([r[1] for r in recs])),
                "mean_error": float(np.mean([r[2] for r in recs])),
                "mean_interval_low": float(np.mean([r[3] for r in recs])),
                "mean_interval_high": float(np.mean([r[4] for r in recs])),
                "window_fraction": float(np.mean([r[5] for r in recs])),
                "halted_fraction": float(np.mean([r[6] for r in recs])),
                "mean_p_final": mean_p_final,
                "trials": cfg.trials,
                "seed_base": seed_base,
                "config_digest": digest,
            })
    return ResultTable(cfg.name, _SCHEMAS[cfg.name], tuple(rows))


# ---------------------------------------------------------------------------
# adaptive sequential sensing vs fixed-budget baseline


_ACSS_BASE = {
    "frame_length": 0.8e-6,
    "min_transmission": 0.48e-6,
    "time_step": 0.04e-6,
    "nyquist_rate": 5e9,
    "testing_per_step": 10,
    "max_sparsity": 48,
    "error_threshold": 1.0,
    "confidence_factor": 0.2,
}


def _acss_trial(args):
    f_s, k, seed, base = args
    rng = np.random.default_rng(seed)
    n_ref = int(round(base["nyquist_rate"] * base["time_step"]))
    if k:
        spec = random_grid_spectrum(rng, n_ref, base["nyquist_rate"], k, max(1, k // 4))
    else:
        spec = GridSpectrumSpec(n_ref, base["nyquist_rate"], ())
    frame = FrameConfig(
        frame_length=base["frame_length"],
        min_transmission=base["min_transmission"],
        time_step=base["time_step"],
        nyquist_rate=base["nyquist_rate"],
        sub_nyquist_rate=f_s,
        testing_per_step=int(base["testing_per_step"]),
    )
    halting = HaltingConfig(
        mode="noiseless",
        max_sparsity=int(base["max_sparsity"]),
        error_threshold=float(base["error_threshold"]),
        confidence_factor=float(base["confidence_factor"]),
    )
    budget = max_steps(frame)
    adaptive_ok, p_used = False, budget
    for p, _measurements, recovery in iter_frame_steps(spec, frame, halting, seed):
        if recovery.halted_by == "criterion":
            truth = np.fft.fft(signal_time_series(spec, p * frame.time_step).samples)
            adaptive_ok = _relative_sq_error(truth, recovery.estimate.bins) <= SUCCESS_MSE
            p_used = p
    # single-shot baseline: the whole frame budget, every row spent on training
    rng_cs = np.random.default_rng(stream_seed(seed, "baseline"))
    phi = rng_cs.standard_normal((frame.measurements_per_step * budget, n_ref * budget))
    x = signal_time_series(spec, budget * frame.time_step).samples
    baseline = omp(phi @ x, FourierDictionary(phi), int(base["max_sparsity"]))
    truth = np.fft.fft(x)
    baseline_ok = _relative_sq_error(truth, baseline.estimate.bins) <= SUCCESS_MSE
    return adaptive_ok, baseline_ok, p_used


def run_acss_vs_cs(cfg: ExperimentConfig) -> ResultTable:
    """Adaptive sequential sensing vs one fixed full-budget acquisition.

    The baseline spends the entire step budget up front (its step count is
    recorded per row), so the adaptive arm's gain shows up as matching
    success with a smaller ``mean_p_final``.
    """
    _expect(cfg, "acss_vs_cs")
    base = dict(_ACSS_BASE)
    base.update(cfg.base)
    rates = [float(r) for r in cfg.grid.get("sub_nyquist_rate", (750e6, 1e9))]
    k_list = [int(k) for k in cfg.grid.get("sparsity", (0, 8, 16, 24, 32, 40))]
    digest = cfg.digest()
    rows = []
    for f_s in rates:
        for k in k_list:
            seed_base = stream_seed(cfg.master_seed, cfg.name, f"{f_s}:{k}")
            tasks = [(f_s, k, stream_seed(seed_base, "trial", t), base) for t in range(cfg.trials)]
            outcomes = _map_trials(_acss_trial, tasks, cfg.workers)
            frame = FrameConfig(
                frame_length=base["frame_length"],
                min_transmission=base["min_transmission"],
                time_step=base["time_step"],
                nyquist_rate=base["nyquist_rate"],
                sub_nyquist_rate=f_s,
                testing_per_step=int(base["testing_per_step"]),
            )
            rows.append({
                "sub_nyquist_rate": f_s,
                "sparsity": k,
                "success_rate": float(np.mean([a for a, _c, _p in outcomes])),
                "baseline_success_rate": float(np.mean([c for _a, c, _p in outcomes])),
                "mean_p_final": float(np.mean([p for _a, _c, p in outcomes])),
                "baseline_steps": max_steps(frame),
                "trials": cfg.trials,
                "seed_base": seed_base,
                "config_digest": digest,
            })
    return ResultTable(cfg.name, _SCHEMAS[cfg.name], tuple(rows))


# ---------------------------------------------------------------------------
# halting probability


def _halting_trial(args):
    theta_factor, v, delta, seed = args
    # With an exact estimate the testing residual is the receiver noise
    # alone; draw it as acquire does for one training row and v testing rows.
    rng = np.random.default_rng(stream_seed(seed, "noise"))
    rng.standard_normal(2)
    noise = delta * (rng.standard_normal(v) + 1j * rng.standard_normal(v))
    halting = HaltingConfig(mode="noisy", max_sparsity=1, noise_std=delta,
                            accuracy=theta_factor * delta)
    return halting_rule(halting, 1, 1, v)(float(np.abs(noise).sum() / v))


def run_halting_probability(cfg: ExperimentConfig) -> ResultTable:
    """Firing frequency of the noisy criterion when the estimate is exact.

    With the true spectrum substituted for the estimate the testing residual
    is pure receiver noise, so each trial samples the criterion event whose
    probability the analytic floor bounds from below.  The signal cancels
    exactly, so the ``signal_length`` base key is accepted but does not
    affect the result.
    """
    _expect(cfg, "halting_probability")
    delta = float(cfg.base.get("noise_std", 1.0))
    factors = [float(f) for f in cfg.grid.get("accuracy_factor", (0.6, 0.65, 0.7))]
    v_list = [int(v) for v in cfg.grid.get("testing_size", tuple(range(10, 101, 10)))]
    digest = cfg.digest()
    rows = []
    for factor in factors:
        for v in v_list:
            seed_base = stream_seed(cfg.master_seed, cfg.name, f"{factor}:{v}")
            tasks = [(factor, v, delta, stream_seed(seed_base, "trial", t))
                     for t in range(cfg.trials)]
            hits = _map_trials(_halting_trial, tasks, cfg.workers)
            rows.append({
                "accuracy_factor": factor,
                "testing_size": v,
                "noise_std": delta,
                "halt_probability": float(np.mean(hits)),
                "bound_value": confidence_floor_noisy(v, factor * delta, delta),
                "trials": cfg.trials,
                "seed_base": seed_base,
                "config_digest": digest,
            })
    return ResultTable(cfg.name, _SCHEMAS[cfg.name], tuple(rows))


# ---------------------------------------------------------------------------
# validation-halted recovery vs exhaustive pursuit


_SASR_BASE = {
    "signal_length": 1000,
    "training_size": 160,
    "testing_size": 40,
    "max_sparsity": 80,
    "accuracy_factor": 0.6,
    "amplitude_scale": 0.08,
}


def _sasr_trial(args):
    k, noise_power, seed, base = args
    delta = math.sqrt(noise_power)
    n = int(base["signal_length"])
    rng = np.random.default_rng(seed)
    spec = random_grid_spectrum(
        rng, n, float(n), k, max(1, k // 4),
        noise_power=noise_power,
        amplitude_scale=float(base["amplitude_scale"]),
    )
    x = signal_time_series(spec, 1.0)
    truth = np.fft.fft(x.samples)
    phi = rng.standard_normal((int(base["training_size"]), n))
    psi = rng.standard_normal((int(base["testing_size"]), n))
    measurements = acquire(x, phi, psi, noise_std=delta,
                           noise_seed=stream_seed(seed, "noise"))
    halting = HaltingConfig(
        mode="noisy",
        max_sparsity=int(base["max_sparsity"]),
        noise_std=delta,
        accuracy=float(base["accuracy_factor"]) * delta,
    )
    adaptive = sasr(measurements, halting)
    exhaustive = omp(measurements.training, FourierDictionary(phi), int(base["max_sparsity"]))
    return (
        significant_relative_mse(truth, adaptive.estimate.bins),
        significant_relative_mse(truth, exhaustive.estimate.bins),
        adaptive.iterations,
    )


def run_sasr_vs_omp(cfg: ExperimentConfig) -> ResultTable:
    """Sparsity-blind halted recovery vs pursuit forced to the iteration cap.

    The noisy halting rule stops near the true occupied-bin count, while the
    baseline runs all ``max_sparsity`` iterations and overfits measurement
    noise; the per-bin relative MSE over significant bins quantifies both.
    """
    _expect(cfg, "sasr_vs_omp")
    base = dict(_SASR_BASE)
    base.update(cfg.base)
    k_list = [int(k) for k in cfg.grid.get("sparsity", (16, 32, 48))]
    powers = [float(w) for w in cfg.grid.get("noise_power", (1.0, 4.0))]
    digest = cfg.digest()
    rows = []
    for k in k_list:
        for power in powers:
            seed_base = stream_seed(cfg.master_seed, cfg.name, f"{k}:{power}")
            tasks = [(k, power, stream_seed(seed_base, "trial", t), base)
                     for t in range(cfg.trials)]
            outcomes = _map_trials(_sasr_trial, tasks, cfg.workers)
            rows.append({
                "sparsity": k,
                "noise_power": power,
                "mean_mse": float(np.mean([a for a, _b, _i in outcomes])),
                "baseline_mse": float(np.mean([b for _a, b, _i in outcomes])),
                "mean_iterations": float(np.mean([i for _a, _b, i in outcomes])),
                "trials": cfg.trials,
                "seed_base": seed_base,
                "config_digest": digest,
            })
    return ResultTable(cfg.name, _SCHEMAS[cfg.name], tuple(rows))


# ---------------------------------------------------------------------------
# single frame


_FRAME_BASE = dict(_TRACKING_BASE, testing_per_step=60, band_count=4,
                   detection_threshold=10.0)


def _frame_trial(args):
    trial, seed, base = args
    rng = np.random.default_rng(seed)
    n_ref = int(round(base["nyquist_rate"] * base["time_step"]))
    spec = random_grid_spectrum(
        rng, n_ref, base["nyquist_rate"],
        sparsity=int(base["sparsity"]),
        n_groups=int(base["tone_groups"]),
        amplitude_scale=float(base["amplitude_scale"]),
        background_level=float(base["background_level"]),
    )
    frame = FrameConfig(
        frame_length=base["frame_length"],
        min_transmission=base["min_transmission"],
        time_step=base["time_step"],
        nyquist_rate=base["nyquist_rate"],
        sub_nyquist_rate=base["sub_nyquist_rate"],
        testing_per_step=int(base["testing_per_step"]),
    )
    halting = _tracking_halting(base)
    detector = DetectorConfig(
        bands=uniform_bands(base["nyquist_rate"] / 2.0, int(base["band_count"])),
        threshold=float(base["detection_threshold"]),
    )
    outcome = run_frame(spec, frame, halting, detector, seed)
    truth = np.fft.fft(signal_time_series(spec, outcome.steps_used * frame.time_step).samples)
    return {
        "trial": trial,
        "p_final": outcome.steps_used,
        "halted": int(outcome.halted),
        "saved_slots": outcome.saved_slots,
        "occupied_bands": len(outcome.occupied_bands()),
        "mean_mse": _relative_sq_error(truth, outcome.estimate.bins),
    }


def run_single_frame(cfg: ExperimentConfig) -> ResultTable:
    """Run complete sensing frames end to end, one table row per frame."""
    _expect(cfg, "single_frame")
    base = dict(_FRAME_BASE)
    base.update(cfg.base)
    seed_base = stream_seed(cfg.master_seed, cfg.name)
    tasks = [(t, stream_seed(seed_base, "trial", t), base) for t in range(cfg.trials)]
    outcomes = _map_trials(_frame_trial, tasks, cfg.workers)
    digest = cfg.digest()
    rows = []
    for data in outcomes:
        row = dict(data)
        row.update(trials=cfg.trials, seed_base=seed_base, config_digest=digest)
        rows.append(row)
    return ResultTable(cfg.name, _SCHEMAS[cfg.name], tuple(rows))


# ---------------------------------------------------------------------------
# registry


EXPERIMENTS = {
    "phase_transition": run_phase_transition,
    "interval_coverage": run_interval_coverage,
    "error_tracking": run_error_tracking,
    "acss_vs_cs": run_acss_vs_cs,
    "halting_probability": run_halting_probability,
    "sasr_vs_omp": run_sasr_vs_omp,
    "single_frame": run_single_frame,
}

_DEFAULT_TRIALS = {
    "phase_transition": 500,
    "interval_coverage": 500,
    "error_tracking": 30,
    "acss_vs_cs": 40,
    "halting_probability": 2000,
    "sasr_vs_omp": 200,
    "single_frame": 5,
}


def default_config(name: str, **overrides) -> ExperimentConfig:
    """Desk-scale defaults for the named experiment."""
    if name not in EXPERIMENT_NAMES:
        raise InvalidSpecError(
            f"unknown experiment {name!r}; expected one of {', '.join(EXPERIMENT_NAMES)}"
        )
    fields = {"name": name, "trials": _DEFAULT_TRIALS[name], "master_seed": 20240001}
    fields.update(overrides)
    return ExperimentConfig(**fields)


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Dispatch to the registered runner and write ``output_path`` if set."""
    table = EXPERIMENTS[cfg.name](cfg)
    if cfg.output_path:
        fmt = "json" if cfg.output_path.endswith(".json") else "csv"
        table.write(cfg.output_path, fmt)
    return table


def _expect(cfg: ExperimentConfig, name: str) -> None:
    if cfg.name != name:
        raise ParameterError(f"config names {cfg.name!r} but runner expects {name!r}")
