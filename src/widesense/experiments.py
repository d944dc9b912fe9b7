"""Config-driven Monte Carlo harness for the sensing laboratory.

Seven registered experiments sweep a parameter grid, run seeded independent
trials, and aggregate :class:`ResultTable` rows per grid cell:

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

Each experiment is one entry of the ``_EXPERIMENTS`` registry: its default
trial count, its grid and base keys with their default values, the columns
it adds, a trial function over a cell's trial streams and a row
aggregator.  One loop, ``_sweep``, runs every experiment.
``phase_transition`` recovers its trials in stacks, one stacked pursuit
each; ``acss_vs_cs`` advances its frames in lockstep, recovering each step
of a group of trials with one stacked SASR, and then runs each trial's
full-budget baseline on its own (both stacks are sized by
:func:`widesense.recovery._stack_size`); ``halting_probability`` derives
the noise streams of its trials in one pass.  ``interval_coverage``,
``error_tracking``, ``sasr_vs_omp`` and ``single_frame`` run per trial.
A key's default also fixes its type: an integer default takes integers
only, a ``None`` default an integer or null, and a float default any
finite real, converted to float; every value must be >= 0, and >= 1 where
the default is a positive integer.

Every stochastic quantity derives from (master_seed, experiment, cell, trial)
via :func:`widesense.rng.stream_seed`: a cell's ``seed_base`` from one call,
and its trials' seeds ``stream_seed(seed_base, "trial", t)`` with their
generators from one :func:`widesense.rng.substreams` pass, a
:class:`~widesense.rng.Streams` of ``(seed, rng)`` pairs; one worker runs
them all, and a pool gives each worker a contiguous slice of them.
Trials are order-independent, and rows are emitted in canonical grid
order, so a fixed config serializes to byte-identical CSV/JSON no matter
how many workers run the trials.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .engine import (
    DetectorConfig,
    FrameConfig,
    _frame_steps,
    iter_frame_steps,
    max_steps,
    run_frame,
    uniform_bands,
)
from .errors import InvalidSpecError, ParameterError, check_fields, check_value, from_fields
from .recovery import FourierDictionary, _omp_batch, _sasr_then_omp, _stack_size, omp
from .rng import _pin_worker, pin_blas_threads, stream_seed, substreams
from .sensing import _receiver_noise, acquire, draw_operator
from .signals import GridSpectrumSpec, random_grid_spectrum, signal_time_series
from .validation import (
    HaltingConfig,
    confidence_floor_noiseless,
    confidence_floor_noisy,
    confidence_interval,
    halting_rule,
    testing_size_noiseless,
)

__all__ = [
    "SUCCESS_MSE",
    "EXPERIMENT_NAMES",
    "ExperimentConfig",
    "ResultTable",
    "default_config",
    "load_config",
    "run_experiment",
    "significant_relative_mse",
]

# A recovery counts as successful at relative squared error 1e-3 or better.
SUCCESS_MSE = 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment request: which sweep to run, how hard, and from which seed.

    ``grid`` maps parameter names to value lists swept in the given order;
    ``base`` overrides scalar defaults of the named experiment.  ``workers``
    sizes the trial pool, up to the CPU count, and never affects results,
    only wall time.
    """

    name: str
    trials: int = 1
    grid: dict = field(default_factory=dict)
    base: dict = field(default_factory=dict)
    master_seed: int = 0
    output_path: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        check_fields("experiment", self)
        spec = _experiment(self.name)
        if self.trials < 1:
            raise InvalidSpecError("trials must be >= 1")
        if self.workers < 1:
            raise InvalidSpecError("workers must be >= 1")
        for kind, given, allowed in (("grid", self.grid, spec.grid), ("base", self.base, spec.base)):
            bad = set(given) - set(allowed)
            if bad:
                raise InvalidSpecError(
                    f"{kind} keys {sorted(bad)} not valid for {self.name}; "
                    f"allowed: {sorted(allowed)}"
                )
        for key, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise InvalidSpecError(f"grid entry {key!r} must be a non-empty list")
            for value in values:
                _typed(self.name, f"grid {key}", value, spec.grid[key][0])
        for key, value in self.base.items():
            _typed(self.name, f"base {key}", value, spec.base[key])

    def digest(self) -> str:
        """12-hex-digit hash of the result-determining fields."""
        # Imported here, so that importing the package does not load OpenSSL.
        import hashlib

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
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return from_fields(cls, "experiment", raw)


def _typed(owner: str, key: str, value, default):
    """``value`` checked and converted by the type of ``default``.

    Every value is a finite real >= 0.  A float default converts the value
    to float; an int default takes integers only, >= 1 if the default is
    positive; a None default takes an integer or null.
    """
    if value is None and default is None:
        return None
    kind = float if isinstance(default, float) else int
    check_value(owner, key, value, kind)
    least = 1 if kind is int and default else 0
    if value < least:
        raise ParameterError(f"{owner} {key} must be >= {least}, got {value!r}")
    return kind(value)


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

    def write(self, path: str, fmt: str | None = None) -> None:
        """Atomically write the table; partial files never land on disk.
        Without ``fmt``, a path ending in ``.json`` gets JSON, any other CSV."""
        if fmt is None:
            fmt = "json" if str(path).endswith(".json") else "csv"
        if fmt not in ("csv", "json"):
            raise ParameterError(f"format must be 'csv' or 'json', got {fmt!r}")
        write_atomic(path, self.to_csv_text() if fmt == "csv" else self.to_json_text())


def _each_seed(trial, cell: dict, base: dict, streams) -> list:
    return [trial(cell, base, seed, rng) for seed, rng in streams]


def _map_trials(fn, cell: dict, base: dict, streams, workers: int, pool) -> list:
    """The outcomes of ``fn(cell, base, streams)`` over the trial ``streams``
    (a :class:`~widesense.rng.Streams`), in trial order.  One worker, or a
    single trial, runs here in one call; several workers each take one
    contiguous share of ceil(trials / workers) trials on the executor that
    ``pool()`` returns."""
    if workers <= 1 or len(streams) <= 1:
        return fn(cell, base, streams)
    size = math.ceil(len(streams) / workers)
    shares = [streams[lo:lo + size] for lo in range(0, len(streams), size)]
    runs = pool().map(fn, itertools.repeat(cell), itertools.repeat(base), shares)
    return [outcome for run in runs for outcome in run]


def significant_relative_mse(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Mean per-bin relative squared error over the significant bins.

    Bins below 1% of the peak modulus are excluded so the ratio is never
    taken against a (near-)zero bin.  Zero spectra return the plain squared
    error of the estimate.
    """
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    if truth.shape != estimate.shape:
        raise ParameterError("truth and estimate must have the same shape")
    peak = float(np.abs(truth).max(initial=0.0))
    if peak == 0.0:
        return float(np.sum(np.abs(estimate) ** 2))
    mask = np.abs(truth) > 0.01 * peak
    ratios = np.abs(estimate[mask] - truth[mask]) ** 2 / np.abs(truth[mask]) ** 2
    return float(ratios.mean())


def _relative_sq_error(truth: np.ndarray, estimate: np.ndarray) -> float:
    denom = float(np.linalg.norm(truth) ** 2)
    err = float(np.linalg.norm(estimate - truth) ** 2)
    if denom == 0.0:
        return 0.0 if err <= 1e-24 else math.inf
    return err / denom


def _means(names: tuple, outcomes) -> dict:
    """The mean of each position of the outcome tuples, keyed by ``names``."""
    return {name: float(np.mean(column)) for name, column in zip(names, zip(*outcomes))}


def _frame_config(base: dict, **overrides) -> FrameConfig:
    """The frame layout of ``base``, with ``overrides`` for swept keys."""
    params = {**base, **overrides}
    return FrameConfig(**{key: params[key] for key in FrameConfig.__dataclass_fields__})


# ---------------------------------------------------------------------------
# phase transition


def _phase_transition_trials(cell, base, streams):
    """The trials in stacks of :func:`~widesense.recovery._stack_size`, one
    stack at a time."""
    size = _stack_size(cell["measurements"], base["signal_length"])
    return [outcome for lo in range(0, len(streams), size)
            for outcome in _phase_transition_stack(cell, base, streams[lo:lo + size])]


def _phase_transition_stack(cell, base, streams):
    """Each stream draws its trial as a lone trial would; the stack is then
    recovered by one stacked fixed-k pursuit, and its arrays are freed on
    return."""
    m, k, n = cell["measurements"], cell["sparsity"], base["signal_length"]
    spectra = np.zeros((len(streams), n), dtype=complex)
    dictionaries = np.empty((len(streams), m, n // 2 + 1), dtype=complex)
    training = np.empty((len(streams), m), dtype=complex)
    for b, (_seed, rng) in enumerate(streams):
        if k:
            support = rng.choice(n, size=k, replace=False)
            spectra[b, support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        # The real and imaginary parts of the signal as one real operand.
        signal = np.fft.ifft(spectra[b]).view(np.float64).reshape(n, 2)
        draw_operator(signal, m, rng, training[b].view(np.float64).reshape(m, 2),
                      dictionaries[b])
    results = _omp_batch(FourierDictionary(dictionaries, n), training, k)
    rels = [_relative_sq_error(s, r.estimate.bins) for s, r in zip(spectra, results)]
    return [(rel <= SUCCESS_MSE, rel) for rel in rels]


def _phase_transition_rows(cell, base, run):
    """Success rate of fixed-k pursuit under a Gaussian sensing matrix.

    Cells with more atoms than measurements cannot be refit, nor placed in
    a spectrum of fewer bins, and are marked ``not_applicable`` instead of
    being run.
    """
    if cell["sparsity"] > min(cell["measurements"], base["signal_length"]):
        return [{"success_rate": None, "mean_mse": None, "status": "not_applicable"}]
    outcomes = run()
    finite = [rel for _ok, rel in outcomes if math.isfinite(rel)]
    return [{
        "success_rate": float(np.mean([ok for ok, _rel in outcomes])),
        "mean_mse": float(np.mean(finite)) if finite else None,
        "status": "ok",
    }]


# ---------------------------------------------------------------------------
# interval coverage


def _coverage_trial(cell, base, _seed, rng):
    eta, v, n = cell["confidence_factor"], cell["testing_size"], base["signal_length"]
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    psi = rng.standard_normal((v, n))
    rho = float(np.abs(psi @ direction).mean())
    report = confidence_interval(rho, n, eta)
    true_error = math.sqrt(n)  # unit time-domain direction
    return report.interval_low <= true_error <= report.interval_high


def _coverage_rows(cell, base, run):
    """Empirical probability that the error interval covers the true error."""
    # The floor first: a bad jl_constant stops the sweep before any trial runs.
    floor = confidence_floor_noiseless(cell["testing_size"], cell["confidence_factor"],
                                       base["jl_constant"])
    return [{"empirical_coverage": float(np.mean(run())), "bound_value": floor}]


# ---------------------------------------------------------------------------
# error tracking


def _frame_spectrum(frame: FrameConfig, base: dict, rng) -> GridSpectrumSpec:
    """The random grouped-tone spectrum of one trial of ``frame``."""
    return random_grid_spectrum(
        rng,
        reference_length=frame.nyquist_per_step,
        nyquist_rate=frame.nyquist_rate,
        sparsity=base["sparsity"],
        n_groups=base["tone_groups"],
        amplitude_scale=base["amplitude_scale"],
        background_level=base["background_level"],
    )


def _tracking_halting(base: dict) -> HaltingConfig:
    min_testing = base["min_testing"]
    if min_testing is None:
        # trust validation only once it carries interval confidence 99.5%
        min_testing = testing_size_noiseless(base["confidence_factor"], 0.005)
    return HaltingConfig(
        mode="noiseless",
        max_sparsity=base["max_sparsity"],
        error_threshold=base["error_threshold"],
        confidence_factor=base["confidence_factor"],
        min_testing=min_testing,
    )


def _tracking_trial(cell, base, seed, rng):
    frame = _frame_config(base, testing_per_step=cell["testing_per_step"])
    spec = _frame_spectrum(frame, base, rng)
    halting = _tracking_halting(base)
    eta = base["confidence_factor"]
    records = []
    p_final = 0
    for p, window, _measurements, recovery in iter_frame_steps(spec, frame, halting, seed):
        truth = np.fft.fft(window.samples)
        error = float(np.linalg.norm(truth - recovery.estimate.bins))
        report = confidence_interval(recovery.rho_trace[-1], p * frame.nyquist_per_step, eta)
        halted = recovery.halted_by == "criterion"
        in_window = (
            error > 0.0
            and 1.0 / (1.0 + eta) <= report.scaled_rho / error <= 1.0 / (1.0 - eta)
        )
        records.append((p, report.scaled_rho, error, report.interval_low,
                        report.interval_high, in_window, halted))
        p_final = p
    return records, p_final


def _tracking_rows(cell, base, run):
    """Track the scaled validation parameter against the true spectral error.

    One row per step aggregates every trial that reached that step;
    ``halted_fraction`` flags where the criterion first fires and
    ``window_fraction`` measures how often the scaled parameter sits within
    the two-sided confidence bracket of the true error.
    """
    outcomes = run()
    mean_p_final = float(np.mean([p_final for _records, p_final in outcomes]))
    by_step: dict[int, list] = {}
    for records, _p_final in outcomes:
        for p, *rec in records:
            by_step.setdefault(p, []).append(rec)
    names = ("mean_scaled_rho", "mean_error", "mean_interval_low", "mean_interval_high",
             "window_fraction", "halted_fraction")
    return [dict(_means(names, recs), step=p, reached=len(recs), mean_p_final=mean_p_final)
            for p, recs in sorted(by_step.items())]


# ---------------------------------------------------------------------------
# adaptive sequential sensing vs fixed-budget baseline


def _acss_frame(cell, base) -> FrameConfig:
    return _frame_config(base, sub_nyquist_rate=cell["sub_nyquist_rate"])


def _acss_trials(cell, base, streams):
    """The trials' frames advance in lockstep, each step recovered by one
    stacked SASR per group (see :func:`widesense.engine._frame_steps`);
    each trial's full-budget baseline then runs on its own."""
    k, frame = cell["sparsity"], _acss_frame(cell, base)
    n_ref, rate = frame.nyquist_per_step, frame.nyquist_rate
    specs = [random_grid_spectrum(rng, n_ref, rate, k, max(1, k // 4)) if k
             else GridSpectrumSpec(n_ref, rate, ()) for _seed, rng in streams]
    seeds = streams.seeds.tolist()
    adaptive = _acss_adaptive(specs, seeds, frame, base)
    return [(ok, _acss_baseline(spec, seed, frame, base["max_sparsity"]), p)
            for spec, seed, (ok, p) in zip(specs, seeds, adaptive)]


def _acss_adaptive(specs, seeds, frame: FrameConfig, base) -> list:
    """Each trial's (success, steps used) over its sequential frame."""
    halting = HaltingConfig(
        mode="noiseless",
        max_sparsity=base["max_sparsity"],
        error_threshold=base["error_threshold"],
        confidence_factor=base["confidence_factor"],
    )
    outcomes = [(False, max_steps(frame))] * len(specs)
    for b, (p, window, _measurements, recovery) in _frame_steps(list(zip(specs, seeds)), frame,
                                                                halting, False):
        if recovery.halted_by == "criterion":
            truth = np.fft.fft(window.samples)
            outcomes[b] = (_relative_sq_error(truth, recovery.estimate.bins) <= SUCCESS_MSE, p)
    return outcomes


def _acss_baseline(spec, seed: int, frame: FrameConfig, k: int) -> bool:
    """Single-shot baseline: the whole frame budget, every row spent on
    training."""
    budget = max_steps(frame)
    x = signal_time_series(spec, budget * frame.time_step).samples
    training, dictionary = draw_operator(x, frame.measurements_per_step * budget,
                                         stream_seed(seed, "baseline"))
    baseline = omp(training, dictionary, k)
    return _relative_sq_error(np.fft.fft(x), baseline.estimate.bins) <= SUCCESS_MSE


def _acss_rows(cell, base, run):
    """Adaptive sequential sensing vs one fixed full-budget acquisition.

    The baseline spends the entire step budget up front (its step count is
    recorded per row), so the adaptive arm's gain shows up as matching
    success with a smaller ``mean_p_final``.
    """
    row = _means(("success_rate", "baseline_success_rate", "mean_p_final"), run())
    row["baseline_steps"] = max_steps(_acss_frame(cell, base))
    return [row]


# ---------------------------------------------------------------------------
# halting probability


def _halting_trials(cell, base, streams):
    v, delta = cell["testing_size"], base["noise_std"]
    halting = HaltingConfig(mode="noisy", max_sparsity=1, noise_std=delta,
                            accuracy=cell["accuracy_factor"] * delta)
    halts = halting_rule(halting, 1, v)
    outcomes = []
    # With an exact estimate the testing residual is the receiver noise
    # alone; draw it as acquire does for one training row and v testing rows.
    for _seed, rng in substreams(streams.seeds, "noise"):
        _receiver_noise(rng, 1, delta)
        noise = _receiver_noise(rng, v, delta)
        outcomes.append(halts(float(np.abs(noise).sum() / v)))
    return outcomes


def _halting_rows(cell, base, run):
    """Firing frequency of the noisy criterion when the estimate is exact.

    With the true spectrum substituted for the estimate the testing residual
    is pure receiver noise, so each trial samples the criterion event whose
    probability the analytic floor bounds from below.  The signal cancels
    exactly, so the ``signal_length`` base key is accepted but does not
    affect the result.
    """
    delta = base["noise_std"]
    return [{
        "noise_std": delta,
        "halt_probability": float(np.mean(run())),
        "bound_value": confidence_floor_noisy(
            cell["testing_size"], cell["accuracy_factor"] * delta, delta),
    }]


# ---------------------------------------------------------------------------
# validation-halted recovery vs exhaustive pursuit


def _sasr_trial(cell, base, seed, rng):
    k, noise_power = cell["sparsity"], cell["noise_power"]
    delta = math.sqrt(noise_power)
    n = base["signal_length"]
    spec = random_grid_spectrum(
        rng, n, float(n), k, max(1, k // 4),
        noise_power=noise_power,
        amplitude_scale=base["amplitude_scale"],
    )
    x = signal_time_series(spec, 1.0)
    truth = np.fft.fft(x.samples)
    ms = acquire(x, base["training_size"], base["testing_size"], rng, rng,
                 noise_std=delta, noise_seed=stream_seed(seed, "noise"))
    halting = HaltingConfig(
        mode="noisy",
        max_sparsity=base["max_sparsity"],
        noise_std=delta,
        accuracy=base["accuracy_factor"] * delta,
    )
    # The exhaustive baseline continues the SASR pursuit up to max_sparsity
    # picks; it equals a fresh omp run on the training rows.
    [adaptive], [exhaustive] = _sasr_then_omp(ms.training[None], ms.testing[None], ms.phi, ms.psi,
                                              halting)
    return (
        significant_relative_mse(truth, adaptive.estimate.bins),
        significant_relative_mse(truth, exhaustive.estimate.bins),
        adaptive.iterations,
    )


def _sasr_rows(cell, base, run):
    """Sparsity-blind halted recovery vs pursuit forced to the iteration cap.

    The noisy halting rule stops near the true occupied-bin count, while the
    baseline runs all ``max_sparsity`` iterations and overfits measurement
    noise; the per-bin relative MSE over significant bins quantifies both.
    """
    return [_means(("mean_mse", "baseline_mse", "mean_iterations"), run())]


# ---------------------------------------------------------------------------
# single frame


def _frame_trial(cell, base, seed, rng):
    frame = _frame_config(base)
    spec = _frame_spectrum(frame, base, rng)
    detector = DetectorConfig(
        bands=uniform_bands(base["nyquist_rate"] / 2.0, base["band_count"]),
        threshold=base["detection_threshold"],
    )
    outcome = run_frame(spec, frame, _tracking_halting(base), detector, seed)
    truth = np.fft.fft(signal_time_series(spec, outcome.steps_used * frame.time_step).samples)
    return {
        "p_final": outcome.steps_used,
        "halted": int(outcome.halted),
        "saved_slots": outcome.saved_slots,
        "occupied_bands": len(outcome.occupied_bands()),
        "mean_mse": _relative_sq_error(truth, outcome.estimate.bins),
    }


def _frame_rows(cell, base, run):
    """Complete sensing frames end to end, one row per frame."""
    return [dict(outcome, trial=t) for t, outcome in enumerate(run())]


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class _Experiment:
    """What :func:`_sweep` needs to run one experiment.

    ``grid`` maps each grid key, outermost first, to its default values and
    ``base`` maps each base key to its default; the defaults also fix each
    key's type (see :func:`_typed`).  ``trial(cell, base, streams)`` runs
    the trials of a :class:`~widesense.rng.Streams`, a whole cell or one
    worker's share of it, one outcome per ``(seed, rng)`` pair; a per-trial
    ``trial(cell, base, seed, rng)`` is lifted by :func:`_each_seed`.
    ``rows(cell, base, run)`` turns one cell into rows of ``columns``,
    calling ``run()`` for the list of trial outcomes.  ``label`` formats the
    cell into its seed label; ``None`` seeds the experiment without one.
    """

    trials: int
    grid: dict
    base: dict
    columns: tuple
    trial: Callable
    rows: Callable
    label: str | None


# The frame scale of error_tracking, which single_frame extends.
_FRAME_BASE = {
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
    "min_testing": None,
}

_EXPERIMENTS = {
    "phase_transition": _Experiment(
        trials=500,
        grid={"measurements": (20, 40, 66, 100, 140, 180),
              "sparsity": (0, 1, 2, 5, 10, 20, 40, 80, 120)},
        base={"signal_length": 200},
        columns=("success_rate", "mean_mse", "status"),
        trial=_phase_transition_trials,
        rows=_phase_transition_rows,
        label="{measurements}:{sparsity}",
    ),
    "interval_coverage": _Experiment(
        trials=500,
        grid={"confidence_factor": (0.2, 0.3, 0.4), "testing_size": (20, 40, 60, 80)},
        base={"signal_length": 200, "jl_constant": 1.0},
        columns=("empirical_coverage", "bound_value"),
        trial=functools.partial(_each_seed, _coverage_trial),
        rows=_coverage_rows,
        label="{confidence_factor}:{testing_size}",
    ),
    "error_tracking": _Experiment(
        trials=30,
        grid={"testing_per_step": (40, 60)},
        base=_FRAME_BASE,
        columns=("step", "reached", "mean_scaled_rho", "mean_error", "mean_interval_low",
                 "mean_interval_high", "window_fraction", "halted_fraction", "mean_p_final"),
        trial=functools.partial(_each_seed, _tracking_trial),
        rows=_tracking_rows,
        label="v{testing_per_step}",
    ),
    "acss_vs_cs": _Experiment(
        trials=40,
        grid={"sub_nyquist_rate": (750e6, 1e9), "sparsity": (0, 8, 16, 24, 32, 40)},
        base={"frame_length": 0.8e-6, "min_transmission": 0.48e-6, "time_step": 0.04e-6,
              "nyquist_rate": 5e9, "testing_per_step": 10, "max_sparsity": 48,
              "error_threshold": 1.0, "confidence_factor": 0.2},
        columns=("success_rate", "baseline_success_rate", "mean_p_final", "baseline_steps"),
        trial=_acss_trials,
        rows=_acss_rows,
        label="{sub_nyquist_rate}:{sparsity}",
    ),
    "halting_probability": _Experiment(
        trials=2000,
        grid={"accuracy_factor": (0.6, 0.65, 0.7), "testing_size": tuple(range(10, 101, 10))},
        base={"noise_std": 1.0, "signal_length": 200},
        columns=("noise_std", "halt_probability", "bound_value"),
        trial=_halting_trials,
        rows=_halting_rows,
        label="{accuracy_factor}:{testing_size}",
    ),
    "sasr_vs_omp": _Experiment(
        trials=200,
        grid={"sparsity": (16, 32, 48), "noise_power": (1.0, 4.0)},
        base={"signal_length": 1000, "training_size": 160, "testing_size": 40,
              "max_sparsity": 80, "accuracy_factor": 0.6, "amplitude_scale": 0.08},
        columns=("mean_mse", "baseline_mse", "mean_iterations"),
        trial=functools.partial(_each_seed, _sasr_trial),
        rows=_sasr_rows,
        label="{sparsity}:{noise_power}",
    ),
    "single_frame": _Experiment(
        trials=5,
        grid={},
        base=dict(_FRAME_BASE, testing_per_step=60, band_count=4, detection_threshold=10.0),
        columns=("trial", "p_final", "halted", "saved_slots", "occupied_bands", "mean_mse"),
        trial=functools.partial(_each_seed, _frame_trial),
        rows=_frame_rows,
        label=None,
    ),
}

EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def _experiment(name: str) -> _Experiment:
    if name not in EXPERIMENT_NAMES:
        raise InvalidSpecError(
            f"unknown experiment {name!r}; expected one of {', '.join(EXPERIMENT_NAMES)}"
        )
    return _EXPERIMENTS[name]


def _sweep(cfg: ExperimentConfig) -> ResultTable:
    """Run every cell of ``cfg``'s grid, outermost key first, with BLAS on
    one thread, on at most one worker per CPU."""
    spec = _EXPERIMENTS[cfg.name]
    workers = min(cfg.workers, os.cpu_count() or 1)
    base = {key: _typed(cfg.name, f"base {key}", cfg.base.get(key, default), default)
            for key, default in spec.base.items()}
    axes = [[(key, _typed(cfg.name, f"grid {key}", value, defaults[0]))
             for value in cfg.grid.get(key, defaults)]
            for key, defaults in spec.grid.items()]
    digest = cfg.digest()
    rows = []
    with pin_blas_threads(), contextlib.ExitStack() as stack:
        @functools.cache
        def pool():
            # One pool for every cell, started when first needed.  Imported
            # here: the pool machinery costs about 0.8 MB of resident memory
            # that a serial run does not need.
            import concurrent.futures

            return stack.enter_context(concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_pin_worker))

        for cell in map(dict, itertools.product(*axes)):
            label = () if spec.label is None else (spec.label.format(**cell),)
            seed_base = stream_seed(cfg.master_seed, cfg.name, *label)

            def run():
                streams = substreams(seed_base, "trial", np.arange(cfg.trials))
                return _map_trials(spec.trial, cell, base, streams, workers, pool)

            for row in spec.rows(cell, base, run):
                rows.append({**cell, **row, "trials": cfg.trials, "seed_base": seed_base,
                             "config_digest": digest})
    schema = (*spec.grid, *spec.columns, "trials", "seed_base", "config_digest")
    return ResultTable(cfg.name, schema, tuple(rows))


def default_config(name: str, **overrides) -> ExperimentConfig:
    """Desk-scale defaults for the named experiment."""
    fields = {"name": name, "trials": _experiment(name).trials, "master_seed": 20240001}
    fields.update(overrides)
    return ExperimentConfig(**fields)


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Run the named experiment and write ``output_path`` if set."""
    table = _sweep(cfg)
    if cfg.output_path:
        table.write(cfg.output_path)
    return table
