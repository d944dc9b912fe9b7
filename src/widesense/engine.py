"""Sequential sensing frames: sample step by step, halt early, detect bands.

A frame divides its sensing budget into steps of length ``time_step``.  Each
step extends the observation window, acquires fresh compressive measurements
of the longer signal, and reruns sparsity-agnostic recovery.  The frame
halts as soon as the validation criterion fires, banking the remaining
steps for data transmission; if the budget runs out first the outcome
carries a recommendation to raise the sampling rate next frame.

One private generator is the frame loop: each step synthesises its window,
draws its matrices and noise from seeds of its own, acquires and recovers,
with BLAS on one thread (:func:`~widesense.rng.pin_blas_threads`), so that
outcomes do not depend on the BLAS thread count.
No step depends on another, so :func:`run_frame` skips the steps where the
halting rule cannot fire (too few testing rows for ``min_testing``) but the
last: a closed step cannot halt the frame, so the outcome is unchanged.
:func:`iter_frame_steps` runs every step and yields each with its window.

Spectral occupancy decisions come from per-band energy detection on the
final estimate.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidSpecError, ParameterError, check_fields, check_value, from_fields
from .recovery import RecoveryResult, sasr
from .rng import pin_blas_threads, stream_seed, substreams
from .sensing import acquire
from .signals import (
    GridSpectrumSpec,
    Spectrum,
    WidebandSignalSpec,
    signal_time_series,
    _integer_count,
)
from .validation import HaltingConfig, can_halt

__all__ = [
    "FrameConfig",
    "DetectorConfig",
    "BandDecision",
    "SensingOutcome",
    "max_steps",
    "iter_frame_steps",
    "run_frame",
    "energy_detect",
    "calibrate_lambda",
    "uniform_bands",
]


@dataclass(frozen=True)
class FrameConfig:
    """Timing and sampling-rate layout of one periodic sensing frame."""

    frame_length: float
    min_transmission: float
    time_step: float
    nyquist_rate: float
    sub_nyquist_rate: float
    testing_per_step: int

    def __post_init__(self) -> None:
        check_fields("frame", self)
        for name in ("frame_length", "min_transmission", "time_step",
                     "nyquist_rate", "sub_nyquist_rate"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if self.sub_nyquist_rate >= self.nyquist_rate:
            raise ParameterError("sub_nyquist_rate must stay below nyquist_rate")
        # Both per-step sample counts must come out integer.
        _integer_count(self.nyquist_rate * self.time_step,
                       "nyquist_rate * time_step")
        _integer_count(self.sub_nyquist_rate * self.time_step,
                       "sub_nyquist_rate * time_step")
        if self.frame_length - self.min_transmission < self.time_step * (1 - 1e-9):
            raise ParameterError(
                "frame must leave room for at least one sensing step"
            )
        if self.testing_per_step < 1:
            raise ParameterError("testing_per_step must be >= 1")
        if self.testing_per_step >= self.measurements_per_step:
            raise ParameterError(
                "testing_per_step must leave at least one training row per step"
            )

    @property
    def nyquist_per_step(self) -> int:
        return _integer_count(self.nyquist_rate * self.time_step, "N")

    @property
    def measurements_per_step(self) -> int:
        return _integer_count(self.sub_nyquist_rate * self.time_step, "M_1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "FrameConfig":
        return from_fields(cls, "frame", raw)


@dataclass(frozen=True)
class DetectorConfig:
    """Energy-detection bands (Hz intervals) and the shared threshold."""

    bands: tuple[tuple[float, float], ...]
    threshold: float

    def __post_init__(self) -> None:
        check_fields("detector", self)
        if self.threshold <= 0:
            raise ParameterError("detection threshold must be positive")
        if not isinstance(self.bands, (list, tuple)) or not self.bands:
            raise ParameterError("detector needs a non-empty list of bands")
        clean = []
        for band in self.bands:
            if not isinstance(band, (list, tuple)) or len(band) != 2:
                raise ParameterError(f"band {band!r} is not a (low, high) pair")
            low, high = band
            check_value("detector band", "low", low, float)
            check_value("detector band", "high", high, float)
            low, high = float(low), float(high)
            if low < 0 or high <= low:
                raise ParameterError(f"invalid band ({low}, {high})")
            clean.append((low, high))
        object.__setattr__(self, "bands", tuple(clean))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "DetectorConfig":
        return from_fields(cls, "detector", raw)


@dataclass(frozen=True)
class BandDecision:
    low: float
    high: float
    energy: float
    decision: str  # "H0" or "H1"


@dataclass(frozen=True)
class SensingOutcome:
    """What one sensing frame produced."""

    halted: bool
    steps_used: int
    estimate: Spectrum
    recovery: RecoveryResult
    per_band_decisions: tuple[BandDecision, ...]
    saved_slots: int
    recommend_rate_increase: bool

    def occupied_bands(self) -> tuple[tuple[float, float], ...]:
        return tuple((d.low, d.high) for d in self.per_band_decisions
                     if d.decision == "H1")

    def to_json(self) -> str:
        bins = self.estimate.bins
        support = np.flatnonzero(bins != 0)
        payload = {
            "halted": self.halted,
            "steps_used": self.steps_used,
            "saved_slots": self.saved_slots,
            "recommend_rate_increase": self.recommend_rate_increase,
            "iterations": self.recovery.iterations,
            "halted_by": self.recovery.halted_by,
            "spectrum_length": len(bins),
            "spectrum_support": support.tolist(),
            "spectrum_values": [[float(bins[j].real), float(bins[j].imag)]
                                for j in support],
            "decisions": [
                {"low": d.low, "high": d.high, "energy": d.energy,
                 "decision": d.decision}
                for d in self.per_band_decisions
            ],
        }
        return json.dumps(payload)


def max_steps(frame: FrameConfig) -> int:
    """Largest step count leaving ``min_transmission`` for data."""
    budget = (frame.frame_length - frame.min_transmission) / frame.time_step
    return int(math.floor(budget + 1e-9))


def _check_spec(spec, frame: FrameConfig) -> None:
    if not isinstance(spec, (WidebandSignalSpec, GridSpectrumSpec)):
        raise InvalidSpecError(f"unsupported signal spec {type(spec).__name__}")
    if not math.isclose(spec.nyquist_rate, frame.nyquist_rate, rel_tol=1e-9):
        raise InvalidSpecError("signal nyquist_rate differs from the frame's")
    if isinstance(spec, GridSpectrumSpec) and spec.reference_length != frame.nyquist_per_step:
        raise InvalidSpecError(
            "grid spectrum reference_length must equal the per-step Nyquist count"
        )


def _frame_steps(spec, frame: FrameConfig, halting: HaltingConfig,
                 master_seed: int, skip_closed: bool):
    """The frame loop: yield ``(p, window, measurements, recovery)`` per step.

    With ``skip_closed`` a step before the last is not run at all where
    :func:`~widesense.validation.can_halt` denies its testing rows.  The caller's
    BLAS thread count holds while the generator is suspended.
    """
    _check_spec(spec, frame)
    v = frame.testing_per_step
    p_max = max_steps(frame)
    delta = halting.noise_std if halting.mode == "noisy" else 0.0
    for p in range(1, p_max + 1):
        if skip_closed and p < p_max and not can_halt(halting, v * p):
            continue
        with pin_blas_threads():
            window = signal_time_series(spec, p * frame.time_step)
            ms = acquire(window, (frame.measurements_per_step - v) * p, v * p,
                         stream_seed(master_seed, "phi", p), stream_seed(master_seed, "psi", p),
                         noise_std=delta, noise_seed=stream_seed(master_seed, "noise", p))
            recovery = sasr(ms, halting)
        yield p, window, ms, recovery
        if recovery.halted_by == "criterion":
            return


def iter_frame_steps(spec, frame: FrameConfig, halting: HaltingConfig,
                     master_seed: int):
    """Yield ``(p, window, measurements, recovery)`` per step until halt or budget.

    ``window`` is the time series the step acquires, the signal over its
    first ``p`` steps.  Matrices are drawn fresh each step (standard
    normal), with per-step noise when the halting mode is "noisy"; the
    generator stops after the step whose recovery halts on the criterion.
    """
    yield from _frame_steps(spec, frame, halting, master_seed, False)


def run_frame(spec, frame: FrameConfig, halting: HaltingConfig,
              detector: DetectorConfig, master_seed: int) -> SensingOutcome:
    """Run one complete sensing frame and decide band occupancy.

    The outcome is the one the last step of :func:`iter_frame_steps`
    gives, but only the steps where the halting rule can fire, and the last
    of the budget, are run; the skipped slots still count as spent.
    """
    p_max = max_steps(frame)
    for p, _, _, recovery in _frame_steps(spec, frame, halting, master_seed, True):
        pass
    halted = recovery.halted_by == "criterion"
    bins = recovery.estimate.bins
    estimate = Spectrum(bins=bins,
                        bin_resolution=frame.nyquist_rate / len(bins))
    decisions = []
    for low, high in detector.bands:
        energy, decision = energy_detect(estimate, (low, high),
                                         detector.threshold)
        decisions.append(BandDecision(low=low, high=high, energy=energy,
                                      decision=decision))
    return SensingOutcome(
        halted=halted,
        steps_used=p,
        estimate=estimate,
        recovery=recovery,
        per_band_decisions=tuple(decisions),
        saved_slots=p_max - p,
        recommend_rate_increase=not halted,
    )


def energy_detect(estimate: Spectrum, band, threshold: float):
    """Energy of the estimate inside ``band`` and the H0/H1 decision.

    Bin i of an n-bin spectrum represents the frequency min(i, n - i)
    times the bin resolution, so a band collects each bin and its mirror.
    Decision is "H1" only for energy strictly above the threshold.
    """
    if threshold <= 0:
        raise ParameterError("detection threshold must be positive")
    if estimate.bin_resolution is None:
        raise ParameterError("estimate needs a bin_resolution for detection")
    low, high = float(band[0]), float(band[1])
    if low < 0 or high <= low:
        raise ParameterError(f"invalid band ({low}, {high})")
    bins = estimate.bins
    n = len(bins)
    idx = np.arange(n)
    freqs = np.minimum(idx, n - idx) * estimate.bin_resolution
    sel = (freqs >= low) & (freqs <= high)
    if not sel.any():
        warnings.warn(
            f"band ({low:.6g}, {high:.6g}) Hz contains no spectrum bins",
            UserWarning,
            stacklevel=2,
        )
        return 0.0, "H0"
    energy = float(np.sum(np.abs(bins[sel]) ** 2))
    return energy, "H1" if energy > threshold else "H0"


def uniform_bands(total_bandwidth: float, count: int):
    """``count`` equal-width contiguous bands covering [0, total_bandwidth]."""
    check_value("uniform bands", "count", count, int)
    if total_bandwidth <= 0 or count < 1:
        raise ParameterError("need positive bandwidth and at least one band")
    edges = np.linspace(0.0, total_bandwidth, count + 1)
    return tuple((float(edges[i]), float(edges[i + 1])) for i in range(count))


def calibrate_lambda(frame: FrameConfig, halting: HaltingConfig, bands,
                     false_alarm: float, trials: int,
                     master_seed: int) -> float:
    """Detection threshold holding the false-alarm rate on noise-only frames.

    Runs ``trials`` frames against a zero signal, pools the per-band
    energies of the final estimates, and returns the (1 - false_alarm)
    quantile.  Sparse estimates leave most energies exactly zero; when the
    quantile lands there, half the smallest positive energy is returned so
    the threshold stays positive and still clears the observed noise floor.
    """
    check_value("calibration", "false_alarm", false_alarm, float)
    check_value("calibration", "trials", trials, int)
    check_value("calibration", "master_seed", master_seed, int)
    if not 0.0 < false_alarm < 1.0:
        raise ParameterError("false_alarm must lie in (0, 1)")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if halting.mode != "noisy":
        raise ParameterError("lambda calibration needs a noisy halting mode")
    spec = GridSpectrumSpec(reference_length=frame.nyquist_per_step,
                            nyquist_rate=frame.nyquist_rate, tones=())
    # Threshold value is irrelevant during calibration; reuse a dummy one.
    detector = DetectorConfig(bands=bands, threshold=1.0)
    energies = []
    for seed in substreams(master_seed, "calibrate", np.arange(trials)).seeds.tolist():
        outcome = run_frame(spec, frame, halting, detector, seed)
        energies.extend(d.energy for d in outcome.per_band_decisions)
    energies = np.asarray(energies)
    lam = float(np.quantile(energies, 1.0 - false_alarm, method="higher"))
    if lam <= 0.0:
        positive = energies[energies > 0]
        lam = float(positive.min() / 2) if positive.size else 1e-12
    return lam
