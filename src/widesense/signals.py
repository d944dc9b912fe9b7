"""Multiband test signals and spectral utilities.

A primary transmission occupies a small part of a wide band [0, W] Hz.  Two
generator families are provided:

* :class:`WidebandSignalSpec` describes a sum of band-limited pulses,

      x(t) = sum_l sqrt(E_l) * B_l * sinc(B_l (t - alpha)) * cos(2 pi f_l (t - alpha)),

  with sinc(u) = sin(pi u) / (pi u).  Each subband l has received power
  scaling E_l, bandwidth B_l and centre frequency f_l; alpha is a common
  time offset.  The pulse is observed through a rectangular window, so its
  sampled spectrum carries side-lobe leakage.

* :class:`GridSpectrumSpec` describes a stationary multitone signal whose
  tones sit exactly on the frequency grid of a single sensing slot.  Its
  spectrum stays strictly sparse at every observation length that is a
  multiple of one slot, which makes it the reference input for recovery
  benchmarks where the sparsity level is a controlled variable.

Each spec's ``from_dict`` builds it from the ``signal`` object of a parsed
JSON config, rejecting unknown and missing keys by name.

Spectra follow NumPy's DFT convention: the forward transform is
unnormalized and the inverse carries the 1/n factor, so the spectrum of n
samples has sqrt(n) times their norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, ParameterError, check_fields, check_keys, check_value

__all__ = [
    "SubbandSpec",
    "WidebandSignalSpec",
    "GridTone",
    "GridSpectrumSpec",
    "TimeSeries",
    "Spectrum",
    "synthesize_signal",
    "synthesize_grid_signal",
    "signal_time_series",
    "random_grid_spectrum",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; no data is copied, and ``a`` stays writable."""
    out = np.asarray(a).view()
    out.setflags(write=False)
    return out


# Wire keys of a subband in signal JSON: power, bandwidth, centre frequency.
_SUBBAND_KEYS = ("E", "B_hz", "fc_hz")


def _grid_list(name: str, value, length: int) -> list:
    """``value``, once it is a JSON list of ``length`` items."""
    if not isinstance(value, list) or len(value) != length:
        raise InvalidSpecError(
            f"grid spectrum {name} must be a list of {length} values, got {value!r}")
    return value


@dataclass(frozen=True)
class SubbandSpec:
    """One occupied subband (linear power scaling, Hz)."""

    power: float
    bandwidth: float
    center_frequency: float

    def __post_init__(self) -> None:
        check_fields("subband", self)
        if self.power < 0:
            raise InvalidSpecError(f"subband power must be >= 0, got {self.power}")
        if self.bandwidth < 0:
            raise InvalidSpecError(f"bandwidth must be >= 0, got {self.bandwidth}")

    @property
    def low_edge(self) -> float:
        return self.center_frequency - self.bandwidth / 2.0

    @property
    def high_edge(self) -> float:
        return self.center_frequency + self.bandwidth / 2.0


@dataclass(frozen=True)
class WidebandSignalSpec:
    """Band-limited pulse mixture over [0, total_bandwidth] Hz.

    Subbands must fit inside the monitored band and must not overlap.  The
    Nyquist rate defaults to twice the monitored bandwidth.
    """

    total_bandwidth: float
    subbands: tuple[SubbandSpec, ...]
    time_offset: float = 0.0
    nyquist_rate: float | None = None

    def __post_init__(self) -> None:
        check_fields("signal", self)
        if self.total_bandwidth <= 0:
            raise InvalidSpecError("total_bandwidth must be positive")
        object.__setattr__(self, "subbands", tuple(self.subbands))
        rate = self.nyquist_rate
        if rate is None:
            rate = 2.0 * self.total_bandwidth
        if rate < 2.0 * self.total_bandwidth * (1.0 - 1e-12):
            raise InvalidSpecError(
                f"nyquist_rate {rate} is below twice the monitored bandwidth"
            )
        object.__setattr__(self, "nyquist_rate", float(rate))
        edges = []
        for sb in self.subbands:
            if sb.low_edge < -1e-9 * self.total_bandwidth or sb.high_edge > self.total_bandwidth * (1 + 1e-12):
                raise InvalidSpecError(
                    f"subband [{sb.low_edge:g}, {sb.high_edge:g}] Hz falls outside "
                    f"[0, {self.total_bandwidth:g}]"
                )
            edges.append((sb.low_edge, sb.high_edge))
        edges.sort()
        for (lo1, hi1), (lo2, hi2) in zip(edges, edges[1:]):
            if lo2 < hi1 - 1e-9 * self.total_bandwidth:
                raise InvalidSpecError(
                    f"subbands overlap: [{lo1:g}, {hi1:g}] and [{lo2:g}, {hi2:g}]"
                )

    @classmethod
    def from_dict(cls, raw) -> "WidebandSignalSpec":
        """The spec of a parsed ``signal`` config object."""
        check_keys("signal", raw, ("W_hz", "subbands", "alpha_s", "nyquist_hz"),
                   ("W_hz", "subbands"))
        check_value("signal", "subbands", raw["subbands"], list)
        for d in raw["subbands"]:
            check_keys("subband", d, _SUBBAND_KEYS, _SUBBAND_KEYS)
        return cls(
            total_bandwidth=raw["W_hz"],
            subbands=tuple(SubbandSpec(d["E"], d["B_hz"], d["fc_hz"]) for d in raw["subbands"]),
            time_offset=raw.get("alpha_s", 0.0),
            nyquist_rate=raw.get("nyquist_hz"),
        )


@dataclass(frozen=True)
class GridTone:
    """A single real tone at ``bin_index`` cycles per slot."""

    bin_index: int
    amplitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        check_fields("tone", self)


@dataclass(frozen=True)
class GridSpectrumSpec:
    """Multitone signal aligned with the slot-length frequency grid.

    ``reference_length`` is the number of Nyquist samples in one slot; a tone
    with ``bin_index`` m contributes ``amplitude * cos(2 pi m n / N + phase)``.
    Over p concatenated slots its spectrum occupies exactly the two mirrored
    bins p*m and p*N - p*m, so the occupied-bin count does not grow with p.

    ``background_level`` adds a white Gaussian floor of that standard
    deviation to every Nyquist sample, drawn deterministically from
    ``background_seed`` so longer synthesis windows extend shorter ones.
    """

    reference_length: int
    nyquist_rate: float
    tones: tuple[GridTone, ...]
    background_level: float = 0.0
    background_seed: int = 0

    def __post_init__(self) -> None:
        check_fields("grid spectrum", self)
        if self.reference_length < 2:
            raise InvalidSpecError("reference_length must be at least 2")
        if self.nyquist_rate <= 0:
            raise InvalidSpecError("nyquist_rate must be positive")
        if self.background_level < 0:
            raise InvalidSpecError("background_level must be nonnegative")
        if self.background_seed < 0:
            raise InvalidSpecError("background_seed must be nonnegative")
        object.__setattr__(self, "tones", tuple(self.tones))
        seen = set()
        for tone in self.tones:
            if not 0 < tone.bin_index < self.reference_length / 2:
                raise InvalidSpecError(
                    f"tone bin {tone.bin_index} must lie strictly inside "
                    f"(0, {self.reference_length // 2})"
                )
            if tone.bin_index in seen:
                raise InvalidSpecError(f"duplicate tone bin {tone.bin_index}")
            seen.add(tone.bin_index)

    @classmethod
    def from_dict(cls, raw) -> "GridSpectrumSpec":
        """The spec of a parsed ``signal`` config object."""
        check_keys("grid spectrum", raw, ("reference_length", "nyquist_hz", "tones", "background"),
                   ("reference_length", "nyquist_hz", "tones"))
        check_value("grid spectrum", "tones", raw["tones"], list)
        tones = tuple(GridTone(*_grid_list("tone", tone, 3)) for tone in raw["tones"])
        background = _grid_list("background", raw["background"], 2) if "background" in raw else ()
        return cls(raw["reference_length"], raw["nyquist_hz"], tones, *background)


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled signal segment."""

    samples: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ParameterError("sample rate must be positive")
        object.__setattr__(self, "samples", _frozen(np.asarray(self.samples)))


@dataclass(frozen=True)
class Spectrum:
    """DFT bins; ``bin_resolution`` is the bin spacing in Hz when known."""

    bins: np.ndarray
    bin_resolution: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bins", _frozen(np.asarray(self.bins)))


def _integer_count(value: float, name: str) -> int:
    count = round(value)
    if abs(value - count) > 1e-6 * max(1.0, abs(value)) or count <= 0:
        raise InvalidSpecError(f"{name} = {value} is not a positive integer sample count")
    return int(count)


def synthesize_signal(spec: WidebandSignalSpec, duration: float) -> TimeSeries:
    """Nyquist samples of the pulse mixture over [0, duration).

    Deterministic given the spec; the sample count duration * nyquist_rate
    must come out integer.
    """
    rate = spec.nyquist_rate
    n = _integer_count(duration * rate, "duration * nyquist_rate")
    t = np.arange(n) / rate - spec.time_offset
    x = np.zeros(n)
    for sb in spec.subbands:
        if sb.bandwidth == 0.0 or sb.power == 0.0:
            continue
        x += (
            math.sqrt(sb.power)
            * sb.bandwidth
            * np.sinc(sb.bandwidth * t)
            * np.cos(2.0 * math.pi * sb.center_frequency * t)
        )
    return TimeSeries(samples=x, rate=rate)


def synthesize_grid_signal(spec: GridSpectrumSpec, duration: float) -> TimeSeries:
    """Nyquist samples of the multitone signal over [0, duration)."""
    rate = spec.nyquist_rate
    n = _integer_count(duration * rate, "duration * nyquist_rate")
    base = np.arange(n) * (2.0 * math.pi / spec.reference_length)
    x = np.zeros(n)
    for tone in spec.tones:
        x += tone.amplitude * np.cos(tone.bin_index * base + tone.phase)
    if spec.background_level > 0.0:
        floor_rng = np.random.default_rng(spec.background_seed)
        x += spec.background_level * floor_rng.standard_normal(n)
    return TimeSeries(samples=x, rate=rate)


def signal_time_series(spec, duration: float) -> TimeSeries:
    """Synthesize either signal family for ``duration`` seconds."""
    if isinstance(spec, WidebandSignalSpec):
        return synthesize_signal(spec, duration)
    if isinstance(spec, GridSpectrumSpec):
        return synthesize_grid_signal(spec, duration)
    raise InvalidSpecError(f"unsupported signal spec type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Random scenario builder used by the experiment harness and tests.
# ---------------------------------------------------------------------------


def random_grid_spectrum(
    rng: np.random.Generator,
    reference_length: int,
    nyquist_rate: float,
    sparsity: int,
    n_groups: int,
    *,
    noise_power: float = 1.0,
    amplitude_scale: float = 1.0,
    background_level: float = 0.0,
) -> GridSpectrumSpec:
    """Draw a multitone spec with ``sparsity`` occupied bins in ``n_groups``
    contiguous bands.

    Each group carries one power level with power / noise_power uniform in dB
    over [7, 25]; every tone in a group has amplitude
    ``amplitude_scale * sqrt(2 * group_power)`` and a random phase.  A nonzero
    ``background_level`` attaches a white sample floor with a seed drawn from
    ``rng``.
    """
    if sparsity % 2:
        raise ParameterError("sparsity counts mirrored bins and must be even")
    n_tones = sparsity // 2
    if n_groups < 1 or n_tones < n_groups:
        raise ParameterError("need at least one tone per group")
    half = reference_length // 2
    sizes = [n_tones // n_groups] * n_groups
    for i in range(n_tones % n_groups):
        sizes[i] += 1
    if sum(sizes) + 2 * n_groups >= half:
        raise ParameterError("groups do not fit below the Nyquist bin")

    # Random disjoint placement of contiguous groups in (0, half), with at
    # least one empty bin between neighbouring groups.
    free = half - 1 - sum(sizes) - (n_groups - 1)
    offsets = np.sort(rng.integers(0, free + 1, size=n_groups))
    tones = []
    for i, (size, off) in enumerate(zip(sizes, offsets)):
        begin = 1 + int(off) + sum(sizes[:i]) + i
        group_power = noise_power * 10.0 ** (rng.uniform(7.0, 25.0) / 10.0)
        amp = amplitude_scale * math.sqrt(2.0 * group_power)
        for m in range(begin, begin + size):
            tones.append(GridTone(bin_index=m, amplitude=amp, phase=float(rng.uniform(0, 2 * math.pi))))
    return GridSpectrumSpec(
        reference_length=reference_length,
        nyquist_rate=nyquist_rate,
        tones=tuple(tones),
        background_level=background_level,
        background_seed=int(rng.integers(0, 2**32)) if background_level > 0 else 0,
    )
