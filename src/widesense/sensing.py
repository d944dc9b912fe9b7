"""Sub-Nyquist acquisition: random matrices, noise, and row bookkeeping.

Measurements are linear projections y = Phi @ x of the Nyquist samples of the
current observation window, with Phi drawn fresh per step from a Gaussian or
symmetric Bernoulli ensemble with unit-variance entries.  Rows are split into
a training set (drives recovery) and a held-out testing set (drives
validation); the two use separate matrices Phi and Psi so validation stays
independent of the fit.

Additive receiver noise is circular complex with per-quadrature standard
deviation ``noise_std``, i.e. each entry is std * (g1 + 1j * g2) with g1, g2
independent standard normals.  The modulus of such an entry is Rayleigh with
mean sqrt(pi/2) * std and variance (2 - pi/2) * std**2, which is what the
noisy-halting calibration assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .signals import TimeSeries, _frozen

__all__ = [
    "RandomMatrixSpec",
    "MeasurementSet",
    "draw_matrix",
    "acquire",
]

_DISTRIBUTIONS = ("gaussian_standard", "bernoulli_symmetric")


@dataclass(frozen=True)
class RandomMatrixSpec:
    """Shape, ensemble and seed of one measurement matrix draw."""

    rows: int
    cols: int
    distribution: str = "gaussian_standard"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ParameterError("matrix dimensions must be positive")
        if self.rows > self.cols:
            raise ParameterError(
                f"rows ({self.rows}) must not exceed cols ({self.cols}): "
                "measurement matrices compress, they do not expand"
            )
        if self.distribution not in _DISTRIBUTIONS:
            raise ParameterError(
                f"unknown distribution {self.distribution!r}; pick one of {_DISTRIBUTIONS}"
            )


def draw_matrix(spec: RandomMatrixSpec) -> np.ndarray:
    """Realize the matrix described by ``spec``; same spec, same matrix."""
    rng = np.random.default_rng(spec.seed)
    if spec.distribution == "gaussian_standard":
        return rng.standard_normal((spec.rows, spec.cols))
    return rng.integers(0, 2, size=(spec.rows, spec.cols)).astype(np.float64) * 2.0 - 1.0


@dataclass(frozen=True)
class MeasurementSet:
    """One step's worth of compressive measurements.

    ``step_index`` is the number of slots observed so far (p) and
    ``step_nyquist_count`` the Nyquist samples per slot (N), so phi has
    p * N columns.  The record keeps a read-only view of each array it is
    given, not a copy.
    """

    training: np.ndarray
    testing: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    noise_std: float
    step_index: int
    step_nyquist_count: int

    def __post_init__(self) -> None:
        if self.noise_std < 0:
            raise ParameterError("noise_std must be >= 0")
        if self.step_index < 1:
            raise ParameterError("step_index must be >= 1")
        n_cols = self.step_index * self.step_nyquist_count
        if self.phi.shape != (len(self.training), n_cols):
            raise DimensionError(
                f"phi shape {self.phi.shape} does not match "
                f"({len(self.training)}, {n_cols})"
            )
        if self.psi.shape != (len(self.testing), n_cols):
            raise DimensionError(
                f"psi shape {self.psi.shape} does not match "
                f"({len(self.testing)}, {n_cols})"
            )
        for name in ("training", "testing", "phi", "psi"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def total_measurements(self) -> int:
        return len(self.training) + len(self.testing)

    @property
    def spectrum_length(self) -> int:
        return self.step_index * self.step_nyquist_count


def acquire(
    x_p: TimeSeries,
    phi: np.ndarray,
    psi: np.ndarray,
    noise_std: float = 0.0,
    noise_seed: int = 0,
    step_index: int = 1,
) -> MeasurementSet:
    """Project the window through (phi, psi) and add receiver noise.

    Training noise is drawn before testing noise from one stream keyed by
    ``noise_seed``, so a fixed seed reproduces the measurement set exactly.
    The record keeps read-only views of ``phi`` and ``psi``, not copies.
    """
    samples = np.asarray(x_p.samples)
    if phi.ndim != 2 or psi.ndim != 2 or phi.shape[1] != samples.size or psi.shape[1] != samples.size:
        raise DimensionError(
            f"phi {phi.shape} / psi {psi.shape} incompatible with window length {samples.size}"
        )
    if samples.size % step_index:
        raise ParameterError(
            f"window length {samples.size} is not a multiple of step_index {step_index}"
        )
    training = phi @ samples
    testing = psi @ samples
    if noise_std > 0.0:
        rng = np.random.default_rng(noise_seed)
        r, v = len(training), len(testing)
        training = training + noise_std * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
        testing = testing + noise_std * (rng.standard_normal(v) + 1j * rng.standard_normal(v))
    else:
        training = training.astype(np.complex128)
        testing = testing.astype(np.complex128)
    return MeasurementSet(
        training=training,
        testing=testing,
        phi=phi,
        psi=psi,
        noise_std=float(noise_std),
        step_index=step_index,
        step_nyquist_count=samples.size // step_index,
    )
