"""Sub-Nyquist acquisition: random matrices, noise, and row bookkeeping.

Measurements are linear projections y = Phi @ x of the Nyquist samples of the
current observation window, with Phi drawn fresh per step from the standard
Gaussian ensemble.  Rows are split into a training set (drives recovery) and
a held-out testing set (drives validation); the two use separate matrices Phi
and Psi so validation stays independent of the fit.

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
    "MeasurementSet",
    "draw_matrix",
    "acquire",
]


def draw_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Standard normal ``rows`` x ``cols`` matrix; same seed, same matrix."""
    return np.random.default_rng(seed).standard_normal((rows, cols))


@dataclass(frozen=True)
class MeasurementSet:
    """One step's worth of compressive measurements.

    phi and psi share one column count, the Nyquist length of the observed
    window.  The record keeps a read-only view of each array it is given,
    not a copy.
    """

    training: np.ndarray
    testing: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self) -> None:
        n_cols = self.phi.shape[-1]
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


def acquire(
    x_p: TimeSeries,
    phi: np.ndarray,
    psi: np.ndarray,
    noise_std: float = 0.0,
    noise_seed: int = 0,
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
    if noise_std < 0:
        raise ParameterError("noise_std must be >= 0")
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
    return MeasurementSet(training=training, testing=testing, phi=phi, psi=psi)
