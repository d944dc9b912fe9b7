"""Sub-Nyquist acquisition: random matrices, noise, and row bookkeeping.

Measurements are linear projections y = Phi @ x of the Nyquist samples of the
current observation window, with Phi drawn fresh per step from the standard
Gaussian ensemble.  Rows are split into a training set (drives recovery) and
a held-out testing set (drives validation); the two use separate matrices Phi
and Psi so validation stays independent of the fit.

A matrix is never held whole: :func:`draw_operator` draws it by blocks of
``_BLOCK_ROWS`` rows from one generator, projects each block and writes the
block's real-input DFT into the recovery dictionary
(:class:`~widesense.recovery.FourierDictionary`), which takes the same bytes
as the matrix.  The blocks follow one another in the generator's stream, so
the numbers are those of one draw of the whole matrix.

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
from .recovery import FourierDictionary
from .signals import TimeSeries, _frozen

__all__ = [
    "MeasurementSet",
    "draw_matrix",
    "draw_operator",
    "acquire",
]

# Rows of a matrix drawn, projected and transformed at a time.  A multiple
# of 4, so that with OpenBLAS on one thread the blocked projection has the
# bits of the whole matrix-vector product.
_BLOCK_ROWS = 64


def draw_matrix(rows: int, cols: int, seed) -> np.ndarray:
    """Standard normal ``rows`` x ``cols`` matrix; same seed, same matrix.

    ``seed`` is an integer or a ``numpy.random.Generator``, which the draw
    advances.
    """
    return np.random.default_rng(seed).standard_normal((rows, cols))


def draw_operator(samples: np.ndarray, rows: int, seed,
                  measurements: np.ndarray | None = None,
                  spectra: np.ndarray | None = None):
    """Project ``samples`` through a fresh Gaussian matrix held only as spectra.

    Returns ``(measurements, dictionary)`` for ``phi = draw_matrix(rows, n,
    seed)``: ``phi @ samples`` and the dictionary of ``np.fft.rfft(phi,
    axis=-1)``, while at most ``_BLOCK_ROWS`` rows of phi exist at a time.
    The spectra are equal bit for bit, and so are the measurements with BLAS
    on one thread.  ``samples`` is a real (n,) window, or (n, 2) for the
    real and imaginary parts of a complex one.  ``measurements`` and
    ``spectra`` may be passed in preallocated, such as one trial's slice of
    a stack, and are filled in place.
    """
    gen = np.random.default_rng(seed)
    n = len(samples)
    if measurements is None:
        measurements = np.empty((rows, *samples.shape[1:]))
    if spectra is None:
        spectra = np.empty((rows, n // 2 + 1), dtype=np.complex128)
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows)
        block = draw_matrix(stop - start, n, gen)
        np.matmul(block, samples, out=measurements[start:stop])
        np.fft.rfft(block, axis=-1, out=spectra[start:stop])
        # Free the block before the next draw, not after it.
        del block
    return measurements, FourierDictionary(spectra, n)


def _receiver_noise(rng: np.random.Generator, rows: int, std: float) -> np.ndarray:
    """``rows`` entries of receiver noise std * (g1 + 1j * g2), drawn from
    ``rng`` as all the real parts, then all the imaginary parts."""
    return std * (rng.standard_normal(rows) + 1j * rng.standard_normal(rows))


@dataclass(frozen=True)
class MeasurementSet:
    """One step's worth of compressive measurements.

    ``phi`` and ``psi`` are the one-trial dictionaries of the training and
    testing matrices; they share one column count, the Nyquist length of
    the observed window (``phi.shape[1]``).  The record keeps a read-only
    view of each measurement vector it is given, not a copy.
    """

    training: np.ndarray
    testing: np.ndarray
    phi: FourierDictionary
    psi: FourierDictionary

    def __post_init__(self) -> None:
        for name in ("phi", "psi"):
            ops = getattr(self, name)
            if not isinstance(ops, FourierDictionary) or ops.trials != 1:
                raise DimensionError(f"{name} must be a one-trial FourierDictionary")
        n_cols = self.phi.shape[1]
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
        for name in ("training", "testing"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def acquire(
    x_p: TimeSeries,
    training_rows: int,
    testing_rows: int,
    phi_seed,
    psi_seed,
    noise_std: float = 0.0,
    noise_seed: int = 0,
) -> MeasurementSet:
    """Project the window through fresh Gaussian (phi, psi) and add receiver noise.

    Phi (``training_rows`` rows) is drawn from ``phi_seed`` and psi
    (``testing_rows`` rows) from ``psi_seed``, each an integer or a
    ``numpy.random.Generator``; one generator passed as both draws phi
    first.  Training noise is drawn before testing noise from one stream
    keyed by ``noise_seed``, so fixed seeds reproduce the measurement set
    exactly.
    """
    samples = np.asarray(x_p.samples)
    if np.iscomplexobj(samples):
        raise ParameterError("acquire expects a real window")
    if noise_std < 0:
        raise ParameterError("noise_std must be >= 0")
    training, phi = draw_operator(samples, training_rows, phi_seed)
    testing, psi = draw_operator(samples, testing_rows, psi_seed)
    if noise_std > 0.0:
        rng = np.random.default_rng(noise_seed)
        training = training + _receiver_noise(rng, len(training), noise_std)
        testing = testing + _receiver_noise(rng, len(testing), noise_std)
    else:
        training = training.astype(np.complex128)
        testing = testing.astype(np.complex128)
    return MeasurementSet(training=training, testing=testing, phi=phi, psi=psi)
