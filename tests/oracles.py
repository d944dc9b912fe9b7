"""Reference solvers, transforms and formulas for the tests.

The solvers and statistics are exact but slow (dense dictionaries, support
enumeration, a fresh inverse DFT per call), so the package itself never
calls them.  :class:`DenseDictionary` lets the package's pursuit run over a
dense dictionary, for comparison with these solvers, and
:func:`fourier_dictionary` builds the package's own dictionary from a whole
matrix, which the package never holds.

The rest are paper formulas that no command runs: the DFT pair
(:func:`dft`, :func:`idft`) on the package's records, and the noisy
criterion's testing budget (:func:`testing_size_noisy`) with its inverse,
the accuracy reachable at a given budget
(:func:`accuracy_from_confidence`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from widesense.errors import DimensionError, ParameterError
from widesense.recovery import FourierDictionary
from widesense.signals import Spectrum, TimeSeries
from widesense.validation import FOUR_MINUS_PI


def dft(ts: TimeSeries) -> Spectrum:
    """Unnormalized forward DFT of the samples."""
    return Spectrum(bins=np.fft.fft(ts.samples), bin_resolution=ts.rate / len(ts.samples))


def idft(spectrum: Spectrum, rate: float | None = None) -> TimeSeries:
    """Inverse DFT (1/n convention); real output is returned as float."""
    n = len(spectrum.bins)
    if n == 0:
        raise DimensionError("cannot invert an empty spectrum")
    x = np.fft.ifft(spectrum.bins)
    scale = np.max(np.abs(x))
    if scale == 0.0 or np.max(np.abs(x.imag)) <= 1e-12 * scale:
        x = x.real
    if rate is None:
        if spectrum.bin_resolution is not None:
            rate = spectrum.bin_resolution * n
        else:
            rate = float(n)
    return TimeSeries(samples=x, rate=rate)


def testing_size_noisy(theta: float, delta: float, failure_prob: float) -> int:
    """Testing rows for the noisy criterion to fire with miss rate <= failure_prob.

    At noise level delta and accuracy theta the budget is

        v_p = ceil( ln(2 / failure_prob) ((4 - pi) delta^2 + 2 theta delta) / theta^2 ),

    the least v_p at which the package's ``confidence_floor_noisy`` reaches
    1 - failure_prob.
    """
    if theta <= 0 or delta <= 0:
        raise ParameterError("theta and delta must be positive")
    if not 0.0 < failure_prob < 2.0:
        raise ParameterError("failure_prob must lie in (0, 2)")
    num = math.log(2.0 / failure_prob) * (FOUR_MINUS_PI * delta * delta + 2.0 * theta * delta)
    return math.ceil(num / (theta * theta))


def accuracy_from_confidence(failure_prob: float, delta: float, v_p: int) -> float:
    """Smallest accuracy theta achievable at (failure_prob, v_p).

    The positive root of the quadratic

        v_p theta^2 - (1/2) L delta theta - (4 - pi) L delta^2 = 0,

    with L = ln(2 / failure_prob).
    """
    if not 0.0 < failure_prob < 2.0:
        raise ParameterError("failure_prob must lie in (0, 2)")
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if v_p < 1:
        raise ParameterError("v_p must be >= 1")
    log_term = math.log(2.0 / failure_prob)
    disc = log_term * log_term + 16.0 * FOUR_MINUS_PI * log_term * v_p
    return (log_term * delta + delta * math.sqrt(disc)) / (4.0 * v_p)


def validation_parameter(testing: np.ndarray, psi: np.ndarray, estimate) -> float:
    """Mean modulus of the testing residual V - Psi @ idft(Xhat)."""
    bins = estimate.bins if isinstance(estimate, Spectrum) else np.asarray(estimate)
    testing = np.asarray(testing)
    if psi.ndim != 2 or psi.shape != (testing.size, bins.size):
        raise DimensionError(
            f"psi shape {psi.shape} incompatible with testing size {testing.size} "
            f"and spectrum length {bins.size}"
        )
    if testing.size == 0:
        raise ParameterError("validation needs at least one testing measurement")
    predicted = psi @ np.fft.ifft(bins)
    return float(np.abs(testing - predicted).sum() / testing.size)


def sensing_dictionary(matrix: np.ndarray) -> np.ndarray:
    """Columns of ``matrix @ inverse_dft`` without forming the dense DFT.

    Row i of the result is the inverse DFT of row i of ``matrix``, so the
    product with a spectrum X equals matrix @ idft(X).  Cost is one FFT per
    row instead of an n-by-n matrix product.
    """
    if matrix.ndim != 2:
        raise DimensionError("measurement matrix must be two-dimensional")
    return np.fft.ifft(matrix, axis=1)


def fourier_dictionary(matrix) -> FourierDictionary:
    """The dictionary of a real (rows, n) matrix, or of a (B, rows, n) stack."""
    return FourierDictionary(np.fft.rfft(matrix, axis=-1), np.shape(matrix)[-1])


class DenseDictionary:
    """A dense dictionary, or a (trials, rows, n) stack of them, with the
    interface :func:`widesense.recovery.omp` pursues over: ``shape``,
    ``trials``, ``correlations`` and ``column``, as
    :class:`widesense.recovery.FourierDictionary` has them."""

    def __init__(self, dictionary):
        dictionary = np.asarray(dictionary)
        if dictionary.ndim not in (2, 3):
            raise DimensionError("dictionary must be 2-D, or a 3-D stack of trials")
        self.A = dictionary.astype(np.complex128)
        self.shape = dictionary.shape[-2:]
        self.trials = 1 if dictionary.ndim == 2 else len(dictionary)

    def correlations(self, residual: np.ndarray) -> np.ndarray:
        return (residual[..., None, :] @ self.A.conj())[..., 0, :]

    def column(self, j) -> np.ndarray:
        stack = self.A.reshape((-1, *self.shape))
        cols = np.take_along_axis(stack, np.reshape(j, (-1, 1, 1)), axis=-1)[..., 0]
        return cols if np.ndim(j) else cols[0]


@dataclass(frozen=True)
class LeastSquaresInfo:
    rank: int
    rank_deficient: bool
    residual_norm: float


def least_squares_on_support(
    training: np.ndarray,
    dictionary: np.ndarray,
    support,
    return_info: bool = False,
):
    """Least-squares spectrum estimate confined to ``support``.

    Rank-deficient column subsets fall back to the minimum-norm solution and
    are flagged in the optional :class:`LeastSquaresInfo`.
    """
    training = np.asarray(training)
    if dictionary.ndim != 2 or dictionary.shape[0] != training.size:
        raise DimensionError(
            f"dictionary shape {dictionary.shape} incompatible with "
            f"{training.size} training rows"
        )
    support = list(support)
    n = dictionary.shape[1]
    if any(not 0 <= j < n for j in support):
        raise ParameterError("support indices out of range")
    if len(set(support)) != len(support):
        raise ParameterError("support indices must be distinct")
    bins = np.zeros(n, dtype=np.complex128)
    if not support:
        info = LeastSquaresInfo(0, False, float(np.linalg.norm(training)))
        est = Spectrum(bins=bins)
        return (est, info) if return_info else est
    coef, _, rank, _ = np.linalg.lstsq(dictionary[:, support], training, rcond=None)
    bins[support] = coef
    resid = float(np.linalg.norm(training - dictionary[:, support] @ coef))
    info = LeastSquaresInfo(int(rank), int(rank) < len(support), resid)
    est = Spectrum(bins=bins)
    return (est, info) if return_info else est


def brute_force_l0(training: np.ndarray, dictionary: np.ndarray, k: int) -> Spectrum:
    """Exact sparse solve by support enumeration; tiny problems only.

    Scans all supports of size 0..k and returns the least-squares solution
    with the smallest training residual; ties go to the lexicographically
    first support.  Guarded to n <= 24 columns and k <= 3.
    """
    training = np.asarray(training, dtype=np.complex128)
    if dictionary.ndim != 2 or dictionary.shape[0] != training.size:
        raise DimensionError("dictionary rows must match training size")
    n = dictionary.shape[1]
    if n > 24 or k > 3:
        raise ParameterError("brute force is limited to n <= 24 and k <= 3")
    if k < 0:
        raise ParameterError("k must be >= 0")
    best_resid = float(np.linalg.norm(training))
    best: Spectrum = Spectrum(bins=np.zeros(n, dtype=np.complex128))
    for size in range(1, k + 1):
        for support in itertools.combinations(range(n), size):
            coef, _, _, _ = np.linalg.lstsq(dictionary[:, support], training, rcond=None)
            resid = float(np.linalg.norm(training - dictionary[:, support] @ coef))
            if resid < best_resid * (1.0 - 1e-12):
                best_resid = resid
                bins = np.zeros(n, dtype=np.complex128)
                bins[list(support)] = coef
                best = Spectrum(bins=bins)
    return best
