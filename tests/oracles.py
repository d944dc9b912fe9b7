"""Reference solvers and statistics the tests compare the package against.

They are exact but slow (dense dictionaries, support enumeration, a fresh
inverse DFT per call), so the package itself never calls them.
:class:`DenseDictionary` lets the package's pursuit run over a dense
dictionary, for comparison with these solvers, and
:func:`fourier_dictionary` builds the package's own dictionary from a whole
matrix, which the package never holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from widesense.errors import DimensionError, ParameterError
from widesense.recovery import FourierDictionary
from widesense.signals import Spectrum


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
