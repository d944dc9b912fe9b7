"""Greedy sparse spectral recovery from compressive training measurements.

Both entry points run the same matching-pursuit loop over the sensing
dictionary A = Phi @ inverse_dft: pick the column most correlated with the
current residual, refit all selected coefficients by least squares, update
the residual.  The loop stops for either entry point once the training
residual reaches its numerical floor (1e-12 of the training norm), or the
best column repeats or is numerically dependent; further picks would only
fit round-off.  Apart from that they differ only in when they stop:

* :func:`omp` runs a fixed number of iterations (the classic algorithm with
  the sparsity level known up front).

* :func:`sasr` consults the held-out testing measurements after every
  iteration and stops as soon as the halting criterion from
  :mod:`widesense.validation` fires, or when the iteration cap
  ``max_sparsity`` is exhausted.  It never sees the true sparsity.

Because the stop rules agree apart from the criterion, SASR's picks are a
prefix of exhaustive OMP's on the same measurements, so an exhaustive
baseline can continue a SASR fit instead of redoing it.

The least-squares refit is maintained incrementally through a thin QR
factorization of the selected columns, so one iteration costs one pass over
the dictionary for the correlations plus O(rows * support) for the update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .sensing import MeasurementSet
from .signals import Spectrum
from .validation import HaltingConfig, halting_rule

__all__ = [
    "RecoveryResult",
    "FourierDictionary",
    "omp",
    "sasr",
]


class FourierDictionary:
    """Matrix-free sensing dictionary ``matrix @ inverse_dft``.

    Correlations A^H g collapse to fft(matrix.T @ g) / n and a single
    column to matrix @ exp(2j pi arange(n) j / n) / n, so pursuit never
    materializes the rows x n complex product.  Only real measurement
    matrices are supported, and every product with the matrix stays in
    real arithmetic: the real and imaginary parts of the residual (or the
    cosine and sine of the column phase) form one two-row real operand, so
    the matrix is never copied to complex.

    Because the matrix is real, column n - j is the conjugate of column j.
    The dictionary keeps the columns it has built and serves a mirror
    request by conjugation; columns 0 and n/2 are their own mirrors and are
    always computed.  One dictionary serves one pursuit, so it holds at most
    one column per pick.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise DimensionError("measurement matrix must be 2-D")
        if np.iscomplexobj(matrix):
            raise ParameterError("FourierDictionary expects a real matrix")
        self.matrix = matrix
        self.shape = matrix.shape
        self._columns: dict[int, np.ndarray] = {}

    def correlations(self, residual: np.ndarray) -> np.ndarray:
        re, im = np.stack([residual.real, residual.imag]) @ self.matrix
        return np.fft.fft(re + 1j * im) / self.shape[1]

    def column(self, j: int) -> np.ndarray:
        n = self.shape[1]
        mirror = -j % n
        if mirror != j and mirror in self._columns:
            return self._columns[mirror].conj()
        angle = (2 * np.pi * j / n) * np.arange(n)
        re, im = np.stack([np.cos(angle), np.sin(angle)]) @ self.matrix.T
        col = (re + 1j * im) / n
        col.flags.writeable = False
        self._columns[j] = col
        return col


class _DenseOps:
    """Adapter giving a dense dictionary the FourierDictionary interface."""

    def __init__(self, dictionary: np.ndarray):
        self.A = dictionary
        self.shape = dictionary.shape

    def correlations(self, residual: np.ndarray) -> np.ndarray:
        return self.A.conj().T @ residual

    def column(self, j: int) -> np.ndarray:
        return self.A[:, j]


def _as_ops(dictionary):
    if isinstance(dictionary, (FourierDictionary, _DenseOps)):
        return dictionary
    dictionary = np.asarray(dictionary)
    if dictionary.ndim != 2:
        raise DimensionError("dictionary must be 2-D")
    return _DenseOps(dictionary)


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one pursuit run.

    ``rho_trace`` holds the validation parameter of the zero estimate
    followed by one entry per pursuit iteration (empty when no testing data
    was consulted), ``residual_trace`` the training residual norm after each
    iteration.  ``halted_by`` is "criterion", "k_max_exhausted", or
    "fixed_k".
    """

    estimate: Spectrum
    support: tuple[int, ...]
    iterations: int
    rho_trace: tuple[float, ...]
    residual_trace: tuple[float, ...]
    halted_by: str
    rank_deficient: bool = False


class _IncrementalFit:
    """Thin-QR least squares over a growing column subset of A."""

    def __init__(self, ops, target: np.ndarray):
        self.ops = ops
        self.y = target.astype(np.complex128)
        rows = ops.shape[0]
        self.Q = np.empty((rows, 0), dtype=np.complex128)
        self.R = np.zeros((0, 0), dtype=np.complex128)
        self.qty = np.empty(0, dtype=np.complex128)
        self.support: list[int] = []
        self.residual = self.y.copy()
        self.residual_norm = float(np.linalg.norm(self.y))
        self.rank_deficient = False

    def try_add(self, j: int) -> bool:
        """Add column j; False, and flagged, when it is numerically dependent."""
        a = self.ops.column(j)
        h1 = self.Q.conj().T @ a
        q = a - self.Q @ h1
        # One re-orthogonalization pass keeps Q orthonormal to round-off.
        h2 = self.Q.conj().T @ q
        q -= self.Q @ h2
        nrm = np.linalg.norm(q)
        if nrm <= 1e-10 * max(np.linalg.norm(a), 1e-300):
            self.rank_deficient = True
            return False
        q /= nrm
        t = len(self.support)
        new_R = np.zeros((t + 1, t + 1), dtype=np.complex128)
        new_R[:t, :t] = self.R
        new_R[:t, t] = h1 + h2
        new_R[t, t] = nrm
        self.R = new_R
        self.Q = np.column_stack([self.Q, q])
        self.qty = np.append(self.qty, q.conj() @ self.y)
        self.support.append(j)
        self.residual = self.y - self.Q @ self.qty
        self.residual_norm = float(np.linalg.norm(self.residual))
        return True

    def coefficients(self) -> np.ndarray:
        if not self.support:
            return np.empty(0, dtype=np.complex128)
        return np.linalg.solve(self.R, self.qty)


def _best_column(ops, residual: np.ndarray) -> int:
    # Ties resolve to the lowest index via argmax.
    return int(np.argmax(np.abs(ops.correlations(residual))))


def _pursue(fit: _IncrementalFit, steps: int):
    """Add up to ``steps`` greedy picks to ``fit``, yielding after each.

    Stops early when the training residual reaches its numerical floor, or
    when the best column repeats or is numerically dependent, which with
    random dictionaries signals the residual has already collapsed to
    numerical noise.  The floor is checked after the yield, so a caller
    still sees the pick that reached it.
    """
    floor = 1e-12 * fit.residual_norm
    for _ in range(steps):
        j = _best_column(fit.ops, fit.residual)
        if j in fit.support or not fit.try_add(j):
            return
        yield
        if fit.residual_norm <= floor:
            return


def _result(fit: _IncrementalFit, rho_trace, residual_trace, halted_by: str) -> RecoveryResult:
    bins = np.zeros(fit.ops.shape[1], dtype=np.complex128)
    if fit.support:
        bins[fit.support] = fit.coefficients()
    return RecoveryResult(
        estimate=Spectrum(bins=bins),
        support=tuple(fit.support),
        iterations=len(fit.support),
        rho_trace=tuple(rho_trace),
        residual_trace=tuple(residual_trace),
        halted_by=halted_by,
        rank_deficient=fit.rank_deficient,
    )


def _check_k(k: int, rows: int) -> None:
    if k < 0:
        raise ParameterError("k must be >= 0")
    if k > rows:
        raise ParameterError(
            f"k = {k} exceeds the {rows} training rows; "
            "the refit would be underdetermined"
        )


def _fixed_k_label(fit: _IncrementalFit, k: int) -> str:
    return "fixed_k" if len(fit.support) == k else "k_max_exhausted"


def omp(training: np.ndarray, dictionary, k: int) -> RecoveryResult:
    """Matching pursuit for exactly ``k`` iterations.

    ``dictionary`` may be a dense array or a :class:`FourierDictionary`.
    Stops early (reported as "k_max_exhausted") only if the training
    residual reaches its numerical floor, or the selected column repeats or
    goes rank deficient.
    """
    training = np.asarray(training, dtype=np.complex128)
    ops = _as_ops(dictionary)
    if ops.shape[0] != training.size:
        raise DimensionError("dictionary rows must match training size")
    _check_k(k, ops.shape[0])
    fit = _IncrementalFit(ops, training)
    residual_trace = [fit.residual_norm for _ in _pursue(fit, k)]
    return _result(fit, (), residual_trace, _fixed_k_label(fit, k))


def sasr(measurements: MeasurementSet, halting: HaltingConfig) -> RecoveryResult:
    """Sparsity-agnostic pursuit halted by the validation criterion.

    After each refit the validation parameter of the current estimate is
    computed on the held-out testing rows and fed to the step's
    :func:`~widesense.validation.halting_rule`.  The true sparsity is never
    consulted; the loop runs until the criterion fires, ``max_sparsity``
    iterations are spent, or the training residual reaches its numerical
    floor.
    """
    return next(_sasr_then_omp(measurements, halting))


def _sasr_then_omp(measurements: MeasurementSet, halting: HaltingConfig):
    """Yield :func:`sasr`'s result, then continue the same pursuit as OMP.

    The second result equals ``omp(measurements.training,
    FourierDictionary(measurements.phi), halting.max_sparsity)`` in every
    field: both fits use the same training vector, dictionary and stop
    rules apart from the criterion, so SASR's picks are a prefix of OMP's,
    and the baseline keeps stepping SASR's pursuit (with its column cache
    and residual trace) instead of redoing those picks.
    """
    A = FourierDictionary(measurements.phi)
    B = FourierDictionary(measurements.psi)
    y = np.asarray(measurements.training, dtype=np.complex128)
    testing = np.asarray(measurements.testing, dtype=np.complex128)
    v_p = len(testing)
    if v_p < 1:
        raise ParameterError("sasr needs at least one testing measurement")
    halts = halting_rule(halting, measurements.phi.shape[1], v_p)
    fit = _IncrementalFit(A, y)
    picks = _pursue(fit, min(halting.max_sparsity, len(y)))
    # The zero estimate may already satisfy the criterion (pure-noise or
    # zero-signal measurements); a zero training vector also leaves the
    # pursuit nothing to do.
    rho_trace = [float(np.abs(testing).sum() / v_p)]
    residual_trace: list[float] = []
    halted_by = "k_max_exhausted"
    if halts(rho_trace[0]):
        halted_by = "criterion"
    elif fit.residual_norm > 0.0:
        testing_columns = np.empty((v_p, 0), dtype=np.complex128)
        for _ in picks:
            testing_columns = np.column_stack([testing_columns, B.column(fit.support[-1])])
            rho_trace.append(float(np.abs(testing - testing_columns @ fit.coefficients()).sum() / v_p))
            residual_trace.append(fit.residual_norm)
            if halts(rho_trace[-1]):
                halted_by = "criterion"
                break
    yield _result(fit, rho_trace, residual_trace, halted_by)
    # SASR caps its picks at the training rows; the baseline, like omp,
    # rejects a cap above them instead.
    k = halting.max_sparsity
    _check_k(k, len(y))
    residual_trace.extend(fit.residual_norm for _ in picks)
    yield _result(fit, (), residual_trace, _fixed_k_label(fit, k))
