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

The dictionary (:class:`FourierDictionary`) holds the measurement matrix
in the spectral domain, as the real-input DFT of each row, so the
correlations of a pick are a real matrix product with no FFT and the
picked column is a read of ``rows`` entries.  The product is one BLAS call
while one trial's spectra take at most 4 MB, and a sum of 32-row slab
products above that (see :class:`FourierDictionary`).  The least-squares
refit is maintained incrementally through a thin QR factorization of the
selected columns, so one iteration costs one pass over the dictionary for
the correlations plus O(rows * support) for the update.  SASR's testing
estimate needs no solve either: with the fit's R, a pick extends
W = Psi_S R^-1 by one row and the estimate W^T Q^H y by one term, so a SASR
pick costs one dictionary pass plus O((rows + v) * support) for v testing
rows.  The factors live in arrays allocated once for the largest support a
run can reach, so a pick copies nothing that earlier picks built.

The loop runs a stack of independent trials that share their dimensions:
every array has a leading trial axis, and a trial retires from the stack
when one of its stop rules fires.  SASR's estimate W, its running testing
estimate and rho gain the same axis: each trial records the size at which
its criterion fired while the stack picks on for the others, and its
result is the prefix of its fit at that size.  :func:`omp` and
:func:`sasr` are the one-trial case of these stacked loops.  The
``phase_transition`` experiment runs its fixed-k trials through the OMP
loop in stacks, and the frame loop (:mod:`widesense.engine`) recovers each
step of a group of trials with one stacked SASR; :func:`_stack_size` sizes
both.  Every stacked product and reduction computes a trial's slice
exactly as a one-trial run does (the slab rule, too, is decided by one
trial's size), so each result is bit for bit independent of the stack it
ran in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, ParameterError
from .signals import Spectrum, _frozen
from .validation import HaltingConfig, halting_rule

if TYPE_CHECKING:
    from .sensing import MeasurementSet

__all__ = [
    "RecoveryResult",
    "FourierDictionary",
    "omp",
    "sasr",
]


# One trial's spectra above this many bytes take the correlations in slabs
# of this many rows.
_SLAB_BOUND = 4_000_000
_SLAB_ROWS = 32

# A stacked pursuit holds about this many bytes of dictionaries, counted by
# one trial's training spectra: enough for the stacked products to pay, and
# few enough that the stack's dictionaries and Q factors add little to a
# run's peak.  At n = 200 a phase_transition stack holds 25, 12, 7, 5, 3 and
# 2 trials at m = 20, 40, 66, 100, 140 and 180; a frame group stacks 25 at
# 20 x 200, 16 at 30 x 200, 4 at 60 x 400, 2 at 60 x 600 and 1 from 90 x 600.
_STACK_BYTES = 810_000


def _stack_size(rows: int, n: int) -> int:
    """Trials stacked in one pursuit over ``rows`` x ``n`` dictionaries: as
    many as one trial's spectra fit :data:`_STACK_BYTES`, at least one."""
    return max(1, _STACK_BYTES // (rows * (n // 2 + 1) * 16))


class FourierDictionary:
    """Sensing dictionary ``matrix @ inverse_dft``, held in the spectral domain.

    For a real (rows, n) measurement matrix the dictionary keeps only
    ``spectra``, the C-contiguous ``np.fft.rfft`` of each row: rows x
    (n // 2 + 1) complex numbers, the bytes of the matrix plus at most 16
    per row.  ``spectra`` may also be a (B, rows, n // 2 + 1) stack of B
    trials' spectra; ``shape`` is the per-trial (rows, n) either way.  For
    a stack, :meth:`correlations` takes a (B, rows) stack of residuals and
    returns (B, n), and :meth:`column` takes one index per trial and returns
    a (B, rows) stack of columns; any other count of residuals or indices
    raises :class:`~widesense.errors.DimensionError`.  A one-trial
    dictionary also takes a lone residual vector or a scalar index.
    :func:`widesense.sensing.draw_operator`
    builds the spectra by row blocks, so the matrix need never be held whole.

    Column j of the dictionary is conj(spectra[:, j]) / n for j <= n / 2
    and spectra[:, n - j] / n above, so a column is a read, and column
    n - j is the conjugate of column j exactly.  Correlations A^H r are a
    real product: the real and imaginary parts of the residual form a
    two-row operand against the spectra viewed as real pairs, giving
    c0 = spectra^T Re r and c1 = spectra^T Im r; bin j < n // 2 + 1 is
    (c0 + i c1)[j] / n and bin j above is conj(c0 - i c1)[n - j] / n.  No
    FFT runs per call.

    While one trial's spectra take at most 4 MB (rows * (n // 2 + 1) * 16
    bytes), the product is one BLAS call.  Above that it is a sum of
    (2, 32) by (32, 2 (n // 2 + 1)) row-slab products, accumulated in one
    buffer: OpenBLAS leaves its small-matrix kernel for packed dgemm once
    M N K exceeds 10^6, which is this bound, and packing a 2-row operand
    only adds memory traffic.  Measured with one thread, slabs take 0.6 to
    0.8 of the single call's time at 320 x 1600 to 1280 x 8000, but 1.2 to
    1.4 times it at 160 x 1000, so dictionaries at or below the bound keep
    the single call and its bits.  The rule reads the per-trial shape,
    never a stack's total bytes, so a stacked product still computes each
    trial's slice exactly as a one-trial product would.
    """

    def __init__(self, spectra: np.ndarray, n: int):
        if spectra.ndim not in (2, 3) or spectra.shape[-1] != n // 2 + 1:
            raise DimensionError(f"spectra {spectra.shape} are not the rfft of rows of length {n}")
        self.spectra = _frozen(spectra)
        self.shape = (spectra.shape[-2], n)
        self.trials = 1 if spectra.ndim == 2 else len(spectra)
        # Views that every call would otherwise rebuild.
        self._real = self.spectra.view(np.float64)
        self._stack = self.spectra.reshape((self.trials, *spectra.shape[-2:]))
        self._trials = np.arange(self.trials)

    def correlations(self, residual: np.ndarray) -> np.ndarray:
        count = len(residual) if residual.ndim > 1 else 1
        if count != self.trials:
            raise DimensionError(f"{count} residuals for a dictionary of {self.trials} trials")
        (rows, n), h = self.shape, self.spectra.shape[-1]
        operand = np.empty((*residual.shape[:-1], 2, rows))
        operand[..., 0, :], operand[..., 1, :] = residual.real, residual.imag
        if rows * h * 16 <= _SLAB_BOUND:
            parts = operand @ self._real
        else:
            # A sum of row-slab products, accumulated in place.
            parts = np.matmul(operand[..., :_SLAB_ROWS], self._real[..., :_SLAB_ROWS, :])
            slab = np.empty_like(parts)
            for lo in range(_SLAB_ROWS, rows, _SLAB_ROWS):
                hi = lo + _SLAB_ROWS
                np.matmul(operand[..., lo:hi], self._real[..., lo:hi, :], out=slab)
                parts += slab
        parts = parts.view(np.complex128)
        c0, c1 = parts[..., 0, :], parts[..., 1, :]
        ic1 = 1j * c1
        out = np.empty((*residual.shape[:-1], n), dtype=np.complex128)
        np.add(c0, ic1, out=out[..., :h])
        # Only the n - h bins above the kept half, mirrored from 1 .. n - h.
        mirror = out[..., h:]
        np.subtract(c0[..., n - h:0:-1], ic1[..., n - h:0:-1], out=mirror)
        np.conjugate(mirror, out=mirror)
        out /= n
        return out

    def column(self, j) -> np.ndarray:
        n = self.shape[1]
        picks = np.reshape(j, -1)
        if len(picks) != self.trials:
            raise DimensionError(
                f"{len(picks)} column indices for a dictionary of {self.trials} trials")
        cols = self._stack[self._trials, :, np.minimum(picks, n - picks)]
        cols /= n
        np.conjugate(cols, out=cols, where=(picks <= n // 2)[:, None])
        return cols if np.ndim(j) else cols[0]


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


def _project(Q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Q^H a per trial, for a (B, t, rows) basis stack and (B, rows) vectors.

    Taken as conj(Q @ conj(a)), so no product needs a conjugate copy of Q.
    """
    return (Q @ a.conj()[:, :, None])[:, :, 0].conj()


def _combine(h: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The combination h @ Q of each trial's basis rows: (B, t) by (B, t, rows)."""
    return (h[:, None, :] @ Q)[:, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Row norms of a (B, rows) complex stack.

    One BLAS dot product per row, so a row's norm has the same bits in a
    stack of any size (``np.linalg.norm(x, axis=-1)`` differs in the last
    bits from the norm of the row alone).
    """
    return np.sqrt(np.vecdot(x, x).real)


class _IncrementalFit:
    """Thin-QR least squares over a growing column subset of A, per trial.

    Every array has a leading trial axis and room for ``capacity`` columns,
    allocated once: Q holds one orthonormal basis vector per row, R the
    triangular factor, ``qty`` the projections Q^H y, ``support`` the
    picked columns (``picked`` flags them by index) and ``trace`` the
    training residual norm after each.  ``active`` marks the trials still
    being extended; they all hold ``size`` columns, and a retired trial
    keeps the ``sizes`` it reached.  Each pick writes the whole stack: a
    retired trial's slots past its size take unit columns of R and are
    never read.  ``all_active`` says, without a NumPy call, that no trial
    has retired.
    """

    def __init__(self, ops, targets: np.ndarray, capacity: int):
        self.ops = ops
        self.y = np.ascontiguousarray(targets, dtype=np.complex128)
        trials, rows = self.y.shape
        self.Q = np.zeros((trials, capacity, rows), dtype=np.complex128)
        self.R = np.zeros((trials, capacity, capacity), dtype=np.complex128)
        self.qty = np.zeros((trials, capacity), dtype=np.complex128)
        self.support = np.zeros((trials, capacity), dtype=np.intp)
        self.picked = np.zeros((trials, ops.shape[1]), dtype=bool)
        self._trials = np.arange(trials)
        self.trace = np.zeros((trials, capacity))
        self.size = 0
        self.sizes = np.zeros(trials, dtype=np.intp)
        self.residual = self.y
        self.residual_norm = _norms(self.y)
        self.rank_deficient = np.zeros(trials, dtype=bool)
        self.active = np.ones(trials, dtype=bool)
        self.all_active = True

    def add(self, picks: np.ndarray) -> bool:
        """Add column ``picks[b]`` to each active trial b.

        A trial whose pick repeats, or is numerically dependent (flagged in
        ``rank_deficient``), retires instead.  False when none is left.
        """
        t = self.size
        self.active &= ~self.picked[self._trials, picks]
        if not self.active.any():
            return False
        a = self.ops.column(picks)
        Q = self.Q[:, :t]
        h = _project(Q, a)
        q = a - _combine(h, Q)
        # One re-orthogonalization pass keeps Q orthonormal to round-off.
        h2 = _project(Q, q)
        q -= _combine(h2, Q)
        h += h2
        nrm = _norms(q)
        dependent = self.active & (nrm <= 1e-10 * _norms(a))
        if dependent.any():
            self.rank_deficient |= dependent
            self.active &= ~dependent
        live = np.count_nonzero(self.active)
        if not live:
            return False
        self.all_active = live == len(self.active)
        if not self.all_active:
            # Unit columns of R keep a retired trial's unread slots finite.
            h[~self.active] = 0.0
            nrm[~self.active] = 1.0
        q /= nrm[:, None]
        self.Q[:, t] = q
        self.R[:, :t, t] = h
        self.R[:, t, t] = nrm
        self.support[:, t] = picks
        self.picked[self._trials, picks] = True
        self.qty[:, t] = np.vecdot(q, self.y)
        self.residual = self.y - _combine(self.qty[:, :t + 1], self.Q[:, :t + 1])
        self.residual_norm = self.trace[:, t] = _norms(self.residual)
        self.size = t + 1
        self.sizes[self.active] = self.size
        return True

    def coefficients(self, b: int, size: int) -> np.ndarray:
        """Trial b's coefficients on its first ``size`` picks, solved from
        R's leading block, which later picks leave as it is."""
        return np.linalg.solve(self.R[b, :size, :size], self.qty[b, :size])


def _pursue(fit: _IncrementalFit, steps: int):
    """Add up to ``steps`` greedy picks to each trial of ``fit``, yielding
    after each; at a yield ``fit.active`` marks the trials that just added
    a column.

    A trial retires when its training residual reaches its numerical floor,
    or when its best column repeats or is numerically dependent, which with
    random dictionaries signals the residual has already collapsed to
    numerical noise.  The floor is checked after the yield, so a caller
    still sees the pick that reached it.
    """
    floor = 1e-12 * fit.residual_norm
    for _ in range(steps):
        # Ties resolve to the lowest index via argmax.
        picks = np.argmax(np.abs(fit.ops.correlations(fit.residual)), axis=-1)
        if not fit.add(picks):
            return
        yield
        fit.active &= fit.residual_norm > floor
        if not np.count_nonzero(fit.active):
            return


def _result(fit: _IncrementalFit, b: int, size: int, rho_trace, halted_by: str,
            rank_deficient: bool) -> RecoveryResult:
    """Trial b's result at its first ``size`` picks."""
    support = fit.support[b, :size]
    bins = np.zeros(fit.ops.shape[1], dtype=np.complex128)
    if size:
        bins[support] = fit.coefficients(b, size)
    return RecoveryResult(
        estimate=Spectrum(bins=bins),
        support=tuple(support.tolist()),
        iterations=int(size),
        rho_trace=tuple(rho_trace),
        residual_trace=tuple(fit.trace[b, :size].tolist()),
        halted_by=halted_by,
        rank_deficient=bool(rank_deficient),
    )


def _check_k(k: int, rows: int) -> None:
    if k < 0:
        raise ParameterError("k must be >= 0")
    if k > rows:
        raise ParameterError(
            f"k = {k} exceeds the {rows} training rows; "
            "the refit would be underdetermined"
        )


def _omp_results(fit: _IncrementalFit, k: int) -> list[RecoveryResult]:
    """Each trial's fixed-k result once ``fit`` has run its pursuit out."""
    return [_result(fit, b, size, (), "fixed_k" if size == k else "k_max_exhausted",
                    fit.rank_deficient[b])
            for b, size in enumerate(fit.sizes)]


def omp(training: np.ndarray, dictionary, k: int) -> RecoveryResult:
    """Matching pursuit for exactly ``k`` iterations.

    ``dictionary`` is one trial's :class:`FourierDictionary`, or any object
    with its ``shape``, ``trials``, ``correlations`` and ``column``.
    Stops early (reported as "k_max_exhausted") only if the training
    residual reaches its numerical floor, or the selected column repeats or
    goes rank deficient.
    """
    training = np.asarray(training, dtype=np.complex128)
    if dictionary.trials != 1:
        raise DimensionError("omp takes one trial's dictionary, not a stack")
    if dictionary.shape[0] != training.size:
        raise DimensionError("dictionary rows must match training size")
    _check_k(k, dictionary.shape[0])
    return _omp_batch(dictionary, training[None], k)[0]


def _omp_batch(dictionary, training: np.ndarray, k: int) -> list[RecoveryResult]:
    """:func:`omp` on each trial of a stack, in one pursuit.

    ``training`` is (B, rows) and ``dictionary`` holds the B trials'
    dictionaries: a stacked :class:`FourierDictionary`, or any object with
    its ``shape``, ``trials``, ``correlations`` and ``column``.  Each result
    equals the one-trial :func:`omp` run of its trial bit for bit.
    """
    fit = _IncrementalFit(dictionary, training, k)
    for _ in _pursue(fit, k):
        pass
    return _omp_results(fit, k)


def sasr(measurements: MeasurementSet, halting: HaltingConfig) -> RecoveryResult:
    """Sparsity-agnostic pursuit halted by the validation criterion.

    After each refit the validation parameter of the current estimate is
    computed on the held-out testing rows and fed to the step's
    :func:`~widesense.validation.halting_rule`.  The true sparsity is never
    consulted; the loop runs until the criterion fires, ``max_sparsity``
    iterations are spent, or the training residual reaches its numerical
    floor.
    """
    ms = measurements
    return next(_sasr_then_omp(ms.training[None], ms.testing[None], ms.phi, ms.psi, halting))[0]


def _sasr_then_omp(training: np.ndarray, testing: np.ndarray, phi, psi,
                   halting: HaltingConfig):
    """Yield :func:`sasr`'s result for each trial of a stack, then continue
    the same pursuit as OMP and yield its results.

    ``training`` (B, rows) and ``testing`` (B, v) are B trials'
    measurements, and ``phi`` and ``psi`` their stacked dictionaries; the
    trials share n, v and so the halting rule, which is resolved once.
    Each trial computes rho until its criterion fires and records that
    size, while the stack keeps picking for the trials still running.  Its
    SASR result is the prefix of its fit at that size, so each result
    equals its trial's one-trial run bit for bit.  The second results equal
    ``omp(training[b], phi, halting.max_sparsity)`` for each trial b in
    every field: both fits use the same training vector, dictionary and
    stop rules apart from the criterion, so SASR's picks are a prefix of
    OMP's, and the baseline keeps stepping SASR's pursuit (with its factors
    and residual norms) instead of redoing those picks.
    """
    testing = np.asarray(testing, dtype=np.complex128)
    trials, v_p = testing.shape
    if v_p < 1:
        raise ParameterError("sasr needs at least one testing measurement")
    rows = phi.shape[0]
    halts = halting_rule(halting, phi.shape[1], v_p)
    capacity = min(halting.max_sparsity, rows)
    fit = _IncrementalFit(phi, training, capacity)
    picks = _pursue(fit, capacity)
    rho = np.empty((trials, capacity + 1))
    rho[:, 0] = np.abs(testing).sum(axis=-1) / v_p
    # The zero estimate may already satisfy the criterion (pure-noise or
    # zero-signal measurements); a zero training vector also leaves the
    # pursuit nothing to do.
    halted = np.zeros(trials, dtype=bool)
    halted |= halts(rho[:, 0])
    started = ~halted & (fit.residual_norm > 0.0)
    sizes = np.zeros(trials, dtype=np.intp)
    live = started.copy()
    if np.count_nonzero(live):
        # The testing estimate Psi_S R^-1 Q^H y, kept without a solve: row i
        # of W is column i of Psi_S R^-1, which later picks never change, so
        # pick t adds one row (the bordered inverse of R) and one term.
        W = np.empty((trials, capacity, v_p), dtype=np.complex128)
        estimate = np.zeros((trials, v_p), dtype=np.complex128)
        for _ in picks:
            if not fit.all_active:
                live &= fit.active
                if not np.count_nonzero(live):
                    break
            t = fit.size
            w = W[:, t - 1]
            np.subtract(psi.column(fit.support[:, t - 1]),
                        (fit.R[:, None, :t - 1, t - 1] @ W[:, :t - 1])[:, 0], out=w)
            w /= fit.R[:, t - 1, t - 1, None]
            estimate += fit.qty[:, t - 1, None] * w
            rho[:, t] = rho_t = np.abs(testing - estimate).sum(axis=-1) / v_p
            fired = halts(rho_t) & live
            if np.count_nonzero(fired):
                halted |= fired
                sizes[fired] = t
                live &= ~fired
                if not np.count_nonzero(live):
                    break
    # A trial that ran out of picks stopped where it left the fit; it was
    # active at every pick before, so its rank flag is the one it left with.
    ran_out = started & ~halted
    sizes[ran_out] = fit.sizes[ran_out]
    rank_deficient = fit.rank_deficient & ran_out
    yield [_result(fit, b, size, rho[b, :size + 1].tolist(),
                   "criterion" if halted[b] else "k_max_exhausted", rank_deficient[b])
           for b, size in enumerate(sizes)]
    # SASR caps its picks at the training rows; the baseline, like omp,
    # rejects a cap above them instead.
    k = halting.max_sparsity
    _check_k(k, rows)
    for _ in picks:
        pass
    yield _omp_results(fit, k)
