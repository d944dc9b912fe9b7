import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import (DenseDictionary, brute_force_l0, fourier_dictionary,
                     least_squares_on_support, sensing_dictionary, validation_parameter)
from widesense import recovery
from widesense.errors import CriterionUnsatisfiableWarning, DimensionError, ParameterError
from widesense.recovery import FourierDictionary, _omp_batch, _sasr_then_omp, omp, sasr
from widesense.sensing import MeasurementSet, acquire
from widesense.signals import GridSpectrumSpec, GridTone, synthesize_grid_signal
from widesense.validation import HaltingConfig


def _sparse_problem(seed=42, rows=60, n=200):
    """Exactly sparse grid signal plus fresh Gaussian (phi, psi)."""
    spec = GridSpectrumSpec(
        n,
        float(n),
        tuple(GridTone(m, 1.0 + 0.1 * i, 0.3 * i) for i, m in enumerate((7, 23, 41, 66))),
    )
    x = synthesize_grid_signal(spec, 1.0)
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((rows, n))
    psi = rng.standard_normal((110, n))
    return x, phi, psi


def _sparse_measurements(seed=42, testing=110, **noise):
    """The signal of :func:`_sparse_problem` acquired through its phi and
    the first ``testing`` rows of its psi: acquire draws phi, then psi,
    from the one generator it is given."""
    x, _, _ = _sparse_problem(seed)
    rng = np.random.default_rng(seed)
    return x, acquire(x, 60, testing, rng, rng, **noise)


def _noiseless_halting(**kw):
    base = dict(mode="noiseless", max_sparsity=20, error_threshold=1.0, confidence_factor=0.2)
    base.update(kw)
    return HaltingConfig(**base)


class TestFourierDictionary:
    def test_rejects_vector(self):
        with pytest.raises(DimensionError):
            FourierDictionary(np.zeros(5, dtype=complex), 8)

    def test_correlations_match_dense(self):
        rng = np.random.default_rng(0)
        wide = rng.standard_normal((6, 64))
        complex_residual = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        real_residual = rng.standard_normal(6)
        # a contiguous matrix and a strided view, each against a complex
        # and a real-valued residual
        for phi in (wide[:, :32], wide[:, ::2]):
            dense = sensing_dictionary(phi)
            ops = fourier_dictionary(phi)
            for residual in (complex_residual, real_residual):
                np.testing.assert_allclose(ops.correlations(residual),
                                           dense.conj().T @ residual, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [24, 25])
    def test_mirror_columns_are_exact_conjugates(self, n):
        # Computed afresh, column n - j equals conjugated column j exactly
        # (the real columns 0 and n / 2 only up to the sign of a zero), so
        # serving a mirror from the kept column changes no value.
        phi = np.random.default_rng(3).standard_normal((5, n))
        for j in range(n):
            direct = fourier_dictionary(phi).column(-j % n)
            mirrored = fourier_dictionary(phi).column(j).conj()
            assert np.array_equal(direct, mirrored), j
            ops = fourier_dictionary(phi)
            ops.column(j)
            assert np.array_equal(ops.column(-j % n), mirrored), j

    @pytest.mark.parametrize("n", [24, 25])
    def test_every_bin_matches_the_oracle(self, n):
        # One trial and a (3, rows, n) stack, over every bin: 0, n / 2 for
        # even n, and the upper half that mirrors the bins below it.
        rng = np.random.default_rng(n)
        stack = rng.standard_normal((3, 5, n))
        residuals = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        dense = np.stack([sensing_dictionary(phi) for phi in stack])
        single, stacked = fourier_dictionary(stack[0]), fourier_dictionary(stack)
        expected = np.stack([a.conj().T @ r for a, r in zip(dense, residuals)])
        np.testing.assert_allclose(single.correlations(residuals[0]), expected[0],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked.correlations(residuals), expected, rtol=0, atol=1e-12)
        for j in range(n):
            np.testing.assert_allclose(single.column(j), dense[0, :, j], rtol=0, atol=1e-12)
            picks = (j + np.arange(3) * (n // 2)) % n
            np.testing.assert_allclose(stacked.column(picks), dense[np.arange(3), :, picks],
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [24, 25])
    def test_scalar_and_array_columns_agree(self, n):
        # A scalar index and a one-element index array give the same bits
        # for every bin, 0, n / 2 and the mirrors included, and a stack's
        # column b is its slice b's.
        stacked = fourier_dictionary(np.random.default_rng(n + 1).standard_normal((3, 5, n)))
        slices = [FourierDictionary(spectra, n) for spectra in stacked.spectra]
        single = fourier_dictionary(np.random.default_rng(n + 2).standard_normal((5, n)))
        for j in range(n):
            for ops in (single, *slices):
                assert np.array_equal(ops.column(j), ops.column(np.array([j]))[0]), j
            assert np.array_equal(stacked.column(np.full(3, j)),
                                  [ops.column(j) for ops in slices]), j

    def test_holds_the_spectra_it_is_given(self):
        spectra = np.fft.rfft(np.random.default_rng(6).standard_normal((4, 25)))
        ops = FourierDictionary(spectra, 25)
        assert (ops.shape, ops.trials) == ((4, 25), 1)
        assert np.shares_memory(ops.spectra, spectra) and not ops.spectra.flags.writeable
        with pytest.raises(DimensionError):
            FourierDictionary(spectra, 26)

    @pytest.mark.parametrize("method", ["correlations", "column"])
    def test_products_do_not_copy_the_matrix(self, method):
        rng = np.random.default_rng(5)
        phi = rng.standard_normal((400, 2000))
        ops = fourier_dictionary(phi)
        residual = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        arg = residual if method == "correlations" else 7
        tracemalloc.start()
        try:
            getattr(ops, method)(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < phi.nbytes / 4

    # 330 rows in 32-row slabs end in a short slab of 10; at n = 1601 one
    # trial's spectra take 330 * 801 * 16 bytes, above the slab bound.
    SLAB_ROWS, SLAB_N = 330, 1601

    def _above_the_bound(self, trials=None):
        rng = np.random.default_rng(12)
        shape = (self.SLAB_ROWS, self.SLAB_N) if trials is None else (
            trials, self.SLAB_ROWS, self.SLAB_N)
        phi = rng.standard_normal(shape)
        ops = fourier_dictionary(phi)
        assert self.SLAB_ROWS * (self.SLAB_N // 2 + 1) * 16 > recovery._SLAB_BOUND
        assert self.SLAB_ROWS % recovery._SLAB_ROWS
        return rng, phi, ops

    def test_slab_correlations_match_dense(self):
        rng, phi, ops = self._above_the_bound()
        dense = sensing_dictionary(phi).conj().T
        for residual in (rng.standard_normal(self.SLAB_ROWS)
                         + 1j * rng.standard_normal(self.SLAB_ROWS),
                         rng.standard_normal(self.SLAB_ROWS)):
            expected = dense @ residual
            np.testing.assert_allclose(ops.correlations(residual), expected, rtol=0,
                                       atol=1e-12 * np.abs(expected).max())

    def test_slab_correlations_of_a_real_residual_mirror_exactly(self):
        rng, _, ops = self._above_the_bound()
        c = ops.correlations(rng.standard_normal(self.SLAB_ROWS))
        n, h = self.SLAB_N, self.SLAB_N // 2 + 1
        assert np.array_equal(c[h:], np.conj(c[n - h:0:-1]))

    def test_slab_stack_equals_its_slices(self):
        rng, phi, stacked = self._above_the_bound(trials=2)
        residuals = (rng.standard_normal((2, self.SLAB_ROWS))
                     + 1j * rng.standard_normal((2, self.SLAB_ROWS)))
        slices = [fourier_dictionary(matrix).correlations(r) for matrix, r in zip(phi, residuals)]
        assert np.array_equal(stacked.correlations(residuals), slices)

    def test_a_stack_of_small_trials_keeps_the_whole_product(self, monkeypatch):
        # Four 160 x 1000 trials hold 5.1 MB together but 1.3 MB each, so the
        # per-trial bound keeps them on the whole product.
        rng = np.random.default_rng(13)
        stacked = fourier_dictionary(rng.standard_normal((4, 160, 1000)))
        assert stacked.spectra.nbytes > recovery._SLAB_BOUND
        residuals = rng.standard_normal((4, 160)) + 1j * rng.standard_normal((4, 160))
        got = stacked.correlations(residuals)
        monkeypatch.setattr(recovery, "_SLAB_BOUND", np.inf)
        assert np.array_equal(got, stacked.correlations(residuals))
        # Slabs would have moved some bits, so the check above has teeth.
        monkeypatch.setattr(recovery, "_SLAB_BOUND", 0)
        assert not np.array_equal(got, stacked.correlations(residuals))


class TestOmp:
    def test_recovers_exact_sparse_spectrum(self):
        x, phi, _ = _sparse_problem()
        y = (phi @ x.samples).astype(complex)
        result = omp(y, fourier_dictionary(phi), 8)
        truth = np.fft.fft(x.samples)
        assert result.halted_by == "fixed_k"
        assert result.iterations == 8
        err = np.linalg.norm(result.estimate.bins - truth) / np.linalg.norm(truth)
        assert err < 1e-10

    def test_invariants_along_the_run(self):
        """Residual norms never increase; the refit residual is orthogonal
        to every selected column; support grows one distinct index at a time."""
        rng = np.random.default_rng(1)
        A = rng.standard_normal((30, 80))
        y = (A @ rng.standard_normal(80)).astype(complex)
        result = omp(y, DenseDictionary(A), 12)
        trace = result.residual_trace
        assert len(trace) == 12
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
        assert len(set(result.support)) == len(result.support) == 12
        resid = y - A @ result.estimate.bins
        gram = np.abs(A[:, list(result.support)].conj().T @ resid)
        assert np.max(gram) < 1e-8 * np.linalg.norm(y)

    def test_operator_and_dense_agree(self):
        x, phi, _ = _sparse_problem(seed=7)
        y = (phi @ x.samples).astype(complex)
        via_ops = omp(y, fourier_dictionary(phi), 8)
        via_dense = omp(y, DenseDictionary(sensing_dictionary(phi)), 8)
        assert set(via_ops.support) == set(via_dense.support)
        assert np.allclose(via_ops.estimate.bins, via_dense.estimate.bins, atol=1e-8)

    def test_k_zero_returns_zero_estimate(self):
        result = omp(np.ones(4, dtype=complex), DenseDictionary(np.eye(4)), 0)
        assert result.support == ()
        assert result.halted_by == "fixed_k"
        assert np.all(result.estimate.bins == 0)

    def test_training_size_must_match_rows(self):
        ops = fourier_dictionary(np.random.default_rng(14).standard_normal((6, 16)))
        with pytest.raises(DimensionError, match="dictionary rows must match training size"):
            omp(np.ones(5, dtype=complex), ops, 2)

    def test_k_bounds(self):
        with pytest.raises(ParameterError):
            omp(np.ones(4, dtype=complex), DenseDictionary(np.eye(4)), -1)
        with pytest.raises(ParameterError):
            omp(np.ones(4, dtype=complex), DenseDictionary(np.eye(4)), 5)

    def test_strided_training_vector(self):
        x, phi, _ = _sparse_problem(seed=3)
        wide = np.zeros((60, 2), dtype=complex)
        wide[:, 0] = phi @ x.samples
        strided = wide[:, 0]
        assert not strided.flags.c_contiguous
        _assert_same_result(omp(strided, fourier_dictionary(phi), 8),
                            omp(strided.copy(), fourier_dictionary(phi), 8))

    def test_collapsed_residual_stops_early(self):
        # two proportional columns: the second pick is rank deficient
        a = np.ones(4)
        y = np.array([1, 1, 1, 2], dtype=complex)
        result = omp(y, DenseDictionary(np.column_stack([a, 2 * a])), 2)
        assert result.halted_by == "k_max_exhausted"
        assert result.support == (1,)
        assert result.rank_deficient

    def test_exact_fit_stops_at_the_residual_floor(self):
        # the first pick fits y exactly, so no dependent pick is tried
        a = np.ones(4)
        result = omp(a.astype(complex), DenseDictionary(np.column_stack([a, 2 * a])), 2)
        assert result.halted_by == "k_max_exhausted"
        assert result.support == (1,)
        assert not result.rank_deficient

    def test_exact_sparse_spectrum_stops_at_the_floor(self):
        x, phi, _ = _sparse_problem()
        y = (phi @ x.samples).astype(complex)
        capped = omp(y, fourier_dictionary(phi), 20)
        exact = omp(y, fourier_dictionary(phi), 8)
        assert capped.halted_by == "k_max_exhausted"
        assert capped.iterations == 8
        assert capped.support == exact.support
        assert capped.estimate.bins.tobytes() == exact.estimate.bins.tobytes()

    def test_repeated_pick_stops_early(self):
        a = np.ones(4)
        A = np.column_stack([a, a, np.array([1.0, -1.0, 1.0, -1.0])])
        result = omp(a.astype(complex), DenseDictionary(A), 3)
        assert result.halted_by == "k_max_exhausted"
        assert result.support == (0,)
        assert not result.rank_deficient

    def test_rho_trace_empty_without_testing_data(self):
        result = omp(np.ones(4, dtype=complex), DenseDictionary(np.eye(4)), 2)
        assert result.rho_trace == ()


class TestLeastSquaresOnSupport:
    def test_exact_fit(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((10, 6))
        y = A[:, [1, 3]] @ np.array([2.0, -1.0])
        est, info = least_squares_on_support(y, A, [1, 3], return_info=True)
        assert est.bins[1] == pytest.approx(2.0)
        assert est.bins[3] == pytest.approx(-1.0)
        assert np.all(est.bins[[0, 2, 4, 5]] == 0)
        assert info.rank == 2 and not info.rank_deficient
        assert info.residual_norm < 1e-12

    def test_empty_support(self):
        y = np.array([3.0, 4.0])
        est, info = least_squares_on_support(y, np.eye(2), [], return_info=True)
        assert np.all(est.bins == 0)
        assert info.residual_norm == pytest.approx(5.0)

    def test_flags_rank_deficiency(self):
        a = np.ones(4)
        A = np.column_stack([a, a])
        _, info = least_squares_on_support(a, A, [0, 1], return_info=True)
        assert info.rank_deficient

    def test_rejects_bad_support(self):
        with pytest.raises(ParameterError):
            least_squares_on_support(np.ones(2), np.eye(2), [0, 0])
        with pytest.raises(ParameterError):
            least_squares_on_support(np.ones(2), np.eye(2), [5])


class TestSasr:
    def test_halts_by_criterion_at_true_sparsity(self):
        x, ms = _sparse_measurements()
        result = sasr(ms, _noiseless_halting())
        truth = np.fft.fft(x.samples)
        assert result.halted_by == "criterion"
        assert result.iterations == 8
        assert np.linalg.norm(result.estimate.bins - truth) / np.linalg.norm(truth) < 1e-10
        assert len(result.rho_trace) == result.iterations + 1
        assert len(result.residual_trace) == result.iterations
        assert result.rho_trace[-1] < result.rho_trace[0]

    def test_strided_training_vector(self):
        _, ms = _sparse_measurements()
        wide = np.zeros((len(ms.training), 2), dtype=complex)
        wide[:, 0] = ms.training
        strided = MeasurementSet(wide[:, 0], ms.testing, ms.phi, ms.psi)
        assert not strided.training.flags.c_contiguous
        _assert_same_result(sasr(strided, _noiseless_halting()), sasr(ms, _noiseless_halting()))

    def test_min_testing_gate_blocks_halting(self):
        _, ms = _sparse_measurements()
        result = sasr(ms, _noiseless_halting(min_testing=len(ms.testing) + 1))
        assert result.halted_by == "k_max_exhausted"
        assert result.iterations >= 8

    def test_zero_signal_halts_immediately(self):
        silent = GridSpectrumSpec(200, 200.0, ())
        x = synthesize_grid_signal(silent, 1.0)
        rng = np.random.default_rng(3)
        ms = acquire(x, 60, 110, rng, rng)
        result = sasr(ms, _noiseless_halting())
        assert result.halted_by == "criterion"
        assert result.iterations == 0
        assert result.rho_trace == (0.0,)
        # with the gate closed the same input cannot claim a halt
        gated = sasr(ms, _noiseless_halting(min_testing=500))
        assert gated.halted_by == "k_max_exhausted"
        assert gated.iterations == 0

    def test_pure_noise_halts_at_zero_iterations_noisy(self):
        silent = GridSpectrumSpec(200, 200.0, ())
        x = synthesize_grid_signal(silent, 1.0)
        rng = np.random.default_rng(4)
        ms = acquire(x, 60, 110, rng, rng, noise_std=1.0, noise_seed=9)
        halting = HaltingConfig(mode="noisy", max_sparsity=20, noise_std=1.0, accuracy=0.6)
        result = sasr(ms, halting)
        assert result.halted_by == "criterion"
        assert result.iterations == 0
        # the zero-estimate residual is pure noise, mean modulus near sqrt(pi/2)
        assert result.rho_trace[0] == pytest.approx(np.sqrt(np.pi / 2), rel=0.15)

    def test_noisy_criterion_stops_near_true_sparsity(self):
        spec = GridSpectrumSpec(
            200, 200.0, tuple(GridTone(m, 8.0, 0.5 * i) for i, m in enumerate((11, 29, 47, 73)))
        )
        x = synthesize_grid_signal(spec, 1.0)
        rng = np.random.default_rng(5)
        ms = acquire(x, 60, 110, rng, rng, noise_std=1.0, noise_seed=10)
        halting = HaltingConfig(mode="noisy", max_sparsity=20, noise_std=1.0, accuracy=0.6)
        result = sasr(ms, halting)
        assert result.halted_by == "criterion"
        assert result.iterations == 8

    def test_unsatisfiable_criterion_warns_once_per_call(self):
        _, ms = _sparse_measurements(testing=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = sasr(ms, _noiseless_halting(failure_prob=0.05))
        assert [w.category for w in caught] == [CriterionUnsatisfiableWarning]
        assert result.halted_by == "k_max_exhausted"
        assert result.iterations > 1

    @pytest.mark.parametrize("noise_std, halting, stop", [
        # capped below the 8 occupied bins, so rho stays far above round-off
        (0.0, _noiseless_halting(max_sparsity=4), "k_max_exhausted"),
        (1.0, HaltingConfig(mode="noisy", max_sparsity=20, noise_std=1.0, accuracy=0.6),
         "criterion"),
        # gated, so the pursuit runs on to the training residual's floor
        (0.0, _noiseless_halting(min_testing=111), "floor"),
    ], ids=["noiseless", "noisy", "residual-floor"])
    def test_every_rho_matches_the_oracle(self, noise_std, halting, stop):
        _, phi, psi = _sparse_problem()
        _, ms = _sparse_measurements(noise_std=noise_std, noise_seed=11)
        result = sasr(ms, halting)
        assert result.iterations > 0
        if stop == "floor":
            assert result.halted_by == "k_max_exhausted"
            assert result.residual_trace[-1] <= 1e-12 * np.linalg.norm(ms.training)
        else:
            assert result.halted_by == stop
        _assert_every_rho_matches_the_oracle(ms, phi, psi, result)
        rho = validation_parameter(ms.testing, psi, result.estimate)
        # The returned estimate's own rho; only a floor fit, whose rho is
        # itself round-off, gets absolute room.
        atol = 1e-12 * result.rho_trace[0] if stop == "floor" else 0.0
        np.testing.assert_allclose(result.rho_trace[-1], rho, rtol=1e-12, atol=atol)

    def test_every_rho_matches_the_oracle_up_to_a_repeated_pick(self):
        # Phi repeats its 6 rows, so its columns span 6 dimensions; noise
        # outside them leaves a residual above the floor that no further
        # column can reduce, and the 7th pick repeats or is dependent.
        rng = np.random.default_rng(1)
        half = rng.standard_normal((6, 40))
        phi, psi = np.vstack([half, half]), rng.standard_normal((30, 40))
        ms = _direct_measurements(phi, psi, _sparse_spectrum(40, (3, 11, 25, 30, 33, 5), 2),
                                  0.1, rng)
        result = sasr(ms, _noiseless_halting(max_sparsity=10, min_testing=31))
        assert (result.halted_by, result.iterations) == ("k_max_exhausted", 6)
        assert result.residual_trace[-1] > 0.1 * np.linalg.norm(ms.training)
        _assert_every_rho_matches_the_oracle(ms, phi, psi, result)

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5]), st.integers(1, 8),
           st.booleans())
    def test_every_rho_matches_the_oracle_over_seeds(self, seed, noise_std, sparsity, gated):
        rng = np.random.default_rng(seed)
        phi, psi = rng.standard_normal((20, 64)), rng.standard_normal((15, 64))
        bins = rng.choice(64, sparsity, replace=False)
        ms = _direct_measurements(phi, psi, _sparse_spectrum(64, bins, seed), noise_std, rng)
        halting = _noiseless_halting(max_sparsity=12, min_testing=16 if gated else 1)
        _assert_every_rho_matches_the_oracle(ms, phi, psi, sasr(ms, halting))

    def test_needs_testing_rows(self):
        _, ms = _sparse_measurements(testing=0)
        with pytest.raises(ParameterError):
            sasr(ms, _noiseless_halting())


def _direct_measurements(phi, psi, spectrum, noise_std, rng):
    """Training and testing rows of ``spectrum`` through real ``phi`` and
    ``psi``, plus complex noise of standard deviation ``noise_std``."""
    x = np.fft.ifft(spectrum)
    rows = [m @ x + noise_std * (rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m)))
            for m in (phi, psi)]
    return MeasurementSet(*rows, fourier_dictionary(phi), fourier_dictionary(psi))


def _assert_every_rho_matches_the_oracle(ms, phi, psi, result):
    """Each ``rho_trace[t]`` is the validation parameter of the least-squares
    fit on the first t picks, to within 1e-9 of ``rho_trace[0]``: an
    absolute bound, since rho at an exact fit is itself round-off."""
    assert len(result.rho_trace) == result.iterations + 1
    dictionary = sensing_dictionary(phi)
    for t, rho in enumerate(result.rho_trace):
        fit = least_squares_on_support(ms.training, dictionary, result.support[:t])
        assert abs(rho - validation_parameter(ms.testing, psi, fit)) <= (
            1e-9 * result.rho_trace[0]), t


def _noisy_problem(amplitude, seed, noise_seed, max_sparsity=20, **kw):
    spec = GridSpectrumSpec(
        200, 200.0,
        tuple(GridTone(m, amplitude, 0.5 * i) for i, m in enumerate((11, 29, 47, 73))),
    )
    x = synthesize_grid_signal(spec, 1.0)
    rng = np.random.default_rng(seed)
    ms = acquire(x, 60, 110, rng, rng, noise_std=1.0, noise_seed=noise_seed)
    # The matrix acquire drew first from the generator.
    phi = np.random.default_rng(seed).standard_normal((60, 200))
    halting = HaltingConfig(mode="noisy", max_sparsity=max_sparsity, noise_std=1.0,
                            accuracy=0.6, **kw)
    return ms, phi, halting


class TestSasrThenOmp:
    """The continued baseline is a fresh exhaustive omp run, bit for bit."""

    @pytest.mark.parametrize("amplitude, seed, noise_seed, gate, halted_by, iterations", [
        (8.0, 5, 10, {}, "criterion", 8),
        (8.0, 5, 10, {"min_testing": 111}, "k_max_exhausted", 20),
        (0.0, 4, 9, {}, "criterion", 0),
    ], ids=["criterion", "cap", "zero-estimate"])
    def test_baseline_equals_fresh_omp(self, amplitude, seed, noise_seed, gate,
                                       halted_by, iterations):
        ms, phi, halting = _noisy_problem(amplitude, seed, noise_seed, **gate)
        adaptive, continued = _sasr_then_omp(ms, halting)
        assert (adaptive.halted_by, adaptive.iterations) == (halted_by, iterations)
        fresh = omp(ms.training, fourier_dictionary(phi), halting.max_sparsity)
        assert continued.halted_by == fresh.halted_by == "fixed_k"
        assert continued.support[:iterations] == adaptive.support
        _assert_same_result(continued, fresh)
        _assert_same_result(adaptive, sasr(ms, halting))

    def test_zero_training_vector(self):
        silent = GridSpectrumSpec(200, 200.0, ())
        x = synthesize_grid_signal(silent, 1.0)
        rng = np.random.default_rng(3)
        ms = acquire(x, 60, 110, rng, rng)
        phi = np.random.default_rng(3).standard_normal((60, 200))
        halting = _noiseless_halting(min_testing=500)
        adaptive, continued = _sasr_then_omp(ms, halting)
        assert (adaptive.halted_by, adaptive.iterations) == ("k_max_exhausted", 0)
        _assert_same_result(continued, omp(ms.training, fourier_dictionary(phi), 20))

    def test_cap_above_training_rows_is_rejected(self):
        ms, _, halting = _noisy_problem(8.0, 5, 10, max_sparsity=61)
        halves = _sasr_then_omp(ms, halting)
        assert next(halves).iterations == 8
        with pytest.raises(ParameterError, match="k = 61 exceeds the 60 training rows"):
            next(halves)


def _fourier_chunk(rows, n, spectra, seed):
    """A stack of random (rows, n) matrices and the training rows of each
    spectrum through its matrix; a None spectrum gives random training rows."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((len(spectra), rows, n))
    training = np.empty((len(spectra), rows), dtype=complex)
    for b, spectrum in enumerate(spectra):
        if spectrum is None:
            training[b] = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        else:
            training[b] = phi[b] @ np.fft.ifft(spectrum)
    return phi, training


def _sparse_spectrum(n, bins, seed):
    rng = np.random.default_rng(seed)
    spectrum = np.zeros(n, dtype=complex)
    spectrum[list(bins)] = rng.standard_normal(len(bins)) + 1j * rng.standard_normal(len(bins))
    return spectrum


class TestBatchInvariance:
    """Each trial of a stacked pursuit is its own one-trial omp run, bit for bit."""

    @staticmethod
    def _batch_equals_single(stack, training, k, dictionary):
        batch = _omp_batch(dictionary(stack), training, k)
        assert len(batch) == len(training)
        for b, result in enumerate(batch):
            _assert_same_result(result, omp(training[b], dictionary(stack[b]), k))
        return [(r.halted_by, r.iterations, r.rank_deficient) for r in batch]

    def test_fourier_chunk_mixing_the_stop_rules(self):
        n = 40
        spectra = [_sparse_spectrum(n, (3, 17), 1), np.zeros(n, dtype=complex), None,
                   _sparse_spectrum(n, (5, 9, 21, 30, 38), 2), _sparse_spectrum(n, (11,), 3)]
        phi, training = _fourier_chunk(16, n, spectra, seed=4)
        outcomes = self._batch_equals_single(phi, training, 5, fourier_dictionary)
        assert outcomes == [
            ("k_max_exhausted", 2, False),   # residual floor after two picks
            ("k_max_exhausted", 1, False),   # zero training vector
            ("fixed_k", 5, False),           # runs to k
            ("fixed_k", 5, False),           # reaches the floor at the k-th pick
            ("k_max_exhausted", 1, False),
        ]

    def test_fourier_chunk_at_full_capacity(self):
        # k equals the training rows, so the last pick spans them all
        n = 24
        spectra = [None, None, _sparse_spectrum(n, (2,), 5), np.zeros(n, dtype=complex)]
        phi, training = _fourier_chunk(6, n, spectra, seed=6)
        outcomes = self._batch_equals_single(phi, training, 6, fourier_dictionary)
        assert [o[:2] for o in outcomes] == [("fixed_k", 6), ("fixed_k", 6),
                                             ("k_max_exhausted", 1), ("k_max_exhausted", 1)]

    def test_fourier_chunk_with_mirror_picks(self):
        # Real signals pick mirror pairs j, n - j: a one-trial run serves the
        # second column by conjugating the first, while the stack computes
        # every column, the complex trial's beside the real ones.
        n = 48
        real = [_sparse_spectrum(n, (5, 43, 12, 36), seed) for seed in (10, 11)]
        for spectrum in real:
            spectrum[43], spectrum[36] = spectrum[5].conj(), spectrum[12].conj()
        phi, training = _fourier_chunk(20, n, [*real, _sparse_spectrum(n, (7, 30), 12)], seed=13)
        self._batch_equals_single(phi, training, 6, fourier_dictionary)
        batch = _omp_batch(fourier_dictionary(phi), training, 6)
        assert all(set(r.support) == {5, 12, 36, 43} for r in batch[:2])

    def test_chunk_at_k_zero(self):
        phi, training = _fourier_chunk(8, 32, [None, np.zeros(32, dtype=complex)], seed=7)
        outcomes = self._batch_equals_single(phi, training, 0, fourier_dictionary)
        assert outcomes == [("fixed_k", 0, False)] * 2

    def test_dense_chunk_with_a_dependent_pick(self):
        a = np.ones(4)
        rng = np.random.default_rng(8)
        stack = np.stack([np.column_stack([a, 2 * a]), np.column_stack([a, 2 * a]),
                          rng.standard_normal((4, 2)), rng.standard_normal((4, 2))])
        training = np.array([[1, 1, 1, 2], a, rng.standard_normal(4), np.zeros(4)],
                            dtype=complex)
        outcomes = self._batch_equals_single(stack, training, 2, DenseDictionary)
        assert outcomes == [
            ("k_max_exhausted", 1, True),    # the second pick is dependent
            ("k_max_exhausted", 1, False),   # the first pick fits exactly
            ("fixed_k", 2, False),
            ("k_max_exhausted", 1, False),   # zero training vector
        ]

    @pytest.mark.parametrize("slabs", [False, True], ids=["whole", "slabs"])
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_every_chunk_over_seeds(self, slabs, data):
        # Each trial is random training rows, an exactly sparse spectrum
        # (which stops at the residual floor once fitted), a zero vector, or
        # random rows through a matrix that repeats its first third of rows,
        # whose columns span no more dimensions than that, so the pursuit
        # stops at a dependent or repeated pick.  The stack is cut into
        # chunks at random points.
        rows, n = data.draw(st.integers(2, 24)), data.draw(st.integers(4, 64))
        kinds = data.draw(st.lists(st.sampled_from(["random", "sparse", "zero", "repeat"]),
                                   min_size=1, max_size=6))
        k = data.draw(st.integers(0, rows))
        cuts = data.draw(st.sets(st.integers(1, len(kinds) - 1), max_size=len(kinds) - 1)
                         if len(kinds) > 1 else st.just(set()))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        phi = rng.standard_normal((len(kinds), rows, n))
        training = np.zeros((len(kinds), rows), dtype=complex)
        for b, kind in enumerate(kinds):
            if kind == "repeat":
                phi[b] = phi[b, np.arange(rows) % max(1, rows // 3)]
            if kind == "sparse":
                bins = rng.choice(n, rng.integers(1, min(rows // 2, n) + 1), replace=False)
                training[b] = phi[b] @ np.fft.ifft(_sparse_spectrum(n, bins, b))
            elif kind != "zero":
                training[b] = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        with pytest.MonkeyPatch.context() as patch:
            if slabs:
                # Every product in slabs of 3 rows, short last slabs included.
                patch.setattr(recovery, "_SLAB_BOUND", 0)
                patch.setattr(recovery, "_SLAB_ROWS", 3)
            for chunk in np.split(np.arange(len(kinds)), sorted(cuts)):
                batch = _omp_batch(fourier_dictionary(phi[chunk]), training[chunk], k)
                for b, result in zip(chunk, batch):
                    _assert_same_result(result, omp(training[b], fourier_dictionary(phi[b]), k))
                    event(f"{result.halted_by}, rank deficient: {result.rank_deficient}")

    def test_omp_rejects_a_stack(self):
        phi, training = _fourier_chunk(8, 32, [None, None], seed=9)
        with pytest.raises(DimensionError):
            omp(training[0], fourier_dictionary(phi), 2)


def _assert_same_result(a, b):
    assert a.estimate.bins.dtype == b.estimate.bins.dtype
    assert a.estimate.bins.tobytes() == b.estimate.bins.tobytes()
    for name in ("support", "iterations", "rho_trace", "residual_trace", "halted_by",
                 "rank_deficient"):
        assert getattr(a, name) == getattr(b, name), name


class TestBruteForce:
    def test_guards(self):
        with pytest.raises(ParameterError):
            brute_force_l0(np.ones(2, dtype=complex), np.zeros((2, 30)), 1)
        with pytest.raises(ParameterError):
            brute_force_l0(np.ones(2, dtype=complex), np.eye(2), 4)

    def test_k_zero_returns_zero(self):
        out = brute_force_l0(np.ones(3, dtype=complex), np.eye(3), 0)
        assert np.all(out.bins == 0)

    def test_finds_planted_support(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((8, 12))
        y = (A[:, [2, 9]] @ np.array([1.5, -2.0])).astype(complex)
        out = brute_force_l0(y, A, 2)
        assert set(np.flatnonzero(np.abs(out.bins) > 1e-9)) == {2, 9}
        assert out.bins[2] == pytest.approx(1.5)
        assert out.bins[9] == pytest.approx(-2.0)

    def test_certifies_omp_solutions(self):
        """Wherever the greedy run drives the residual to zero, enumeration
        must agree with it bin for bin."""
        certified = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((10, 16))
            support = rng.choice(16, size=2, replace=False)
            y = (A[:, support] @ (rng.standard_normal(2) + 1.0)).astype(complex)
            greedy = omp(y, DenseDictionary(A), 2)
            resid = np.linalg.norm(y - A @ greedy.estimate.bins)
            if resid <= 1e-8 * np.linalg.norm(y):
                exact = brute_force_l0(y, A, 2)
                assert np.allclose(exact.bins, greedy.estimate.bins, atol=1e-8)
                certified += 1
        assert certified >= 10
