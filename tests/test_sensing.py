import tracemalloc

import numpy as np
import pytest

from oracles import fourier_dictionary, sensing_dictionary
from widesense.errors import DimensionError, ParameterError
from widesense.rng import pin_blas_threads
from widesense.sensing import _BLOCK_ROWS, MeasurementSet, acquire, draw_matrix, draw_operator
from widesense.signals import TimeSeries


def test_draw_matrix_is_deterministic():
    assert np.array_equal(draw_matrix(6, 20, 1234), draw_matrix(6, 20, 1234))
    assert not np.array_equal(draw_matrix(6, 20, 1234), draw_matrix(6, 20, 1235))


def test_draw_matrix_is_the_seeded_standard_normal_stream():
    expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(77)))
    assert np.array_equal(draw_matrix(3, 5, 77), expected.standard_normal((3, 5)))


def test_draw_matrix_gaussian_moments():
    m = draw_matrix(200, 500, 0)
    assert m.shape == (200, 500)
    assert abs(m.mean()) < 0.01
    assert abs(m.var() - 1.0) < 0.01


class TestAcquire:
    def _window(self, n=24):
        rng = np.random.default_rng(8)
        return TimeSeries(samples=rng.standard_normal(n), rate=float(n))

    def test_noiseless_projection(self):
        ts = self._window()
        rng = np.random.default_rng(9)
        phi = rng.standard_normal((5, 24))
        psi = rng.standard_normal((3, 24))
        # one generator for both draws phi, then psi
        gen = np.random.default_rng(9)
        ms = acquire(ts, 5, 3, gen, gen)
        assert np.allclose(ms.training, phi @ ts.samples)
        assert np.allclose(ms.testing, psi @ ts.samples)
        assert ms.training.dtype == np.complex128
        assert np.array_equal(ms.phi.spectra, np.fft.rfft(phi))
        assert np.array_equal(ms.psi.spectra, np.fft.rfft(psi))

    def test_noise_is_reproducible_and_complex(self):
        ts = self._window()
        a = acquire(ts, 5, 3, 10, 11, noise_std=0.5, noise_seed=77)
        b = acquire(ts, 5, 3, 10, 11, noise_std=0.5, noise_seed=77)
        c = acquire(ts, 5, 3, 10, 11, noise_std=0.5, noise_seed=78)
        assert np.array_equal(a.training, b.training)
        assert np.array_equal(a.testing, b.testing)
        assert not np.array_equal(a.training, c.training)
        assert np.max(np.abs(a.training.imag)) > 0

    def test_noise_stream_order_training_first(self):
        """One seed stream feeds training (re, im) then testing (re, im)."""
        # a silent window projects to exact zeros, leaving the noise alone
        ts = TimeSeries(samples=np.zeros(24), rate=24.0)
        ms = acquire(ts, 2, 3, 1, 2, noise_std=1.0, noise_seed=5)
        g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
        tr = g.standard_normal(2) + 1j * g.standard_normal(2)
        te = g.standard_normal(3) + 1j * g.standard_normal(3)
        assert np.array_equal(ms.training, tr)
        assert np.array_equal(ms.testing, te)

    def test_rejects_complex_window(self):
        ts = TimeSeries(samples=np.ones(24, dtype=complex), rate=24.0)
        with pytest.raises(ParameterError, match="real window"):
            acquire(ts, 2, 2, 1, 2)

    def test_rejects_negative_noise_std(self):
        ts = self._window(24)
        with pytest.raises(ParameterError, match="noise_std"):
            acquire(ts, 2, 2, 1, 2, noise_std=-0.1)

    def test_step_peaks_below_its_two_spectra(self):
        # Only one block of a matrix exists at a time: holding a 400 x 2000
        # phi whole would add 6.4 MB to the 8 MB of the two spectra.
        ts = self._window(2000)
        tracemalloc.start()
        try:
            ms = acquire(ts, 400, 100, 1, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (ms.phi.spectra.nbytes + ms.psi.spectra.nbytes)


class TestDrawOperator:
    @pytest.mark.parametrize("as_generator", [False, True])
    def test_equals_one_draw_bit_for_bit(self, as_generator):
        seed = np.random.default_rng(3) if as_generator else 3
        rows, n = 2 * _BLOCK_ROWS + 5, 50
        phi = draw_matrix(rows, n, 3)
        samples = np.random.default_rng(4).standard_normal(n)
        with pin_blas_threads():
            measurements, dictionary = draw_operator(samples, rows, seed)
            expected = phi @ samples
        assert np.array_equal(measurements, expected)
        assert (dictionary.shape, dictionary.trials) == ((rows, n), 1)
        assert np.array_equal(dictionary.spectra, np.fft.rfft(phi))

    def test_fills_preallocated_outputs(self):
        samples = np.random.default_rng(4).standard_normal((30, 2))
        measurements, spectra = np.empty((70, 2)), np.empty((70, 16), dtype=complex)
        out, dictionary = draw_operator(samples, 70, 8, measurements, spectra)
        assert out is measurements and np.shares_memory(dictionary.spectra, spectra)
        phi = draw_matrix(70, 30, 8)
        np.testing.assert_allclose(measurements, phi @ samples, rtol=1e-12, atol=1e-12)
        assert np.array_equal(spectra, np.fft.rfft(phi))


def _dictionary(rows, n):
    return fourier_dictionary(np.zeros((rows, n)))


def test_measurement_set_validates_shapes():
    with pytest.raises(DimensionError):
        MeasurementSet(
            training=np.zeros(2, dtype=complex),
            testing=np.zeros(1, dtype=complex),
            phi=_dictionary(2, 7),
            psi=_dictionary(1, 8),
        )
    # the dictionaries are one-trial operators, not matrices or stacks
    for phi in (np.zeros((2, 8)), fourier_dictionary(np.zeros((3, 2, 8)))):
        with pytest.raises(DimensionError):
            MeasurementSet(np.zeros(2, dtype=complex), np.zeros(1, dtype=complex),
                           phi, _dictionary(1, 8))


def test_measurement_set_arrays_are_frozen():
    ms = MeasurementSet(
        training=np.zeros(2, dtype=complex),
        testing=np.zeros(1, dtype=complex),
        phi=_dictionary(2, 8),
        psi=_dictionary(1, 8),
    )
    with pytest.raises(ValueError):
        ms.phi.spectra[0, 0] = 1.0
    with pytest.raises(ValueError):
        ms.training[0] = 1.0


def test_acquire_keeps_read_only_operators_and_views():
    rng = np.random.default_rng(3)
    ms = acquire(TimeSeries(samples=rng.standard_normal(8), rate=8.0), 3, 2, 4, 5)
    training = np.ones(3, dtype=complex)
    record = MeasurementSet(training, ms.testing, ms.phi, ms.psi)
    assert record.phi is ms.phi and record.psi is ms.psi
    assert np.shares_memory(record.training, training)
    # the record is read-only; the caller's arrays keep their own flags
    assert training.flags.writeable
    with pytest.raises(ValueError):
        ms.psi.spectra[0, 0] = 1.0
    with pytest.raises(ValueError):
        record.training[0] = 0.0


class TestSensingDictionary:
    def test_matches_dense_product(self):
        rng = np.random.default_rng(12)
        phi = rng.standard_normal((4, 16))
        dense = phi @ np.linalg.inv(np.fft.fft(np.eye(16)))
        assert np.allclose(sensing_dictionary(phi), dense, atol=1e-12)

    def test_agrees_with_operator_columns(self):
        rng = np.random.default_rng(13)
        wide = rng.standard_normal((5, 24))
        # 3 and 9 are mirrors (built in either order), 0 and 6 their own
        # mirrors; the strided view checks a non-contiguous matrix
        for phi in (wide[:, :12], wide[:, ::2]):
            a = sensing_dictionary(phi)
            for order in ((0, 3, 11), (3, 9), (9, 3), (0, 6, 6, 0)):
                ops = fourier_dictionary(phi)
                for j in order:
                    np.testing.assert_allclose(ops.column(j), a[:, j], rtol=0, atol=1e-12)

    def test_rejects_vector(self):
        with pytest.raises(DimensionError):
            sensing_dictionary(np.zeros(8))
