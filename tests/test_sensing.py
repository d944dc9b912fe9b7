import numpy as np
import pytest

from oracles import sensing_dictionary
from widesense.errors import DimensionError, ParameterError
from widesense.recovery import FourierDictionary
from widesense.sensing import MeasurementSet, acquire, draw_matrix
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
        ms = acquire(ts, phi, psi)
        assert np.allclose(ms.training, phi @ ts.samples)
        assert np.allclose(ms.testing, psi @ ts.samples)
        assert ms.training.dtype == np.complex128

    def test_noise_is_reproducible_and_complex(self):
        ts = self._window()
        rng = np.random.default_rng(10)
        phi = rng.standard_normal((5, 24))
        psi = rng.standard_normal((3, 24))
        a = acquire(ts, phi, psi, noise_std=0.5, noise_seed=77)
        b = acquire(ts, phi, psi, noise_std=0.5, noise_seed=77)
        c = acquire(ts, phi, psi, noise_std=0.5, noise_seed=78)
        assert np.array_equal(a.training, b.training)
        assert np.array_equal(a.testing, b.testing)
        assert not np.array_equal(a.training, c.training)
        assert np.max(np.abs(a.training.imag)) > 0

    def test_noise_stream_order_training_first(self):
        """One seed stream feeds training (re, im) then testing (re, im)."""
        ts = self._window()
        phi = np.zeros((2, 24))
        psi = np.zeros((3, 24))
        ms = acquire(ts, phi, psi, noise_std=1.0, noise_seed=5)
        g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
        tr = g.standard_normal(2) + 1j * g.standard_normal(2)
        te = g.standard_normal(3) + 1j * g.standard_normal(3)
        assert np.array_equal(ms.training, tr)
        assert np.array_equal(ms.testing, te)

    def test_rejects_mismatched_window(self):
        ts = self._window(24)
        phi = np.zeros((2, 20))
        psi = np.zeros((2, 24))
        with pytest.raises(DimensionError):
            acquire(ts, phi, psi)

    def test_rejects_negative_noise_std(self):
        ts = self._window(24)
        with pytest.raises(ParameterError, match="noise_std"):
            acquire(ts, np.zeros((2, 24)), np.zeros((2, 24)), noise_std=-0.1)


def test_measurement_set_validates_shapes():
    with pytest.raises(DimensionError):
        MeasurementSet(
            training=np.zeros(2, dtype=complex),
            testing=np.zeros(1, dtype=complex),
            phi=np.zeros((2, 7)),
            psi=np.zeros((1, 8)),
        )


def test_measurement_set_arrays_are_frozen():
    ms = MeasurementSet(
        training=np.zeros(2, dtype=complex),
        testing=np.zeros(1, dtype=complex),
        phi=np.zeros((2, 8)),
        psi=np.zeros((1, 8)),
    )
    with pytest.raises(ValueError):
        ms.phi[0, 0] = 1.0


def test_acquire_keeps_read_only_views_of_the_matrices():
    rng = np.random.default_rng(3)
    phi, psi = rng.standard_normal((3, 8)), rng.standard_normal((2, 8))
    ms = acquire(TimeSeries(samples=rng.standard_normal(8), rate=8.0), phi, psi)
    assert np.shares_memory(ms.phi, phi)
    assert np.shares_memory(ms.psi, psi)
    # the record is read-only; the caller's arrays keep their own flags
    assert phi.flags.writeable and psi.flags.writeable
    with pytest.raises(ValueError):
        ms.psi[0, 0] = 1.0


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
                ops = FourierDictionary(phi)
                for j in order:
                    np.testing.assert_allclose(ops.column(j), a[:, j], rtol=0, atol=1e-12)

    def test_rejects_vector(self):
        with pytest.raises(DimensionError):
            sensing_dictionary(np.zeros(8))
