import math

import numpy as np
import pytest

from oracles import dft, idft
from widesense.errors import DimensionError, InvalidSpecError, ParameterError
from widesense.signals import (
    GridSpectrumSpec,
    GridTone,
    Spectrum,
    SubbandSpec,
    TimeSeries,
    WidebandSignalSpec,
    random_grid_spectrum,
    signal_time_series,
    synthesize_grid_signal,
    synthesize_signal,
)


def test_subband_edges():
    sb = SubbandSpec(power=2.0, bandwidth=10e6, center_frequency=100e6)
    assert sb.low_edge == 95e6
    assert sb.high_edge == 105e6


def test_subband_rejects_negative_power():
    with pytest.raises(InvalidSpecError):
        SubbandSpec(power=-1.0, bandwidth=1e6, center_frequency=5e6)


class TestWidebandSignalSpec:
    def test_nyquist_defaults_to_twice_bandwidth(self):
        spec = WidebandSignalSpec(total_bandwidth=2.5e9, subbands=())
        assert spec.nyquist_rate == 5e9

    def test_rejects_subband_outside_band(self):
        sb = SubbandSpec(power=1.0, bandwidth=100e6, center_frequency=2.49e9)
        with pytest.raises(InvalidSpecError):
            WidebandSignalSpec(total_bandwidth=2.5e9, subbands=(sb,))

    def test_rejects_overlapping_subbands(self):
        a = SubbandSpec(power=1.0, bandwidth=40e6, center_frequency=1.00e9)
        b = SubbandSpec(power=1.0, bandwidth=40e6, center_frequency=1.02e9)
        with pytest.raises(InvalidSpecError):
            WidebandSignalSpec(total_bandwidth=2.5e9, subbands=(a, b))

    def test_rejects_sub_nyquist_rate(self):
        with pytest.raises(InvalidSpecError):
            WidebandSignalSpec(total_bandwidth=2.5e9, subbands=(), nyquist_rate=4e9)

    def test_from_dict_rejects_missing_and_unknown_keys(self):
        with pytest.raises(InvalidSpecError, match=r"missing signal config keys: \['subbands'\]"):
            WidebandSignalSpec.from_dict({"W_hz": 1e9})
        with pytest.raises(InvalidSpecError, match="signal config must be a JSON object"):
            WidebandSignalSpec.from_dict([1e9])
        raw = {"W_hz": 1e9, "subbands": [{"E": 1.0, "B_hz": 1e6}]}
        with pytest.raises(InvalidSpecError, match=r"missing subband config keys: \['fc_hz'\]"):
            WidebandSignalSpec.from_dict(raw)


class TestGridSpectrumSpec:
    def test_rejects_tone_on_dc_or_nyquist(self):
        with pytest.raises(InvalidSpecError):
            GridSpectrumSpec(64, 64.0, (GridTone(0, 1.0),))
        with pytest.raises(InvalidSpecError):
            GridSpectrumSpec(64, 64.0, (GridTone(32, 1.0),))

    def test_rejects_duplicate_bins(self):
        with pytest.raises(InvalidSpecError):
            GridSpectrumSpec(64, 64.0, (GridTone(3, 1.0), GridTone(3, 2.0)))

    def test_rejects_negative_background(self):
        with pytest.raises(InvalidSpecError):
            GridSpectrumSpec(64, 64.0, (), background_level=-1e-3)

    def test_from_dict_without_background_defaults_to_zero(self):
        raw = {"reference_length": 64, "nyquist_hz": 64.0, "tones": [[4, 1.0, 0.0]]}
        spec = GridSpectrumSpec.from_dict(raw)
        assert spec == GridSpectrumSpec(64, 64.0, (GridTone(4, 1.0, 0.0),))
        assert spec.background_level == 0.0


def test_grid_tone_spectrum_occupies_exact_mirror_bins():
    """Over p slots each tone lands on bins p*m and p*N - p*m only."""
    spec = GridSpectrumSpec(
        reference_length=50,
        nyquist_rate=50.0,
        tones=(GridTone(4, 1.5, 0.3), GridTone(11, 0.7, 2.0)),
    )
    for p in (1, 3):
        ts = synthesize_grid_signal(spec, float(p))
        bins = np.fft.fft(ts.samples)
        occupied = set(np.flatnonzero(np.abs(bins) > 1e-9))
        expected = set()
        for tone in spec.tones:
            expected |= {p * tone.bin_index, p * 50 - p * tone.bin_index}
        assert occupied == expected


def test_grid_tone_amplitude_and_phase():
    # one tone: X[m] = amp/2 * exp(i phase) * n over n samples
    spec = GridSpectrumSpec(32, 32.0, (GridTone(5, 1.2, 0.7),))
    bins = np.fft.fft(synthesize_grid_signal(spec, 1.0).samples)
    expected = 0.5 * 1.2 * np.exp(0.7j) * 32
    assert bins[5] == pytest.approx(expected, abs=1e-9)
    assert bins[27] == pytest.approx(np.conj(expected), abs=1e-9)


def test_background_extends_prefix():
    """Longer synthesis windows extend shorter ones sample for sample."""
    spec = GridSpectrumSpec(
        40, 40.0, (GridTone(3, 1.0),), background_level=0.01, background_seed=7
    )
    short = synthesize_grid_signal(spec, 1.0).samples
    long = synthesize_grid_signal(spec, 3.0).samples
    assert np.array_equal(long[:40], short)


def test_background_level_scales_residual():
    quiet = GridSpectrumSpec(40, 40.0, (), background_level=1e-3, background_seed=3)
    loud = GridSpectrumSpec(40, 40.0, (), background_level=2e-3, background_seed=3)
    xq = synthesize_grid_signal(quiet, 1.0).samples
    xl = synthesize_grid_signal(loud, 1.0).samples
    assert np.allclose(xl, 2.0 * xq)


def test_synthesize_signal_matches_pulse_formula():
    sb = SubbandSpec(power=4.0, bandwidth=10e6, center_frequency=200e6)
    spec = WidebandSignalSpec(
        total_bandwidth=500e6, subbands=(sb,), time_offset=1e-8
    )
    ts = synthesize_signal(spec, 1e-6)
    t = np.arange(len(ts.samples)) / spec.nyquist_rate - 1e-8
    expected = 2.0 * 10e6 * np.sinc(10e6 * t) * np.cos(2 * np.pi * 200e6 * t)
    assert np.allclose(ts.samples, expected)
    assert ts.rate == spec.nyquist_rate


def test_synthesize_rejects_fractional_sample_count():
    spec = WidebandSignalSpec(total_bandwidth=500e6, subbands=())
    with pytest.raises(InvalidSpecError):
        synthesize_signal(spec, 1.23e-9)


def test_signal_time_series_dispatch():
    grid = GridSpectrumSpec(16, 16.0, (GridTone(2, 1.0),))
    wide = WidebandSignalSpec(total_bandwidth=8.0, subbands=())
    assert len(signal_time_series(grid, 1.0).samples) == 16
    assert len(signal_time_series(wide, 1.0).samples) == 16
    with pytest.raises(InvalidSpecError):
        signal_time_series(object(), 1.0)


class TestTransforms:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(257)
        ts = TimeSeries(samples=x, rate=257.0)
        back = idft(dft(ts))
        assert np.allclose(back.samples, x, atol=1e-10)
        assert back.rate == pytest.approx(257.0)

    def test_parseval(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(400)
        X = dft(TimeSeries(samples=x, rate=400.0))
        assert np.linalg.norm(X.bins) == pytest.approx(
            math.sqrt(400) * np.linalg.norm(x), rel=1e-12
        )

    def test_real_signal_spectrum_is_conjugate_symmetric(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(128)
        X = dft(TimeSeries(samples=x, rate=128.0)).bins
        assert np.allclose(X[1:], np.conj(X[1:][::-1]), atol=1e-10)

    def test_idft_keeps_complex_spectra_complex(self):
        bins = np.zeros(8, dtype=complex)
        bins[1] = 1.0  # no mirror partner
        out = idft(Spectrum(bins=bins))
        assert np.iscomplexobj(out.samples)

    def test_idft_empty_rejected(self):
        with pytest.raises(DimensionError):
            idft(Spectrum(bins=np.array([])))


def test_random_grid_spectrum_layout():
    rng = np.random.default_rng(5)
    spec = random_grid_spectrum(rng, 1000, 5e9, 32, 8)
    assert len(spec.tones) == 16
    bins = sorted(t.bin_index for t in spec.tones)
    assert bins[0] >= 1 and bins[-1] < 500
    # eight groups of two adjacent bins, separated by at least one empty bin
    groups = []
    current = [bins[0]]
    for a, b in zip(bins, bins[1:]):
        if b == a + 1:
            current.append(b)
        else:
            groups.append(current)
            current = [b]
    groups.append(current)
    assert len(groups) == 8
    assert all(len(g) == 2 for g in groups)


def test_random_grid_spectrum_group_power_in_range():
    # each group's power over the noise power is uniform over [7, 25] dB
    rng = np.random.default_rng(6)
    spec = random_grid_spectrum(rng, 1000, 5e9, 40, 10, noise_power=2.0, amplitude_scale=1.0)
    powers = {t.amplitude ** 2 / 2.0 for t in spec.tones}
    assert len(powers) <= 10
    for power in powers:
        assert 7.0 <= 10.0 * math.log10(power / 2.0) <= 25.0


def test_random_grid_spectrum_rejects_odd_sparsity():
    rng = np.random.default_rng(7)
    with pytest.raises(ParameterError):
        random_grid_spectrum(rng, 100, 100.0, 7, 2)


@pytest.mark.parametrize("reference_length, sparsity, n_groups, message", [
    (100, 4, 0, "need at least one tone per group"),
    (100, 4, 3, "need at least one tone per group"),
    (20, 16, 2, "groups do not fit below the Nyquist bin"),
])
def test_random_grid_spectrum_rejects_impossible_layouts(reference_length, sparsity, n_groups,
                                                         message):
    rng = np.random.default_rng(7)
    with pytest.raises(ParameterError, match=message):
        random_grid_spectrum(rng, reference_length, 100.0, sparsity, n_groups)


@pytest.mark.parametrize("rate", [0.0, -5.0])
def test_time_series_needs_positive_rate(rate):
    with pytest.raises(ParameterError, match="sample rate must be positive"):
        TimeSeries(samples=np.zeros(4), rate=rate)


def test_time_series_immutability():
    ts = TimeSeries(samples=np.arange(10.0), rate=5.0)
    with pytest.raises(ValueError):
        ts.samples[0] = 99.0
