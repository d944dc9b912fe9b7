import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from widesense import engine
from widesense.engine import (
    BandDecision,
    DetectorConfig,
    FrameConfig,
    SensingOutcome,
    calibrate_lambda,
    energy_detect,
    iter_frame_steps,
    max_steps,
    run_frame,
    uniform_bands,
)
from widesense.errors import InvalidSpecError, ParameterError
from widesense.rng import stream_seed
from widesense.signals import (
    GridSpectrumSpec,
    GridTone,
    Spectrum,
    WidebandSignalSpec,
    signal_time_series,
)
from widesense.validation import HaltingConfig


def _frame(**kw):
    base = dict(
        frame_length=0.8e-6,
        min_transmission=0.48e-6,
        time_step=0.04e-6,
        nyquist_rate=5e9,
        sub_nyquist_rate=1e9,
        testing_per_step=10,
    )
    base.update(kw)
    return FrameConfig(**base)


def _halting(**kw):
    base = dict(mode="noiseless", max_sparsity=48, error_threshold=1.0, confidence_factor=0.2)
    base.update(kw)
    return HaltingConfig(**base)


FOUR_TONES = GridSpectrumSpec(
    200,
    5e9,
    (GridTone(12, 1.0), GridTone(33, 0.8, 1.1), GridTone(57, 1.2, 2.0), GridTone(88, 0.9, 0.4)),
)


class TestFrameConfig:
    def test_per_step_counts(self):
        frame = _frame()
        assert frame.nyquist_per_step == 200
        assert frame.measurements_per_step == 40

    def test_rejects_fractional_sample_counts(self):
        with pytest.raises(InvalidSpecError):
            _frame(time_step=0.0401e-6)

    def test_rejects_super_nyquist_sampling(self):
        with pytest.raises(ParameterError):
            _frame(sub_nyquist_rate=5e9)

    def test_rejects_frame_without_sensing_room(self):
        with pytest.raises(ParameterError):
            _frame(min_transmission=0.79e-6)

    def test_testing_must_leave_training(self):
        with pytest.raises(ParameterError):
            _frame(testing_per_step=40)

    @pytest.mark.parametrize("value", [10.5, 10.0, True, "10"])
    def test_rejects_non_integer_testing_per_step(self, value):
        with pytest.raises(ParameterError, match="testing_per_step must be"):
            _frame(testing_per_step=value)

    def test_round_trip(self):
        frame = _frame()
        assert FrameConfig.from_dict(dataclasses.asdict(frame)) == frame
        with pytest.raises(ParameterError):
            FrameConfig.from_dict({**dataclasses.asdict(frame), "rate": 1.0})

    def test_from_dict_names_missing_keys(self):
        raw = dataclasses.asdict(_frame())
        del raw["testing_per_step"], raw["time_step"]
        with pytest.raises(ParameterError, match=r"\['testing_per_step', 'time_step'\]"):
            FrameConfig.from_dict(raw)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "frame_length", "min_transmission", "time_step", "nyquist_rate",
        "sub_nyquist_rate", "testing_per_step",
    ])
    def test_rejects_non_finite_numbers(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            _frame(**{field: value})


def test_max_steps_examples():
    assert max_steps(FrameConfig(4e-6, 2.4e-6, 0.2e-6, 5e9, 1e9, 60)) == 8
    assert max_steps(FrameConfig(1e-6, 0.9e-6, 0.1e-6, 5e9, 1e9, 60)) == 1
    assert max_steps(FrameConfig(4e-6, 2.5e-6, 0.2e-6, 5e9, 1e9, 60)) == 7


class TestDetectorConfig:
    def test_validates_bands(self):
        with pytest.raises(ParameterError):
            DetectorConfig(bands=(), threshold=1.0)
        with pytest.raises(ParameterError):
            DetectorConfig(bands=((10.0, 5.0),), threshold=1.0)
        with pytest.raises(ParameterError):
            DetectorConfig(bands=((0.0, 10.0),), threshold=0.0)

    @pytest.mark.parametrize("bands", [5, ((1.0,),), ((0.0, 1.0, 2.0),), ((0.0, "1e9"),)])
    def test_rejects_malformed_bands(self, bands):
        with pytest.raises(ParameterError):
            DetectorConfig(bands=bands, threshold=1.0)

    def test_round_trip(self):
        det = DetectorConfig(bands=((0.0, 1e9), (1e9, 2.5e9)), threshold=2.0)
        assert DetectorConfig.from_dict(dataclasses.asdict(det)) == det

    @pytest.mark.parametrize("key", ["bands", "threshold"])
    def test_from_dict_names_missing_keys(self, key):
        raw = dataclasses.asdict(DetectorConfig(bands=((0.0, 1e9),), threshold=2.0))
        del raw[key]
        with pytest.raises(ParameterError, match=key):
            DetectorConfig.from_dict(raw)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["threshold", "low", "high"])
    def test_rejects_non_finite_numbers(self, field, value):
        edges = {"low": 0.0, "high": 1e9, field: value}
        threshold = value if field == "threshold" else 1.0
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            DetectorConfig(bands=((edges["low"], edges["high"]),), threshold=threshold)


def test_uniform_bands_cover_the_interval():
    bands = uniform_bands(2.5e9, 4)
    assert len(bands) == 4
    assert bands[0][0] == 0.0
    assert bands[-1][1] == 2.5e9
    for (_, hi), (lo, _) in zip(bands, bands[1:]):
        assert hi == lo
    with pytest.raises(ParameterError):
        uniform_bands(0.0, 4)


class TestIterFrameSteps:
    def test_step_shapes_grow_linearly(self):
        frame = _frame()
        seen = []
        for p, window, ms, _ in iter_frame_steps(FOUR_TONES, frame, _halting(min_testing=10_000), 5):
            seen.append(p)
            assert ms.phi.shape == (30 * p, 200 * p)
            assert ms.psi.shape == (10 * p, 200 * p)
            assert len(window.samples) == 200 * p
            expected = signal_time_series(FOUR_TONES, p * frame.time_step)
            assert np.array_equal(window.samples, expected.samples)
            if p == 3:
                break
        assert seen == [1, 2, 3]

    def test_stops_after_criterion(self):
        frame = _frame()
        steps = list(iter_frame_steps(FOUR_TONES, frame, _halting(), 7))
        assert steps[-1][3].halted_by == "criterion"
        assert all(rec.halted_by != "criterion" for _, _, _, rec in steps[:-1])

    def test_fresh_matrices_each_step(self):
        frame = _frame()
        it = iter_frame_steps(FOUR_TONES, frame, _halting(min_testing=10_000), 5)
        _, _, ms1, _ = next(it)
        _, _, ms2, _ = next(it)
        # The dictionaries hold rfft(phi); irfft gives phi back to round-off.
        phi1 = np.fft.irfft(ms1.phi.spectra, 200)
        phi2 = np.fft.irfft(ms2.phi.spectra, 400)
        assert not np.allclose(phi1, phi2[:30, :200])

    def test_a_step_yields_views_of_its_groups_stacked_slots(self, monkeypatch):
        # Three trials share one group at the first step; each yielded
        # record views its own slot of the stack that SASR recovered.
        stacks = []
        original = engine._sasr_then_omp

        def recording(training, testing, phi, psi, halting):
            stacks.append((training, testing, phi.spectra, psi.spectra))
            return original(training, testing, phi, psi, halting)

        monkeypatch.setattr(engine, "_sasr_then_omp", recording)
        trials = [(FOUR_TONES, seed) for seed in (5, 6, 7)]
        steps = engine._frame_steps(trials, _frame(), _halting(min_testing=10_000), False)
        first = [next(steps) for _ in trials]
        [stack] = stacks
        for i, (b, (p, _window, ms, _recovery)) in enumerate(first):
            assert (b, p) == (i, 1)
            record = (ms.training, ms.testing, ms.phi.spectra, ms.psi.spectra)
            for mine, stacked in zip(record, stack):
                assert np.shares_memory(mine, stacked[i])
                assert not any(np.shares_memory(mine, stacked[j]) for j in range(3) if j != i)

    def test_rejects_mismatched_signal(self):
        frame = _frame()
        wrong_rate = GridSpectrumSpec(200, 4e9, ())
        with pytest.raises(InvalidSpecError):
            next(iter_frame_steps(wrong_rate, frame, _halting(), 0))
        wrong_length = GridSpectrumSpec(100, 5e9, ())
        with pytest.raises(InvalidSpecError):
            next(iter_frame_steps(wrong_length, frame, _halting(), 0))
        wideband_off = WidebandSignalSpec(total_bandwidth=1e9, subbands=())
        with pytest.raises(InvalidSpecError):
            next(iter_frame_steps(wideband_off, frame, _halting(), 0))


class TestRunFrame:
    @pytest.mark.parametrize("spec, message", [
        (WidebandSignalSpec(total_bandwidth=1e9, subbands=()), "nyquist_rate differs"),
        (GridSpectrumSpec(200, 4e9, ()), "nyquist_rate differs"),
        (GridSpectrumSpec(100, 5e9, ()), "reference_length must equal"),
        ("not a spec", "unsupported signal spec str"),
    ], ids=["wideband-rate", "grid-rate", "grid-length", "unsupported-type"])
    def test_rejects_mismatched_signal(self, spec, message):
        detector = DetectorConfig(uniform_bands(2.5e9, 4), 0.5)
        with pytest.raises(InvalidSpecError, match=message):
            run_frame(spec, _frame(), _halting(), detector, 0)

    def test_four_tone_frame_halts_early(self):
        out = run_frame(FOUR_TONES, _frame(), _halting(), DetectorConfig(uniform_bands(2.5e9, 4), 0.5), 7)
        assert out.halted
        assert out.steps_used == 2
        assert out.saved_slots == 6
        assert not out.recommend_rate_increase
        # every tone sits on its mirrored pair of the doubled grid
        p = out.steps_used
        expected = set()
        for tone in FOUR_TONES.tones:
            expected |= {p * tone.bin_index, 200 * p - p * tone.bin_index}
        assert set(out.recovery.support) == expected
        # one tone per detector band: 300, 825, 1425, 2200 MHz
        assert out.occupied_bands() == uniform_bands(2.5e9, 4)
        assert out.estimate.bin_resolution == pytest.approx(5e9 / 400)

    def test_zero_signal_halts_in_one_step(self):
        silent = GridSpectrumSpec(200, 5e9, ())
        out = run_frame(silent, _frame(), _halting(), DetectorConfig(uniform_bands(2.5e9, 4), 0.5), 7)
        assert out.halted
        assert out.steps_used == 1
        assert out.saved_slots == 7
        assert all(d.decision == "H0" for d in out.per_band_decisions)

    def test_exhausted_budget_recommends_rate_increase(self):
        halting = _halting(min_testing=10_000)
        out = run_frame(FOUR_TONES, _frame(), halting, DetectorConfig(uniform_bands(2.5e9, 4), 0.5), 7)
        assert not out.halted
        assert out.steps_used == 8
        assert out.saved_slots == 0
        assert out.recommend_rate_increase

    def test_outcome_json(self):
        out = run_frame(FOUR_TONES, _frame(), _halting(), DetectorConfig(uniform_bands(2.5e9, 4), 0.5), 7)
        payload = json.loads(out.to_json())
        assert payload["halted"] is True
        assert payload["steps_used"] == 2
        assert payload["halted_by"] == "criterion"
        assert sorted(payload["spectrum_support"]) == sorted(out.recovery.support)
        assert len(payload["spectrum_values"]) == len(payload["spectrum_support"])
        assert len(payload["decisions"]) == 4


    @pytest.mark.parametrize("halting", [
        _halting(),
        _halting(min_testing=25),
        _halting(min_testing=10_000),
        HaltingConfig(mode="noisy", max_sparsity=16, noise_std=0.05, accuracy=0.02,
                      min_testing=35),
    ], ids=["no-gate", "gate-opens-mid-budget", "gate-never-opens", "noisy-gate"])
    def test_recovers_only_where_the_gate_is_open(self, monkeypatch, halting):
        frame, det = _frame(), DetectorConfig(uniform_bands(2.5e9, 4), 0.5)
        p_final, _, _, reference = list(iter_frame_steps(FOUR_TONES, frame, halting, 7))[-1]
        bins = reference.estimate.bins
        estimate = Spectrum(bins=bins, bin_resolution=frame.nyquist_rate / len(bins))
        decisions = tuple(BandDecision(lo, hi, *energy_detect(estimate, (lo, hi), 0.5))
                          for lo, hi in det.bands)
        halted = reference.halted_by == "criterion"
        expected = SensingOutcome(halted, p_final, estimate, reference, decisions,
                                  max_steps(frame) - p_final, not halted)

        calls = []
        original = engine._sasr_then_omp

        def counting_sasr(training, testing, phi, psi, cfg):
            calls.append(phi.shape[1] // 200)
            return original(training, testing, phi, psi, cfg)

        monkeypatch.setattr(engine, "_sasr_then_omp", counting_sasr)
        out = run_frame(FOUR_TONES, frame, halting, det, 7)
        assert out.to_json() == expected.to_json()
        gate = halting.min_testing or 0
        open_steps = [p for p in range(1, p_final + 1) if 10 * p >= gate]
        assert calls == (open_steps or [p_final])


class TestEnergyDetect:
    def test_mirror_bins_pool_into_the_band(self):
        bins = np.zeros(10, dtype=complex)
        bins[2] = 3.0
        bins[7] = 4.0  # mirror of bin 3
        spectrum = Spectrum(bins=bins, bin_resolution=1.0)
        energy, decision = energy_detect(spectrum, (2.0, 3.0), 24.0)
        assert energy == pytest.approx(25.0)
        assert decision == "H1"

    def test_strictly_above_threshold(self):
        bins = np.zeros(10, dtype=complex)
        bins[1] = 2.0
        spectrum = Spectrum(bins=bins, bin_resolution=1.0)
        energy, decision = energy_detect(spectrum, (0.9, 1.1), 4.0)
        assert energy == pytest.approx(4.0)
        assert decision == "H0"

    def test_empty_band_warns(self):
        spectrum = Spectrum(bins=np.ones(10, dtype=complex), bin_resolution=1.0)
        with pytest.warns(UserWarning):
            energy, decision = energy_detect(spectrum, (4.4, 4.6), 1.0)
        assert energy == 0.0 and decision == "H0"

    def test_needs_resolution(self):
        with pytest.raises(ParameterError):
            energy_detect(Spectrum(bins=np.ones(4, dtype=complex)), (0.0, 1.0), 1.0)

    @pytest.mark.parametrize("band, threshold, message", [
        ((0.0, 1.0), 0.0, "detection threshold must be positive"),
        ((2.0, 1.0), 1.0, r"invalid band \(2.0, 1.0\)"),
        ((-1.0, 1.0), 1.0, r"invalid band \(-1.0, 1.0\)"),
    ])
    def test_rejects_bad_threshold_and_band(self, band, threshold, message):
        spectrum = Spectrum(bins=np.ones(4, dtype=complex), bin_resolution=1.0)
        with pytest.raises(ParameterError, match=message):
            energy_detect(spectrum, band, threshold)


class TestCalibrateLambda:
    def test_zero_energy_fallback(self):
        # the wide-accuracy criterion halts at zero iterations, so every
        # noise-only estimate is exactly zero and the quantile falls back
        halting = HaltingConfig(mode="noisy", max_sparsity=8, noise_std=0.5, accuracy=0.3)
        lam = calibrate_lambda(_frame(), halting, uniform_bands(2.5e9, 4), 0.1, 5, 3)
        assert lam == 1e-12

    def test_positive_quantile_and_determinism(self):
        halting = HaltingConfig(mode="noisy", max_sparsity=8, noise_std=0.5, accuracy=0.05)
        lam = calibrate_lambda(_frame(), halting, uniform_bands(2.5e9, 4), 0.25, 5, 3)
        assert lam == pytest.approx(10.33129587155209, rel=1e-12)
        again = calibrate_lambda(_frame(), halting, uniform_bands(2.5e9, 4), 0.25, 5, 3)
        assert again == lam

    def test_noise_frames_take_the_calibrate_substreams(self, monkeypatch):
        seeds = []

        def recording(spec, frame, halting, detector, master_seed):
            seeds.append(master_seed)
            return original(spec, frame, halting, detector, master_seed)

        original = engine.run_frame
        monkeypatch.setattr(engine, "run_frame", recording)
        halting = HaltingConfig(mode="noisy", max_sparsity=8, noise_std=0.5, accuracy=0.3)
        calibrate_lambda(_frame(), halting, uniform_bands(2.5e9, 4), 0.1, 3, 2**64 + 3)
        assert seeds == [stream_seed(3, "calibrate", t) for t in range(3)]
        assert all(type(seed) is int for seed in seeds)

    def test_requires_noisy_mode(self):
        with pytest.raises(ParameterError):
            calibrate_lambda(_frame(), _halting(), uniform_bands(2.5e9, 4), 0.1, 2, 0)

    def test_argument_ranges(self):
        halting = HaltingConfig(mode="noisy", max_sparsity=8, noise_std=0.5, accuracy=0.3)
        with pytest.raises(ParameterError):
            calibrate_lambda(_frame(), halting, uniform_bands(2.5e9, 4), 1.5, 2, 0)
        with pytest.raises(ParameterError):
            calibrate_lambda(_frame(), halting, uniform_bands(2.5e9, 4), 0.1, 0, 0)


def test_run_frame_determinism():
    det = DetectorConfig(uniform_bands(2.5e9, 4), 0.5)
    a = run_frame(FOUR_TONES, _frame(), _halting(), det, 11)
    b = run_frame(FOUR_TONES, _frame(), _halting(), det, 11)
    assert a.to_json() == b.to_json()
    c = run_frame(FOUR_TONES, _frame(), _halting(), det, 12)
    assert a.steps_used == b.steps_used
    assert c.to_json() != a.to_json() or c.steps_used != a.steps_used


# Frame-scale frames (1000 Nyquist samples and 200 rows per step) whose last
# bits move with the BLAS thread count unless each step pins BLAS to one
# thread, then a calibration.  Standard error gets the caller's thread count
# after run_frame and at each suspension of an iter_frame_steps generator.
_BLAS_SCRIPT = """
import sys
import numpy as np
from widesense.engine import (DetectorConfig, FrameConfig, calibrate_lambda, iter_frame_steps,
                              run_frame, uniform_bands)
from widesense.rng import _blas_threads
from widesense.signals import random_grid_spectrum
from widesense.validation import HaltingConfig

getter, _ = _blas_threads()
frame = FrameConfig(frame_length=4e-6, min_transmission=2.4e-6, time_step=0.2e-6,
                    nyquist_rate=5e9, sub_nyquist_rate=1e9, testing_per_step=60)
halting = HaltingConfig(mode="noiseless", max_sparsity=80, error_threshold=1.0,
                        confidence_factor=0.2)
detector = DetectorConfig(uniform_bands(2.5e9, 4), 10.0)
threads = []
for seed in range(4):
    spec = random_grid_spectrum(np.random.default_rng(seed), 1000, 5e9, 32, 4,
                                amplitude_scale=0.08, background_level=1e-4)
    print(run_frame(spec, frame, halting, detector, seed).to_json())
    threads.append(getter())
for _p, _window, _ms, recovery in iter_frame_steps(spec, frame, halting, 7):
    threads.append(getter())
    print(recovery.estimate.bins.tobytes().hex())
noisy = HaltingConfig(mode="noisy", max_sparsity=8, noise_std=0.5, accuracy=0.02)
print(repr(calibrate_lambda(frame, noisy, uniform_bands(2.5e9, 4), 0.25, 3, 3)))
threads.append(getter())
sys.stderr.write(" ".join(map(str, threads)))
"""


def test_frames_do_not_depend_on_the_blas_thread_count():
    source = str(Path(engine.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT], capture_output=True,
                              env=env, timeout=300, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    counts = done.stderr.decode().split()
    assert len(counts) > 5 and set(counts) == {"2"}
