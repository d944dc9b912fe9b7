import dataclasses
import math
import re

import numpy as np
import pytest

from oracles import accuracy_from_confidence, testing_size_noisy, validation_parameter
from widesense.errors import CriterionUnsatisfiableWarning, DimensionError, ParameterError
from widesense.signals import Spectrum
from widesense.validation import (
    FOUR_MINUS_PI,
    RAYLEIGH_MEAN_FACTOR,
    HaltingConfig,
    can_halt,
    confidence_floor_noiseless,
    confidence_floor_noisy,
    confidence_interval,
    halting_rule,
    noiseless_threshold,
    testing_size_noiseless,
)


def _noiseless_cfg(**kw):
    base = dict(mode="noiseless", max_sparsity=10, error_threshold=1.0, confidence_factor=0.2)
    base.update(kw)
    return HaltingConfig(**base)


def _noisy_cfg(**kw):
    base = dict(mode="noisy", max_sparsity=10, noise_std=1.0, accuracy=0.6)
    base.update(kw)
    return HaltingConfig(**base)


class TestHaltingConfig:
    def test_mode_specific_requirements(self):
        with pytest.raises(ParameterError):
            HaltingConfig(mode="noiseless", max_sparsity=5)
        with pytest.raises(ParameterError):
            HaltingConfig(mode="noisy", max_sparsity=5, noise_std=1.0)
        with pytest.raises(ParameterError):
            HaltingConfig(mode="quiet", max_sparsity=5)

    def test_confidence_factor_range(self):
        with pytest.raises(ParameterError):
            _noiseless_cfg(confidence_factor=1.0)
        with pytest.raises(ParameterError):
            _noiseless_cfg(confidence_factor=0.0)

    def test_noisy_mode_rejects_zero_noise(self):
        with pytest.raises(ParameterError):
            _noisy_cfg(noise_std=0.0)

    def test_round_trip(self):
        cfg = _noiseless_cfg(failure_prob=0.05, min_testing=40)
        assert HaltingConfig.from_dict(dataclasses.asdict(cfg)) == cfg
        noisy = _noisy_cfg(min_testing=20)
        assert HaltingConfig.from_dict(dataclasses.asdict(noisy)) == noisy

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError):
            HaltingConfig.from_dict({"mode": "noisy", "max_sparsity": 5, "sigma": 1.0})
        raw = dict(dataclasses.asdict(_noisy_cfg()), confidence_floor=0.9)
        with pytest.raises(ParameterError, match="confidence_floor"):
            HaltingConfig.from_dict(raw)

    @pytest.mark.parametrize("key", ["mode", "max_sparsity"])
    def test_from_dict_names_missing_keys(self, key):
        raw = dataclasses.asdict(_noisy_cfg())
        del raw[key]
        with pytest.raises(ParameterError, match=key):
            HaltingConfig.from_dict(raw)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, field", [
        (_noiseless_cfg, "max_sparsity"),
        (_noiseless_cfg, "error_threshold"),
        (_noiseless_cfg, "confidence_factor"),
        (_noiseless_cfg, "jl_constant"),
        (_noiseless_cfg, "failure_prob"),
        (_noiseless_cfg, "min_testing"),
        (_noisy_cfg, "noise_std"),
        (_noisy_cfg, "accuracy"),
    ])
    def test_rejects_non_finite_numbers(self, make, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            make(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("max_sparsity", 2.5, "must be an integer"),
        ("max_sparsity", True, "must be a real number"),
        ("min_testing", 40.0, "must be an integer"),
        ("min_testing", "abc", "must be a real number"),
        ("error_threshold", "1.0", "must be a real number"),
        ("max_sparsity", 0, "must be >= 1"),
        ("jl_constant", 0.0, "must be positive"),
        ("min_testing", 0, "must be >= 1 when set"),
        ("failure_prob", 4.0, r"must lie in \(0, 4\)"),
    ])
    def test_rejects_ill_typed_fields(self, field, value, message):
        with pytest.raises(ParameterError, match=f"{field} {message}"):
            _noiseless_cfg(**{field: value})


class TestValidationParameter:
    def test_matches_hand_computation(self):
        bins = np.zeros(8, dtype=complex)
        bins[2] = 4.0
        psi = np.eye(3, 8)
        truth = psi @ np.fft.ifft(bins)
        testing = truth + np.array([0.3, -0.4, 1.2j])
        rho = validation_parameter(testing, psi, Spectrum(bins=bins))
        assert rho == pytest.approx((0.3 + 0.4 + 1.2) / 3)

    def test_accepts_raw_bins(self):
        psi = np.ones((2, 4))
        rho = validation_parameter(np.zeros(2), psi, np.zeros(4))
        assert rho == 0.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            validation_parameter(np.zeros(3), np.zeros((2, 4)), np.zeros(4))

    def test_rejects_empty_testing(self):
        with pytest.raises(ParameterError):
            validation_parameter(np.zeros(0), np.zeros((0, 4)), np.zeros(4))


def test_scaled_parameter_formula():
    assert confidence_interval(0.1, 200, 0.2).scaled_rho == pytest.approx(
        math.sqrt(math.pi * 100) * 0.1
    )
    with pytest.raises(ParameterError):
        confidence_interval(0.1, 0, 0.2)


class TestConfidenceInterval:
    def test_frozen_example(self):
        report = confidence_interval(rho=0.1, n=200, eta=0.2)
        assert report.scaled_rho == pytest.approx(1.7724538509055163)
        assert report.interval_low == pytest.approx(1.477044875754597)
        assert report.interval_high == pytest.approx(2.215567313631895)

    def test_interval_contains_scaled_value(self):
        report = confidence_interval(rho=0.37, n=300, eta=0.3)
        assert report.interval_low <= report.scaled_rho <= report.interval_high

    def test_eta_range_enforced(self):
        for eta in (0.0, 0.5, 0.7):
            with pytest.raises(ParameterError):
                confidence_interval(0.1, 100, eta)

    @pytest.mark.parametrize("rho, n, eta, message", [
        (-0.1, 100, 0.2, "rho must be >= 0"),
        (0.1, 100, 0.5, "eta must lie in (0, 0.5)"),
        (0.1, 0, 0.2, "spectrum length must be positive"),
    ])
    def test_rejects_out_of_range_arguments(self, rho, n, eta, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            confidence_interval(rho, n, eta)


class TestNoiselessConfidenceFloor:
    def test_frozen_example(self):
        assert confidence_floor_noiseless(40, 0.2) == 0.19241392802137847

    def test_floor_clips_to_zero(self):
        assert confidence_floor_noiseless(1, 0.2) == 0.0

    def test_jl_constant_scales_the_exponent(self):
        assert confidence_floor_noiseless(80, 0.2, 2.0) == confidence_floor_noiseless(40, 0.2)

    @pytest.mark.parametrize("jl_constant", [0.0, -1.0])
    def test_rejects_non_positive_jl_constant(self, jl_constant):
        with pytest.raises(ParameterError, match="jl_constant must be positive"):
            confidence_floor_noiseless(40, 0.2, jl_constant)


class TestSizingRules:
    def test_noiseless_frozen_values(self):
        assert testing_size_noiseless(0.2, 0.05, 1.0) == 110
        assert testing_size_noiseless(0.5, 4.0 / math.e, 1.0) == 4
        assert testing_size_noiseless(0.2, 0.005) == 168

    def test_noiseless_scales_with_constant(self):
        assert testing_size_noiseless(0.2, 0.05, 2.0) == 220

    @pytest.mark.parametrize("eta, xi, jl_constant, message", [
        (0.0, 0.05, 1.0, "eta must lie in (0, 0.5]"),
        (0.6, 0.05, 1.0, "eta must lie in (0, 0.5]"),
        (0.2, 4.0, 1.0, "xi must lie in (0, 4)"),
        (0.2, 0.05, 0.0, "jl_constant must be positive"),
    ])
    def test_noiseless_argument_ranges(self, eta, xi, jl_constant, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            testing_size_noiseless(eta, xi, jl_constant)

    def test_noisy_frozen_values(self):
        assert testing_size_noisy(0.6, 1.0, 0.05) == 22
        assert testing_size_noisy(1.0, 1.0, 2.0 / math.e) == 3

    def test_noisy_argument_ranges(self):
        with pytest.raises(ParameterError):
            testing_size_noisy(0.0, 1.0, 0.1)
        with pytest.raises(ParameterError):
            testing_size_noisy(0.5, 1.0, 2.0)

    def test_sizing_and_floor_are_consistent(self):
        """The sized testing set achieves at least the promised confidence."""
        for theta, delta, fail in ((0.6, 1.0, 0.05), (0.3, 2.0, 0.2), (1.5, 0.5, 0.01)):
            v = testing_size_noisy(theta, delta, fail)
            assert confidence_floor_noisy(v, theta, delta) >= 1.0 - fail
            # one row fewer must not: v is the minimal integer budget
            if v > 1:
                raw = 1.0 - 2.0 * math.exp(
                    -(v - 1) * theta**2 / (FOUR_MINUS_PI * delta**2 + 2 * theta * delta)
                )
                assert raw < 1.0 - fail


def test_confidence_floor_noisy_frozen_value():
    assert confidence_floor_noisy(50, 0.6, 1.0) == pytest.approx(0.9996813692513852)
    # weak accuracy pushes the raw bound negative; result clips to zero
    assert confidence_floor_noisy(1, 0.001, 1.0) == 0.0


@pytest.mark.parametrize("v_p, theta, delta, message", [
    (0, 0.6, 1.0, "v_p must be >= 1"),
    (50, 0.0, 1.0, "theta and delta must be positive"),
    (50, 0.6, -1.0, "theta and delta must be positive"),
])
def test_confidence_floor_noisy_argument_ranges(v_p, theta, delta, message):
    with pytest.raises(ParameterError, match=message):
        confidence_floor_noisy(v_p, theta, delta)


def test_accuracy_from_confidence_solves_quadratic():
    fail, delta, v = 2.0 / math.e, 1.0, 100
    theta = accuracy_from_confidence(fail, delta, v)
    assert theta == pytest.approx(0.09518399788583824)
    log_term = math.log(2.0 / fail)
    lhs = v * theta**2 - 0.5 * log_term * delta * theta - FOUR_MINUS_PI * log_term * delta**2
    assert abs(lhs) < 1e-9 * v * theta**2


def test_accuracy_shrinks_with_testing_budget():
    thetas = [accuracy_from_confidence(0.1, 1.0, v) for v in (10, 40, 160, 640)]
    assert all(a > b for a, b in zip(thetas, thetas[1:]))
    # quadruple the budget, roughly halve the accuracy in the sqrt regime
    assert thetas[2] / thetas[3] == pytest.approx(2.0, rel=0.1)


class TestNoiselessThreshold:
    def test_fixed_eta_frozen_value(self):
        cfg = _noiseless_cfg()
        assert noiseless_threshold(200, cfg) == pytest.approx(0.045135166683820505)

    def test_fixed_confidence_bracket(self):
        cfg = _noiseless_cfg(failure_prob=0.05)
        got = noiseless_threshold(200, cfg, v_p=110)
        bracket = 1.0 - math.sqrt(math.log(4.0 / 0.05) / 110)
        assert got == pytest.approx(bracket * math.sqrt(2.0 / (math.pi * 200)))

    def test_fixed_confidence_needs_v(self):
        cfg = _noiseless_cfg(failure_prob=0.05)
        with pytest.raises(ParameterError):
            noiseless_threshold(200, cfg)

    @pytest.mark.parametrize("n, cfg, message", [
        (200, _noisy_cfg(), "noiseless_threshold needs a noiseless-mode config"),
        (0, _noiseless_cfg(), "spectrum length must be positive"),
    ])
    def test_rejects_noisy_config_and_empty_spectrum(self, n, cfg, message):
        with pytest.raises(ParameterError, match=message):
            noiseless_threshold(n, cfg)

    def test_warns_when_unsatisfiable(self):
        cfg = _noiseless_cfg(failure_prob=0.05)
        with pytest.warns(CriterionUnsatisfiableWarning):
            thr = noiseless_threshold(200, cfg, v_p=2)
        assert thr <= 0.0

    def test_halt_noiseless_agrees_with_threshold(self):
        cfg = _noiseless_cfg()
        thr = noiseless_threshold(200, cfg)
        halts = halting_rule(cfg, 200, 10)
        assert halts(thr * 0.999)
        assert not halts(thr * 1.001)


class TestHaltNoisy:
    def test_frozen_decisions(self):
        halts = halting_rule(_noisy_cfg(), 100, 10)
        assert not halts(1.9)
        assert halts(0.7)

    def test_centered_on_rayleigh_mean(self):
        cfg = _noisy_cfg(noise_std=2.0, accuracy=0.1)
        assert halting_rule(cfg, 100, 10)(RAYLEIGH_MEAN_FACTOR * 2.0)


@pytest.mark.parametrize("cfg", [
    _noiseless_cfg(min_testing=40),
    _noisy_cfg(noise_std=1e-9, min_testing=40),
])
def test_halting_rule_closed_below_min_testing(cfg):
    assert not halting_rule(cfg, 200, 39)(0.0)
    assert halting_rule(cfg, 200, 40)(0.0)


def test_can_halt_gates_on_min_testing():
    assert can_halt(_noiseless_cfg(), 1)
    assert not can_halt(_noiseless_cfg(min_testing=40), 39)
    assert can_halt(_noiseless_cfg(min_testing=40), 40)
