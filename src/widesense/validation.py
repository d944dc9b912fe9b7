"""Validation statistics and halting rules for sequential sensing.

The held-out testing rows give an inexpensive proxy for the unobservable
recovery error.  With v_p testing measurements V = Psi @ idft(X) (+ noise)
and an estimate Xhat, the validation parameter is the mean modulus of the
testing residual,

    rho = || V - Psi @ idft(Xhat) ||_1 / v_p .

Noiseless case: for a Gaussian Psi with unit-variance entries, the scaled
statistic sqrt(pi * n / 2) * rho concentrates around the spectral error
||X - Xhat||_2 (n = spectrum length), and with confidence at least
1 - 4 exp(-v_p eta^2 / C),

    sqrt(pi n / 2) rho / (1 + eta)  <=  ||X - Xhat||_2  <=  sqrt(pi n / 2) rho / (1 - eta).

:func:`confidence_interval` gives this interval, which depends on rho, n and
eta only; :func:`confidence_floor_noiseless` gives its confidence bound.

Sensing halts once rho <= threshold(1 - eta) sqrt(2 / (pi n)), or, when a
failure probability xi is targeted instead of a fixed eta, once

    rho <= threshold * (1 - sqrt((C / v_p) ln(4 / xi))) * sqrt(2 / (pi n)).

Noisy case: when the estimate matches the spectrum exactly, the residual is
pure receiver noise, whose moduli are Rayleigh with mean sqrt(pi/2) * delta.
Halting tests |rho - sqrt(pi/2) delta| <= theta; the budget

    v_p = ceil( ln(2 / rho_fail) ((4 - pi) delta^2 + 2 theta delta) / theta^2 )

makes that event miss with probability at most rho_fail, and conversely the
achievable accuracy theta at fixed (rho_fail, v_p) is the positive root of

    v_p theta^2 - (1/2) ln(2 / rho_fail) delta theta - (4 - pi) ln(2 / rho_fail) delta^2 = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

from .errors import CriterionUnsatisfiableWarning, ParameterError, check_fields, from_fields

__all__ = [
    "RAYLEIGH_MEAN_FACTOR",
    "FOUR_MINUS_PI",
    "HaltingConfig",
    "ValidationReport",
    "scaled_validation_parameter",
    "confidence_interval",
    "confidence_floor_noiseless",
    "testing_size_noiseless",
    "noiseless_threshold",
    "can_halt",
    "halting_rule",
    "testing_size_noisy",
    "confidence_floor_noisy",
    "accuracy_from_confidence",
]

RAYLEIGH_MEAN_FACTOR = math.sqrt(math.pi / 2.0)
FOUR_MINUS_PI = 4.0 - math.pi


@dataclass(frozen=True)
class HaltingConfig:
    """Halting rule parameters for one sensing run.

    ``mode`` selects the criterion: "noiseless" compares the scaled
    validation parameter against ``error_threshold``; "noisy" tests whether
    the validation parameter sits within ``accuracy`` of the pure-noise mean.
    ``max_sparsity`` caps greedy recovery iterations in either mode.

    ``min_testing``, when set, withholds halting until the testing subset
    has at least that many rows, regardless of the criterion value.  A
    sequential design sets it to the sizing-rule output so validation is
    only trusted once it carries the intended confidence.
    """

    mode: str
    max_sparsity: int
    error_threshold: float | None = None
    confidence_factor: float | None = None
    jl_constant: float = 1.0
    failure_prob: float | None = None
    noise_std: float | None = None
    accuracy: float | None = None
    min_testing: int | None = None

    def __post_init__(self) -> None:
        check_fields("halting", self)
        if self.mode not in ("noiseless", "noisy"):
            raise ParameterError(f"mode must be 'noiseless' or 'noisy', got {self.mode!r}")
        if self.max_sparsity < 1:
            raise ParameterError("max_sparsity must be >= 1")
        if self.jl_constant <= 0:
            raise ParameterError("jl_constant must be positive")
        if self.min_testing is not None and self.min_testing < 1:
            raise ParameterError("min_testing must be >= 1 when set")
        if self.mode == "noiseless":
            if self.error_threshold is None or self.error_threshold <= 0:
                raise ParameterError("noiseless mode needs a positive error_threshold")
            if self.confidence_factor is None or not 0.0 < self.confidence_factor < 1.0:
                raise ParameterError("confidence_factor must lie in (0, 1)")
            if self.failure_prob is not None and not 0.0 < self.failure_prob < 4.0:
                raise ParameterError("failure_prob must lie in (0, 4)")
        else:
            if self.noise_std is None or self.noise_std <= 0:
                raise ParameterError("noisy mode needs a positive noise_std")
            if self.accuracy is None or self.accuracy <= 0:
                raise ParameterError("noisy mode needs a positive accuracy")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "HaltingConfig":
        return from_fields(cls, "halting", raw)


@dataclass(frozen=True)
class ValidationReport:
    """Scaled validation parameter with its implied error interval."""

    scaled_rho: float
    interval_low: float
    interval_high: float


def scaled_validation_parameter(rho: float, n: int) -> float:
    """Error-scale proxy sqrt(pi * n / 2) * rho for spectrum length n."""
    if n < 1:
        raise ParameterError("spectrum length must be positive")
    return math.sqrt(math.pi * n / 2.0) * rho


def confidence_interval(rho: float, n: int, eta: float) -> ValidationReport:
    """Two-sided error interval implied by the validation parameter.

    At spectrum length ``n`` the true spectral error lies in
    [scaled/(1+eta), scaled/(1-eta)], with a probability that
    :func:`confidence_floor_noiseless` bounds from below.
    """
    if rho < 0:
        raise ParameterError("rho must be >= 0")
    if not 0.0 < eta < 0.5:
        raise ParameterError("eta must lie in (0, 0.5)")
    scaled = scaled_validation_parameter(rho, n)
    return ValidationReport(
        scaled_rho=scaled,
        interval_low=scaled / (1.0 + eta),
        interval_high=scaled / (1.0 - eta),
    )


def confidence_floor_noiseless(v_p: int, eta: float, jl_constant: float = 1.0) -> float:
    """Lower bound 1 - 4 exp(-v_p eta^2 / C) on the coverage of the
    :func:`confidence_interval` from ``v_p`` testing rows, clipped to [0, 1]."""
    if jl_constant <= 0:
        raise ParameterError("jl_constant must be positive")
    floor = 1.0 - 4.0 * math.exp(-v_p * eta * eta / jl_constant)
    return min(max(floor, 0.0), 1.0)


def testing_size_noiseless(eta: float, xi: float, jl_constant: float = 1.0) -> int:
    """Testing rows needed for interval confidence 1 - xi at factor eta."""
    if not 0.0 < eta <= 0.5:
        raise ParameterError("eta must lie in (0, 0.5]")
    if not 0.0 < xi < 4.0:
        raise ParameterError("xi must lie in (0, 4)")
    if jl_constant <= 0:
        raise ParameterError("jl_constant must be positive")
    return math.ceil(jl_constant / (eta * eta) * math.log(4.0 / xi))


def noiseless_threshold(n: int, cfg: HaltingConfig, v_p: int | None = None) -> float:
    """Halting threshold on rho for the noiseless criterion at spectrum length n.

    With a fixed confidence factor the threshold is
    threshold * (1 - eta) * sqrt(2 / (pi n)).  When ``cfg.failure_prob``
    is set the confidence bracket 1 - sqrt((C / v_p) ln(4 / xi)) replaces
    (1 - eta); a non-positive bracket means no residual, however small, can
    satisfy the criterion at this testing size, which is reported as a
    :class:`CriterionUnsatisfiableWarning` (the threshold is then <= 0).
    """
    if cfg.mode != "noiseless":
        raise ParameterError("noiseless_threshold needs a noiseless-mode config")
    if n < 1:
        raise ParameterError("spectrum length must be positive")
    scale = math.sqrt(2.0 / (math.pi * n))
    if cfg.failure_prob is None:
        bracket = 1.0 - cfg.confidence_factor
    else:
        if v_p is None or v_p < 1:
            raise ParameterError(
                "the fixed-confidence criterion needs the testing size v_p"
            )
        bracket = 1.0 - math.sqrt(cfg.jl_constant / v_p * math.log(4.0 / cfg.failure_prob))
        if bracket <= 0.0:
            warnings.warn(
                f"halting criterion unsatisfiable: confidence bracket "
                f"{bracket:.4f} <= 0 at v_p = {v_p}",
                CriterionUnsatisfiableWarning,
                stacklevel=2,
            )
    return cfg.error_threshold * bracket * scale


def can_halt(cfg: HaltingConfig, v_p: int) -> bool:
    """Whether ``v_p`` testing rows are enough for the halting rule to fire.

    A configured ``min_testing`` above ``v_p`` keeps the rule closed for
    every rho; without one the rule is always open.
    """
    return cfg.min_testing is None or v_p >= cfg.min_testing


def halting_rule(cfg: HaltingConfig, n: int, v_p: int):
    """Predicate on rho telling whether sensing halts at spectrum length ``n``.

    The rule is fixed within a step, so it is resolved once: it stays
    closed for every rho unless :func:`can_halt`, the noiseless mode
    compares rho with :func:`noiseless_threshold` (computed, and warned
    about when unsatisfiable, here), and the noisy mode tests whether rho
    sits within ``accuracy`` of the pure-noise mean.
    """
    if not can_halt(cfg, v_p):
        return lambda rho: False
    if cfg.mode == "noiseless":
        threshold = noiseless_threshold(n, cfg, v_p)
        return lambda rho: rho <= threshold
    centre = RAYLEIGH_MEAN_FACTOR * cfg.noise_std
    return lambda rho: abs(rho - centre) <= cfg.accuracy


def testing_size_noisy(theta: float, delta: float, failure_prob: float) -> int:
    """Testing rows for the noisy criterion to fire with miss rate <= failure_prob."""
    if theta <= 0 or delta <= 0:
        raise ParameterError("theta and delta must be positive")
    if not 0.0 < failure_prob < 2.0:
        raise ParameterError("failure_prob must lie in (0, 2)")
    num = math.log(2.0 / failure_prob) * (FOUR_MINUS_PI * delta * delta + 2.0 * theta * delta)
    return math.ceil(num / (theta * theta))


def confidence_floor_noisy(v_p: int, theta: float, delta: float) -> float:
    """Lower bound on the noisy criterion firing when the estimate is exact."""
    if v_p < 1:
        raise ParameterError("v_p must be >= 1")
    if theta <= 0 or delta <= 0:
        raise ParameterError("theta and delta must be positive")
    floor = 1.0 - 2.0 * math.exp(
        -v_p * theta * theta / (FOUR_MINUS_PI * delta * delta + 2.0 * theta * delta)
    )
    return min(max(floor, 0.0), 1.0)


def accuracy_from_confidence(failure_prob: float, delta: float, v_p: int) -> float:
    """Smallest accuracy theta achievable at (failure_prob, v_p).

    Positive root of v theta^2 - (1/2) L delta theta - (4 - pi) L delta^2 = 0
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
