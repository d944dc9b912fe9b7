"""Workload inputs and output checks for the widesense benchmark.

A workload is a list of rounds; a round is a fixed mix of operations, and an
operation is one ``widesense`` command (``frame`` or a single-cell ``run``).
Every input is drawn here from the workload seed with the standard library,
so the program receives only generated configs.  The checks compare each
output with a computation made here, apart from the program, or with a
property the method must have; no earlier output is used as a golden copy.

This module imports nothing from NumPy or widesense, so that building the
configs can be timed together with the import of the program.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("frame", "sweep_small", "sweep_pursuit")

# Rounds built before the first operation; a run that needs more cycles them.
POOL_ROUNDS = {"frame": 8, "sweep_small": 32, "sweep_pursuit": 16}

# Wall seconds of one round on the reference machine (see README.md).  Only
# the traced run reads them, to pick a round count from --seconds alone, so
# that its counts repeat exactly from run to run.
NOMINAL_ROUND_S = {"frame": 11.0, "sweep_small": 1.5, "sweep_pursuit": 4.0}

# Frame scale shared with the error_tracking and single_frame experiments:
# an 8-step budget, 1000 Nyquist samples and 200 measurements per step.
NYQUIST_RATE = 5e9
FRAME = {
    "frame_length": 4e-6,
    "min_transmission": 2.4e-6,
    "time_step": 0.2e-6,
    "nyquist_rate": NYQUIST_RATE,
    "sub_nyquist_rate": 1e9,
}
NYQUIST_PER_STEP = 1000
MIN_TESTING = 168
BAND_COUNT = 10
BAND_BINS = NYQUIST_PER_STEP // 2 // BAND_COUNT   # 50 slot bins per band
DETECTION_THRESHOLD = 10.0
BACKGROUND_LEVEL = 1e-4
SPECTRUM_TOLERANCE = 1e-3

# One check in a million may fail by chance on a correct program.
CHANCE_FAILURE = 1e-6


@dataclass
class Op:
    """One widesense command with the facts its check needs."""

    command: str              # "frame" or "run"
    config: dict
    trials: int
    expect: dict = field(default_factory=dict)
    path: object = None       # where set-up wrote the config


def _rng(workload: str, seed: int, round_index: int, op_index: int) -> random.Random:
    return random.Random(f"widesense-bench/{workload}/{seed}/{round_index}/{op_index}")


def _master_seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


# ---------------------------------------------------------------------------
# frame


def draw_tones(rng: random.Random, n_tones: int) -> list:
    """``n_tones`` tones (twice as many occupied bins) in 2 to 4 contiguous groups.

    Groups sit in slot bins 1..499 with at least one empty bin between
    neighbours.  Each group has one power, uniform in dB over [7, 25], and
    amplitude 0.08 * sqrt(2 * power), as in the frame experiments.
    """
    n_groups = rng.randint(2, 4)
    sizes = [n_tones // n_groups + (i < n_tones % n_groups) for i in range(n_groups)]
    half = NYQUIST_PER_STEP // 2
    free = half - 1 - n_tones - (n_groups - 1)
    offsets = sorted(rng.randint(0, free) for _ in range(n_groups))
    tones = []
    for i, (size, offset) in enumerate(zip(sizes, offsets)):
        begin = 1 + offset + sum(sizes[:i]) + i
        amplitude = 0.08 * math.sqrt(2.0 * 10.0 ** (rng.uniform(7.0, 25.0) / 10.0))
        for m in range(begin, begin + size):
            tones.append([m, amplitude, rng.uniform(0.0, 2.0 * math.pi)])
    return tones


def frame_op(rng: random.Random, testing_per_step: int, occupied_bins: int) -> Op:
    tones = draw_tones(rng, occupied_bins // 2)
    band_hz = NYQUIST_RATE / 2.0 / BAND_COUNT
    config = {
        "signal": {
            "reference_length": NYQUIST_PER_STEP,
            "nyquist_hz": NYQUIST_RATE,
            "tones": tones,
            "background": [BACKGROUND_LEVEL, rng.getrandbits(32)],
        },
        "frame": dict(FRAME, testing_per_step=testing_per_step),
        "halting": {
            "mode": "noiseless", "max_sparsity": 80, "error_threshold": 1.0,
            "confidence_factor": 0.2, "min_testing": MIN_TESTING,
        },
        "detector": {
            "bands": [[b * band_hz, (b + 1) * band_hz] for b in range(BAND_COUNT)],
            "threshold": DETECTION_THRESHOLD,
        },
        "master_seed": _master_seed(rng),
    }
    return Op("frame", config, 1, {"tones": tones})


def step_budget(frame: dict) -> int:
    """Sensing steps that leave ``min_transmission`` free, from the timings."""
    span = frame["frame_length"] - frame["min_transmission"]
    return int(math.floor(span / frame["time_step"] + 1e-9))


def tone_spectrum(tones, steps: int) -> dict:
    """DFT of the tones alone over ``steps`` slots: bins p*m and pN - p*m."""
    length = steps * NYQUIST_PER_STEP
    bins = {}
    for m, amplitude, phase in tones:
        half = amplitude * length / 2.0
        bins[steps * m] = half * cmath.exp(1j * phase)
        bins[length - steps * m] = half * cmath.exp(-1j * phase)
    return bins


def check_frame(op: Op, out: dict) -> list:
    problems = []
    frame = op.config["frame"]
    steps = out["steps_used"]
    budget = step_budget(frame)
    if out["saved_slots"] + steps != budget:
        problems.append(f"saved_slots {out['saved_slots']} + steps_used {steps} != budget {budget}")
    if out["halted"] and frame["testing_per_step"] * steps < MIN_TESTING:
        problems.append(f"halted at step {steps} with fewer than {MIN_TESTING} testing rows")
    if out["spectrum_length"] != steps * NYQUIST_PER_STEP:
        problems.append(f"spectrum length {out['spectrum_length']} for {steps} steps")
        return problems
    truth = tone_spectrum(op.expect["tones"], steps)
    estimate = {j: complex(re, im) for j, (re, im) in
                zip(out["spectrum_support"], out["spectrum_values"])}
    error = sum(abs(estimate.get(j, 0) - truth.get(j, 0)) ** 2 for j in set(truth) | set(estimate))
    energy = sum(abs(x) ** 2 for x in truth.values())
    if error > SPECTRUM_TOLERANCE * energy:
        problems.append(f"spectrum relative squared error {error / energy:.3g} > {SPECTRUM_TOLERANCE}")
    problems += check_bands(op.expect["tones"], out["decisions"])
    return problems


def check_bands(tones, decisions) -> list:
    """H1 for a tone strictly inside a band, H0 for none in its closed interval.

    Bands and tones are compared in slot bins; a band with a tone on an edge
    bin and none inside is not judged.
    """
    if len(decisions) != BAND_COUNT:
        return [f"{len(decisions)} band decisions for {BAND_COUNT} bands"]
    problems = []
    bins = [m for m, _a, _ph in tones]
    for b, decision in enumerate(decisions):
        low, high = b * BAND_BINS, (b + 1) * BAND_BINS
        if any(low < m < high for m in bins):
            expected = "H1"
        elif any(m in (low, high) for m in bins):
            continue
        else:
            expected = "H0"
        if decision["decision"] != expected:
            problems.append(f"band {b} decided {decision['decision']}, expected {expected}")
    return problems


def frame_round(seed: int, r: int) -> list:
    """Four frames that halt at step 3 (v = 60) and one at step 5 (v = 40).

    The median frame of a run is thus one of the first kind, near the middle
    of them.  Pursuit work grows with the occupied bins, so the v = 60
    frames come in two pairs that take 16 to 32 bins and sum to 48, and the
    v = 40 frame takes 24: every round then costs about the same whatever
    the seed.
    """
    pick = _rng("frame", seed, r, -1)
    first, second = (2 * pick.randint(8, 16) for _ in range(2))
    mix = ((60, first), (60, 48 - first), (60, second), (60, 48 - second), (40, 24))
    return [frame_op(_rng("frame", seed, r, i), v, k) for i, (v, k) in enumerate(mix)]


# ---------------------------------------------------------------------------
# sweep_small


PHASE_MEASUREMENTS = 100
PHASE_SPARSITIES = (5, 15, 25, 35)
PHASE_TRIALS = 30
COVERAGE_CELLS = ((0.3, 40), (0.2, 60))      # (confidence_factor, testing_size)
COVERAGE_TRIALS = 400
HALTING_CELLS = ((0.6, 60), (0.65, 40))      # (accuracy_factor, testing_size)
HALTING_TRIALS = 300
SIGNAL_LENGTH = 200
JL_CONSTANT = 1.0
NOISE_STD = 1.0


def run_op(name: str, grid: dict, base: dict, trials: int, rng: random.Random, **expect) -> Op:
    config = {"name": name, "trials": trials, "grid": {k: [v] for k, v in grid.items()},
              "base": base, "master_seed": _master_seed(rng)}
    return Op("run", config, trials, dict(expect, grid=grid))


def sweep_small_round(seed: int, r: int) -> list:
    ops = []
    for k in PHASE_SPARSITIES:
        ops.append(run_op("phase_transition", {"measurements": PHASE_MEASUREMENTS, "sparsity": k},
                          {"signal_length": SIGNAL_LENGTH}, PHASE_TRIALS,
                          _rng("sweep_small", seed, r, len(ops))))
    for eta, v in COVERAGE_CELLS:
        ops.append(run_op("interval_coverage", {"confidence_factor": eta, "testing_size": v},
                          {"signal_length": SIGNAL_LENGTH, "jl_constant": JL_CONSTANT},
                          COVERAGE_TRIALS, _rng("sweep_small", seed, r, len(ops)),
                          floor=coverage_floor(v, eta, JL_CONSTANT)))
    for factor, v in HALTING_CELLS:
        ops.append(run_op("halting_probability", {"accuracy_factor": factor, "testing_size": v},
                          {"signal_length": SIGNAL_LENGTH, "noise_std": NOISE_STD},
                          HALTING_TRIALS, _rng("sweep_small", seed, r, len(ops)),
                          floor=halting_floor(v, factor * NOISE_STD, NOISE_STD)))
    return ops


def coverage_floor(v: int, eta: float, jl_constant: float) -> float:
    """1 - 4 exp(-v eta^2 / C), clipped at 0."""
    return max(0.0, 1.0 - 4.0 * math.exp(-v * eta * eta / jl_constant))


def halting_floor(v: int, theta: float, delta: float) -> float:
    """1 - 2 exp(-v theta^2 / ((4 - pi) delta^2 + 2 theta delta)), clipped at 0."""
    denominator = (4.0 - math.pi) * delta * delta + 2.0 * theta * delta
    return max(0.0, 1.0 - 2.0 * math.exp(-v * theta * theta / denominator))


def allowed_misses(trials: int, miss_probability: float) -> int:
    """Fewest misses k with P(Binomial(trials, miss_probability) > k) <= CHANCE_FAILURE."""
    q = min(max(miss_probability, 0.0), 1.0)
    if q == 0.0:
        return 0
    if q == 1.0:
        return trials
    log_q, log_p = math.log(q), math.log1p(-q)
    tail = 1.0
    for k in range(trials + 1):
        tail -= math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                         + k * log_q + (trials - k) * log_p)
        if tail <= CHANCE_FAILURE:
            return k
    return trials


def check_floor(rate: float, floor: float, trials: int, what: str) -> list:
    misses = round(trials * (1.0 - rate))
    allowed = allowed_misses(trials, 1.0 - floor)
    if misses > allowed:
        return [f"{what} {rate} misses {misses} of {trials}, floor {floor:.6g} allows {allowed}"]
    return []


def rise_slack(rate_a: float, rate_b: float, trials_a: int, trials_b: int) -> float:
    """Five standard errors of the difference of two rates, plus one trial."""
    pooled = (rate_a * trials_a + rate_b * trials_b) / (trials_a + trials_b)
    spread = math.sqrt(pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b))
    return 5.0 * spread + 1.0 / min(trials_a, trials_b)


def check_sweep_small_round(ops: list, rows: list) -> dict:
    """Phase-transition success does not rise with sparsity at fixed m.

    ``rows`` holds each operation's single row, or None where the operation
    failed; returns the problems found per operation index.
    """
    problems = {}
    previous = None
    for i, (op, row) in enumerate(zip(ops, rows)):
        if op.config["name"] != "phase_transition" or row is None:
            continue
        if previous is not None:
            rate_a, trials_a = previous
            slack = rise_slack(rate_a, row["success_rate"], trials_a, op.trials)
            if row["success_rate"] > rate_a + slack:
                problems[i] = [f"success {row['success_rate']} at sparsity "
                               f"{op.expect['grid']['sparsity']} rose above {rate_a} + {slack:.3f}"]
        previous = (row["success_rate"], op.trials)
    return problems


# ---------------------------------------------------------------------------
# sweep_pursuit


SASR_CELLS = ((16, 1.0), (32, 1.0), (24, 4.0))          # (sparsity, noise_power)
SASR_TRIALS = 3
ACSS_CELLS = ((1e9, 8), (1e9, 24), (750e6, 16))       # (sub_nyquist_rate, sparsity)
ACSS_TRIALS = 4
ACSS_FRAME = {"frame_length": 0.8e-6, "min_transmission": 0.48e-6, "time_step": 0.04e-6}


def sweep_pursuit_round(seed: int, r: int) -> list:
    ops = []
    for k, power in SASR_CELLS:
        ops.append(run_op("sasr_vs_omp", {"sparsity": k, "noise_power": power}, {},
                          SASR_TRIALS, _rng("sweep_pursuit", seed, r, len(ops))))
    for rate, k in ACSS_CELLS:
        ops.append(run_op("acss_vs_cs", {"sub_nyquist_rate": rate, "sparsity": k}, dict(ACSS_FRAME),
                          ACSS_TRIALS, _rng("sweep_pursuit", seed, r, len(ops)),
                          budget=step_budget(ACSS_FRAME)))
    return ops


# ---------------------------------------------------------------------------
# single-row checks


def check_row(op: Op, row: dict) -> list:
    """Checks of one ``widesense run`` row against the op that produced it."""
    name = op.config["name"]
    problems = [f"{key} = {row.get(key)!r}, config asked for {value!r}"
                for key, value in op.expect["grid"].items() if row.get(key) != value]
    if row.get("trials") != op.trials:
        problems.append(f"trials = {row.get('trials')!r}, config asked for {op.trials}")
    if problems:
        return problems
    if name == "phase_transition":
        if row["status"] != "ok" or not 0.0 <= row["success_rate"] <= 1.0:
            problems.append(f"phase_transition row {row['status']} with success {row['success_rate']}")
    elif name == "interval_coverage":
        floor = op.expect["floor"]
        if not math.isclose(row["bound_value"], floor, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"bound_value {row['bound_value']} != coverage floor {floor}")
        problems += check_floor(row["empirical_coverage"], floor, op.trials, "coverage")
    elif name == "halting_probability":
        floor = op.expect["floor"]
        if not math.isclose(row["bound_value"], floor, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"bound_value {row['bound_value']} != halting floor {floor}")
        problems += check_floor(row["halt_probability"], floor, op.trials, "halt probability")
    elif name == "sasr_vs_omp":
        if not row["mean_mse"] < row["baseline_mse"]:
            problems.append(f"mean_mse {row['mean_mse']} not below baseline_mse {row['baseline_mse']}")
        k = op.expect["grid"]["sparsity"]
        if op.expect["grid"]["noise_power"] == 1.0 and abs(row["mean_iterations"] - k) > 2.0:
            problems.append(f"mean_iterations {row['mean_iterations']} not within 2 of {k} occupied bins")
    elif name == "acss_vs_cs":
        if row["success_rate"] < row["baseline_success_rate"]:
            problems.append(f"adaptive success {row['success_rate']} below baseline "
                            f"{row['baseline_success_rate']}")
        if row["baseline_steps"] != op.expect["budget"]:
            problems.append(f"baseline_steps {row['baseline_steps']} != budget {op.expect['budget']}")
        if row["mean_p_final"] > row["baseline_steps"]:
            problems.append(f"mean_p_final {row['mean_p_final']} above baseline_steps {row['baseline_steps']}")
    return problems


def check_run(op: Op, out: dict) -> list:
    rows = out.get("rows", [])
    if out.get("experiment") != op.config["name"] or len(rows) != 1:
        return [f"expected one {op.config['name']} row, got {len(rows)} of {out.get('experiment')!r}"]
    return check_row(op, rows[0])


def check_op(op: Op, out: dict) -> list:
    return check_frame(op, out) if op.command == "frame" else check_run(op, out)


ROUNDS = {
    "frame": frame_round,
    "sweep_small": sweep_small_round,
    "sweep_pursuit": sweep_pursuit_round,
}


def build_pool(workload: str, seed: int) -> list:
    """The rounds of a run, built before its first operation."""
    return [ROUNDS[workload](seed, r) for r in range(POOL_ROUNDS[workload])]


def check_round(workload: str, ops: list, outputs: list) -> dict:
    """Problems that need more than one operation of a round to see."""
    if workload != "sweep_small":
        return {}
    rows = [out["rows"][0] if out and len(out.get("rows", [])) == 1 else None for out in outputs]
    return check_sweep_small_round(ops, rows)
