"""Property tests of the one config path: valid configs survive a JSON round
trip unchanged, signal specs parse back from their wire dicts, and one
poisoned scalar field is always a ParameterError."""

import dataclasses
import json
import math
import re
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widesense.engine import DetectorConfig, FrameConfig
from widesense.errors import InvalidSpecError, ParameterError
from widesense.experiments import _EXPERIMENTS, EXPERIMENT_NAMES, ExperimentConfig
from widesense.signals import GridSpectrumSpec, GridTone, SubbandSpec, WidebandSignalSpec
from widesense.validation import HaltingConfig

FEW = settings(max_examples=15, deadline=None, database=None)


def _reals(low, high, **kw):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def frames(draw):
    step = draw(st.sampled_from([0.04e-6, 0.2e-6, 1e-3, 1.0]))
    nyquist = draw(st.integers(3, 400))
    measurements = draw(st.integers(2, nyquist - 1))
    spare = draw(st.integers(1, 5))
    return FrameConfig(
        frame_length=step * (draw(st.integers(1, 8)) + spare),
        min_transmission=step * spare,
        time_step=step,
        nyquist_rate=nyquist / step,
        sub_nyquist_rate=measurements / step,
        testing_per_step=draw(st.integers(1, measurements - 1)),
    )


@st.composite
def haltings(draw):
    common = dict(
        max_sparsity=draw(st.integers(1, 10**6)),
        jl_constant=draw(_reals(1e-3, 1e3)),
        min_testing=draw(st.none() | st.integers(1, 10**6)),
    )
    if draw(st.booleans()):
        return HaltingConfig(
            mode="noiseless",
            error_threshold=draw(_reals(1e-6, 1e6)),
            confidence_factor=draw(_reals(0.0, 1.0, exclude_min=True, exclude_max=True)),
            failure_prob=draw(st.none() | _reals(0.0, 4.0, exclude_min=True, exclude_max=True)),
            **common,
        )
    return HaltingConfig(
        mode="noisy",
        noise_std=draw(_reals(1e-6, 1e6)),
        accuracy=draw(_reals(1e-6, 1e6)),
        **common,
    )


@st.composite
def detectors(draw):
    bands = []
    for _ in range(draw(st.integers(1, 4))):
        low = draw(_reals(0.0, 1e9))
        bands.append((low, low + draw(_reals(1.0, 1e9))))
    return DetectorConfig(bands=tuple(bands), threshold=draw(_reals(1e-6, 1e6)))


def _sweep_value(default):
    """A valid grid or base value for a key with this default."""
    if isinstance(default, float):
        return _reals(0.0, 1e6)
    if default is None:
        return st.none() | st.integers(0, 1000)
    return st.integers(1 if default else 0, 1000)


@st.composite
def experiments(draw):
    name = draw(st.sampled_from(EXPERIMENT_NAMES))
    spec = _EXPERIMENTS[name]
    grid = {key: draw(st.lists(_sweep_value(values[0]), min_size=1, max_size=3))
            for key, values in spec.grid.items() if draw(st.booleans())}
    base = {key: draw(_sweep_value(default))
            for key, default in spec.base.items() if draw(st.booleans())}
    return ExperimentConfig(
        name=name,
        trials=draw(st.integers(1, 10**6)),
        grid=grid,
        base=base,
        master_seed=draw(st.integers(0, 2**63)),
        output_path=draw(st.none() | st.sampled_from(["out.csv", "out.json"])),
        workers=draw(st.integers(1, 64)),
    )


@st.composite
def widebands(draw):
    width = draw(_reals(1e3, 1e10))
    count = draw(st.integers(0, 4))
    subbands = tuple(
        SubbandSpec(power=draw(_reals(0.0, 1e3)),
                    bandwidth=width / count * draw(_reals(0.0, 0.9)),
                    center_frequency=width * (2 * i + 1) / (2 * count))
        for i in range(count)
    )
    return WidebandSignalSpec(
        total_bandwidth=width,
        subbands=subbands,
        time_offset=draw(_reals(-1.0, 1.0)),
        nyquist_rate=draw(st.none() | _reals(2.0, 4.0).map(lambda f: f * width)),
    )


@st.composite
def grid_spectra(draw):
    length = draw(st.integers(3, 2000))
    bins = draw(st.lists(st.integers(1, (length - 1) // 2), max_size=6, unique=True))
    tones = tuple(GridTone(m, draw(_reals(-10.0, 10.0)), draw(_reals(-10.0, 10.0)))
                  for m in bins)
    return GridSpectrumSpec(
        reference_length=length,
        nyquist_rate=draw(_reals(1.0, 1e10)),
        tones=tones,
        background_level=draw(_reals(0.0, 1.0)),
        background_seed=draw(st.integers(0, 2**32)),
    )


CONFIGS = {
    "frame": frames(),
    "halting": haltings(),
    "detector": detectors(),
    "experiment": experiments(),
}
SPECS = {
    "wideband": widebands(),
    "grid": grid_spectra(),
    "subband": widebands().filter(lambda s: s.subbands).map(lambda s: s.subbands[0]),
    "tone": grid_spectra().filter(lambda s: s.tones).map(lambda s: s.tones[0]),
}


@pytest.mark.parametrize("kind", CONFIGS)
def test_configs_round_trip_through_json(kind):
    @FEW
    @given(CONFIGS[kind])
    def check(cfg):
        assert type(cfg).from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    check()


def _wire(spec) -> dict:
    """The ``signal`` object of a frame config that describes ``spec``."""
    if isinstance(spec, GridSpectrumSpec):
        return {
            "reference_length": spec.reference_length,
            "nyquist_hz": spec.nyquist_rate,
            "tones": [[t.bin_index, t.amplitude, t.phase] for t in spec.tones],
            "background": [spec.background_level, spec.background_seed],
        }
    return {
        "W_hz": spec.total_bandwidth,
        "subbands": [{"E": sb.power, "B_hz": sb.bandwidth, "fc_hz": sb.center_frequency}
                     for sb in spec.subbands],
        "alpha_s": spec.time_offset,
        "nyquist_hz": spec.nyquist_rate,
    }


# owner named in the errors, keys that may be left out
WIRE = {GridSpectrumSpec: ("grid spectrum", {"background"}),
        WidebandSignalSpec: ("signal", {"alpha_s", "nyquist_hz"})}


@pytest.mark.parametrize("kind", ["wideband", "grid"])
def test_signal_specs_parse_back_from_their_wire_dicts(kind):
    @FEW
    @given(SPECS[kind])
    def check(spec):
        assert type(spec).from_dict(json.loads(json.dumps(_wire(spec)))) == spec

    check()


@pytest.mark.parametrize("kind", ["wideband", "grid"])
def test_signal_specs_reject_unknown_and_missing_keys_by_name(kind):
    @FEW
    @given(SPECS[kind], st.data())
    def check(spec, data):
        cls = type(spec)
        owner, optional = WIRE[cls]
        raw = _wire(spec)
        extra = data.draw(st.text(min_size=1, max_size=8).filter(lambda key: key not in raw))
        with pytest.raises(InvalidSpecError,
                           match=re.escape(f"unknown {owner} config keys: {[extra]}")):
            cls.from_dict({**raw, extra: 1.0})
        gone = data.draw(st.sampled_from(sorted(set(raw) - optional)))
        del raw[gone]
        with pytest.raises(InvalidSpecError,
                           match=re.escape(f"missing {owner} config keys: {[gone]}")):
            cls.from_dict(raw)

    check()


def _scalar_fields(obj):
    """``(name, is_int)`` for each int or float field of the dataclass ``obj``."""
    fields = []
    for name, hint in typing.get_type_hints(type(obj)).items():
        kinds = typing.get_args(hint) or (hint,)
        if int in kinds or float in kinds:
            fields.append((name, int in kinds))
    return fields


def _rebuild(obj, name, value):
    """``obj`` with one field changed: through ``dataclasses.asdict`` and
    ``from_dict`` where the class is a config section, else through its
    constructor."""
    if isinstance(obj, (HaltingConfig, FrameConfig, DetectorConfig, ExperimentConfig)):
        return type(obj).from_dict({**dataclasses.asdict(obj), name: value})
    return dataclasses.replace(obj, **{name: value})


POISON = [math.nan, math.inf, -math.inf, True, False, "1"]


@pytest.mark.parametrize("kind", [*CONFIGS, *SPECS])
def test_one_poisoned_scalar_field_is_rejected(kind):
    @FEW
    @given({**CONFIGS, **SPECS}[kind], st.data())
    def check(obj, data):
        name, is_int = data.draw(st.sampled_from(_scalar_fields(obj)))
        bad = data.draw(st.sampled_from(POISON + [2.5] * is_int))
        with pytest.raises(ParameterError, match=name):
            _rebuild(obj, name, bad)

    check()
