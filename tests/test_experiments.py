import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import widesense
from widesense import engine, experiments, rng
from widesense.cli import main
from widesense.errors import InvalidSpecError, ParameterError
from widesense.experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    ResultTable,
    default_config,
    load_config,
    run_experiment,
    significant_relative_mse,
)
from widesense.rng import stream_seed, substreams
from widesense.sensing import acquire
from widesense.signals import TimeSeries
from widesense.validation import HaltingConfig, confidence_floor_noisy, halting_rule

DESK_FRAME = {
    "frame_length": 0.8e-6,
    "min_transmission": 0.48e-6,
    "time_step": 0.04e-6,
    "nyquist_rate": 5e9,
    "sub_nyquist_rate": 1e9,
}

TRACKING_MINI = dict(
    DESK_FRAME,
    sparsity=8,
    tone_groups=2,
    amplitude_scale=1.0,
    background_level=1e-4,
    max_sparsity=20,
    error_threshold=1.0,
    confidence_factor=0.2,
    min_testing=10,
)


def _chunk_lengths(cell, base, streams):
    """A chunk trial that reports the length of its chunk for each trial."""
    return [len(streams)] * len(streams)


def _coverage_cfg(**overrides):
    fields = dict(
        name="interval_coverage",
        trials=5,
        grid={"confidence_factor": [0.3], "testing_size": [10]},
        base={"signal_length": 32},
        master_seed=1,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


# One small config per experiment, each with two or more trials in one cell,
# and the seed label of that cell.
TINY = {
    "phase_transition": (dict(
        trials=4, grid={"measurements": [20], "sparsity": [2]}, base={"signal_length": 64},
        master_seed=8), "20:2"),
    "interval_coverage": (dict(
        trials=5, grid={"confidence_factor": [0.3], "testing_size": [10]},
        base={"signal_length": 32}, master_seed=1), "0.3:10"),
    "error_tracking": (dict(
        trials=2, grid={"testing_per_step": [10]}, base=dict(TRACKING_MINI),
        master_seed=9), "v10"),
    "acss_vs_cs": (dict(
        trials=2, grid={"sub_nyquist_rate": [1000000000], "sparsity": [8]},
        master_seed=3), "1000000000.0:8"),
    "halting_probability": (dict(
        trials=20, grid={"accuracy_factor": [0.6], "testing_size": [10]},
        base={"signal_length": 100, "noise_std": 1.0}, master_seed=2), "0.6:10"),
    "sasr_vs_omp": (dict(
        trials=2, grid={"sparsity": [8], "noise_power": [1.0]},
        base={"signal_length": 200, "training_size": 60, "testing_size": 20,
              "max_sparsity": 20}, master_seed=4), "8:1.0"),
    "single_frame": (dict(
        trials=2, base=dict(TRACKING_MINI, testing_per_step=10), master_seed=6), None),
}


def _tiny_cfg(name, **overrides):
    return ExperimentConfig(name=name, **{**TINY[name][0], **overrides})


class TestExperimentConfig:
    def test_rejects_unknown_name(self):
        with pytest.raises(InvalidSpecError):
            ExperimentConfig(name="phase_transitions", trials=1)

    def test_rejects_bad_counts(self):
        with pytest.raises(InvalidSpecError):
            ExperimentConfig(name="phase_transition", trials=0)
        with pytest.raises(InvalidSpecError):
            ExperimentConfig(name="phase_transition", trials=1, workers=0)
        for counts in ({"trials": 2.7}, {"trials": True}, {"master_seed": 1.9},
                       {"master_seed": None}, {"workers": 1.5}):
            fields = {"name": "phase_transition", "trials": 1, **counts}
            with pytest.raises((InvalidSpecError, ParameterError), match=next(iter(counts))):
                ExperimentConfig(**fields)

    def test_rejects_foreign_grid_key(self):
        with pytest.raises(InvalidSpecError):
            ExperimentConfig(name="phase_transition", trials=1, grid={"testing_size": [1]})

    def test_rejects_empty_grid_list(self):
        with pytest.raises(InvalidSpecError):
            ExperimentConfig(name="phase_transition", trials=1, grid={"sparsity": []})

    def test_rejects_foreign_base_key(self):
        with pytest.raises(InvalidSpecError):
            ExperimentConfig(name="phase_transition", trials=1, base={"sigma": 2.0})

    @pytest.mark.parametrize("grid, base", [
        ({"sparsity": [2, "3"]}, {}),
        ({"sparsity": [None]}, {}),
        ({}, {"signal_length": "abc"}),
        ({}, {"signal_length": None}),
        ({}, {"signal_length": math.nan}),
        ({"sparsity": [-1]}, {}),
        ({"sparsity": [2.5]}, {}),
        ({}, {"signal_length": 1.5}),
        ({}, {"signal_length": -200}),
    ])
    def test_rejects_non_numeric_values(self, grid, base):
        with pytest.raises((InvalidSpecError, ParameterError)):
            ExperimentConfig(name="phase_transition", trials=1, grid=grid, base=base)

    def test_null_min_testing_means_unset(self):
        cfg = ExperimentConfig(name="single_frame", trials=1, base={"min_testing": None})
        assert cfg.base["min_testing"] is None

    def test_digest_tracks_result_fields_only(self):
        a = _coverage_cfg()
        assert a.digest() == _coverage_cfg().digest()
        assert a.digest() != _coverage_cfg(trials=6).digest()
        assert a.digest() != _coverage_cfg(master_seed=2).digest()
        # workers and output_path shape execution, not results
        assert a.digest() == _coverage_cfg(workers=4, output_path="x.csv").digest()

    def test_digest_is_sha256_without_openssl(self):
        # The interpreter's own SHA-256 gives the digest, so importing the
        # command line leaves hashlib's OpenSSL backend unloaded.
        script = (
            "import sys\n"
            "import widesense.cli\n"
            "from widesense.experiments import ExperimentConfig\n"
            "cfg = ExperimentConfig(name='interval_coverage', trials=5, master_seed=1,\n"
            "                       grid={'testing_size': [10], 'confidence_factor': [0.3]},\n"
            "                       base={'signal_length': 32})\n"
            "print('_hashlib' in sys.modules, cfg.digest())\n"
        )
        source = str(Path(widesense.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
        payload = ('{"base":{"signal_length":32},"grid":{"confidence_factor":[0.3],'
                   '"testing_size":[10]},"master_seed":1,"name":"interval_coverage","trials":5}')
        expected = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
        assert done.stdout.split() == ["False", expected]
        assert _coverage_cfg().digest() == expected

    def test_round_trip(self):
        cfg = _coverage_cfg(output_path="out.csv", workers=2)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidSpecError):
            ExperimentConfig.from_dict({"name": "single_frame", "trials": 1, "jobs": 2})


class TestLoadConfig:
    def test_reads_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_coverage_cfg().to_dict()))
        assert load_config(str(path)) == _coverage_cfg()

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidSpecError):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(InvalidSpecError):
            load_config(str(path))


class TestResultTable:
    def _table(self):
        schema = ("a", "b", "c", "d")
        rows = ({"a": None, "b": True, "c": 7, "d": 0.5},)
        return ResultTable("demo", schema, rows)

    def test_rejects_row_key_mismatch(self):
        with pytest.raises(ParameterError):
            ResultTable("demo", ("a",), ({"b": 1},))

    def test_csv_formatting(self):
        assert self._table().to_csv_text() == "a,b,c,d\n,1,7,0.5\n"

    def test_json_rows_keep_schema_order(self):
        payload = json.loads(self._table().to_json_text())
        assert payload["experiment"] == "demo"
        assert payload["schema"] == ["a", "b", "c", "d"]
        assert payload["rows"] == [{"a": None, "b": 1, "c": 7, "d": 0.5}]

    def test_write_csv_and_json(self, tmp_path):
        table = self._table()
        csv_path = tmp_path / "t.csv"
        table.write(str(csv_path), "csv")
        assert csv_path.read_text() == table.to_csv_text()
        json_path = tmp_path / "t.json"
        table.write(str(json_path), "json")
        assert json.loads(json_path.read_text())["experiment"] == "demo"
        with pytest.raises(ParameterError):
            table.write(str(tmp_path / "t.txt"), "txt")
        assert not list(tmp_path.glob("*.part"))
        # Without a format the suffix decides: .json is JSON, anything else
        # CSV; a given format wins over the suffix.
        table.write(str(tmp_path / "u.json"))
        assert (tmp_path / "u.json").read_text() == table.to_json_text()
        table.write(str(tmp_path / "u.txt"))
        assert (tmp_path / "u.txt").read_text() == table.to_csv_text()
        table.write(str(tmp_path / "v.json"), "csv")
        assert (tmp_path / "v.json").read_text() == table.to_csv_text()


class TestSignificantRelativeMse:
    def test_ignores_insignificant_bins(self):
        truth = np.array([10.0, 0.05, 5.0])
        estimate = np.array([10.0, 99.0, 5.0])
        assert significant_relative_mse(truth, estimate) == 0.0

    def test_averages_per_bin_ratios(self):
        truth = np.array([2.0, 4.0])
        estimate = np.array([1.0, 6.0])
        # (1/4 + 4/16) / 2
        assert significant_relative_mse(truth, estimate) == pytest.approx(0.25)

    def test_zero_truth_returns_estimate_energy(self):
        assert significant_relative_mse(np.zeros(3), np.array([0.0, 2.0, 0.0])) == 4.0

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            significant_relative_mse(np.zeros(3), np.zeros(4))


class TestRunners:
    def test_phase_transition_mini(self):
        cfg = ExperimentConfig(
            name="phase_transition",
            trials=3,
            grid={"measurements": [20], "sparsity": [0, 2, 40]},
            base={"signal_length": 64},
            master_seed=5,
        )
        table = run_experiment(cfg)
        assert len(table) == 3
        by_k = {row["sparsity"]: row for row in table.rows}
        assert by_k[0]["success_rate"] == 1.0
        assert by_k[0]["status"] == "ok"
        assert by_k[40]["status"] == "not_applicable"
        assert by_k[40]["success_rate"] is None
        assert by_k[40]["mean_mse"] is None

    def test_reduced_default_phase_transition_decisions(self):
        # The success rates and statuses of the 2-trial default grid, as the
        # one-trial-at-a-time pursuit computed them before trials were stacked.
        expected = {
            20: "1 1 1 .5 0 0 - - -",
            40: "1 1 1 1 1 .5 0 - -",
            66: "1 1 1 1 1 1 0 - -",
            100: "1 1 1 1 1 1 .5 0 -",
            140: "1 1 1 1 1 1 1 0 0",
            180: "1 1 1 1 1 1 1 .5 0",
        }
        table = run_experiment(default_config("phase_transition", trials=2))
        for m, rates in expected.items():
            rows = [row for row in table.rows if row["measurements"] == m]
            want = [None if rate == "-" else float(rate) for rate in rates.split()]
            assert [row["success_rate"] for row in rows] == want
            assert [row["status"] for row in rows] == [
                "not_applicable" if rate is None else "ok" for rate in want]

    def test_interval_coverage_mini(self):
        table = run_experiment(_coverage_cfg())
        assert len(table) == 1
        row = table.rows[0]
        assert 0.0 <= row["empirical_coverage"] <= 1.0
        assert row["bound_value"] == pytest.approx(
            max(0.0, 1.0 - 4.0 * math.exp(-10 * 0.09)), abs=1e-12
        )

    def test_error_tracking_mini(self):
        cfg = ExperimentConfig(
            name="error_tracking",
            trials=2,
            grid={"testing_per_step": [10]},
            base=dict(TRACKING_MINI),
            master_seed=9,
        )
        table = run_experiment(cfg)
        assert table.rows[0]["step"] == 1
        assert table.rows[0]["reached"] == 2
        steps = [row["step"] for row in table.rows]
        assert steps == sorted(steps)
        assert all(row["testing_per_step"] == 10 for row in table.rows)
        assert all(0.0 <= row["window_fraction"] <= 1.0 for row in table.rows)

    def test_acss_mini_and_empty_band(self):
        cfg = ExperimentConfig(
            name="acss_vs_cs",
            trials=2,
            grid={"sub_nyquist_rate": [1e9], "sparsity": [0, 8]},
            master_seed=3,
        )
        table = run_experiment(cfg)
        by_k = {row["sparsity"]: row for row in table.rows}
        # an unoccupied band is the easy case for both strategies
        assert by_k[0]["success_rate"] == 1.0
        assert by_k[0]["baseline_success_rate"] == 1.0
        assert by_k[0]["mean_p_final"] == 1.0
        assert all(row["baseline_steps"] == 8 for row in table.rows)

    @pytest.mark.parametrize("name, overrides, own_calls", [
        ("error_tracking", {"base": dict(TRACKING_MINI, min_testing=30)}, 0),
        ("acss_vs_cs", {}, 1),
    ], ids=["error_tracking", "acss_vs_cs"])
    def test_frame_trials_synthesise_each_window_once(self, monkeypatch, name, overrides,
                                                      own_calls):
        # The trials take their truth from the window each frame step yields;
        # only the full-budget acss_vs_cs baseline synthesises a signal itself.
        calls = {engine: 0, experiments: 0}
        for module in calls:
            def counting(spec, duration, module=module, original=module.signal_time_series):
                calls[module] += 1
                return original(spec, duration)
            monkeypatch.setattr(module, "signal_time_series", counting)
        table = run_experiment(_tiny_cfg(name, trials=1, **overrides))
        steps = len(table) if name == "error_tracking" else table.rows[0]["mean_p_final"]
        assert calls[engine] == steps >= 2
        assert calls[experiments] == own_calls

    def test_halting_probability_mini(self):
        cfg = ExperimentConfig(
            name="halting_probability",
            trials=20,
            grid={"accuracy_factor": [0.6], "testing_size": [10]},
            base={"signal_length": 100, "noise_std": 1.0},
            master_seed=2,
        )
        table = run_experiment(cfg)
        row = table.rows[0]
        assert row["bound_value"] == pytest.approx(confidence_floor_noisy(10, 0.6, 1.0))
        assert 0.0 <= row["halt_probability"] <= 1.0

    def test_halting_trials_draw_the_noise_acquire_adds(self, monkeypatch):
        # With an exact estimate a trial's testing residual is the receiver
        # noise that acquire adds to a silent window's testing rows, drawn
        # from the trial's noise stream after one training row.
        v, delta, accuracy = 10, 0.5, 0.2
        halts = halting_rule(HaltingConfig(mode="noisy", max_sparsity=1, noise_std=delta,
                                           accuracy=accuracy * delta), 1, v)
        seen = []

        def recording(*args):
            rule = halting_rule(*args)
            return lambda rho: seen.append(rho) or rule(rho)

        monkeypatch.setattr(experiments, "halting_rule", recording)
        streams = substreams(3, "trial", np.arange(8))
        silent = TimeSeries(samples=np.zeros(16), rate=16.0)
        rhos = [float(np.abs(acquire(silent, 1, v, 1, 2, noise_std=delta,
                                     noise_seed=stream_seed(seed, "noise")).testing).sum() / v)
                for seed in streams.seeds.tolist()]
        cell = {"testing_size": v, "accuracy_factor": accuracy}
        outcomes = experiments._halting_trials(cell, {"noise_std": delta}, streams)
        assert seen == rhos
        assert outcomes == [halts(rho) for rho in rhos]
        assert set(outcomes) == {True, False}

    def test_sasr_vs_omp_mini(self):
        cfg = ExperimentConfig(
            name="sasr_vs_omp",
            trials=2,
            grid={"sparsity": [8], "noise_power": [1.0]},
            base={
                "signal_length": 200,
                "training_size": 60,
                "testing_size": 20,
                "max_sparsity": 20,
                "accuracy_factor": 0.6,
                "amplitude_scale": 0.08,
            },
            master_seed=4,
        )
        table = run_experiment(cfg)
        row = table.rows[0]
        assert math.isfinite(row["mean_mse"]) and row["mean_mse"] >= 0.0
        assert math.isfinite(row["baseline_mse"])
        assert 0.0 <= row["mean_iterations"] <= 20.0

    def test_single_frame_mini(self):
        cfg = ExperimentConfig(
            name="single_frame",
            trials=1,
            base=dict(
                TRACKING_MINI,
                testing_per_step=10,
                band_count=4,
                detection_threshold=10.0,
            ),
            master_seed=6,
        )
        table = run_experiment(cfg)
        row = table.rows[0]
        assert row["trial"] == 0
        assert 1 <= row["p_final"] <= 8
        assert row["occupied_bands"] >= 1


class TestIntervalCoverage:
    """One-cell ``interval_coverage`` runs against the analytic floor."""

    @staticmethod
    def _coverage(eta, v, trials, seed):
        cfg = _coverage_cfg(trials=trials, master_seed=seed, base={"signal_length": 64},
                            grid={"confidence_factor": [eta], "testing_size": [v]})
        return run_experiment(cfg).rows[0]

    def test_beats_analytic_floor(self):
        row = self._coverage(0.3, 40, 2000, 1)
        assert row["bound_value"] == pytest.approx(1.0 - 4.0 * math.exp(-40 * 0.09))
        assert row["empirical_coverage"] >= row["bound_value"]

    def test_wide_eta_near_certain(self):
        assert self._coverage(0.49, 200, 500, 2)["empirical_coverage"] >= 0.99

    def test_is_deterministic(self):
        assert self._coverage(0.3, 20, 500, 4) == self._coverage(0.3, 20, 500, 4)

    def test_zero_jl_constant_is_rejected_before_any_trial(self, monkeypatch):
        trials = []

        def counting(*args):
            trials.append(args)
            return experiments._coverage_trial(*args)

        spec = experiments._EXPERIMENTS["interval_coverage"]
        monkeypatch.setitem(experiments._EXPERIMENTS, "interval_coverage", dataclasses.replace(
            spec, trial=functools.partial(experiments._each_seed, counting)))
        with pytest.raises(ParameterError, match="jl_constant must be positive"):
            run_experiment(_coverage_cfg(base={"signal_length": 32, "jl_constant": 0.0}))
        assert trials == []


class TestDeterminism:
    def test_same_config_same_bytes(self):
        a = run_experiment(_coverage_cfg())
        b = run_experiment(_coverage_cfg())
        assert a.to_csv_text() == b.to_csv_text()
        assert a.to_json_text() == b.to_json_text()

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_worker_count_does_not_change_bytes(self, name):
        serial = run_experiment(_tiny_cfg(name, workers=1))
        pooled = run_experiment(_tiny_cfg(name, workers=2))
        assert serial.to_csv_text() == pooled.to_csv_text()
        assert serial.to_json_text() == pooled.to_json_text()

    def test_phase_transition_bytes_do_not_depend_on_workers_or_chunks(self, monkeypatch):
        # 13 trials at 100 x 200 run as stacked chunks of 5, 5 and 3
        cfg = dict(name="phase_transition", trials=13, base={"signal_length": 200},
                   grid={"measurements": [100], "sparsity": [15, 35]}, master_seed=11)
        assert experiments._phase_transition_chunk({"measurements": 100},
                                                   {"signal_length": 200}) == 5
        serial = run_experiment(ExperimentConfig(**cfg)).to_csv_text()
        assert run_experiment(ExperimentConfig(**cfg, workers=2)).to_csv_text() == serial
        monkeypatch.setattr(experiments, "_STACK_BYTES", 1)
        assert run_experiment(ExperimentConfig(**cfg)).to_csv_text() == serial

    def test_halting_bytes_do_not_depend_on_workers_or_chunks(self, monkeypatch):
        cfg = dict(name="halting_probability", trials=23, master_seed=8,
                   grid={"accuracy_factor": [0.6], "testing_size": [20, 40]})
        serial = run_experiment(ExperimentConfig(**cfg)).to_csv_text()
        monkeypatch.setattr(experiments, "_HALTING_CHUNK", 4)
        assert run_experiment(ExperimentConfig(**cfg)).to_csv_text() == serial
        assert run_experiment(ExperimentConfig(**cfg, workers=2)).to_csv_text() == serial

    def test_every_worker_gets_a_chunk(self):
        streams = substreams(1, "trial", np.arange(10))
        with concurrent.futures.ThreadPoolExecutor(2) as threads:
            def chunks(size, workers):
                return experiments._map_trials(_chunk_lengths, {}, {}, streams, size, workers,
                                               lambda: threads)

            # Chunks of 500 would leave two of three workers idle; shares of
            # ceil(10 / 3) = 4 trials give each one a chunk.
            assert chunks(500, 3) == [4] * 8 + [2] * 2
            assert chunks(500, 1) == [10] * 10
            assert chunks(3, 2) == [3] * 9 + [1]

    def test_one_process_pool_serves_the_whole_sweep(self, monkeypatch):
        # Three cells of two chunks each at two workers start one pool, whose
        # workers pin BLAS, and the sweep shuts it down before it returns.
        pools = []

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, **kwargs):
                assert kwargs == {"max_workers": 2, "initializer": rng._pin_worker}
                super().__init__(**kwargs)
                pools.append(self)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        cfg = dict(name="halting_probability", trials=23, master_seed=8,
                   grid={"accuracy_factor": [0.6], "testing_size": [20, 40, 60]})
        pooled = run_experiment(ExperimentConfig(**cfg, workers=2))
        assert len(pools) == 1
        with pytest.raises(RuntimeError, match="after shutdown"):
            pools[0].submit(int)
        assert pooled.to_csv_text() == run_experiment(ExperimentConfig(**cfg)).to_csv_text()
        assert len(pools) == 1

    def test_a_serial_run_imports_no_pool_machinery(self):
        script = (
            "import sys\n"
            "from widesense.experiments import ExperimentConfig, run_experiment\n"
            "run_experiment(ExperimentConfig(name='halting_probability', trials=30,\n"
            "    grid={'accuracy_factor': [0.6], 'testing_size': [10, 20]}))\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        source = str(Path(widesense.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
        assert done.stdout.split() == ["False"]

    @pytest.mark.parametrize("name, trials, cell", [
        ("halting_probability", 300, {"accuracy_factor": 0.6, "testing_size": 60}),
        ("interval_coverage", 400, {"confidence_factor": 0.3, "testing_size": 40}),
    ], ids=["halting_probability", "interval_coverage"])
    def test_a_cell_derives_its_trial_seeds_in_one_pass(self, monkeypatch, name, trials, cell):
        # Only the cell's seed_base comes from a scalar stream_seed call; the
        # trial seeds (and halting's noise seeds) are derived as arrays.
        calls = []

        def counting(*args):
            calls.append(args)
            return stream_seed(*args)

        monkeypatch.setattr(experiments, "stream_seed", counting)
        cfg = ExperimentConfig(name=name, trials=trials, master_seed=9,
                               grid={key: [value] for key, value in cell.items()})
        table = run_experiment(cfg)
        label = ":".join(str(value) for value in cell.values())
        assert calls == [(9, name, label)]
        assert table.rows[0]["seed_base"] == stream_seed(9, name, label)

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_seed_base_derives_from_the_cell_label(self, name):
        cfg = _tiny_cfg(name)
        label = TINY[name][1]
        path = (name,) if label is None else (name, label)
        seed_bases = {row["seed_base"] for row in run_experiment(cfg).rows}
        assert seed_bases == {stream_seed(cfg.master_seed, *path)}

    def test_blas_thread_count_does_not_change_bytes(self, tmp_path):
        # A pursuit-heavy cell whose last digits move with the BLAS thread
        # count unless BLAS is pinned to one thread.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"name": "phase_transition", "trials": 4, "master_seed": 5,
                                   "grid": {"measurements": [180], "sparsity": [80]}}))
        source = str(Path(widesense.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            done = subprocess.run([sys.executable, "-m", "widesense.cli", "run", str(cfg)],
                                  capture_output=True, env=env, timeout=300, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    def test_in_process_run_matches_the_command_line_and_restores_blas(self, tmp_path):
        # run_experiment pins BLAS to one thread around its sweep only: under
        # OPENBLAS_NUM_THREADS=2 its table has the command line's bytes, and
        # the caller's thread count is back at 2 afterwards.  Unpinned, this
        # cell's last digits move with the BLAS thread count.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"name": "phase_transition", "trials": 4, "master_seed": 5,
                                   "grid": {"measurements": [180], "sparsity": [80]}}))
        script = (
            "import sys\n"
            "from widesense import experiments, rng\n"
            "getter, _ = rng._blas_threads()\n"
            "before = getter()\n"
            "table = experiments.run_experiment(experiments.load_config(sys.argv[1]))\n"
            "sys.stdout.write(table.to_csv_text())\n"
            "sys.stderr.write(f'{before} {getter()}')\n"
        )
        source = str(Path(widesense.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=path)
        in_process = subprocess.run([sys.executable, "-c", script, str(cfg)], capture_output=True,
                                    env=env, timeout=300, check=True)
        command = subprocess.run([sys.executable, "-m", "widesense.cli", "run", str(cfg)],
                                 capture_output=True, env=env, timeout=300, check=True)
        assert in_process.stdout == command.stdout
        assert in_process.stderr.decode() == "2 2"

    def test_missing_blas_setter_warns(self, monkeypatch):
        monkeypatch.setattr(rng.glob, "glob", lambda pattern: [])
        rng._blas_threads.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="no OpenBLAS thread setter"):
                with rng.pin_blas_threads():
                    pass
        finally:
            rng._blas_threads.cache_clear()

    def test_int_valued_real_is_written_as_float(self):
        table = run_experiment(_tiny_cfg("acss_vs_cs"))
        assert table.to_csv_text().splitlines()[1].startswith("1000000000.0,8,")
        assert '"sub_nyquist_rate": 1000000000.0,' in table.to_json_text()


def test_default_config_scales():
    cfg = default_config("halting_probability")
    assert cfg.trials == 2000
    assert cfg.master_seed == 20240001
    small = default_config("single_frame", trials=2)
    assert small.trials == 2
    with pytest.raises(InvalidSpecError):
        default_config("unknown")


def test_run_experiment_writes_output(tmp_path):
    out = tmp_path / "cov.json"
    cfg = _coverage_cfg(output_path=str(out))
    table = run_experiment(cfg)
    assert json.loads(out.read_text())["experiment"] == "interval_coverage"
    csv_out = tmp_path / "cov.csv"
    run_experiment(_coverage_cfg(output_path=str(csv_out)))
    assert csv_out.read_text() == table.to_csv_text()


class TestCli:
    def _write(self, tmp_path, payload, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(EXPERIMENT_NAMES)

    def test_run_to_stdout_csv(self, tmp_path, capsys):
        cfg = self._write(tmp_path, _coverage_cfg().to_dict())
        assert main(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("confidence_factor,testing_size,")
        assert len(out.splitlines()) == 2

    def test_run_to_file_with_overrides(self, tmp_path, capsys):
        cfg = self._write(tmp_path, _coverage_cfg().to_dict())
        dest = tmp_path / "result.csv"
        assert main(["run", cfg, "--out", str(dest), "--trials", "2", "--seed", "42"]) == 0
        lines = dest.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert row[header.index("trials")] == "2"

    def test_run_json_format(self, tmp_path, capsys):
        cfg = self._write(tmp_path, _coverage_cfg().to_dict())
        assert main(["run", cfg, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "interval_coverage"

    def test_frame_command(self, tmp_path, capsys):
        payload = {
            "frame": dict(DESK_FRAME, testing_per_step=10),
            "halting": {
                "mode": "noiseless",
                "max_sparsity": 48,
                "error_threshold": 1.0,
                "confidence_factor": 0.2,
            },
            "signal": {
                "reference_length": 200,
                "nyquist_hz": 5e9,
                "tones": [[12, 1.0, 0.0], [33, 0.8, 1.1], [57, 1.2, 2.0], [88, 0.9, 0.4]],
            },
            "master_seed": 7,
        }
        cfg = self._write(tmp_path, payload)
        assert main(["frame", cfg]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["halted"] is True
        assert outcome["steps_used"] == 2
        # same run, now through --out
        dest = tmp_path / "outcome.json"
        assert main(["frame", cfg, "--out", str(dest)]) == 0
        assert json.loads(dest.read_text())["steps_used"] == 2

    def test_calibrate_lambda_command(self, tmp_path, capsys):
        payload = {
            "frame": dict(DESK_FRAME, testing_per_step=10),
            "halting": {"mode": "noisy", "max_sparsity": 8, "noise_std": 0.5, "accuracy": 0.3},
            "band_count": 4,
            "false_alarm": 0.1,
            "trials": 3,
            "master_seed": 3,
        }
        cfg = self._write(tmp_path, payload)
        assert main(["calibrate-lambda", cfg]) == 0
        assert float(capsys.readouterr().out.strip()) == 1e-12

    def test_config_errors_exit_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 1
        assert "config error" in capsys.readouterr().err
        bad = self._write(tmp_path, {"name": "phase_transition", "trials": 1, "grid": {"x": [1]}})
        assert main(["run", bad]) == 1
        missing = self._write(tmp_path, {"frame": dict(DESK_FRAME, testing_per_step=10)}, "f.json")
        assert main(["frame", missing]) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["frame"].update(frame_length=math.nan), "frame_length must be finite"),
        (lambda raw: raw["frame"].pop("testing_per_step"), "missing frame config keys"),
        (lambda raw: raw["detector"].pop("bands"), "missing detector config keys"),
        (lambda raw: raw["frame"].update(testing_per_step=10.5),
         "testing_per_step must be an integer"),
        (lambda raw: raw["halting"].update(max_sparsity=2.5), "max_sparsity must be an integer"),
        (lambda raw: raw["halting"].update(min_testing="abc"), "min_testing must be a real number"),
        (lambda raw: raw["detector"].update(bands=[[1.0]]), "is not a (low, high) pair"),
        (lambda raw: raw.update(master_seed="x"), "master_seed must be an integer"),
        (lambda raw: raw["halting"].update(confidence_floor=0.9),
         "unknown halting config keys: ['confidence_floor']"),
    ], ids=["nan-frame-length", "no-testing-per-step", "no-detector-bands",
            "fractional-testing-per-step", "fractional-max-sparsity", "text-min-testing",
            "one-edge-band", "text-master-seed", "retired-confidence-floor"])
    def test_malformed_frame_sections_exit_one(self, tmp_path, capsys, edit, message):
        payload = {
            "frame": dict(DESK_FRAME, testing_per_step=10),
            "halting": {"mode": "noiseless", "max_sparsity": 8,
                        "error_threshold": 1.0, "confidence_factor": 0.2},
            "signal": {"reference_length": 200, "nyquist_hz": 5e9, "tones": [[12, 1.0, 0.0]]},
            "detector": {"bands": [[0.0, 1e9]], "threshold": 1.0},
        }
        edit(payload)
        assert main(["frame", self._write(tmp_path, payload)]) == 1
        assert message in capsys.readouterr().err

    @staticmethod
    def _tone(index, value):
        return lambda raw: raw["signal"]["tones"][0].__setitem__(index, value)

    @staticmethod
    def _signal(**values):
        return lambda raw: raw["signal"].update(values)

    @staticmethod
    def _subband(**values):
        return lambda raw: raw["signal"]["subbands"][0].update(values)

    @pytest.mark.parametrize("wideband, edit, message", [
        (False, _tone(0, 12.5), "tone bin_index must be an integer"),
        (False, _tone(0, "12"), "tone bin_index must be a real number"),
        (False, _tone(1, math.nan), "tone amplitude must be finite"),
        (False, _tone(1, True), "tone amplitude must be a real number"),
        (False, _tone(2, math.inf), "tone phase must be finite"),
        (False, _signal(background=[math.nan, 1]), "background_level must be finite"),
        (False, _signal(background=[1e-4, 1.5]), "background_seed must be an integer"),
        (False, _signal(background=[1e-4, -1]), "background_seed must be nonnegative"),
        (False, _signal(reference_length=200.0), "reference_length must be an integer"),
        (False, _signal(level=1e-4), "unknown grid spectrum config keys: ['level']"),
        (True, _subband(B=1e6), "unknown subband config keys: ['B']"),
        (False, lambda raw: raw.update(detecter=raw.pop("detector")),
         "unknown top-level config keys: ['detecter']"),
        (True, _signal(W_hz=math.nan), "total_bandwidth must be finite"),
        (True, _subband(E=math.nan), "subband power must be finite"),
        (True, _subband(fc_hz=math.nan), "center_frequency must be finite"),
        (True, _signal(alpha_s=math.nan), "time_offset must be finite"),
        (True, _signal(alpha_s="x"), "time_offset must be a real number"),
        (False, lambda raw: raw["halting"].update(jl_constant=None),
         "jl_constant must be a real number"),
        (False, lambda raw: raw["signal"].pop("tones"), "missing grid spectrum config keys: ['tones']"),
    ], ids=["fractional-bin", "text-bin", "nan-amplitude", "boolean-amplitude", "inf-phase",
            "nan-background", "fractional-background-seed", "negative-background-seed",
            "float-reference-length", "unknown-signal-key", "unknown-subband-key",
            "unknown-top-level-key", "nan-W", "nan-E", "nan-fc", "nan-alpha", "text-alpha",
            "null-jl-constant", "grid-without-tones"])
    def test_ill_typed_signal_and_top_level_exit_one(self, tmp_path, capsys, wideband, edit,
                                                      message):
        payload = self._signal_payload(wideband)
        edit(payload)
        assert main(["frame", self._write(tmp_path, payload)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("wideband", [False, True], ids=["grid", "wideband"])
    def test_signal_payloads_run(self, tmp_path, wideband):
        assert main(["frame", self._write(tmp_path, self._signal_payload(wideband))]) == 0

    def test_warnings_print_as_one_line(self, tmp_path, capsys):
        # A failure_prob this small leaves no residual that could halt at
        # these testing sizes; each warning is one widesense line, and the
        # caller's warning display is back afterwards.
        payload = self._signal_payload(False)
        payload["halting"].update(max_sparsity=8, failure_prob=1e-6)
        shown = warnings.showwarning
        assert main(["frame", self._write(tmp_path, payload)]) == 0
        assert warnings.showwarning is shown
        lines = capsys.readouterr().err.splitlines()
        assert lines and all(line.startswith("widesense: warning: halting criterion "
                                             "unsatisfiable: confidence bracket ")
                             for line in lines)

    @pytest.mark.parametrize("command", ["list", "run"])
    def test_a_closed_stdout_exits_141_quietly(self, tmp_path, command):
        # The reader is gone before anything is written, as in
        # `widesense list | true`: no traceback, no error line, code 141.
        argv = [command] if command == "list" else ["run", self._write(
            tmp_path, _coverage_cfg().to_dict())]
        source = str(Path(widesense.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "widesense.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=path))
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    @staticmethod
    def _signal_payload(wideband):
        """A frame config that runs; the cases above change one value of it."""
        if wideband:
            signal = {"W_hz": 2.5e9, "subbands": [{"E": 1.0, "B_hz": 2e7, "fc_hz": 5e8}],
                      "alpha_s": 0.0}
        else:
            signal = {"reference_length": 200, "nyquist_hz": 5e9,
                      "tones": [[12, 1.0, 0.0], [33, 0.8, 1.1]], "background": [1e-4, 1]}
        return {
            "frame": dict(DESK_FRAME, testing_per_step=10),
            "halting": {"mode": "noiseless", "max_sparsity": 48,
                        "error_threshold": 1.0, "confidence_factor": 0.2},
            "signal": signal,
            "detector": {"bands": [[0.0, 1.25e9], [1.25e9, 2.5e9]], "threshold": 1.0},
            "master_seed": 7,
        }

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw.update(bands=[[0.0, 1e9], [1.0]]), "is not a (low, high) pair"),
        (lambda raw: raw.update(false_alarm="x"), "false_alarm must be a real number"),
        (lambda raw: raw.update(bands=[[0.0, 1e9]], band_count=7),
         "'bands' and 'band_count' exclude each other"),
    ], ids=["one-edge-band", "text-false-alarm", "bands-and-band-count"])
    def test_malformed_calibration_exits_one(self, tmp_path, capsys, edit, message):
        payload = {
            "frame": dict(DESK_FRAME, testing_per_step=10),
            "halting": {"mode": "noisy", "max_sparsity": 8, "noise_std": 0.5, "accuracy": 0.3},
            "trials": 1,
        }
        edit(payload)
        assert main(["calibrate-lambda", self._write(tmp_path, payload)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [
        ({"name": "phase_transition", "grid": {"sparsity": [-1]}}, "grid sparsity"),
        ({"name": "interval_coverage", "grid": {"testing_size": [-3]}}, "grid testing_size"),
        ({"name": "sasr_vs_omp", "grid": {"noise_power": [-1.0]}}, "grid noise_power"),
        ({"name": "error_tracking", "grid": {"testing_per_step": [10.5]}},
         "grid testing_per_step"),
        ({"name": "phase_transition", "trials": 2.7}, "trials"),
        ({"name": "phase_transition", "trials": True}, "trials"),
        ({"name": "phase_transition", "master_seed": 1.9}, "master_seed"),
        ({"name": "phase_transition", "base": {"signal_length": 1.5}}, "base signal_length"),
        ({"name": "error_tracking", "base": {"max_sparsity": 20.7}}, "base max_sparsity"),
        ({"name": "single_frame", "base": {"band_count": 4.5}}, "base band_count"),
        ({"name": "interval_coverage", "base": {"jl_constant": 0}}, "jl_constant"),
        ({"name": "phase_transition", "base": {"signal_length": 0}}, "base signal_length"),
        ({"name": "interval_coverage", "grid": {"testing_size": [0]}}, "grid testing_size"),
        ({"name": "halting_probability", "grid": {"testing_size": [0]}}, "grid testing_size"),
        ({"name": "phase_transition", "grid": {"measurements": [0]}}, "grid measurements"),
    ], ids=["negative-sparsity", "negative-testing-size", "negative-noise-power",
            "fractional-testing-per-step", "fractional-trials", "boolean-trials",
            "fractional-master-seed", "fractional-signal-length", "fractional-max-sparsity",
            "fractional-band-count", "zero-jl-constant", "zero-signal-length",
            "zero-coverage-testing-size", "zero-halting-testing-size", "zero-measurements"])
    def test_ill_typed_run_values_exit_one(self, tmp_path, capsys, payload, key):
        assert main(["run", self._write(tmp_path, payload)]) == 1
        assert key in capsys.readouterr().err

    def test_baseline_cap_above_training_rows_exits_one(self, tmp_path, capsys):
        payload = {"name": "sasr_vs_omp", "trials": 1,
                   "grid": {"sparsity": [16], "noise_power": [1.0]},
                   "base": {"training_size": 60}}
        assert main(["run", self._write(tmp_path, payload)]) == 1
        assert ("k = 80 exceeds the 60 training rows; the refit would be underdetermined"
                in capsys.readouterr().err)

    def test_non_numeric_base_value_exits_one(self, tmp_path, capsys):
        payload = {"name": "phase_transition", "trials": 1, "base": {"signal_length": "abc"}}
        assert main(["run", self._write(tmp_path, payload)]) == 1
        assert "signal_length must be a real number" in capsys.readouterr().err

    def test_bad_invocations_exit_one(self, capsys):
        for argv in ([], ["nope"], ["run"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 1
        assert "error" in capsys.readouterr().err
