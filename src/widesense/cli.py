"""Command-line front end.

``widesense run`` executes a registered experiment from a JSON config and
writes (or prints) its result table; ``widesense frame`` runs one complete
sensing frame; ``widesense list`` names the experiments;
``widesense calibrate-lambda`` fits the energy-detection threshold to a
false-alarm target.  Config errors exit 1, runtime failures exit 2, and a
closed standard output exits 141 (128 + SIGPIPE, as a shell reports it).

Each section of a JSON config is built by its class's ``from_dict``; a
``signal`` with ``reference_length`` is a grid spectrum, any other a
wideband one.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from .engine import DetectorConfig, FrameConfig, calibrate_lambda, run_frame, uniform_bands
from .errors import ParameterError, check_keys, check_value
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    load_config,
    read_json,
    run_experiment,
    write_atomic,
)
from .signals import GridSpectrumSpec, WidebandSignalSpec
from .validation import HaltingConfig


class _Parser(argparse.ArgumentParser):
    # bad invocations exit 1 with usage on stderr, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="widesense", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_p = sub.add_parser("run", help="run a registered experiment")
    run_p.add_argument("config", help="experiment config JSON file")
    run_p.add_argument("--trials", type=int, help="override trial count")
    run_p.add_argument("--seed", type=int, help="override master seed")
    run_p.add_argument("--out", help="output file (overrides config output_path)")
    run_p.add_argument("--format", choices=("csv", "json"), help="output format")
    run_p.add_argument("--workers", type=int, help="trial pool size")

    frame_p = sub.add_parser("frame", help="run one sensing frame")
    frame_p.add_argument("config", help="frame config JSON file")
    frame_p.add_argument("--seed", type=int, help="override master seed")
    frame_p.add_argument("--out", help="write the outcome JSON here")

    sub.add_parser("list", help="list experiment names")

    cal_p = sub.add_parser("calibrate-lambda", help="fit the detection threshold")
    cal_p.add_argument("config", help="calibration config JSON file")
    cal_p.add_argument("--trials", type=int, help="override noise-frame count")
    cal_p.add_argument("--seed", type=int, help="override master seed")
    return parser


_FRAME_KEYS = ("frame", "halting", "signal", "detector", "master_seed")
_CALIBRATE_KEYS = ("frame", "halting", "bands", "band_count", "false_alarm", "trials",
                   "master_seed")


def _signal_from_dict(raw):
    if isinstance(raw, dict) and "reference_length" in raw:
        return GridSpectrumSpec.from_dict(raw)
    return WidebandSignalSpec.from_dict(raw)


def _cmd_run(args) -> int:
    fields = load_config(args.config).to_dict()
    for key, value in (("trials", args.trials), ("master_seed", args.seed),
                       ("output_path", args.out), ("workers", args.workers)):
        if value is not None:
            fields[key] = value
    out = fields.pop("output_path", None)
    cfg = ExperimentConfig.from_dict(fields)
    table = run_experiment(cfg)
    if out:
        table.write(out, args.format)
        print(f"{cfg.name}: {len(table)} rows -> {out}")
    else:
        text = table.to_json_text() if args.format == "json" else table.to_csv_text()
        sys.stdout.write(text)
    return 0


def _cmd_frame(args) -> int:
    raw = read_json(args.config)
    check_keys("top-level", raw, _FRAME_KEYS, ("frame", "halting", "signal"))
    frame = FrameConfig.from_dict(raw["frame"])
    halting = HaltingConfig.from_dict(raw["halting"])
    spec = _signal_from_dict(raw["signal"])
    if "detector" in raw:
        detector = DetectorConfig.from_dict(raw["detector"])
    else:
        detector = DetectorConfig(
            bands=uniform_bands(frame.nyquist_rate / 2.0, 4), threshold=1.0
        )
    seed = args.seed if args.seed is not None else raw.get("master_seed", 0)
    check_value("frame config", "master_seed", seed, int)
    outcome = run_frame(spec, frame, halting, detector, seed)
    text = outcome.to_json()
    if args.out:
        write_atomic(args.out, text + "\n")
        print(f"frame outcome -> {args.out}")
    else:
        print(text)
    return 0


def _cmd_list(_args) -> int:
    for name in EXPERIMENT_NAMES:
        print(name)
    return 0


def _cmd_calibrate(args) -> int:
    raw = read_json(args.config)
    check_keys("top-level", raw, _CALIBRATE_KEYS, ("frame", "halting"))
    frame = FrameConfig.from_dict(raw["frame"])
    halting = HaltingConfig.from_dict(raw["halting"])
    if "bands" in raw and "band_count" in raw:
        raise ParameterError("top-level config keys 'bands' and 'band_count' exclude each other")
    if "bands" in raw:
        bands = raw["bands"]
    else:
        bands = uniform_bands(frame.nyquist_rate / 2.0, raw.get("band_count", 4))
    false_alarm = raw.get("false_alarm", 0.05)
    trials = args.trials if args.trials is not None else raw.get("trials", 50)
    seed = args.seed if args.seed is not None else raw.get("master_seed", 0)
    threshold = calibrate_lambda(frame, halting, bands, false_alarm, trials, seed)
    print(repr(float(threshold)))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "frame": _cmd_frame,
    "list": _cmd_list,
    "calibrate-lambda": _cmd_calibrate,
}


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"widesense: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            code = _COMMANDS[args.command](args)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # The reader is gone.  Python flushes stdout again at exit, so
            # point it at devnull, as the signal module's docs advise.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        except ParameterError as exc:
            print(f"widesense: config error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # pragma: no cover - defensive catch-all
            print(f"widesense: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
