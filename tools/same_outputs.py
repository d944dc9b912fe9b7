"""Check that a parent revision and this checkout write the same outputs.

    python3 tools/same_outputs.py --parent REV

Exports REV's committed files with ``bench_pairs.export`` and runs the same
``widesense`` commands in both trees, each with its own ``src/`` on the
import path:

* ``widesense list``;
* every experiment that REV lists, at its default grid and base with 3
  trials for ``phase_transition`` and 2 for the rest, printed as CSV and
  as JSON, at ``--workers`` 1 and 2;
* ``widesense frame`` on the configs of ``bench/workloads.frame_round(1, r)``
  for r = 0 and 1;
* one ``widesense calibrate-lambda`` config.

Prints "same" or "differs" for each output, and "failed" for a command that
exits non-zero in either tree.  Under a table or a frame outcome that
differs it prints each differing column (for a frame, each differing field,
named by its path), with its largest relative difference where both sides
hold floats, and whether every non-float column is equal; the comparison is
``outputs.column_differences``, which ``tests/test_golden.py`` uses too.
Exits 1 unless every output is the same.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export
from bench_record import ROOT
from outputs import column_report, reduced_config

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (bench/, which imports neither NumPy nor widesense)

# A desk-scale calibration whose quantile lands on a positive band energy.
CALIBRATION = {
    "frame": {"frame_length": 0.8e-6, "min_transmission": 0.48e-6, "time_step": 0.04e-6,
              "nyquist_rate": 5e9, "sub_nyquist_rate": 1e9, "testing_per_step": 10},
    "halting": {"mode": "noisy", "max_sparsity": 8, "noise_std": 0.5, "accuracy": 0.05},
    "band_count": 4,
    "false_alarm": 0.25,
    "trials": 5,
    "master_seed": 3,
}


def widesense(tree: Path, args: list, cwd: Path) -> tuple:
    """``widesense ARGS`` with ``tree``'s package: its exit code and stdout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "widesense.cli", *args], cwd=cwd, env=env,
                          capture_output=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
    return done.returncode, done.stdout


def commands(names: list, configs: Path) -> dict:
    """Each compared output's name and its ``widesense`` arguments; writes
    the config files they read into ``configs``."""
    def config(name: str, payload: dict) -> str:
        path = configs / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    out = {"list": ["list"]}
    for name in names:
        path = config(name, reduced_config(name))
        for workers in (1, 2):
            for fmt in ("csv", "json"):
                out[f"run {name} {fmt} workers={workers}"] = [
                    "run", path, "--format", fmt, "--workers", str(workers)]
    for r in (0, 1):
        for i, op in enumerate(workloads.frame_round(1, r)):
            out[f"frame round {r} op {i}"] = ["frame", config(f"frame-{r}-{i}", op.config)]
    out["calibrate-lambda"] = ["calibrate-lambda", config("calibrate", CALIBRATION)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as scratch:
        scratch = Path(scratch)
        parent = export(args.parent, scratch)
        configs = scratch / "configs"
        configs.mkdir()
        code, listed = widesense(parent, ["list"], scratch)
        if code != 0:
            raise SystemExit(f"widesense list exited {code} at {args.parent}")
        differ = 0
        for name, argv_ in commands(listed.decode().split(), configs).items():
            (p_code, p_out), (c_code, c_out) = [widesense(tree, argv_, scratch)
                                                for tree in (parent, ROOT)]
            if p_code or c_code:
                verdict = f"failed (exit {p_code} at the parent, {c_code} here)"
            else:
                verdict = "same" if p_out == c_out else "differs"
            differ += verdict != "same"
            print(f"{name}: {verdict}", flush=True)
            fmt = argv_[3] if name.startswith("run ") else argv_[0]
            if verdict == "differs" and fmt in ("csv", "json", "frame"):
                for line in column_report(fmt, p_out, c_out):
                    print(f"    {line}", flush=True)
    print(f"{differ} of the outputs differ or failed" if differ else "every output is the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
