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
exits non-zero in either tree.  Under a table that differs it prints each
differing column, with its largest relative difference where both sides
hold floats, and whether every non-float column is equal.  Exits 1 unless
every output is the same.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export
from bench_record import ROOT

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (bench/, which imports neither NumPy nor widesense)

MASTER_SEED = 20240001  # the seed of experiments.default_config
REDUCED_TRIALS = {"phase_transition": 3}  # every other experiment runs 2 trials

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
        path = config(name, {"name": name, "trials": REDUCED_TRIALS.get(name, 2),
                             "master_seed": MASTER_SEED})
        for workers in (1, 2):
            for fmt in ("csv", "json"):
                out[f"run {name} {fmt} workers={workers}"] = [
                    "run", path, "--format", fmt, "--workers", str(workers)]
    for r in (0, 1):
        for i, op in enumerate(workloads.frame_round(1, r)):
            out[f"frame round {r} op {i}"] = ["frame", config(f"frame-{r}-{i}", op.config)]
    out["calibrate-lambda"] = ["calibrate-lambda", config("calibrate", CALIBRATION)]
    return out


def table(fmt: str, out: bytes) -> list:
    """A ``widesense run`` table as rows of values, its column names first."""
    if fmt == "csv":
        return list(csv.reader(io.StringIO(out.decode())))
    payload = json.loads(out)
    return [payload["schema"], *([row[key] for key in payload["schema"]]
                                 for row in payload["rows"])]


def as_float(value):
    """``value`` as a float when it is one, None for an integer or a label
    (CSV gives every value as text; floats are written through ``repr``)."""
    if isinstance(value, float):
        return value
    if not isinstance(value, str):
        return None
    try:
        int(value)
        return None
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return None


def relative(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; inf when the two differ and
    either is NaN or infinite, so such a change is never reported as small."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def column_report(fmt: str, parent_out: bytes, change_out: bytes) -> list:
    """How a differing table differs: one line per differing column, then
    whether every non-float column is equal."""
    parent, change = table(fmt, parent_out), table(fmt, change_out)
    if parent[0] != change[0] or len(parent) != len(change):
        return ["the tables differ in their columns or their row count"]
    lines, labels_equal = [], True
    for i, name in enumerate(parent[0]):
        pairs = [(as_float(p[i]), as_float(c[i]))
                 for p, c in zip(parent[1:], change[1:]) if p[i] != c[i]]
        if not pairs:
            continue
        if any(p is None or c is None for p, c in pairs):
            labels_equal = False
            lines.append(f"{name}: differs in {len(pairs)} rows, not as floats")
        else:
            worst = max(relative(p, c) for p, c in pairs)
            lines.append(f"{name}: differs in {len(pairs)} rows, largest relative "
                         f"difference {worst:.3g}")
    if not lines:
        return ["every column is equal; the bytes around the rows differ"]
    lines.append("every non-float column is equal" if labels_equal
                 else "a non-float column differs")
    return lines


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
            if verdict == "differs" and name.startswith("run "):
                for line in column_report(argv_[3], p_out, c_out):
                    print(f"    {line}", flush=True)
    print(f"{differ} of the outputs differ or failed" if differ else "every output is the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
