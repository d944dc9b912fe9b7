"""Write the golden outputs that ``tests/test_golden.py`` recomputes.

    PYTHONPATH=src python3 tools/golden.py

Runs this checkout's ``widesense`` in process and writes, under
``tests/golden/``:

* ``<name>.csv``: ``widesense run --format csv --workers 1`` of every
  experiment at its default grid and base, with the trial counts and master
  seed of ``outputs.reduced_config`` (3 trials for ``phase_transition``, 2
  for the rest, seed 20240001);
* ``frames.json``: each config of ``bench/workloads.frame_round(1, r)`` for
  r = 0 and 1, with the ``widesense frame`` outcome it gives.

A change that moves these outputs rewrites them in the same commit and
gives the ``tools/same_outputs.py`` column report of the move.  Rewrite
them only from these fixed configs.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from outputs import reduced_config

from widesense import cli
from widesense.experiments import EXPERIMENT_NAMES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FRAMES = GOLDEN / "frames.json"


def widesense(command: str, payload: dict, workdir: Path, *options: str) -> str:
    """The stdout of ``widesense COMMAND CONFIG OPTIONS`` for the config
    ``payload``, run in process; the config file is written into ``workdir``."""
    path = workdir / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, str(path), *options])
    if code != 0:
        raise RuntimeError(f"widesense {command} exited {code}")
    return out.getvalue()


def table(name: str, workdir: Path) -> str:
    """The reduced default ``name`` table as CSV."""
    return widesense("run", reduced_config(name), workdir, "--format", "csv", "--workers", "1")


def frame(config: dict, workdir: Path) -> dict:
    """The parsed ``widesense frame`` outcome of ``config``."""
    return json.loads(widesense("frame", config, workdir))


def main() -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads  # bench/, which imports neither NumPy nor widesense

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="golden-") as workdir:
        workdir = Path(workdir)
        for name in EXPERIMENT_NAMES:
            (GOLDEN / f"{name}.csv").write_text(table(name, workdir), encoding="utf-8")
        frames = [{"round": r, "op": i, "config": op.config,
                   "outcome": frame(op.config, workdir)}
                  for r in (0, 1) for i, op in enumerate(workloads.frame_round(1, r))]
    FRAMES.write_text(json.dumps(frames, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(EXPERIMENT_NAMES)} tables and {len(frames)} frames to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
