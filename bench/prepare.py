"""Set-up of one benchmark run: import widesense and build the workload's configs.

widesense is imported from ``src/`` of the checkout that holds this file, with
the BLAS, OpenMP and MKL thread counts pinned to 1 before NumPy loads.  Run
as a script, this does the same set-up in a fresh interpreter and prints the
seconds it took; ``run.py`` times set-up that way several times:

    python3 bench/prepare.py <workload> <seed> <config directory>
"""

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import importlib
import json
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"


def import_program():
    """Import widesense from this checkout's ``src/``, never from elsewhere."""
    if not (SOURCE / "widesense" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no widesense package under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    package = importlib.import_module("widesense")
    importlib.import_module("widesense.cli")
    if Path(package.__file__).resolve().parent != SOURCE / "widesense":
        raise SystemExit(f"benchmark: imported widesense from {package.__file__}, not {SOURCE}")
    return package


def prepare(workload: str, seed: int, config_dir: Path):
    """Import the program and build every pooled op's config; time both.

    The config files are written after the clock stops.  Writing them took
    20-94 ms for the 256 ``sweep_small`` configs, from one process to the
    next, and it is the benchmark's work, not the program's.
    """
    start = time.perf_counter()
    package = import_program()
    pool = workloads.build_pool(workload, seed)
    elapsed = time.perf_counter() - start
    config_dir.mkdir(parents=True, exist_ok=True)
    for r, ops in enumerate(pool):
        for i, op in enumerate(ops):
            op.path = config_dir / f"r{r}-op{i}.json"
            op.path.write_text(json.dumps(op.config), encoding="utf-8")
    return package, pool, elapsed


if __name__ == "__main__":
    _package, _pool, elapsed = prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(elapsed))
