"""Compare a parent revision with this checkout over alternating benchmark runs.

    python3 tools/bench_pairs.py --parent REV --workload W --pairs N --seconds S

Exports REV's committed files with ``git archive`` into a temporary
directory (the working tree is never checked out or changed) and runs the
command that ``BENCHMARK.json`` declares with ``--workload W --seed K
--seconds S`` there and in this checkout, pair K with seed K: the parent
runs first on odd pairs, the change first on even ones.  Both sides of a
pair run the same seed.  For each end-to-end metric of ``BENCHMARK.json``
it prints each side's median [lower quartile, upper quartile], how many of
the N pairs the change won, the change of the median in percent and
"unresolved" when either side's quartile spread exceeds the gap between the
medians; then each run's values.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from bench_record import ROOT, run_workload


def export(rev: str, into: Path) -> Path:
    """The committed files of ``rev``, unpacked under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True)
    tree = into / "parent"
    tree.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def run_once(command: list, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its failure counts and metric values."""
    _argv, _machine, result = run_workload(command, workload, seed, seconds, cwd=tree)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}


def quartiles(values: list) -> tuple:
    """(median, lower quartile, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return median, low, high


def summary(name: str, better: str, parent: list, change: list) -> str:
    """One metric's line: medians [quartiles], wins, % change, resolution."""
    (pm, pl, ph), (cm, cl, ch) = quartiles(parent), quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    percent = (cm - pm) / pm * 100.0 if pm else float("nan")
    gap = abs(cm - pm)
    verdict = "unresolved" if max(ph - pl, ch - cl) > gap else (
        "better" if sign * (cm - pm) > 0 else "worse")
    return (f"{name} ({better} is better): parent {pm:.6g} [{pl:.6g}, {ph:.6g}] -> "
            f"change {cm:.6g} [{cl:.6g}, {ch:.6g}], {percent:+.2f}%, change better in "
            f"{wins} of {len(parent)} pairs, {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="benchmark workload name")
    parser.add_argument("--pairs", required=True, type=int, help="number of run pairs")
    parser.add_argument("--seconds", required=True, type=float, help="seconds per run")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {"parent": export(args.parent, Path(scratch)), "change": ROOT}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                record = run_once(spec["command"], trees[side], args.workload, pair,
                                  args.seconds)
                runs[side].append(record)
                print(f"pair {pair} {side}: "
                      f"{json.dumps(record['metrics'], sort_keys=True)}", file=sys.stderr)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"parent {args.parent}, seeds 1-{args.pairs}")
    for side, records in runs.items():
        print(f"{side}: attempted {sum(r['attempted'] for r in records)}, "
              f"failed {sum(r['failed'] for r in records)}, "
              f"all correct {all(r['correct'] for r in records)}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        print(summary(name, metric["better"], parent, change))
        print(f"  per run: parent {', '.join(f'{v:.6g}' for v in parent)}; "
              f"change {', '.join(f'{v:.6g}' for v in change)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
