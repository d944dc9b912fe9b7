"""Record one pass of the benchmark as ``BENCH_<PR>.json`` at the repository root.

    python3 tools/bench_record.py PR

Runs the command that ``BENCHMARK.json`` declares once on each of its
workloads, for its ``run_seconds``, one workload after another, and writes the
machine record and the end-to-end metrics that ``BENCHMARK.json`` names.  One
pass takes about three times ``run_seconds`` plus set-up.  A single run per
workload shows where the program stands; it is not enough to claim a gain.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # one fixed workload seed, so that records of successive changes compare


def run_workload(command: list, workload: str, seed: int, seconds: float, cwd: Path = ROOT):
    """One benchmark run in ``cwd``: its argv, machine record and result."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(argv)} in {cwd} exited {done.returncode}")
    # The last line of its output is the result, the line before it the machine.
    machine_line, result_line = done.stdout.strip().splitlines()[-2:]
    return argv, json.loads(machine_line)["machine"], json.loads(result_line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", type=int, help="number of the change being recorded")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in spec["end_to_end"]]
    record = {"pr": args.pr, "seed": SEED, "seconds": spec["run_seconds"],
              "machine": None, "workloads": {}}
    for workload in (entry["name"] for entry in spec["workloads"]):
        run_argv, machine, result = run_workload(spec["command"], workload, SEED,
                                                 spec["run_seconds"])
        record["machine"] = record["machine"] or machine
        record["workloads"][workload] = {
            "command": " ".join(run_argv),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "correct": result["correct"],
            "metrics": {name: result["metrics"][name] for name in names},
        }
        print(f"{workload}: {record['workloads'][workload]['metrics']}", file=sys.stderr)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
