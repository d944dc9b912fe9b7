"""Benchmark of widesense driven from outside, through ``widesense.cli.main``.

    python3 bench/run.py --workload {frame,sweep_small,sweep_pursuit} \
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it imports widesense from the
checkout's ``src/``.  One closed-loop caller runs whole rounds of operations
in this process, each a ``widesense frame`` or single-cell ``widesense run``
with ``--workers 1``, until S seconds of operations have passed, and checks
every output (see workloads.py).  Its times are scaled to the host's
reference speed by a gauge run between operations (see hostspeed.py).  With ``--trace 1`` it instead runs a round
count fixed by S, each operation once untraced and once traced, and reports
per-layer metrics.  The last line of standard output is the result JSON;
the line before it records the machine.  Files of the run go to
``bench/runs/<workload>-seed<N>-trace<T>/``.
"""

import prepare  # pins the BLAS thread counts before NumPy loads

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing
import workloads

SETUP_SAMPLES = 11  # the in-process set-up and ten fresh interpreters


def execute(cli, op, out_path: Path):
    """Run one operation; return its exit code, wall and CPU seconds."""
    argv = [op.command, str(op.path), "--out", str(out_path)]
    if op.command == "run":
        argv += ["--workers", "1"]
    if out_path.exists():
        out_path.unlink()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return code, wall, cpu, sink.getvalue()


def read_output(op, code: int, out_path: Path):
    """The operation's output and the problems its checks found."""
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        out = json.loads(out_path.read_text(encoding="utf-8"))
        return out, workloads.check_op(op, out)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return None, [f"malformed output: {type(exc).__name__}: {exc}"]


class SetupProbe:
    """Set-up times, scaled to the host's reference speed: this process's own
    set-up, then fresh interpreters.

    The loop calls it between rounds, so that the samples spread over the
    run like the operations do, instead of sharing one moment of load.
    """

    def __init__(self, workload: str, seed: int, run_dir: Path, gauge, first: float):
        self.args = [sys.executable, str(prepare.BENCH / "prepare.py"), workload, str(seed)]
        self.probe_dir = run_dir / "setup-probe"
        self.gauge = gauge
        self.raw = [first]
        self.samples = [first * hostspeed.REFERENCE_S / gauge.read()[0]]

    def catch_up(self, share: float):
        """Take samples until ``share`` of SETUP_SAMPLES are in."""
        while len(self.samples) < min(1.0, share) * SETUP_SAMPLES:
            before = self.gauge.read()[0]
            done = subprocess.run([*self.args, str(self.probe_dir)], capture_output=True,
                                  text=True, timeout=120, check=True)
            after = self.gauge.read()[0]
            self.raw.append(float(done.stdout.strip().splitlines()[-1]))
            self.samples.append(self.raw[-1] * 2.0 * hostspeed.REFERENCE_S / (before + after))
            shutil.rmtree(self.probe_dir, ignore_errors=True)


def machine_record(usable: list) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:   # the record is informative only
        blas = f"unknown ({type(exc).__name__})"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(usable),
        "pinned_cpu": usable[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in prepare.PINNED_THREADS},
        "platform": platform.platform(),
    }


class Run:
    """Operations of one run, their timings and their check results."""

    def __init__(self, workload, cli, run_dir: Path):
        self.workload, self.cli = workload, cli
        self.out_dir = run_dir / "out"
        self.out_dir.mkdir()
        self.log = (run_dir / "ops.jsonl").open("w", encoding="utf-8")
        self.attempted = self.failed = 0
        self.correct = True

    def attempt(self, i: int, op, tag: str = "") -> dict:
        out_path = self.out_dir / f"op{i}{tag}.json"
        code, wall, cpu, said = execute(self.cli, op, out_path)
        out, problems = read_output(op, code, out_path)
        return {"code": code, "out": out, "problems": problems, "wall_s": wall, "cpu_s": cpu,
                "said": said, "tag": tag}

    def close_round(self, r: int, ops, results) -> list:
        """Add the round's own checks to each op's, count the ops, and say which passed."""
        late = workloads.check_round(self.workload, ops, [res["out"] for res in results])
        passed = []
        for i, (op, res) in enumerate(zip(ops, results)):
            problems = res["problems"] + late.get(i, [])
            self.attempted += 1
            if problems:
                self.failed += 1
                self.correct = self.correct and res["code"] != 0
                name = op.config.get("name", op.command)
                print(f"round {r} op {i} ({name}{res['tag']}) failed: {'; '.join(problems)}",
                      file=sys.stderr)
                if res["said"].strip():
                    print(res["said"].rstrip(), file=sys.stderr)
            self.log.write(json.dumps({
                "round": r, "op": i, "command": op.command, "name": op.config.get("name"),
                "tag": res["tag"], "code": res["code"], "wall_s": res["wall_s"],
                "cpu_s": res["cpu_s"], "gauge_wall_s": res.get("gauge_wall_s"),
                "gauge_cpu_s": res.get("gauge_cpu_s"), "problems": problems}) + "\n")
            passed.append(not problems)
        return passed


def measure(run: Run, pool, seconds: float, setup: SetupProbe, gauge):
    """Run whole rounds for ``seconds``; return the end-to-end metrics.

    Every operation's wall and CPU time is scaled by ``REFERENCE_S`` over the
    mean of the gauges just before and after it (see hostspeed.py).  A slot
    is an operation's place in the round: the same command, cell and trial
    count in every round, with inputs drawn anew.  Each slot's cost is the
    median of its scaled times over the run, and ``op_ms_p50`` is the median
    of the slot costs: a median over all operations would fall in the gap
    between a round's quick and slow commands.
    """
    slots = {}   # slot -> (trials, [scaled wall s], [scaled cpu s]) of its passing repeats
    gauges = [gauge.read()]
    elapsed, r = 0.0, 0
    while r == 0 or elapsed < seconds:
        ops = pool[r % len(pool)]
        results = []
        for i, op in enumerate(ops):
            res = run.attempt(i, op)
            gauges.append(gauge.read())
            (wall_0, cpu_0), (wall_1, cpu_1) = gauges[-2:]
            res["gauge_wall_s"], res["gauge_cpu_s"] = (wall_0 + wall_1) / 2, (cpu_0 + cpu_1) / 2
            res["scaled_wall_s"] = res["wall_s"] * hostspeed.REFERENCE_S / res["gauge_wall_s"]
            res["scaled_cpu_s"] = res["cpu_s"] * hostspeed.REFERENCE_S / res["gauge_cpu_s"]
            results.append(res)
        passed = run.close_round(r, ops, results)
        for i, (op, res, ok) in enumerate(zip(ops, results, passed)):
            if ok:
                _trials, walls, cpus = slots.setdefault(i, (op.trials, [], []))
                walls.append(res["scaled_wall_s"])
                cpus.append(res["scaled_cpu_s"])
        elapsed += sum(res["wall_s"] for res in results)
        r += 1
        setup.catch_up(elapsed / seconds)
    if not slots:
        raise SystemExit("benchmark: no operation passed, so nothing was timed")
    trials = sum(t for t, _w, _c in slots.values())
    slot_walls = [statistics.median(walls) for _t, walls, _c in slots.values()]
    slot_cpus = [statistics.median(cpus) for _t, _w, cpus in slots.values()]
    gauge_walls = [wall for wall, _cpu in gauges]
    return {
        "trials_per_s": (trials / sum(slot_walls), "1/s"),
        "cpu_ms_per_trial": (sum(slot_cpus) * 1e3 / trials, "ms"),
        "op_ms_p50": (statistics.median(slot_walls) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "setup_s": (statistics.median(setup.samples), "s"),
    }, {"rounds": r, "operations": r * len(pool[0]), "seconds": elapsed,
        "slot_repeats": [len(walls) for _t, walls, _c in slots.values()],
        "gauge_wall_s": {"min": min(gauge_walls), "median": statistics.median(gauge_walls),
                         "max": max(gauge_walls), "count": len(gauge_walls)}}


def trace_rounds(workload: str, seconds: float) -> int:
    # Each op runs twice in a traced run; the count depends on --seconds
    # only, so that the traced counts repeat exactly.
    return max(1, round(seconds / (2.0 * workloads.NOMINAL_ROUND_S[workload])))


def measure_traced(run: Run, package, pool, rounds: int, run_dir: Path):
    tracer = tracing.Tracer(package)
    plain_s = traced_s = 0.0
    for r in range(rounds):
        ops = pool[r % len(pool)]
        plain, traced = [], []
        for i, op in enumerate(ops):
            # Alternate which copy runs first, so warm-up favours neither.
            for trace_it in ((False, True) if (r + i) % 2 == 0 else (True, False)):
                if not trace_it:
                    plain.append(run.attempt(i, op))
                    continue
                tracer.op = r * len(ops) + i
                tracer.install()
                try:
                    traced.append(run.attempt(i, op, "-traced"))
                finally:
                    tracer.remove()
        run.close_round(r, ops, plain)
        run.close_round(r, ops, traced)
        plain_s += sum(res["wall_s"] for res in plain)
        traced_s += sum(res["wall_s"] for res in traced)
    tracer.write_spans(run_dir / "spans.jsonl")
    self_ms = sum(tracer.self_seconds().values()) * 1e3
    accounting = {
        "traced_wall_ms": traced_s * 1e3,
        "layer_self_ms": self_ms,
        "unwrapped_ms": traced_s * 1e3 - self_ms,
        "untraced_wall_ms": plain_s * 1e3,
        "rounds": rounds,
        "missing_targets": tracer.missing,
    }
    if tracer.missing:
        print(f"trace: not found, so not traced: {', '.join(tracer.missing)}", file=sys.stderr)
    return tracing.layer_metrics(tracer, traced_s - plain_s), accounting


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One CPU for the run and its gauge, so that the gauge sees the load
    # the operations see.
    usable = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable[0]})
    run_dir = prepare.BENCH / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    package, pool, first_setup = prepare.prepare(args.workload, args.seed, run_dir / "configs")
    machine = machine_record(usable)
    run = Run(args.workload, package.cli, run_dir)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine}
    try:
        if args.trace:
            metrics, record["trace_accounting"] = measure_traced(
                run, package, pool, trace_rounds(args.workload, args.seconds), run_dir)
        else:
            with hostspeed.Gauge() as gauge:
                setup = SetupProbe(args.workload, args.seed, run_dir, gauge, first_setup)
                timed, record["loop"] = measure(run, pool, args.seconds, setup, gauge)
            record["loop"]["setup_samples_s"] = setup.samples
            record["loop"]["setup_raw_s"] = setup.raw
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in timed.items()}
    finally:
        run.log.close()

    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record["result"] = result
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
