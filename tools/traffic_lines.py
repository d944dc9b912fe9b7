"""List the package statements that the benchmark and the output checks never run.

    python3 tools/traffic_lines.py

Runs, in this process and through ``widesense.cli.main``:

* rounds 0 and 1 of every benchmark workload at seed 1, set up by
  ``bench/prepare.prepare`` (with the benchmark's BLAS pin and
  ``workloads.build_pool``) and run by ``bench/run.execute``;
* the commands of ``tools/same_outputs.py``: ``widesense list``, every
  experiment's reduced table as CSV and as JSON, and the calibration.  Its
  ``frame`` configs are the benchmark's ``frame`` rounds above, so they are
  not run twice, and of its ``--workers 2`` tables only the first runs, so
  that the pool path's side in this process counts.

A line tracer limited to ``src/widesense`` records, from the package's
import on, which lines run.  Lines that pool workers run in their own
processes are not seen.  For each module it prints the statements that
never ran, as line ranges, and apart from them the ``raise`` statements
that never ran, since error paths stay whether or not traffic reaches
them.  Exits 1 if a command exits non-zero.
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from bench_record import ROOT

sys.path.insert(0, str(ROOT / "bench"))
import prepare  # noqa: E402  (pins the BLAS thread counts before NumPy loads)
import run as bench_run  # noqa: E402
import same_outputs  # noqa: E402
import workloads  # noqa: E402

PACKAGE = ROOT / "src" / "widesense"
SEED = 1
ROUNDS = 2


def line_tracer(executed: set):
    """A ``sys.settrace`` function that adds each (file, line) run in the
    package to ``executed`` and traces no frame outside it."""
    prefix = f"{PACKAGE}/"

    def local(frame, event, _arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return start


def statements(source: str):
    """(lines, head, is_raise) for each statement of a module that compiles
    to code: the lines it spans and the lines whose trace events mean it ran
    (a compound statement's header, up to its body)."""
    for node in ast.walk(ast.parse(source)):
        docstring = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))
        # A try header, global and nonlocal compile to no line of their own.
        if not isinstance(node, ast.stmt) or docstring or isinstance(
                node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        head_end = max(first, body[0].lineno - 1) if body else node.end_lineno
        yield (range(first, node.end_lineno + 1), range(first, head_end + 1),
               isinstance(node, ast.Raise))


def spans(lines: list) -> str:
    """Line ranges of the statement spans, touching ones merged."""
    merged = []
    for span in sorted(lines, key=lambda span: span.start):
        if merged and span.start <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], span.stop - 1)
        else:
            merged.append([span.start, span.stop - 1])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in merged)


def commands(configs: Path, names: list) -> dict:
    """The ``same_outputs`` commands that the benchmark rounds do not cover."""
    out, pooled = {}, False
    for name, argv in same_outputs.commands(names, configs).items():
        if name.startswith("frame "):
            continue
        if "workers=2" in name:
            if pooled:
                continue
            pooled = True
        out[name] = argv
    return out


def run_cli(cli, argv: list) -> tuple:
    """``widesense ARGV`` in this process: its exit code and its output."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, sink.getvalue()


def run_traffic(scratch: Path) -> list:
    """Run every command; the names of those that exited non-zero."""
    failed = []
    for workload in workloads.WORKLOADS:
        _package, pool, _elapsed = prepare.prepare(workload, SEED, scratch / workload)
        cli = sys.modules["widesense.cli"]
        for r, ops in enumerate(pool[:ROUNDS]):
            for i, op in enumerate(ops):
                code, *_ = bench_run.execute(cli, op, scratch / f"{workload}-{r}-{i}.out")
                if code != 0:
                    failed.append(f"{workload} round {r} op {i}")
    code, listed = run_cli(cli, ["list"])
    if code != 0:
        failed.append("list")
    configs = scratch / "configs"
    configs.mkdir()
    for name, argv in commands(configs, listed.split()).items():
        if run_cli(cli, argv)[0] != 0:
            failed.append(name)
    return failed


def main() -> int:
    executed = set()
    with tempfile.TemporaryDirectory(prefix="traffic-lines-") as scratch:
        sys.settrace(line_tracer(executed))
        try:
            failed = run_traffic(Path(scratch))
        finally:
            sys.settrace(None)
    # Statements, then raise statements: how many, and how many never ran.
    totals = [[0, 0], [0, 0]]
    for path in sorted(PACKAGE.glob("*.py")):
        ran = {line for file, line in executed if file == str(path)}
        counts, missed = [0, 0], ([], [])
        for lines, head, is_raise in statements(path.read_text(encoding="utf-8")):
            counts[is_raise] += 1
            if not ran.intersection(head):
                missed[is_raise].append(lines)
        for total, count, never in zip(totals, counts, missed):
            total[0] += count
            total[1] += len(never)
        print(f"{path.name}: {len(missed[0])} of {counts[0]} statements never ran, "
              f"and {len(missed[1])} of {counts[1]} raise statements")
        for label, never in zip(("statements", "raise"), missed):
            if never:
                print(f"  {label}: {spans(never)}")
    (count, never), (raise_count, raise_never) = totals
    print(f"in all: {never} of {count} statements never ran, "
          f"and {raise_never} of {raise_count} raise statements")
    for name in failed:
        print(f"failed: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
