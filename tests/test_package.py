import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("widesense.engine", "widesense.experiments", "widesense.recovery",
           "widesense.sensing", "widesense.signals", "widesense.validation")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_root_holds_only_the_version():
    # names are imported from their modules, never from the package root
    import widesense

    names = [n for n, value in vars(widesense).items()
             if not n.startswith("__") and not inspect.ismodule(value)]
    assert names == []
    assert widesense.__version__


def test_spec_errors_are_parameter_errors():
    # one config checker raises one type; both exit 1 from the command line
    from widesense.errors import InvalidSpecError, ParameterError

    assert issubclass(InvalidSpecError, ParameterError)


def test_every_benchmark_trace_target_exists():
    # bench/tracing.py wraps named functions and methods; a renamed or
    # deleted one would silently drop out of the per-layer metrics
    import widesense
    import widesense.cli  # noqa: F401  (traced, not imported by the package)

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = widesense.recovery.sasr
    tracer = tracing.Tracer(widesense)
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.remove()
    assert widesense.recovery.sasr is original


def _defined(stmt) -> set:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _used(path: Path) -> set:
    """The names ``path`` loads, reads as attributes or imports, each
    outside the top-level statement that defines it."""
    used = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        used |= names - _defined(stmt)
    return used


def test_every_export_is_used_outside_the_tests():
    # The public surface is what the CLI, the experiments, the benchmark,
    # the tools and the README use; a test-only helper belongs in tests/.
    import widesense

    used = set()
    for path in sorted(p for d in ("src", "bench", "tools") for p in (ROOT / d).rglob("*.py")):
        used |= _used(path)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for info in pkgutil.iter_modules(widesense.__path__):
        module = importlib.import_module(f"widesense.{info.name}")
        unused += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                   if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unused == []
