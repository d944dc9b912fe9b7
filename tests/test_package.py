import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
