import importlib

import pytest

MODULES = ("widesense", "widesense.engine", "widesense.experiments", "widesense.recovery",
           "widesense.sensing", "widesense.signals", "widesense.validation")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_spec_errors_are_parameter_errors():
    # one config checker raises one type; both exit 1 from the command line
    from widesense.errors import InvalidSpecError, ParameterError

    assert issubclass(InvalidSpecError, ParameterError)
