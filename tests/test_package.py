import importlib

import pytest

MODULES = ("widesense", "widesense.engine", "widesense.experiments", "widesense.recovery",
           "widesense.sensing", "widesense.signals", "widesense.validation")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
