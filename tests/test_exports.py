import importlib

import pytest

MODULES = ("qubit_core", "channel_model", "fisher_info", "protocols", "bounds", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # `from qmetro.<name> import *` fails on any stale entry in __all__
    module = importlib.import_module(f"qmetro.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"qmetro.{name}.__all__ names missing attributes: {missing}"
