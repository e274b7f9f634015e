"""The package's public names."""
import importlib
import pkgutil

import pytest

import bmbodies

_MODULES = ["bmbodies"] + [
    f"bmbodies.{info.name}" for info in pkgutil.iter_modules(bmbodies.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_every_public_name_resolves(name):
    # a name deleted from a module but left in an __all__ list fails here
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
