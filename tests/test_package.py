"""The public names the package and its modules export."""

import importlib
import pkgutil

import pytest

import coocbias

MODULES = [coocbias] + [
    importlib.import_module(f"coocbias.{info.name}")
    for info in pkgutil.iter_modules(coocbias.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__, module.__name__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
