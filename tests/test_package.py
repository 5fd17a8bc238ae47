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
LIBRARY_MODULES = [m for m in MODULES[1:] if m.__name__ != "coocbias.cli"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__, module.__name__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_each_library_name_once():
    declared = {"__version__"}.union(*(m.__all__ for m in LIBRARY_MODULES))
    assert set(coocbias.__all__) == declared
    assert len(coocbias.__all__) == len(set(coocbias.__all__))
