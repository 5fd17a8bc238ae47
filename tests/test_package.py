"""The public names the package and its modules export."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_runtime_imports_only_the_standard_library():
    root = Path(coocbias.__file__).parent
    outside = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.split(".")[0] for name in names}
            outside += [(path.name, name) for name in sorted(top - {"coocbias"} - sys.stdlib_module_names)]
    assert outside == []
