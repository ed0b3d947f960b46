"""The public surface: what each module lists in __all__ and what the package re-exports."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import ptstab

PACKAGE_DIR = Path(ptstab.__file__).parent
# every module but the command line, whose public names are its subcommands
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem not in ("__init__", "cli"))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_functions_and_classes(name):
    mod = importlib.import_module(f"ptstab.{name}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"
    own = [
        n
        for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    ]
    unlisted = sorted(set(own) - set(mod.__all__))
    assert not unlisted, f"public in {name} but not in its __all__: {unlisted}"


def test_package_reexports_resolve_to_listed_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"ptstab.{node.module}")
        for alias in node.names:
            assert getattr(ptstab, alias.name) is getattr(mod, alias.name)
            assert alias.name in mod.__all__, f"ptstab re-exports {node.module}.{alias.name}, which is not in __all__"
