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


def _top_level_names(node) -> list:
    """The names a module-level statement binds: a def, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _reads(tree) -> list:
    """Every name read under tree: loaded names and attribute names."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
    return out


def test_every_private_module_name_is_read_in_the_package():
    # a _helper that only tests reach is dead code: every top-level _name
    # (not _ itself, nor a dunder) is read somewhere in src outside the
    # statement that defines it
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    reads = [name for tree in trees.values() for name in _reads(tree)]
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            own = _reads(node)
            for name in _top_level_names(node):
                if name.startswith("_") and name != "_" and not name.startswith("__"):
                    if reads.count(name) == own.count(name):
                        dead.append(f"{path.stem}.{name}")
    assert not dead, f"private names nothing in src reads: {dead}"
