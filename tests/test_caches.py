import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import sympbw

MODULES = sorted(info.name for info in pkgutil.iter_modules(sympbw.__path__))
ROOT = Path(__file__).resolve().parent.parent


def test_every_module_is_listed():
    assert {"correspondence", "fflv", "relations", "straighten", "tableaux", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_module_cache_is_bounded(name):
    # a cache is emptied only if it is a module attribute (bench/tracer.memo_caches),
    # and one keyed per input must not grow for the life of the process
    module = importlib.import_module(f"sympbw.{name}")
    tree = ast.parse(inspect.getsource(module))
    decorated = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any("cache" in ast.unparse(dec) for dec in node.decorator_list)
    }
    for fname in decorated:
        cache = getattr(module, fname, None)
        assert callable(getattr(cache, "cache_info", None)), f"{name}.{fname} is not a module attribute"
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16, f"{name}.{fname}: maxsize={maxsize}"


def _references(tree):
    """Names a module reads, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def test_every_public_function_has_a_caller_outside_the_tests():
    # a public function that only tests call is code the library carries for
    # nothing: move it into the test that needs it as an oracle, or delete it.
    # A re-export in __init__.py names a function without calling it, and a
    # docstring or comment that names one does not call it either.
    sources = sorted(path for path in (ROOT / "src" / "sympbw").glob("*.py")
                     if path.name != "__init__.py")
    demos = sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources + demos}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unused = [f"{path.stem}.{node.name}"
              for path in sources for node in trees[path].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in referenced]
    assert unused == []
