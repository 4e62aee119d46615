import ast
import importlib
import inspect
import pkgutil

import pytest

import sympbw

MODULES = sorted(info.name for info in pkgutil.iter_modules(sympbw.__path__))


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
