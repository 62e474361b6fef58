import importlib
import pkgutil

import colorparts


def test_every_exported_name_exists():
    modules = [colorparts] + [
        importlib.import_module(f"colorparts.{info.name}")
        for info in pkgutil.iter_modules(colorparts.__path__)
    ]
    for module in modules:
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
    namespace = {}
    exec("from colorparts import *", namespace)
    assert set(colorparts.__all__) <= namespace.keys()
