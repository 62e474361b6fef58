import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_library_snippet_runs_as_commented():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    snippet = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)[1]
    namespace = {}
    exec(snippet, namespace)
    table, series = namespace["table"], namespace["series"]
    assert table[20] == 15204
    assert namespace["product"].modulus == 17
    assert namespace["report"].status == "verified"
    assert isinstance(series, tuple) and len(series) == 21
    assert series[1:] == table.counts
