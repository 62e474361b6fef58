import importlib
import pkgutil
import re
import subprocess
import sys
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


def test_cli_import_leaves_process_pool_unloaded():
    # no command needs a process pool or pickle, only a cache needs hashlib
    # and only csv output needs csv
    src = Path(colorparts.__file__).parents[1]
    code = (
        "import sys, colorparts.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing', "
        "'pickle', 'hashlib', 'csv') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
