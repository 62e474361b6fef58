import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import click
import pytest

import colorparts
from colorparts.congruence import (
    PeriodicProduct,
    PlusFactor,
    even_width_product,
    residue_class_text,
)
from colorparts.counting import CountTable, brute_force_count, dimension
from colorparts.lattice import WeightVector, row_parts, row_template
from colorparts.qseries import ExponentSequence, expand
from colorparts.verify import sweep_weights, verify_weight


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


def test_the_console_script_is_the_click_group():
    # pyproject.toml read as text: tomllib is new in Python 3.11
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text("utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject, re.M | re.S)[1]
    entry = re.search(r'^colorparts = "(.*)"$', scripts, re.M)[1]
    assert entry == "colorparts.cli:main"
    module, _, name = entry.partition(":")
    assert isinstance(getattr(importlib.import_module(module), name), click.Group)


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


PRODUCT_SIDE = (
    "colorparts.verify",
    "colorparts.cache",
    "colorparts.congruence",
    "colorparts.qseries",
    "json",
)
RUN_MODULE = "runpy.run_module('colorparts.cli', run_name='__main__')"  # python -m
CONSOLE_SCRIPT = "from colorparts.cli import main; main()"
HASHLIB = ("hashlib", "_hashlib")
# no command needs a process pool or pickle, and only csv output needs csv
NEVER_LOADED = ("concurrent.futures.process", "multiprocessing", "pickle", "csv")


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache that holds every table of ``sweep -w 4 -k 2 -N 20``."""
    from colorparts.cache import CountCache
    from colorparts.verify import run_sweep

    root = tmp_path_factory.mktemp("warm-cache")
    run_sweep(4, 2, 20, cache=CountCache(root))
    return root


def _fresh_interpreter(code: str) -> str:
    """The last stdout line of ``code`` run in a new interpreter, with no cache."""
    src = Path(colorparts.__file__).parents[1]
    env = {k: v for k, v in os.environ.items() if k != "COLORPARTS_CACHE_DIR"}
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, entry, unloaded",
    [
        # dim needs only the counting kernel, and a verify without a cache
        # needs no json or hashlib
        (["dim", "2,2"], RUN_MODULE, PRODUCT_SIDE),
        (["dim", "2,2"], CONSOLE_SCRIPT, PRODUCT_SIDE),
        (["verify", "--even", "0,1", "-N", "5", "--auto"], CONSOLE_SCRIPT,
         ("json", "hashlib")),
        # the kernel sizes its own limbs, so a count loads no product side
        (["count", "--even", "0,1", "-N", "20"], CONSOLE_SCRIPT,
         ("colorparts.verify", "colorparts.congruence", "colorparts.qseries", "json")),
        # an entry is named by its key, so no cached command loads hashlib:
        # a cold sweep stores the family that a warm sweep, verify and fit read
        (["sweep", "-w", "4", "-k", "2", "-N", "20", "--cache-dir", "COLD"],
         CONSOLE_SCRIPT, HASHLIB),
        (["sweep", "-w", "4", "-k", "2", "-N", "20", "--cache-dir", "WARM"],
         CONSOLE_SCRIPT, HASHLIB),
        (["verify", "--even", "1,0,1", "-N", "20", "--auto", "--cache-dir", "WARM"],
         CONSOLE_SCRIPT, HASHLIB),
        (["fit", "--even", "1,0,1", "-N", "20", "--cache-dir", "WARM"],
         CONSOLE_SCRIPT, HASHLIB),
    ],
    ids=["dim-runpy", "dim-script", "verify-uncached", "count-uncached",
         "sweep-cold-cache", "sweep-warm-cache", "verify-warm-cache", "fit-warm-cache"],
)
def test_a_command_imports_only_what_it_runs(argv, entry, unloaded, tmp_path, warm_cache):
    argv = [str({"COLD": tmp_path, "WARM": warm_cache}.get(arg, arg)) for arg in argv]
    code = (
        "import runpy, sys\n"
        f"sys.argv[1:] = {argv!r}\n"
        "try:\n"
        f"    {entry}\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        f"print([m for m in {unloaded + NEVER_LOADED!r} if m in sys.modules])\n"
    )
    assert _fresh_interpreter(code) == "[]"


def test_bare_import_loads_no_submodule():
    code = (
        "import sys, colorparts; "
        "print([m for m in sys.modules if m.startswith('colorparts.')])"
    )
    assert _fresh_interpreter(code) == "[]"


WV, PRODUCT = WeightVector((0, 1)), PeriodicProduct(1, (0,))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CountTable(2, (1,)), "one count per"),
        (lambda: brute_force_count(WV, 0), "n_max must be >= 1"),
        (lambda: dimension((1, -1)), "must be nonnegative"),
        (lambda: sweep_weights(0, 1), "width must be >= 2"),
        (lambda: verify_weight(WV, 0), "n_max must be >= 1"),
        (lambda: expand(PRODUCT, -1), "degree must be >= 0"),
        (lambda: ExponentSequence((1,), None, None).class_multiplicities(0), "modulus"),
        (lambda: row_parts(-1, 2), "row index >= 0"),
        (lambda: row_template(-1, WV), "row index must be >= 0"),
        (lambda: WeightVector.from_even((1,)), "at least"),
        (lambda: PlusFactor(0, 0, 1), "modulus must be >= 1"),
        (lambda: PRODUCT.effective_exponent(0), "index must be >= 1"),
        (lambda: even_width_product((1, -1)), "must be nonnegative"),
        (lambda: residue_class_text(3, (1,)), "one multiplicity per"),
    ],
    ids=[
        "count-table", "brute-force", "dimension", "sweep-weights", "verify-weight",
        "expand", "class-multiplicities", "row-parts", "row-template", "from-even",
        "plus-factor", "effective-exponent", "even-width-product", "residue-class-text",
    ],
)
def test_out_of_range_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
