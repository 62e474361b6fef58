"""The pinned CLI outputs: one file, replayed once by the tier-1 tests.

``pins.json`` holds every CLI output this repository pins: the golden
matrix (every command in every format, the usage errors and ``--version``),
the sweep of every conjecture family in :func:`grid` at a full period, the
deep count tables, the bench's verify weights and the ``dim`` values. Each
entry is ``{"argv", "exit_code", "stdout" | "sha256", "limits"?,
"stderr"?}``:

- ``stdout`` is the whole stdout and ``sha256`` its SHA-256, both taken
  with the runtime fields normalised as ``bench/run.py`` does: a text line
  ``runtime = 0.012s`` reads ``runtime = _`` and a JSON field
  ``"runtime_seconds": 0.012`` reads ``"runtime_seconds": _``;
- ``limits`` holds ``address_space_mib`` (the child's ``RLIMIT_AS``) and
  ``seconds`` (its timeout), either of them optional;
- ``stderr`` is a substring that stderr must contain.

``tests/test_cli.py`` replays the entries without limits in process and
those with limits through :func:`run`, each in a child under its limits.

    PYTHONPATH=src python tests/pins.py --write

re-derives every entry through :func:`run` and rewrites ``pins.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path
from typing import Optional

import colorparts
from colorparts.cli import CACHE_ENV_VAR
from colorparts.lattice import WeightVector
from colorparts.verify import conjectured_product, sweep_weights

PINS = Path(__file__).with_name("pins.json")
# the console script `colorparts`, run from the package this module imports
SCRIPT = (sys.executable, "-c", "from colorparts.cli import main; main(prog_name='colorparts')")
SRC = str(Path(colorparts.__file__).parents[1])
PINNED = ("exit_code", "stdout", "sha256", "stderr")
RUNTIME_TEXT = re.compile(r"^runtime = [0-9.]+s$", re.MULTILINE)
RUNTIME_JSON = re.compile(r'"runtime_seconds": [-+0-9.eE]+')
MAX_WEIGHTS = 300


def grid() -> list[list[int]]:
    """[w, k, N, weights] of every family of width 4..12 (odd widths from 5)
    and level 1..7 with at most 300 weights, N its products' period."""
    families = []
    for w in range(4, 13):
        for k in range(1, 8):
            sugars = sweep_weights(w, k)  # w = 4 is the only width below 5
            if len(sugars) > MAX_WEIGHTS:
                continue
            family = WeightVector.from_odd if w % 2 else WeightVector.from_even
            n_max = max(conjectured_product(family(ks)).period for ks in sugars)
            families.append([w, k, n_max, len(sugars)])
    return families


def sweep_argv(w: int, k: int, n_max: int) -> list[str]:
    return ["sweep", "-w", str(w), "-k", str(k), "-N", str(n_max), "--format", "json"]


def load() -> list[dict]:
    return json.loads(PINS.read_text("utf-8"))


def expected(entry: dict) -> dict:
    """What ``entry`` pins."""
    return {key: entry[key] for key in PINNED if key in entry}


def observed(entry: dict, exit_code: int, stdout: str, stderr: str) -> dict:
    """A run's outcome, in the form of what ``entry`` pins."""
    stdout = RUNTIME_TEXT.sub("runtime = _", stdout)
    stdout = RUNTIME_JSON.sub('"runtime_seconds": _', stdout)
    got = {"exit_code": exit_code}
    if "stdout" in entry:
        got["stdout"] = stdout
    else:
        got["sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
    if "stderr" in entry:
        got["stderr"] = entry["stderr"] if entry["stderr"] in stderr else stderr
    return got


def run(entry: dict) -> Optional[dict]:
    """Run one entry through ``SCRIPT`` under its limits with no cache; None
    if it timed out."""
    limits = entry.get("limits", {})
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV_VAR}
    env["PYTHONPATH"] = SRC

    def limit_address_space() -> None:  # in the child, before it runs
        if "address_space_mib" in limits:
            size = limits["address_space_mib"] << 20
            resource.setrlimit(resource.RLIMIT_AS, (size, size))

    try:
        out = subprocess.run(
            [*SCRIPT, *entry["argv"]], capture_output=True, text=True, env=env,
            timeout=limits.get("seconds"), preexec_fn=limit_address_space,
        )
    except subprocess.TimeoutExpired:
        return None
    return observed(entry, out.returncode, out.stdout, out.stderr)


def write() -> int:
    """Re-derive every entry of ``pins.json`` from runs through ``SCRIPT``."""
    entries = []
    for entry in load():
        got = run(entry)
        if got is None:
            raise RuntimeError(f"{' '.join(entry['argv'])} timed out")
        entries.append(entry | got)
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    PINS.write_text(f"[\n{lines}\n]\n", "utf-8")
    return 0


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/pins.py --write")
    return write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
