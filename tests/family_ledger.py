"""The family ledger: every conjecture family checked at a full period.

The grid is every family of width 4..12 (odd widths from 5) and level 1..7
with at most 300 weights, each swept at N equal to its products' period.
``family_ledger.json`` holds, per family, (w, k, N, weight count, SHA-256
of ``sweep --format json`` with the runtime fields stripped), the
convention of the CI digests.

    python tests/family_ledger.py          # replay the grid through `colorparts`
    python tests/family_ledger.py --write  # recompute the ledger the same way
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from colorparts.cli import CACHE_ENV_VAR
from colorparts.lattice import WeightVector
from colorparts.verify import conjectured_product, sweep_weights

LEDGER = Path(__file__).with_name("family_ledger.json")
RUNTIME_JSON = re.compile(r'"runtime_seconds": [-+0-9.eE]+')
MAX_WEIGHTS = 300


def grid() -> list[list[int]]:
    """[w, k, N, weights] of every family in the grid."""
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


def digest(stdout: str) -> str:
    """SHA-256 of a sweep's JSON with its runtimes stripped."""
    return hashlib.sha256(RUNTIME_JSON.sub("", stdout).encode()).hexdigest()


def replay(w: int, k: int, n_max: int) -> str:
    """The digest of one family, swept by the installed CLI with no cache."""
    env = dict(os.environ)
    env.pop(CACHE_ENV_VAR, None)
    argv = ["colorparts", *sweep_argv(w, k, n_max)]
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    if out.returncode not in (0, 1):  # 1: some weight did not verify
        raise RuntimeError(f"sweep -w {w} -k {k} -N {n_max} failed: {out.stderr}")
    return digest(out.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        entries = [[*family, replay(*family[:3])] for family in grid()]
        lines = ",\n".join(json.dumps(entry) for entry in entries)
        LEDGER.write_text(f"[\n{lines}\n]\n", "utf-8")
        return 0
    failed = 0
    for w, k, n_max, weights, want in json.loads(LEDGER.read_text("utf-8")):
        got = replay(w, k, n_max)
        verdict = "ok" if got == want else "MISMATCH"
        print(f"w{w} k{k} N{n_max} ({weights} weights): {verdict}")
        failed += got != want
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
