"""On-disk cache for count tables, one file per key.

An entry is named by its key, as in ``frontier-2_2-1-0-1_100.json`` for
(algorithm version, bracket, n_max), so any change to the counting kernel
invalidates stale entries.  Writes go through a temp file and an atomic
rename; concurrent readers are safe and the last writer for a key wins with
a complete file either way.  :func:`cached_counts` is the one path through
the cache: it loads each entry once and counts the misses together.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from .counting import ALGORITHM_VERSION, CountTable, count_family
from .lattice import WeightVector

__all__ = ["CountCache", "cached_counts"]


def _key(wv: WeightVector, n_max: int) -> dict:
    """The record an entry holds; :meth:`CountCache.load` checks it whole."""
    return {"algorithm": ALGORITHM_VERSION, "bracket": list(wv.bracket), "n_max": n_max}


class CountCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, wv: WeightVector, n_max: int) -> Path:
        # One name per key, as bracket entries are nonnegative ints.  A name
        # the file system refuses (a bracket ~110 wide) is unwritable: a miss.
        bracket = "-".join(map(str, wv.bracket))
        return self.root / f"{ALGORITHM_VERSION}_{bracket}_{n_max}.json"

    def load(self, wv: WeightVector, n_max: int) -> Optional[CountTable]:
        import json

        path = self._path(wv, n_max)
        try:
            data = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError, RecursionError):  # RecursionError: deep nesting
            return None
        # Anything but a well-formed entry for this whole key is a miss.
        key = _key(wv, n_max)
        if not isinstance(data, dict) or {name: data.get(name) for name in key} != key:
            return None
        counts = data.get("counts")
        if not isinstance(counts, list):
            return None
        try:
            return CountTable(n_max, tuple(counts))
        except ValueError:
            return None

    def store(self, wv: WeightVector, n_max: int, table: CountTable) -> None:
        import json

        path = self._path(wv, n_max)
        payload = json.dumps(
            {**_key(wv, n_max), "counts": list(table.counts)}, sort_keys=True
        )
        # A table that cannot be written is only a miss for the next run, so
        # an OSError here leaves no temp file behind and does not propagate.
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            if not isinstance(exc, OSError):
                raise


def cached_counts(
    wvs: Sequence[WeightVector], n_max: int, cache: Optional[CountCache] = None
) -> list[CountTable]:
    """P(1..n_max) of each bracket, through the cache when one is given.

    Each entry is loaded once, and a corrupt one is a miss.  The misses are
    counted together by :func:`count_family` and stored.  Results are
    identical with or without a cache.
    """
    tables = [None if cache is None else cache.load(wv, n_max) for wv in wvs]
    misses = [i for i, table in enumerate(tables) if table is None]
    for i, table in zip(misses, count_family([wvs[i] for i in misses], n_max)):
        tables[i] = table
        if cache is not None:
            cache.store(wvs[i], n_max, table)
    return tables
