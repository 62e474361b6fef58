"""Content-addressed on-disk cache for count tables.

Keys are hashes of (algorithm version, bracket, n_max), so any change to the
counting kernel invalidates stale entries.  Writes go through a temp file
and an atomic rename; concurrent readers are safe and the last writer for a
key wins with a complete file either way.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from .counting import ALGORITHM_VERSION, CountTable, count_admissible
from .lattice import WeightVector

__all__ = ["CountCache", "cached_count"]


def _key(wv: WeightVector, n_max: int) -> dict:
    """The record an entry is filed under; its sorted JSON names the file."""
    return {"algorithm": ALGORITHM_VERSION, "bracket": list(wv.bracket), "n_max": n_max}


class CountCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, wv: WeightVector, n_max: int) -> Path:
        import hashlib  # imported here: runs without a cache never load it

        payload = json.dumps(_key(wv, n_max), sort_keys=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self.root / f"{digest}.json"

    def load(self, wv: WeightVector, n_max: int) -> Optional[CountTable]:
        path = self._path(wv, n_max)
        try:
            data = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError, RecursionError):  # RecursionError: deep nesting
            return None
        # Anything but a well-formed entry for this key is a miss.
        if not isinstance(data, dict):
            return None
        if data.get("bracket") != list(wv.bracket) or data.get("n_max") != n_max:
            return None
        counts = data.get("counts")
        if not isinstance(counts, list):
            return None
        try:
            return CountTable(n_max, tuple(counts))
        except ValueError:
            return None

    def store(self, wv: WeightVector, n_max: int, table: CountTable) -> None:
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


def cached_count(
    wv: WeightVector, n_max: int, cache: Optional[CountCache] = None
) -> CountTable:
    """Count through the cache when one is given; results are identical."""
    if cache is None:
        return count_admissible(wv, n_max)
    table = cache.load(wv, n_max)
    if table is None:
        table = count_admissible(wv, n_max)
        cache.store(wv, n_max, table)
    return table
