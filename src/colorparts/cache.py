"""Content-addressed on-disk cache for count tables.

Keys are hashes of (algorithm version, bracket, n_max), so any change to the
counting kernel invalidates stale entries.  Writes go through a temp file
and an atomic rename; concurrent readers are safe and the last writer for a
key wins with a complete file either way.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from .counting import ALGORITHM_VERSION, CountTable, count_admissible
from .lattice import WeightVector

__all__ = ["CountCache", "cached_count"]


class CountCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, wv: WeightVector, n_max: int) -> Path:
        payload = json.dumps(
            {
                "algorithm": ALGORITHM_VERSION,
                "bracket": list(wv.bracket),
                "n_max": n_max,
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self.root / f"{digest}.json"

    def load(self, wv: WeightVector, n_max: int) -> Optional[CountTable]:
        path = self._path(wv, n_max)
        try:
            data = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
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
            {
                "algorithm": ALGORITHM_VERSION,
                "bracket": list(wv.bracket),
                "n_max": n_max,
                "counts": list(table.counts),
            },
            sort_keys=True,
        )
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
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
