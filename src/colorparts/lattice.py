"""Staircase arrays, weight brackets, and the downward-path machinery.

Storage convention: a diagonal row i >= 0 is a length-w tuple indexed by
columns j = 1..w, where j = 1 is the *top* array row (it carries the largest
part 2i-1 on diagonal i) and j = w the bottom.  The cell (i, j) holds the
part value max(0, 2i - j); cells with j >= 2i are prescribed and carry the
bracket entry k_{w+1-j}, so row 0 is prescribed everywhere.  Printed
staircase displays usually run the other way (bottom row leftmost).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

__all__ = [
    "WeightVector",
    "row_parts",
    "row_template",
    "path_check",
]


def _int_tuple(values: Sequence[int]) -> tuple[int, ...]:
    out = []
    for x in values:
        value = int(x)
        if value != x:
            raise ValueError(f"entries must be integers, got {x!r}")
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class WeightVector:
    """Bracket [k_1, ..., k_w] of prescribed boundary frequencies.

    Two sugar forms cover the conjectured identity families:

    * odd width w = 2l+1: (k_0, ..., k_l) puts k_t at bracket slot 2t+1 and
      zeros between, so the prescribed left edge reads k_l, 0, ..., 0, k_0
      from the top array row down;
    * even width w = 2l: (k_0, ..., k_l) puts k_0 and k_1 on the bottom two
      rows adjacent, then alternates zeros: [k_0, k_1, 0, k_2, 0, ..., k_l].
    """

    bracket: tuple[int, ...]

    def __post_init__(self) -> None:
        b = _int_tuple(self.bracket)
        if len(b) < 2:
            raise ValueError("bracket width must be at least 2")
        if any(x < 0 for x in b):
            raise ValueError(f"bracket entries must be nonnegative, got {b}")
        if sum(b) == 0:
            raise ValueError("total level must be positive")
        object.__setattr__(self, "bracket", b)

    @classmethod
    def from_odd(cls, ks: Sequence[int]) -> "WeightVector":
        ks = _int_tuple(ks)
        if len(ks) < 2:
            raise ValueError("odd sugar needs at least (k_0, k_1)")
        bracket = [0] * (2 * len(ks) - 1)
        for t, value in enumerate(ks):
            bracket[2 * t] = value
        return cls(tuple(bracket))

    @classmethod
    def from_even(cls, ks: Sequence[int]) -> "WeightVector":
        ks = _int_tuple(ks)
        if len(ks) < 2:
            raise ValueError("even sugar needs at least (k_0, k_1)")
        rank = len(ks) - 1
        bracket = [0] * (2 * rank)
        bracket[0] = ks[0]
        for t in range(1, rank + 1):
            bracket[2 * t - 1] = ks[t]
        return cls(tuple(bracket))

    @property
    def width(self) -> int:
        return len(self.bracket)

    @property
    def k_total(self) -> int:
        return sum(self.bracket)

    @property
    def odd_sugar(self) -> Optional[tuple[int, ...]]:
        if self.width % 2 == 0:
            return None
        if any(self.bracket[t] for t in range(1, self.width, 2)):
            return None
        return self.bracket[0::2]

    @property
    def even_sugar(self) -> Optional[tuple[int, ...]]:
        if self.width % 2:
            return None
        if any(self.bracket[t] for t in range(2, self.width - 1, 2)):
            return None
        return (self.bracket[0],) + self.bracket[1::2]

    def sugar_label(self) -> Optional[str]:
        odd = self.odd_sugar
        if odd is not None:
            return "(" + ",".join(str(x) for x in odd) + ")"
        even = self.even_sugar
        if even is not None:
            return "(" + ",".join(str(x) for x in even) + ")^e"
        return None


def row_parts(i: int, w: int) -> tuple[int, ...]:
    """Part values of diagonal row i in storage order."""
    if i < 0 or w < 2:
        raise ValueError("need row index >= 0 and width >= 2")
    return tuple(max(0, 2 * i - j) for j in range(1, w + 1))


def row_template(i: int, wv: WeightVector) -> tuple[Optional[int], ...]:
    """Per-column template of row i: None marks a free cell, ints prescribed.

    Columns j < 2i are free; columns j >= 2i carry the fixed entry
    k_{w+1-j}.  Row 0 is prescribed everywhere.
    """
    if i < 0:
        raise ValueError("row index must be >= 0")
    w = wv.width
    free = min(max(2 * i - 1, 0), w)
    template: list[Optional[int]] = [None] * free
    for j in range(free + 1, w + 1):
        template.append(wv.bracket[w - j])
    return tuple(template)


@lru_cache(maxsize=None)
def _downward_paths(w: int, max_row: int) -> tuple[tuple[int, ...], ...]:
    """All downward paths on rows 0..max_row: one cell per column, row index
    nondecreasing in unit steps."""
    paths = []
    for start in range(max_row + 1):
        for mask in range(1 << (w - 1)):
            path = [start]
            row = start
            for bit in range(w - 1):
                row += (mask >> bit) & 1
                if row > max_row:
                    break
                path.append(row)
            else:
                paths.append(tuple(path))
    return tuple(paths)


def path_check(rows: Sequence[Sequence[int]], wv: WeightVector) -> bool:
    """Difference condition by explicit path enumeration.

    ``rows`` must include the fully prescribed row 0.  True iff every
    downward path has frequency sum <= the level.  Paths that would leave the
    given rows are dominated by their clipped counterparts, so enumeration
    over rows 0..R is exhaustive.
    """
    level = wv.k_total
    max_row = len(rows) - 1
    for path in _downward_paths(wv.width, max_row):
        total = 0
        for col, row_index in enumerate(path):
            total += rows[row_index][col]
        if total > level:
            return False
    return True
