"""The (total, maxima) replays that the frontier kernel is checked against.

Each admissible prefix is a pair of partition total and the full tuple of
running path maxima m_1..m_w, grown one whole frequency row at a time by
:func:`maxima_step`.  Unmerged, nothing is packed or tabled, so its per-row
pair counts are an independent check on the kernel's per-row state sums
(:func:`colorparts.counting._sweep_row` run row by row) and on
:func:`colorparts.counting.dimension`.  Merged by (total, maxima) and cut at
a degree, :func:`replay_count` counts whole tables to depths that the
brute-force oracle cannot reach.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional, Sequence

from colorparts.lattice import WeightVector, row_parts, row_template


def initial_maxima(wv: WeightVector) -> tuple[int, ...]:
    """Maxima of row 0: partial sums k_w + ... + k_{w-j+1}."""
    w = wv.width
    return tuple(sum(wv.bracket[w - j :]) for j in range(1, w + 1))


def maxima_step(
    prev: Sequence[int], row: Sequence[int], k_total: int
) -> Optional[tuple[int, ...]]:
    """Advance the running path maxima by one row.

    m_1 = f_1 and m_j = f_j + max(prev_{j-1}, m_{j-1}); returns None as soon
    as an entry exceeds the level, which is exactly the admissibility
    criterion for the rows seen so far.
    """
    if len(prev) != len(row):
        raise ValueError("maxima and frequency rows must share the width")
    maxima: list[int] = []
    for t, f in enumerate(row):
        if t:
            base = maxima[t - 1]
            if prev[t - 1] > base:
                base = prev[t - 1]
        else:
            base = 0
        value = f + base
        if value > k_total:
            return None
        maxima.append(value)
    return tuple(maxima)


def _bounded_compositions(count: int, total: int) -> Iterator[tuple[int, ...]]:
    if count == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _bounded_compositions(count - 1, total - first):
            yield (first,) + rest


def enumerate_row_frequencies(i: int, wv: WeightVector) -> Iterator[tuple[int, ...]]:
    """All frequency rows for diagonal i, prescribed entries filled in.

    Free entries run over nonnegative values whose sum stays within the level
    minus the row's prescribed total (the row itself is a downward path).
    """
    if i < 1:
        raise ValueError("row enumeration starts at i = 1")
    template = row_template(i, wv)
    free = sum(1 for x in template if x is None)
    prescribed = tuple(x for x in template if x is not None)
    budget = wv.k_total - sum(prescribed)
    for gs in _bounded_compositions(free, budget):
        yield gs + prescribed


def unmerged_prefix_pairs(
    wv: WeightVector, rows: int
) -> Iterator[list[tuple[int, tuple[int, ...]]]]:
    """The admissible prefixes after each of diagonal rows 0..``rows``, as a
    flat list of (total, maxima) pairs per row."""
    level = wv.k_total
    pairs: list[tuple[int, tuple[int, ...]]] = [(0, initial_maxima(wv))]
    yield pairs
    for i in range(1, rows + 1):
        frequency_rows = list(enumerate_row_frequencies(i, wv))
        parts = row_parts(i, wv.width)
        grown: list[tuple[int, tuple[int, ...]]] = []
        for total, prev in pairs:
            for row in frequency_rows:
                nxt = maxima_step(prev, row, level)
                if nxt is None:
                    continue
                mass = sum(f * v for f, v in zip(row, parts))
                grown.append((total + mass, nxt))
        pairs = grown
        yield pairs


def unmerged_prefix_counts(wv: WeightVector, rows: int) -> list[int]:
    """Admissible prefixes after each of the first ``rows`` diagonal rows,
    counted as a flat list of (total, maxima) pairs."""
    if rows < 1:
        raise ValueError("need at least one row")
    return [len(pairs) for pairs in islice(unmerged_prefix_pairs(wv, rows), 1, None)]


def replay_count(wv: WeightVector, n_max: int) -> tuple[int, ...]:
    """P(1..n_max) from a merged ``{(total, maxima): count}`` grown row by row.

    Totals past n_max are dropped.  Once 2i - w > n_max, row i and every row
    after it are free with parts above n_max, so they stay empty, and an
    empty free row keeps any prefix admissible: P(n) is the sum of the
    counts at total n.  No packing, move tables, caps, trie, retirement or
    pass back.
    """
    level, w = wv.k_total, wv.width
    states = {(0, initial_maxima(wv)): 1}
    for i in range(1, (n_max + w) // 2 + 1):  # the rows with 2i - w <= n_max
        parts, grown = row_parts(i, w), {}
        rows = sorted(
            (sum(f * v for f, v in zip(row, parts)), row)
            for row in enumerate_row_frequencies(i, wv)
        )
        for (total, prev), c in states.items():
            for mass, row in rows:
                if total + mass > n_max:
                    break
                nxt = maxima_step(prev, row, level)
                if nxt is not None:
                    key = total + mass, nxt
                    grown[key] = grown.get(key, 0) + c
        states = grown
    counts = [0] * (n_max + 1)
    for (total, _), c in states.items():
        counts[total] += c
    return tuple(counts[1:])
