"""Counting admissible colored partitions.

One kernel, :func:`_sweep_row`, advances running path maxima across a
diagonal row one cell at a time (the transfer-matrix method with a moving
frontier).  :func:`count_admissible` runs it with each state's coefficients
packed into one int, a fixed number of bits per total (Kronecker
substitution), so shifting and adding whole polynomials is big-integer
arithmetic; :func:`prefix_pair_counts`, and through it :func:`dimension`,
runs it with plain multiplicities and sweeps the last row as a running
total.  A brute-force enumerator filtered by explicit path checking serves
as the independent oracle and shares no code with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .lattice import (
    WeightVector,
    _int_tuple,
    enumerate_row_frequencies,
    initial_maxima,
    maxima_step,
    path_check,
    row_parts,
    row_template,
)
from .congruence import PeriodicProduct
from .qseries import Series, expand

__all__ = [
    "ALGORITHM_VERSION",
    "CountTable",
    "count_admissible",
    "brute_force_count",
    "dimension",
    "prefix_pair_counts",
]

# Bump when the kernel changes in any way that could alter cached tables.
ALGORITHM_VERSION = "frontier-1"


@dataclass(frozen=True)
class CountTable:
    """P(1..n_max): admissible colored partitions of each n."""

    n_max: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_max < 1 or len(self.counts) != self.n_max:
            raise ValueError("need one count per 1 <= n <= n_max")
        if not all(type(c) is int and c >= 0 for c in self.counts):
            raise ValueError("counts must be nonnegative integers")
        object.__setattr__(self, "counts", tuple(self.counts))

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n must be in 1..{self.n_max}")
        return self.counts[n - 1]

    def pairs(self) -> list[list[int]]:
        return [[n, self.counts[n - 1]] for n in range(1, self.n_max + 1)]

    def to_series(self) -> Series:
        """Generating function 1 + sum P(n) q^n as a truncated series."""
        return Series((1,) + self.counts)


def _sweep_row(
    states: dict[tuple[int, ...], int],
    i: int,
    level: int,
    template: Sequence[Optional[int]],
    bits: int = 0,
    mask: int = -1,
    final: bool = False,
) -> dict[tuple[int, ...], int]:
    """Advance ``{maxima: weight}`` across diagonal row i one cell at a time.

    The frontier key after column t is (base, m_1..m_t, prev_{t+1}..prev_w)
    with base = max(m_t, prev_t), the floor of m_{t+1}.  A free cell takes
    every m in base..level, each unit of frequency shifting the weight by its
    part 2i - t limbs of ``bits`` bits; a prescribed cell (part 0) takes
    m = base + k alone, if that stays within the level.  With ``bits`` = 0
    weights are plain multiplicities; otherwise each packs one coefficient
    per total, and ``mask`` drops totals past the top degree.

    With ``final`` the row is the last one read, so its maxima are never
    keys again: m_t leaves the key once placed, the key after column t is
    (base, prev_{t+1}..prev_w), and the row returns ``{(): total}``.  This
    loses no check, because a later cell of the row reads only ``base``
    and the ``prev`` tail.
    """
    # placed[m] is what a cell holding maximum m leaves in the key.
    placed = [()] * (level + 1) if final else [(m,) for m in range(level + 1)]
    frontier = {(0,) + prev: weight for prev, weight in states.items()}
    for t, fixed in enumerate(template, start=1):
        shift = (2 * i - t) * bits
        at = 1 if final else t  # key index of prev_t
        grown: dict[tuple[int, ...], int] = {}
        for key, weight in frontier.items():
            base, prev, head, tail = key[0], key[at], key[1:at], key[at + 1 :]
            if fixed is not None:
                m = base + fixed
                if m <= level:
                    nxt = (m if m > prev else prev,) + head + placed[m] + tail
                    grown[nxt] = grown.get(nxt, 0) + weight
                continue
            for m in range(base, level + 1):
                nxt = (m if m > prev else prev,) + head + placed[m] + tail
                grown[nxt] = grown.get(nxt, 0) + weight
                weight = (weight << shift) & mask
                if not weight:
                    break
        frontier = grown
    out: dict[tuple[int, ...], int] = {}
    for key, weight in frontier.items():
        out[key[1:]] = out.get(key[1:], 0) + weight
    return out


def count_admissible(wv: WeightVector, n_max: int) -> CountTable:
    """Exact P(1..n_max) by the frontier sweep with packed coefficients.

    Each state packs its coefficients (total -> multiplicity) into one int,
    ``bits`` bits per total.  After each row, totals that even the smallest
    part of the next row would push past n_max retire into the tally, and
    the run stops once every state has retired.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    w = wv.width
    # Admissible prefixes of total n embed into colored partitions of n with
    # #{j <= w : j = v mod 2} colours for part v, so no coefficient outgrows
    # the largest of those counts.
    colored = expand(PeriodicProduct(2, (-(w // 2), -((w + 1) // 2))), n_max)
    bits = max(colored.coeffs).bit_length()
    mask = (1 << (n_max + 1) * bits) - 1
    states = {initial_maxima(wv): 1}
    tally = 0
    i = 0
    while states:
        i += 1
        states = _sweep_row(states, i, wv.k_total, row_template(i, wv), bits, mask)
        min_next = max(0, 2 * (i + 1) - w)
        low = (1 << max(0, n_max + 1 - min_next) * bits) - 1
        kept = {}
        for maxima, weight in states.items():
            tally += weight & ~low
            if weight & low:
                kept[maxima] = weight & low
        states = kept
    limb = (1 << bits) - 1
    return CountTable(
        n_max, tuple((tally >> n * bits) & limb for n in range(1, n_max + 1))
    )


def brute_force_count(
    wv: WeightVector, n_max: int, row_bound: Optional[int] = None
) -> CountTable:
    """Oracle count: enumerate frequency matrices, filter by path checking.

    Exponential; meant for n_max <= ~12 at widths <= 5.  ``row_bound`` must
    leave no part <= n_max beyond the last enumerated row.  Rows whose free
    sum already exceeds the level are skipped early: the constant-row path
    rejects them anyway.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    w = wv.width
    level = wv.k_total
    bound = row_bound if row_bound is not None else (n_max + w) // 2
    if 2 * (bound + 1) - w <= n_max:
        raise ValueError("row bound leaves parts <= n_max unenumerated")

    templates = [row_template(i, wv) for i in range(bound + 1)]
    # Per row: candidate (row, mass) pairs sorted by mass.
    candidates: list[list[tuple[tuple[int, ...], int]]] = [[]]
    for i in range(1, bound + 1):
        parts = row_parts(i, w)
        rows = []
        for row in _free_fillings(templates[i], level):
            mass = sum(f * v for f, v in zip(row, parts))
            if mass <= n_max:
                rows.append((row, mass))
        rows.sort(key=lambda item: item[1])
        candidates.append(rows)

    row0 = tuple(templates[0])  # fully prescribed
    counts = [0] * (n_max + 1)
    chosen: list[tuple[int, ...]] = [row0]

    def descend(i: int, mass: int) -> None:
        if i > bound:
            if mass and path_check(chosen, wv):
                counts[mass] += 1
            return
        for row, row_mass in candidates[i]:
            if mass + row_mass > n_max:
                break
            chosen.append(row)
            descend(i + 1, mass + row_mass)
            chosen.pop()

    descend(1, 0)
    # The empty matrix (mass 0) is not a partition; everything else with
    # mass 0 is impossible since free parts are >= 1.
    return CountTable(n_max, tuple(counts[1:]))


def _free_fillings(template, level):
    """All rows over a template with free entries in 0..level, free sum <= level."""
    free_positions = [t for t, x in enumerate(template) if x is None]
    base = [x if x is not None else 0 for x in template]
    out = [tuple(base)]
    for position in free_positions:
        extended = []
        for row in out:
            used = sum(row[t] for t in free_positions)
            for f in range(1, level - used + 1):
                grown = list(row)
                grown[position] = f
                extended.append(tuple(grown))
        out.extend(extended)
    return out


def dimension(weights: Sequence[int]) -> int:
    """Admissible matrices confined to the triangular prescribed region.

    For finite weights (k_1, ..., k_l) the bracket is [0, 0, k_1, 0, k_2,
    ..., 0, k_l] at width 2l+1, and matrices may have free support only in
    rows 1..l; no bound is placed on the partition mass.  The count is the
    last entry of :func:`prefix_pair_counts`, whose last row is swept as a
    running total.
    """
    ks = _int_tuple(weights)
    if not ks:
        raise ValueError("need at least one weight")
    if any(x < 0 for x in ks):
        raise ValueError(f"weights must be nonnegative, got {ks}")
    if sum(ks) == 0:
        raise ValueError("at least one weight must be positive")
    rank = len(ks)
    bracket = [0] * (2 * rank + 1)
    for t, value in enumerate(ks):
        bracket[2 * t + 2] = value
    return prefix_pair_counts(WeightVector(tuple(bracket)), rank)[-1]


def prefix_pair_counts(
    wv: WeightVector, rows: int, merged: bool = True
) -> list[int]:
    """Admissible prefixes after each of the first ``rows`` diagonal rows.

    No bound is placed on partition mass.  With ``merged`` the kernel sums
    multiplicities over merged states, and sweeps the last row as a running
    total since no row reads its maxima; otherwise the (total, maxima) pairs
    are kept as a flat list, replaying the unmerged construction.  The two
    agree entry by entry, which is the conservation diagnostic.
    """
    if rows < 1:
        raise ValueError("need at least one row")
    level = wv.k_total
    out: list[int] = []
    if merged:
        states = {initial_maxima(wv): 1}
        for i in range(1, rows + 1):
            template = row_template(i, wv)
            states = _sweep_row(states, i, level, template, final=i == rows)
            out.append(sum(states.values()))
    else:
        pairs: list[tuple[int, tuple[int, ...]]] = [(0, initial_maxima(wv))]
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
            out.append(len(pairs))
    return out
