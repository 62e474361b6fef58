"""Counting admissible colored partitions.

One kernel, :func:`_sweep_row`, advances running path maxima, packed into
one int in radix level + 1, across a diagonal row one cell at a time (the
transfer-matrix method with a moving frontier).  A key holds only the maxima
m_1..m_{w-1} of the first w - 1 columns: a cell of frequency f has
m_{i+1,j} = f + max(m_{i+1,j-1}, m_{i,j-1}), so row i + 1 reads row i only
at columns 1..w-1, and states that differ only in m_w have the same future
and merge.  A state's moves through a cell depend only on the cell
and two of its maxima, so they are read from tables that each count owns
and fills on first use, in runs of key deltas.  :func:`count_admissible`
packs each state's coefficients into one int (Kronecker substitution),
total s at limb N - s; :func:`prefix_pair_counts`, and through it
:func:`dimension`, uses plain multiplicities.  A brute-force enumerator
filtered by explicit path checking is the independent oracle and shares no
code with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .lattice import (
    WeightVector,
    _int_tuple,
    path_check,
    row_parts,
    row_template,
)
from .congruence import PeriodicProduct
from .qseries import expand

__all__ = [
    "ALGORITHM_VERSION",
    "CountTable",
    "count_admissible",
    "brute_force_count",
    "dimension",
    "prefix_pair_counts",
]

# Bump when the kernel changes in any way that could alter cached tables.
ALGORITHM_VERSION = "frontier-2"


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


def _moves(base, prev, fixed, radix, slot, place):
    """(scale, head, tail): the key deltas max(m, prev) + m * place + lift.

    A prescribed cell has the one move m = base + k.  A free cell's ``tail``
    runs over m >= max(base, prev) and its ``head`` over base <= m < prev,
    except in a final row (place 0), where those m all land on ``tail[0]``:
    ``scale`` = prev - base extra weights.
    """
    lift = -base - prev * slot
    if fixed is not None:
        m = base + fixed
        return 0, (), ((max(m, prev) + m * place + lift,) if m < radix else ())
    step = 1 + place
    tail = range(max(base, prev) * step + lift, radix * step + lift, step)
    if prev <= base:
        return 0, (), tail
    if place:
        return 0, range(prev + base * place + lift, prev * step + lift, place), tail
    return prev - base, (), tail


def _sweep_row(
    states: dict[int, int],
    i: int,
    level: int,
    template: Sequence[Optional[int]],
    moves: Optional[dict] = None,
    bits: int = 0,
    final: bool = False,
) -> dict[int, int]:
    """Advance ``{maxima: weight}`` across diagonal row i one cell at a time.

    Keys hold maxima m_1..m_{w-1} in slots 0..w-2 of an int in radix R =
    level + 1.  The row starts from key * R; after column t, slot 0 holds
    base = max(m_t, prev_t), the floor of m_{t+1}, slots 1..t hold m_1..m_t
    and slots t+1..w hold prev_{t+1}..prev_w, with prev_w = 0.  The row ends
    with key // R mod R**(w-1): m_{t+1} = f + max(m_t, prev_t), that is
    m_{i+1,j} = f + max(m_{i+1,j-1}, m_{i,j-1}), so no later cell reads
    m_w, and prev_w = 0 changes only the base after column w, which is
    dropped with it.  A free cell takes every m in base..level,
    each unit of frequency shifting the weight right by its part 2i - t limbs
    of ``bits`` bits (0: plain multiplicities); a prescribed cell (part 0)
    takes m = base + k alone.  With ``final``,
    slot t is written as 0 once m_t is placed, and the row returns ``{0:
    total}``: its maxima are never read, and later cells read only slot 0
    and the slots above t.

    Moves come from tables keyed by base * R + prev and filled on first use;
    ``moves`` maps (t, k) to a table and carries them between the rows of one
    count.  A row drops tables no later row reads: those of columns it
    prescribes differently, and in a final row each one after its column.
    An entry is at most two ``range`` runs, so no entry grows with the level.
    """
    radix = level + 1
    moves = {} if moves is None else moves
    for stale in moves.keys() - set(enumerate(template, start=1)):
        del moves[stale]
    frontier = {key * radix: weight for key, weight in states.items()}
    for t, fixed in enumerate(template, start=1):
        shift = max(2 * i - t, 0) * bits  # 0 at prescribed cells: part 0
        slot = radix**t
        place = 0 if final else slot  # what one unit of m_t adds to the key
        table = {} if final else moves.setdefault((t, fixed), {})
        grown: dict[int, int] = {}
        get = grown.get
        for key, weight in frontier.items():
            try:
                scale, head, tail = table[key % radix * radix + key // slot % radix]
            except KeyError:
                base, prev = key % radix, key // slot % radix
                entry = _moves(base, prev, fixed, radix, slot, place)
                scale, head, tail = table[base * radix + prev] = entry
            if scale:
                nxt = key + tail[0]
                grown[nxt] = get(nxt, 0) + weight * scale
            for d in chain(head, tail) if head else tail:  # most entries have no head
                nxt = key + d
                have = get(nxt)  # a new key takes weight itself, not a copy
                grown[nxt] = weight if have is None else have + weight
                weight >>= shift
                if not weight:
                    break
        frontier = grown
    out: dict[int, int] = {}
    top = radix ** (len(template) - 1)  # drops m_w, which no row reads
    for key, weight in frontier.items():
        key = key // radix % top
        out[key] = out.get(key, 0) + weight
    return out


def count_admissible(wv: WeightVector, n_max: int) -> CountTable:
    """Exact P(1..n_max) by the frontier sweep with packed coefficients.

    A weight holds the coefficient of total s at limb n_max - s (its budget),
    ``bits`` bits per limb, so totals past n_max fall off the bottom.  After
    each row, limbs whose budget is below the next row's smallest part retire
    into the tally; the run stops once every state has retired.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    w = wv.width
    # Admissible prefixes of total n embed into colored partitions of n with
    # #{j <= w : j = v mod 2} colours for part v, so no coefficient outgrows
    # the largest of those counts.
    colored = expand(PeriodicProduct(2, (-(w // 2), -((w + 1) // 2))), n_max)
    bits = max(colored).bit_length()
    states = {0: 1 << n_max * bits}  # every maximum is 0 before row 0
    tally = 0
    i = 0
    moves: dict = {}
    while states:
        states = _sweep_row(states, i, wv.k_total, row_template(i, wv), moves, bits)
        i += 1
        low = (1 << max(0, 2 * i - w) * bits) - 1  # budgets below row i's parts
        tally += sum(weight & low for weight in states.values())
        states = {key: weight & ~low for key, weight in states.items() if weight > low}
    limb = (1 << bits) - 1
    budgets = range(n_max - 1, -1, -1)  # of totals 1..n_max
    return CountTable(n_max, tuple((tally >> b * bits) & limb for b in budgets))


def brute_force_count(wv: WeightVector, n_max: int) -> CountTable:
    """Oracle count: enumerate frequency matrices, filter by path checking.

    Exponential; meant for n_max <= ~12 at widths <= 5.  Rows past
    (n_max + w) // 2 hold no part <= n_max, so they are not enumerated.
    Rows whose free sum already exceeds the level are skipped early: the
    constant-row path rejects them anyway.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    w = wv.width
    level = wv.k_total
    bound = (n_max + w) // 2

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

    For finite weights (k_1, ..., k_l) the bracket is that of the odd sugar
    (0, k_1, ..., k_l): [0, 0, k_1, 0, k_2, ..., 0, k_l] at width 2l+1.
    Matrices may have free support only in rows 1..l; no bound is placed on
    the partition mass.  The count is the last entry of
    :func:`prefix_pair_counts`, whose last row is swept as a running total.
    """
    ks = _int_tuple(weights)
    if not ks:
        raise ValueError("need at least one weight")
    if any(x < 0 for x in ks):
        raise ValueError(f"weights must be nonnegative, got {ks}")
    if sum(ks) == 0:
        raise ValueError("at least one weight must be positive")
    return prefix_pair_counts(WeightVector.from_odd((0,) + ks), len(ks))[-1]


def prefix_pair_counts(wv: WeightVector, rows: int) -> list[int]:
    """Admissible prefixes after each of the first ``rows`` diagonal rows.

    No bound is placed on partition mass.  The kernel sums multiplicities
    over merged states, and sweeps the last row as a running total since no
    row reads its maxima.
    """
    if rows < 1:
        raise ValueError("need at least one row")
    level = wv.k_total
    out: list[int] = []
    moves: dict = {}
    states = _sweep_row({0: 1}, 0, level, row_template(0, wv), moves)
    for i in range(1, rows + 1):
        template = row_template(i, wv)
        states = _sweep_row(states, i, level, template, moves, final=i == rows)
        out.append(sum(states.values()))
    return out
