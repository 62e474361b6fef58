"""Counting admissible colored partitions.

One kernel, :func:`_sweep_row`, advances running path maxima, packed into
one int in radix level + 1, across a diagonal row one cell at a time (the
transfer-matrix method with a moving frontier).  Keys have one layout: the
running floor in slot 0, 0 between rows, and column t's maximum m_t in slot
t, of which rows keep only m_1..m_{w-1}: a cell of frequency f has
m_{i+1,j} = f + max(m_{i+1,j-1}, m_{i,j-1}), so row i + 1 reads row i only
at columns 1..w-1, and states that differ only in m_w have the same future
and merge.  A state's moves through a cell depend only on the cell and two
of its maxima, so they are read from tables that each count owns and fills
on first use, in runs of key deltas.  :func:`count_family`, the one counting
driver, packs each state's coefficients into one int (Kronecker substitution),
total s at limb N - s, in limbs of the bits that a row-capped bound needs
(:func:`_limb_bits`), which only :func:`_limbs` reads.  It walks every row in
one loop: the brackets' first rows form a trie keyed by the rows still ahead,
and the deep rows are its root's.  One bracket (:func:`count_admissible`)
tallies the states that retire as it walks; several pass back once over every
row, replaying the move tables the walk recorded, so each bracket's P(n) is
limb N - n of its completions (see :func:`count_family`).  :func:`dimension`
sweeps the first rows in plain multiplicities and totals the last one's free
cells by running sums over floors (:func:`_last_row_total`).  A row's
template is all the kernel is told of it: each maximum is capped at the
level less the prescribed entries left in its row, so a state that the row
must drop is dropped at once.  A brute-force enumerator filtered by explicit
path checking is the independent oracle and shares no code with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, count
from operator import add
from typing import Optional, Sequence

from .lattice import (
    WeightVector,
    _int_tuple,
    path_check,
    row_parts,
    row_template,
)

__all__ = [
    "ALGORITHM_VERSION",
    "CountTable",
    "count_admissible",
    "count_family",
    "brute_force_count",
    "dimension",
]

# Bump when the kernel changes in any way that could alter cached tables.
ALGORITHM_VERSION = "frontier-2"

# The most states a frontier of dimension's rows may hold: ~1.7 times the
# 1,202,001 that dimension((100, 100, 100)) peaks at, with ~250 MiB.
STATE_BUDGET = 2_000_000


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


def _moves(base, prev, fixed, cap, slot):
    """(head, tail): the key deltas max(m, prev) + m * slot + lift, m <= cap.

    A prescribed cell has the one move m = base + k.  A free cell's ``tail``
    runs over m >= max(base, prev) and its ``head``, empty unless prev > base,
    over base <= m < prev, which needs prev <= cap.  The cap is the level, or
    less where the rest of the row would reject a larger m (see
    :func:`_sweep_row`).
    """
    lift = -base - prev * slot
    if fixed is not None:
        m = base + fixed
        return (), ((max(m, prev) + m * slot + lift,) if m <= cap else ())
    step = 1 + slot
    head = range(prev + base * slot + lift, prev * step + lift, slot)
    return head, range(max(base, prev) * step + lift, (cap + 1) * step + lift, step)


def _sweep_row(
    states: dict[int, int],
    i: int,
    level: int,
    template: Sequence[Optional[int]],
    moves: dict,
    bits: int = 0,
    record: Optional[list] = None,
    budget: Optional[int] = None,
) -> dict[int, int]:
    """Advance ``{maxima: weight}`` across diagonal row i one cell at a time.

    Keys are ints in radix R = level + 1, taken as the last row left them:
    slot 0 holds the floor, 0, and slot t the maximum prev_t of column t in
    the row before, with prev_w = 0.  After column t, slot 0 holds
    base = max(m_t, prev_t), the floor of m_{t+1}, and slots 1..t hold
    m_1..m_t.  The row ends with key % R**w - key % R, which drops the floor
    and m_w: m_{t+1} = f + max(m_t, prev_t), so no later cell reads m_w, and
    prev_w = 0 changes only the base after column w, which is dropped with it.
    A free cell takes every m in base..cap_t, each unit of frequency shifting
    the weight right by its part 2i - t limbs of ``bits`` bits (0: plain
    multiplicities); a prescribed cell (part 0) takes m = base + k alone, if
    at most cap_t.

    cap_t = level - ahead_t, with ahead_t the sum of the template's
    prescribed entries past column t.  A downward path on from (i, t) stays
    in rows i' >= i, whose prescribed cells (i', j) have j >= 2i' >= 2i and
    carry row i's entry in column j, so the path along row i meets the most.
    Each maximum on it is at least the one before plus its entry and at most
    the level, so a larger m_t has no completion and the row would drop it
    anyway: the row ends with the same dict, weights included.  Caps never
    fall from row to row, so prev <= cap at every cell of a count.

    Moves come from tables keyed by base * R + prev and filled on first use;
    ``moves`` maps (t, k, cap_t) to a table, which fixes every move, and
    carries them through one count.  An entry is two ``range`` runs at most,
    so no entry grows with the level.  ``record``, a family's only, gets the
    keys before each cell with the cell's table, and the keys after the
    last, for :func:`_sweep_back`.  A frontier past ``budget`` states raises
    ``ValueError`` after that state: a cell can multiply it by up to the level.
    """
    radix = level + 1
    entries = [k or 0 for k in template]  # 0 at free cells
    caps = [level - sum(entries[t:]) for t in range(1, len(entries) + 1)]
    frontier = states
    for t, fixed, cap in zip(count(1), template, caps):
        shift = max(2 * i - t, 0) * bits  # 0 at prescribed cells: part 0
        slot = radix**t  # what one unit of m_t adds to the key
        table = moves.setdefault((t, fixed, cap), {})
        if record is not None:
            record.append((tuple(frontier), table))
        grown: dict[int, int] = {}
        get = grown.get
        for key, weight in frontier.items():
            try:
                head, tail = table[key % radix * radix + key // slot % radix]
            except KeyError:
                base, prev = key % radix, key // slot % radix
                entry = _moves(base, prev, fixed, cap, slot)
                head, tail = table[base * radix + prev] = entry
            for d in chain(head, tail) if head else tail:  # most entries have no head
                nxt = key + d
                have = get(nxt)  # a new key takes weight itself, not a copy
                grown[nxt] = weight if have is None else have + weight
                weight >>= shift
                if not weight:
                    break
            if budget is not None and len(grown) > budget:
                raise ValueError(
                    f"more than {budget:,} states in one frontier (the budget)"
                )
        frontier = grown
    if record is not None:
        record.append(tuple(frontier))
    out, top = {}, radix ** len(template)
    for key, weight in frontier.items():
        key = key % top - key % radix  # drops the floor and m_w, which no row reads
        out[key] = out.get(key, 0) + weight
    return out


def _sweep_back(
    record: list, after: dict[int, int], missing: int, i: int, level: int, bits: int
) -> dict[int, int]:
    """Completions of row i's start keys from ``after``, those of its end keys.

    A completion holds the count of the rows ahead of total s at limb
    n_max - s, so a cell sums its moves' targets in ``record``, read from the
    table the sweep used there, each shifted right by the part its frequency
    adds (Horner, the last move first); a target the row never recorded reads
    0, and an end key reads ``after`` at its row-end key, or ``missing``.
    """
    radix, (*cells, end) = level + 1, record
    top = radix ** len(cells)
    ahead = {key: after.get(key % top - key % radix, missing) for key in end}
    for t, (keys, table) in reversed(list(enumerate(cells, 1))):
        slot, shift = radix**t, max(2 * i - t, 0) * bits
        get, behind = ahead.get, {}
        for key in keys:
            head, tail = table[key % radix * radix + key // slot % radix]
            acc = 0
            for d in chain(reversed(tail), reversed(head)) if head else reversed(tail):
                acc = get(key + d, 0) + (acc >> shift)
            behind[key] = acc
        ahead = behind
    return ahead


def _last_row_total(states: dict[int, int], level: int, free: int) -> int:
    """Total weight of ``states`` swept across ``free`` free cells, in multiplicities.

    As in :func:`_sweep_row`, a key holds prev_t in slot t and m_t runs over
    its floor b..level; m_1's floor is 0 and the next is max(m_t, prev_t).  No
    m_t is read, so states that agree on the prevs still to be read form a
    group, which keeps its weight V[b] per floor b as a list from its lowest
    floor lo, the last entry standing for every floor after it up to the
    level.  With p = prev_t, a cell gives W[b] = S[b] = V[lo] + ... + V[b] for
    b > p (m = b from each floor up to b) and W[p] = sum of V[b] (p - b + 1)
    over b <= p (each m in b..p lands on p) = S[lo] + ... + S[p].  Running
    sums of a nonzero last entry grow, so a cell spells it out to the level
    first; a zero one stays implicit, as it must at a level of 10**6.

    Every state starts on floor 0, so the first cell is one pass with no
    lists: a state of weight v puts (p + 1) v on floor p and v on each floor
    past it.  Each group's list is then built once from its per-floor sums.
    """
    radix = level + 1
    sums: dict = {}  # per group, the weight on each floor of m_2
    for key, weight in states.items():
        rest, p = divmod(key // radix, radix)
        floors = sums.setdefault(rest, {})
        floors[p] = floors.get(p, 0) + weight
    groups = {}
    for rest, floors in sums.items():
        lo, below, vals = min(floors), 0, []
        for b in range(lo, max(floors) + 1):
            v = floors.get(b, 0)  # (b + 1) v here, and v on every floor past b
            v, below = (b + 1) * v + below, below + v
            vals.append(v)
        groups[rest] = lo, (vals + [below])[: radix - lo]
    for _ in range(free - 1):
        merged: dict = {}
        for rest, (lo, vals) in groups.items():
            rest, p = divmod(rest, radix)
            pad = radix - lo - len(vals) if vals[-1] else 0
            vals = list(accumulate(vals + vals[-1:] * pad))
            if p > lo:  # fold floors lo..p onto p
                n, tail = p + 1 - lo, vals[-1:]
                head = sum(vals[:n]) + tail[0] * max(n - len(vals), 0)
                vals, lo = [head] + (vals[n:] or tail)[: level - p], p
            if rest in merged:  # add the two groups floor by floor
                ab = merged[rest], (lo, vals)
                lo, end = min(f for f, _ in ab), max(f + len(v) for f, v in ab)
                a, b = ([0] * (f - lo) + v + v[-1:] * (end - f - len(v)) for f, v in ab)
                vals = list(map(add, a, b))
            merged[rest] = lo, vals
        groups = merged
    return sum(sum(v) + v[-1] * (radix - lo - len(v)) for lo, v in groups.values())


def _limb_bits(wvs: Sequence[WeightVector], n_max: int) -> int:
    """Bits of the largest coefficient up to q^n_max of prod_i R_i(q).

    R_i(q) sums q^(f_1 p_1 + f_2 p_2 + ...) over frequencies f_t of row i's
    free cells, of parts p_t = 2i - t, with f_1 + f_2 + ... <= cap_i, the
    level less the least prescribed total of row i in ``wvs`` (see
    :func:`count_family`).  The coefficient of q^0 is 1, so the result is at
    least 1.  Rows whose parts all pass n_max add nothing, so the rows end
    once 2i - w does.  Limbs start at 8 bits and double until none overflows.
    """
    w, level = wvs[0].width, wvs[0].k_total
    rows = []
    for i in range(1, (n_max + w) // 2 + 1):
        templates = [row_template(i, wv) for wv in wvs]
        cap = level - min(sum(k or 0 for k in template) for template in templates)
        parts = [2 * i - t for t, k in enumerate(templates[0], 1) if k is None]
        rows.append((parts, cap))
    bits = 8
    while (product := _capped_product(rows, n_max, bits)) is None:
        bits *= 2
    return max(_limbs(product, n_max, bits)).bit_length()


def _limbs(packed: int, n_max: int, bits: int) -> list[int]:
    """Coefficients of totals 0..n_max: limbs n_max..0 of ``bits`` bits, in turn."""
    digits = format(packed, f"0{(n_max + 1) * bits}b")  # base 2 has no digit limit
    return [int(digits[b : b + bits], 2) for b in range(0, len(digits), bits)]


def _capped_product(rows: list, n_max: int, bits: int) -> Optional[int]:
    """prod_i R_i(q) packed in limbs of ``bits`` bits, or None if one overflows.

    Packed as a weight is, total s at limb n_max - s, so a part is a right
    shift and the totals past n_max fall off.  A row multiplies the product
    layer by layer: A_u, its fillings of the row's cells so far whose
    frequencies sum to u, takes A_u + (A_{u-1} >> p) at a cell of part p,
    for u = 1..cap_i in turn (A_{u-1} has taken the cell already, so it may
    repeat), and the row ends with the sum of its layers.  Each limb keeps its
    top bit as a guard, checked after every addition: the terms' limbs are
    each below half the limb, so their sum carries into no other limb, and a
    set guard gives up before the next addition could.
    """
    guard = int(("1" + "0" * (bits - 1)) * (n_max + 1), 2)
    product = 1 << n_max * bits
    for parts, cap in rows:
        layers = [product] + [0] * cap
        for p in parts:
            for u in range(1, cap + 1):
                layers[u] += layers[u - 1] >> p * bits
                if layers[u] & guard:
                    return None
        for layer in layers[1:]:
            product += layer
            if product & guard:
                return None
    return product


def count_admissible(wv: WeightVector, n_max: int) -> CountTable:
    """Exact P(1..n_max): :func:`count_family` of the one bracket."""
    return count_family([wv], n_max)[0]


def count_family(wvs: Sequence[WeightVector], n_max: int) -> list[CountTable]:
    """Exact P(1..n_max) of each of some brackets of one width w and level.

    A weight holds the coefficient of total s at limb n_max - s (its budget).
    One loop walks every row, sweeping every node of a trie once into the node
    one row shorter: a node at row r < r0 = (w + 2) // 2, keyed by the
    templates of rows r..r0 - 1, sums the states of the brackets with that
    suffix, from each bracket's leaf ``{0: 1}`` at limb n_max; one bracket is
    one leaf.  From r0 on the only node is the root ``()``, whose row is free.
    Before its row i, a state of weight below 1 << (2i - w) bits has no budget
    for the row's parts and retires whole, until none is left: any limb below
    that bound follows only the zero-frequency move, as every other move
    shifts by at least 2i - w limbs, so one bracket tallies it once, when its
    state retires.  Several record every row's keys, and one pass back
    (:func:`_sweep_back`) gives each key's completions, which depend only on
    the rows ahead, so P(n) is limb n_max - n of key 0's at a bracket's leaf.
    A target the walk never reached reads 0 and a retired key as empty rows:
    sums, shifts and retirement are monotone, so the walk reaches each key
    that one bracket reaches with budget left, and the rest lies past n_max.

    Limbs of :func:`_limb_bits` bits suffice.  A diagonal row is a downward
    path, so row i's free entries sum to at most cap_i, the level less the
    row's prescribed total; in mid-row, m_t is at least the row's entries up
    to column t, and a free cell caps it at cap_i.  So a limb of a forward weight, of
    the tally or of a completion counts distinct fillings of some rows (those
    behind, or those ahead), each within its row's cap, of one total s <=
    n_max, since a shift drops the totals past n_max instead of carrying
    them.  With the other rows empty, these embed into the row-capped
    fillings of every row, which the coefficient of q^s in prod_i R_i(q)
    counts, so no limb exceeds the largest coefficient up to n_max, nor
    carries in one bracket.  A family takes each row's largest cap over its
    brackets, which covers each bracket's own and the completions of rows
    they share.  Its forward sums, of several brackets, may carry, but only
    upward, keeping every key the pass back needs.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    shapes = {(wv.width, wv.k_total) for wv in wvs}
    if len(shapes) > 1:
        raise ValueError("a family's brackets share one width and one level")
    if not shapes:
        return []
    ((w, level),) = shapes
    single = len(wvs) == 1
    bits = _limb_bits(wvs, n_max)
    empty = 1 << n_max * bits  # every maximum is 0 before row 0
    r0 = (w + 2) // 2  # the first row free in every column
    suffixes = [tuple(row_template(i, wv) for i in range(r0)) for wv in wvs]
    nodes = {suffix: {0: empty} for suffix in suffixes}
    moves: dict = {}
    rows: list = []  # a family's, per row, each node's record
    tally = 0
    for i in count():
        if i >= r0:  # the root alone, whose rows are free
            least = 1 << (2 * i - w) * bits  # below it, no budget fits row i's parts
            if single:
                tally += sum(v for v in nodes[()].values() if v < least)
            nodes[()] = {key: v for key, v in nodes[()].items() if v >= least}
            if not nodes[()]:
                break
        grown, row = {}, {}  # the next row's nodes, and this row's for the pass back
        for suffix, node in nodes.items():  # rebinding node drops the last sweep
            template, rest = suffix[0] if suffix else (None,) * w, suffix[1:]
            record = row[suffix] = None if single else []
            node = _sweep_row(node, i, level, template, moves, bits, record)
            if grown.setdefault(rest, node) is not node:  # siblings sum
                for key, v in node.items():
                    grown[rest][key] = grown[rest].get(key, 0) + v
        nodes = grown
        if not single:  # one bracket never passes back
            rows.append(row)
    if single:
        totals = [tally]
    else:
        done: dict = {}  # completions of each node's start keys, the last row first
        for i, nodes in reversed(list(enumerate(rows))):
            done = {
                suffix: _sweep_back(
                    record, done.get(suffix[1:], {}), empty, i, level, bits
                )
                for suffix, record in nodes.items()
            }
        totals = [done[suffix][0] for suffix in suffixes]
    return [CountTable(n_max, tuple(_limbs(t, n_max, bits)[1:])) for t in totals]


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
    the partition mass.  Row l + 1 is the first row free in every column, so
    the count is rows 0..l - 1 swept in plain multiplicities and row l
    totalled by :func:`_last_row_total` over its 2l - 1 free cells: the two
    prescribed zeros after them move no weight off its floor, so they change
    no total.  A frontier of more than :data:`STATE_BUDGET` states raises
    ``ValueError``.
    """
    ks = _int_tuple(weights)
    if not ks:
        raise ValueError("need at least one weight")
    if any(x < 0 for x in ks):
        raise ValueError(f"weights must be nonnegative, got {ks}")
    if sum(ks) == 0:
        raise ValueError("at least one weight must be positive")
    wv, last = WeightVector.from_odd((0,) + ks), len(ks)
    states, moves = {0: 1}, {}
    for i in range(last):
        template = row_template(i, wv)
        states = _sweep_row(states, i, wv.k_total, template, moves, budget=STATE_BUDGET)
    return _last_row_total(states, wv.k_total, 2 * last - 1)
