import time
import tracemalloc
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings, strategies as st

from colorparts import counting
from colorparts.congruence import PeriodicProduct, parse_residue_spec
from colorparts.counting import (
    CountTable,
    _last_row_total,
    _sweep_row,
    brute_force_count,
    count_admissible,
    count_family,
    dimension,
)
from colorparts.lattice import WeightVector, row_parts, row_template
from colorparts.qseries import expand
from colorparts.verify import sweep_weights
from known_identities import sp_weyl_dimension
from replay import (
    initial_maxima,
    replay_count,
    unmerged_prefix_counts,
    unmerged_prefix_pairs,
)

class TestCountTable:
    def test_indexing_and_pairs(self):
        table = CountTable(3, (5, 6, 7))
        assert table[1] == 5 and table[3] == 7
        assert table.pairs() == [[1, 5], [2, 6], [3, 7]]
        with pytest.raises(IndexError):
            table[0]
        with pytest.raises(IndexError):
            table[4]

    @pytest.mark.parametrize(
        "counts", [(1, -3), (1.5, 1), (1.0, 1), (True, 1), ("1", 1), (None, 1)]
    )
    def test_rejects_impossible_counts(self, counts):
        with pytest.raises(ValueError):
            CountTable(2, counts)


class TestCountAdmissible:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_admissible(WeightVector((1, 0)), 0)
        with pytest.raises(ValueError):
            WeightVector((0, 0))


@st.composite
def small_brackets(draw, widest=5, deepest=3):
    """Width 2..widest, level 1..deepest: each drawn slot adds one unit of level."""
    width = draw(st.integers(2, widest))
    slots = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=deepest))
    return WeightVector(tuple(slots.count(t) for t in range(width)))


class TestKernelProperties:
    @settings(deadline=None)
    @given(wv=small_brackets(), n_max=st.integers(1, 10))
    def test_kernel_equals_oracle(self, wv, n_max):
        assert count_admissible(wv, n_max) == brute_force_count(wv, n_max)

    @pytest.mark.parametrize(
        "bracket,spec", [((0, 1), "1,4 mod 5"), ((1, 0), "2,3 mod 5")]
    )
    def test_packed_limbs_hold_at_large_degree(self, bracket, spec):
        table = count_admissible(WeightVector(bracket), 300)
        series = expand(parse_residue_spec(spec), 300)
        assert table.counts == series[1:]

    @settings(deadline=None)
    @given(wv=small_brackets(), n=st.integers(1, 12), d=st.integers(1, 8))
    def test_deeper_count_extends_the_table(self, wv, n, d):
        # a larger N widens the limbs and reaches more parts per free cell
        assert count_admissible(wv, n).counts == count_admissible(wv, n + d).counts[:n]


class TestLargeLevels:
    # the move tables must not grow with the level: each input stays cheap
    def test_width_two_counts_are_partition_numbers(self):
        started = time.perf_counter()
        table = count_admissible(WeightVector((0, 5000)), 30)
        assert time.perf_counter() - started < 2.0
        assert table.counts == expand(PeriodicProduct(1, (-1,)), 30)[1:]

    def test_rank_one_dimension_at_level_one_million(self):
        started = time.perf_counter()
        assert dimension((10**6,)) == 10**6 + 1
        assert time.perf_counter() - started < 2.0

    def test_rank_two_uniform_dimension_at_level_three_hundred(self):
        # uniform weights give (k + 1)^(r^2), as for (2, 2, 2, 2, 2)
        started = time.perf_counter()
        assert dimension((300, 300)) == 301**4
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize("k", [1000, 2000])
    def test_rank_two_uniform_dimension_at_levels_in_the_thousands(self, k):
        started = time.perf_counter()
        assert dimension((k, k)) == (k + 1) ** 4
        assert time.perf_counter() - started < 2.0

    def test_rank_two_uniform_dimension_at_level_ten_thousand(self):
        # the last row's first cell is one pass over the states, with no lists
        started = time.perf_counter()
        assert dimension((10000, 10000)) == 10001**4
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize("ks", [(2000, 2000), (10**6,)])
    def test_dimension_memory_does_not_grow_with_the_level(self, ks):
        # the last row keeps one short list per group, with an implicit tail
        tracemalloc.start()
        try:
            dimension(ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestKernelLayout:
    # row 0 of each bracket reaches its level, which a radix of only the
    # level would carry into the next slot
    BRACKETS = [(1, 0), (0, 1), (2, 0, 0, 0, 0), (0, 0, 1, 0, 2), (1, 1, 1)]

    @pytest.mark.parametrize("bracket", BRACKETS)
    def test_row_zero_key_is_initial_maxima_in_radix_level_plus_one(self, bracket):
        # the key keeps m_1..m_{w-1} in slots 1..w-1 and the floor, 0 between
        # rows, in slot 0; no row reads m_w
        wv = WeightVector(bracket)
        radix = wv.k_total + 1
        kept = initial_maxima(wv)[:-1]
        assert max(initial_maxima(wv)) == wv.k_total
        if bracket in ((0, 1), (0, 0, 1, 0, 2)):  # k_1 = 0: the level is kept
            assert kept[-1] == wv.k_total
        key = sum(m * radix**t for t, m in enumerate(kept, 1))
        assert _sweep_row({0: 1}, 0, wv.k_total, row_template(0, wv)) == {key: 1}

    @settings(deadline=None)
    @given(wv=small_brackets())
    def test_keys_drop_the_last_maximum(self, wv):
        # between rows a key holds m_1..m_{w-1} over a floor of 0; the
        # state sums are TestPrefixDiagnostics' check
        radix, w = wv.k_total + 1, wv.width
        states = {0: 1}
        for i in range(4):
            states = _sweep_row(states, i, wv.k_total, row_template(i, wv))
            assert all(0 <= key < radix**w and key % radix == 0 for key in states)

    def test_states_that_differ_only_in_the_last_maximum_merge(self, monkeypatch):
        # (2,1,0,0,1)^e at N=100 peaks at 495 states when m_w is kept
        sizes = []

        def spy(*args, **kwargs):
            states = _sweep_row(*args, **kwargs)
            sizes.append(len(states))
            return states

        monkeypatch.setattr(counting, "_sweep_row", spy)
        count_admissible(WeightVector.from_even((2, 1, 0, 0, 1)), 100)
        assert 0 < max(sizes) <= 330

    @pytest.mark.parametrize("bracket", BRACKETS)
    def test_top_total_at_every_degree(self, bracket):
        # each n_max puts its top total at budget 0, the last limb kept
        wv = WeightVector(bracket)
        deep = count_admissible(wv, 10).counts
        for n_max in range(1, 11):
            table = count_admissible(wv, n_max)
            assert table == brute_force_count(wv, n_max), n_max
            assert table.counts == deep[:n_max]

    @pytest.mark.parametrize("ks", [(2,), (1, 2), (2, 0, 1)])
    def test_final_row_is_one_running_total(self, ks):
        wv, last = WeightVector.from_odd((0,) + ks), len(ks)
        level, states = wv.k_total, {0: 1}
        for i in range(last):
            states = _sweep_row(states, i, level, row_template(i, wv))
        final = _sweep_row(states, last, level, row_template(last, wv))
        assert _last_row_total(states, level, 2 * last - 1) == sum(final.values())


class TestLastRowTotal:
    # each total is also the sum of the row swept by _sweep_row over free cells
    @staticmethod
    def swept_total(states, free):
        return sum(_sweep_row(states, 2, 3, (None,) * free).values())

    # level 3, prev_1 = 1 and prev_2 = p in slots 1 and 2 (slot 0, the floor,
    # is 0): m_2's floors start at b = 1, the group's lowest floor, and meet
    # p < b, p = b or p > b
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0, 16),  # m_2 = 1, 2, 3 in 2, 3, 4 ways, then 3 + 2 + 1 ways
            (1, 16),
            (2, 14),  # m_2 = 1 lands on floor 2
        ],
        ids=["free-p<b", "free-p=b", "free-p>b"],
    )
    def test_floor_against_prev(self, p, expected):
        states = {4 * (1 + p * 4): 1}
        assert _last_row_total(states, 3, 3) == expected
        assert self.swept_total(states, 3) == expected

    def test_groups_that_meet_are_added(self):
        # states that differ only in prev_1 merge after column 1
        states = {4 * (p1 + 4 * p2): 1 + p1 for p1 in range(4) for p2 in range(4)}
        for free in (1, 2, 3):
            assert _last_row_total(states, 3, free) == self.swept_total(states, free)

    # level 3, w = 3: keys hold 4 (p + 4 prev_2) with p = prev_1 and prev_2 =
    # 1, so states of different p share the rest of their key
    @pytest.mark.parametrize(
        "states,expected",
        [
            ({4 * 7: 2}, 8),  # p = level: m_1 in 0..3 lands on 3
            ({4 * 4: 1, 4 * 7: 1}, 23),  # p = 0, 3: 19 + 4 ways
            ({4 * 4: 1, 4 * 5: 2, 4 * 7: 3}, 63),  # 19 + 2 * 16 + 3 * 4
        ],
        ids=["free-p=level", "free-gap", "free-mixed"],
    )
    def test_first_cell_edge_cases(self, states, expected):
        assert _last_row_total(states, 3, 3) == expected
        assert self.swept_total(states, 3) == expected

    @settings(deadline=None)
    @given(ks=st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any))
    def test_total_of_every_row_of_an_odd_weight(self, ks):
        # every row ends in two prescribed zeros, which change no total; the
        # last row's cells before them are free, so _last_row_total totals it
        # (its full sweep: test_capped_rows_leave_the_last_row_total)
        wv, last = WeightVector.from_odd((0, *ks)), len(ks)
        level, moves, states = wv.k_total, {}, {0: 1}
        for i in range(last):
            template = row_template(i, wv)
            cut = _sweep_row(states, i, level, template[:-2], moves)
            states = _sweep_row(states, i, level, template, moves)
            assert template[-2:] == (0, 0)
            assert sum(states.values()) == sum(cut.values())
        free = (None,) * (2 * last - 1)
        assert row_template(last, wv) == free + (0, 0)
        cut = _sweep_row(states, last, level, free, moves)
        assert _last_row_total(states, level, len(free)) == sum(cut.values())


class TestPrefixCaps:
    # m_{i,t} is capped by the level less row i's prescribed entries past
    # column t: a larger one has no completion, and the row would drop it

    @settings(deadline=None)
    @given(wv=small_brackets(), n_max=st.integers(1, 6))
    @example(wv=WeightVector.from_odd((0, 2, 1, 2)), n_max=5)
    @example(wv=WeightVector((2, 1, 1, 1, 0, 0, 0, 0, 0, 0)), n_max=4)
    def test_capped_first_rows_equal_the_unmerged_replay(self, wv, n_max):
        # a count's first rows end with the replay's admissible prefixes in
        # its limbs, and rows swept in plain multiplicities (bits 0, as in
        # dimension) with their number; smaller limbs may carry, so they
        # are no reference
        calls = []

        def spy(states, i, level, template, moves, bits, record):
            out = _sweep_row(states, i, level, template, moves, bits, record)
            calls.append((i, bits, out))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(counting, "_sweep_row", spy)
            count_admissible(wv, n_max)
        r0, radix, states = (wv.width + 2) // 2, wv.k_total + 1, {0: 1}
        assert [i for i, *_ in calls[:r0]] == list(range(r0))
        for (i, bits, out), pairs in zip(calls, unmerged_prefix_pairs(wv, r0 - 1)):
            packed, plain = {}, {}
            for total, maxima in pairs:
                key = sum(m * radix**t for t, m in enumerate(maxima[:-1], 1))
                plain[key] = plain.get(key, 0) + 1
                if total <= n_max:
                    packed[key] = packed.get(key, 0) + (1 << (n_max - total) * bits)
            states = _sweep_row(states, i, wv.k_total, row_template(i, wv))
            assert out == packed and states == plain

    @settings(deadline=None)
    @given(ks=st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any))
    def test_capped_rows_leave_the_last_row_total(self, ks):
        wv, moves, states = WeightVector.from_odd((0, *ks)), {}, {0: 1}
        for i in range(len(ks) + 1):
            states = _sweep_row(states, i, wv.k_total, row_template(i, wv), moves)
        assert dimension(ks) == sum(states.values())

    def test_no_cell_of_row_four_outgrows_its_row_end(self, monkeypatch):
        # uncapped, row 4 of (2,2,2,2,2) grows to 18,086 states before the
        # prescribed 2 at column 9 cuts it to 5,319
        record = []

        def spy(states, i, *args, **kwargs):
            kwargs["record"] = record if i == 4 else None
            return _sweep_row(states, i, *args, **kwargs)

        monkeypatch.setattr(counting, "_sweep_row", spy)
        assert dimension((2, 2, 2, 2, 2)) == 847288609443
        *cells, end = record  # each cell's keys and table, then the end keys
        assert len(cells) == 11 and len(end) == 5319
        assert max(len(keys) for keys, _ in cells) == 5319


def _family(width, k_total):
    builder = WeightVector.from_odd if width % 2 else WeightVector.from_even
    return [builder(ks) for ks in sweep_weights(width, k_total)]


@st.composite
def small_families(draw, widths=(2, 4, 5, 6, 7), most=None):
    """A sugar family of one of ``widths`` and level 1..3, or up to ``most``
    of its weights."""
    family = _family(draw(st.sampled_from(widths)), draw(st.integers(1, 3)))
    picks = draw(st.sets(st.integers(0, len(family) - 1), min_size=1, max_size=most))
    return [family[i] for i in sorted(picks)]


class TestCountFamily:
    @settings(deadline=None)
    @given(wvs=small_families(), n_max=st.integers(1, 14))
    @example(wvs=_family(4, 3), n_max=1)
    @example(wvs=_family(7, 3), n_max=8)
    @example(wvs=_family(5, 2)[1:2], n_max=8)
    @example(wvs=_family(5, 2)[1:2] * 2, n_max=8)  # one bracket, passed back
    def test_family_equals_the_forward_count(self, wvs, n_max):
        tables = count_family(wvs, n_max)
        assert tables == [count_admissible(wv, n_max) for wv in wvs]
        if n_max <= 8:
            assert tables == [brute_force_count(wv, n_max) for wv in wvs]

    @settings(deadline=None, max_examples=30)
    @given(
        wvs=small_families(widths=[4, 5, 6, 7, 8, 9], most=6),
        n_max=st.integers(1, 40),
    )
    @example(wvs=_family(9, 3)[::4], n_max=40)
    @example(wvs=_family(8, 3)[::6], n_max=40)
    def test_trie_equals_each_bracket_counted_alone(self, wvs, n_max):
        assert count_family(wvs, n_max) == [count_admissible(wv, n_max) for wv in wvs]

    def test_moves_are_built_once_per_table_entry(self, monkeypatch):
        # the tables live through the whole count, so no bracket rebuilds
        # the entries another one built
        calls = []

        def spy(*args):
            calls.append(args)
            return moves(*args)

        moves = counting._moves
        monkeypatch.setattr(counting, "_moves", spy)
        count_family(_family(10, 5), 24)
        assert len(calls) == len(set(calls)) == 935

    def test_only_families_record_keys(self, monkeypatch):
        # one bracket tallies forward, so recording its keys would only
        # raise its peak memory; a family passes back over every row
        records = []

        def spy(states, i, level, template, moves, bits, record):
            records.append(record)
            return _sweep_row(states, i, level, template, moves, bits, record)

        monkeypatch.setattr(counting, "_sweep_row", spy)
        count_admissible(WeightVector.from_even((2, 1, 0, 0, 1)), 40)
        assert len(records) > 20 and all(record is None for record in records)
        records.clear()
        count_family(_family(6, 2)[:2], 40)
        assert len(records) > 20 and all(type(record) is list for record in records)

    def test_limbs_hold_the_totals_past_n_max(self):
        # limbs take the row-capped bound at N, each row at its largest cap
        # in the family: this family is where a carry out of the totals past
        # N would corrupt P(10) of (0,5,3)^e if the count multiplied prefixes
        # by completions
        wvs = _family(4, 8)
        assert count_family(wvs, 10) == [count_admissible(wv, 10) for wv in wvs]

    def test_rejects_mixed_families(self):
        assert count_family([], 5) == []
        with pytest.raises(ValueError):
            count_family(_family(4, 2), 0)
        with pytest.raises(ValueError):  # two widths
            count_family([WeightVector((1, 0)), WeightVector((1, 0, 0, 0))], 5)
        with pytest.raises(ValueError):  # two levels
            count_family([WeightVector((1, 0)), WeightVector((1, 1))], 5)


def row_capped_bits(wvs, n_max):
    """The bound of ``counting._limb_bits`` in plain lists: each row's R_i(q)
    from a table of (frequency sum, total) over its free cells, then the
    product of the rows' coefficient lists, cut at n_max."""
    w, level = wvs[0].width, wvs[0].k_total
    product = [1] + [0] * n_max
    for i in range(1, (n_max + w) // 2 + 1):
        templates = [row_template(i, wv) for wv in wvs]
        cap = level - min(sum(k or 0 for k in t) for t in templates)
        parts = [p for p, k in zip(row_parts(i, w), templates[0]) if k is None]
        ways = {(0, 0): 1}
        for part in parts:
            grown = {}
            for (used, total), n in ways.items():
                for f in range(cap - used + 1):
                    if total + f * part > n_max:
                        break
                    key = (used + f, total + f * part)
                    grown[key] = grown.get(key, 0) + n
            ways = grown
        row = [0] * (n_max + 1)
        for (_, total), n in ways.items():
            row[total] += n
        product = [
            sum(product[a] * row[s - a] for a in range(s + 1)) for s in range(n_max + 1)
        ]
    return max(product).bit_length()


class TestLimbBits:
    @settings(deadline=None)
    @given(wv=small_brackets(), n_max=st.integers(1, 15))
    def test_bound_covers_every_count_and_never_passes_the_colored_one(self, wv, n_max):
        # every P(n) counts row-capped fillings, which embed into the
        # colored partitions of n
        w, top = wv.width, 2 * n_max
        colored = expand(PeriodicProduct(2, (-(w // 2), -((w + 1) // 2))), top)
        bits = counting._limb_bits([wv], top)
        assert max(count_admissible(wv, top).counts).bit_length() <= bits
        assert bits <= max(colored).bit_length()

    @pytest.mark.parametrize(
        "wv,n_max,bits",
        [
            (WeightVector.from_even((2, 1, 0, 0, 1)), 100, 44),  # colored: 59
            (WeightVector.from_even((3, 1, 0, 0, 1)), 60, 33),
            (WeightVector.from_odd((2, 0, 0, 1)), 80, 36),
            (WeightVector((2, 1, 1, 1, 0, 0, 0, 0, 0, 0)), 24, 18),  # colored: 28
            (WeightVector.from_even((0, 1)), 100, 18),
            (WeightVector((1, 0)), 1, 1),  # row 1's cap is 0: q^0 alone
        ],
    )
    def test_bound_equals_the_list_product(self, wv, n_max, bits):
        assert counting._limb_bits([wv], n_max) == row_capped_bits([wv], n_max) == bits

    def test_a_family_takes_each_rows_largest_cap(self):
        # the carry case of test_limbs_hold_the_totals_past_n_max
        wvs = _family(4, 8)
        bits = counting._limb_bits(wvs, 10)
        assert bits == row_capped_bits(wvs, 10)
        assert bits >= max(counting._limb_bits([wv], 10) for wv in wvs)
        tables = count_family(wvs, 10)
        assert max(max(table.counts) for table in tables).bit_length() <= bits

    def test_a_set_guard_widens_the_limbs(self, monkeypatch):
        # the bound of (0,1)^e at N=100 needs 18 bits, past the 7 of an
        # 8-bit limb and the 15 of a 16-bit one, each below its guard bit,
        # so the product starts again twice
        widths = []

        def spy(rows, n_max, bits):
            product = capped_product(rows, n_max, bits)
            widths.append((bits, product is None))
            return product

        capped_product = counting._capped_product
        monkeypatch.setattr(counting, "_capped_product", spy)
        wv = WeightVector.from_even((0, 1))
        assert counting._limb_bits([wv], 100) == row_capped_bits([wv], 100) == 18
        assert widths == [(8, True), (16, True), (32, False)]
        assert count_admissible(wv, 100).counts == replay_count(wv, 100)

    @given(
        bits=st.integers(1, 70).filter(lambda b: b % 8),
        coeffs=st.lists(st.integers(min_value=0), min_size=1, max_size=40),
    )
    def test_limbs_read_back_what_was_packed(self, bits, coeffs):
        # total s at limb n_max - s, at widths that no byte boundary aligns
        coeffs = [c % (1 << bits) for c in coeffs]
        n_max = len(coeffs) - 1
        packed = sum(c << (n_max - s) * bits for s, c in enumerate(coeffs))
        assert counting._limbs(packed, n_max, bits) == coeffs


class TestMergedReplay:
    # replay_count shares no packing, move tables, caps, trie, retirement or
    # pass back with the kernel, and reaches depths the brute force cannot,
    # where P(n) needs 15 to 20 bits
    @settings(deadline=None, max_examples=40)
    @given(wv=small_brackets(widest=8, deepest=4), n_max=st.integers(1, 30))
    @example(wv=WeightVector.from_even((2, 1, 0, 0, 1)), n_max=24)
    @example(wv=WeightVector.from_odd((1, 1, 0, 1)), n_max=30)
    def test_kernel_equals_the_replay(self, wv, n_max):
        assert count_admissible(wv, n_max).counts == replay_count(wv, n_max)

    @pytest.mark.parametrize("width,k_total,n_max", [(4, 3, 30), (6, 2, 30), (7, 2, 24)])
    def test_families_equal_the_replay(self, width, k_total, n_max):
        # the trie and the pass back, at depth
        wvs = _family(width, k_total)
        tables = count_family(wvs, n_max)
        assert [table.counts for table in tables] == [replay_count(wv, n_max) for wv in wvs]


class TestReversal:
    @pytest.mark.parametrize(
        "ks",
        [(2, 0, 0), (1, 1, 0), (1, 0, 1), (2, 1, 0), (1, 0, 0, 2), (2, 1, 0, 0, 1)],
    )
    def test_reversed_odd_weights_count_alike(self, ks):
        forward = count_admissible(WeightVector.from_odd(ks), 20)
        backward = count_admissible(WeightVector.from_odd(tuple(reversed(ks))), 20)
        assert forward.counts == backward.counts


class TestMonotonicity:
    def test_raising_any_entry_never_lowers_counts(self):
        brackets = [(1, 0), (0, 1), (1, 0, 1), (0, 0, 1, 0, 0), (2, 0, 0, 0, 0)]
        for bracket in brackets:
            base = count_admissible(WeightVector(bracket), 10).counts
            for slot in range(len(bracket)):
                grown = list(bracket)
                grown[slot] += 1
                bigger = count_admissible(WeightVector(tuple(grown)), 10).counts
                assert all(b >= a for a, b in zip(base, bigger)), (bracket, slot)


class TestDimension:
    @pytest.mark.parametrize(
        "ks",
        [ks for rank in (1, 2, 3) for ks in iproduct(range(3), repeat=rank) if sum(ks)]
        # and the rank-4 weights of acceptance criterion 6
        + [(1, 1, 2, 2), (2, 1, 2, 2), (0, 2, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2)],
    )
    def test_agrees_with_weyl_dimension_formula(self, ks):
        # observed on every weight tested, not a claimed theorem
        assert dimension(ks) == sp_weyl_dimension(ks)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_uniform_weights_regression(self, k, rank):
        # observed, not a claimed theorem
        assert dimension((k,) * rank) == (k + 1) ** (rank * rank)

    @settings(deadline=None)
    @given(
        ks=st.lists(st.integers(0, 5), min_size=1, max_size=3).filter(any)
        | st.lists(st.integers(0, 2), min_size=4, max_size=4).filter(any)
    )
    def test_weyl_dimension_property(self, ks):
        # observed, not a claimed theorem
        assert dimension(ks) == sp_weyl_dimension(ks)

    def test_collapsed_last_row_matches_unmerged_replay(self):
        for rank in (1, 2, 3):
            for ks in iproduct(range(3), repeat=rank):
                if not sum(ks):
                    continue
                wv = WeightVector.from_odd((0,) + ks)
                replay = unmerged_prefix_counts(wv, rank)
                assert dimension(ks) == replay[-1], ks

    def test_rank_one_counts_single_cell(self):
        for k in range(1, 6):
            assert dimension((k,)) == k + 1

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            dimension((0, 0))
        with pytest.raises(ValueError):
            dimension(())


class TestStateBudget:
    def test_a_frontier_past_the_budget_is_refused(self, monkeypatch):
        # (2,2,2,2,2) peaks at 5,319 states, in row 4
        monkeypatch.setattr(counting, "STATE_BUDGET", 5319)
        assert dimension((2, 2, 2, 2, 2)) == 847288609443
        monkeypatch.setattr(counting, "STATE_BUDGET", 5318)
        with pytest.raises(ValueError, match="more than 5,318 states"):
            dimension((2, 2, 2, 2, 2))

    def test_the_budget_stops_a_cell_before_it_ends(self, monkeypatch):
        # the last free cell of row 2 of (60,60,60) takes 7,381 states to
        # 264,801, so a check only at cell ends would come after them
        monkeypatch.setattr(counting, "STATE_BUDGET", 10_000)
        with pytest.raises(ValueError, match="more than 10,000 states") as excinfo:
            dimension((60, 60, 60))
        grown = excinfo.traceback[-1].locals["grown"]  # the frame that raised
        assert 10_000 < len(grown) <= 10_000 + 181  # one state's moves

    def test_counts_take_no_budget(self, monkeypatch):
        monkeypatch.setattr(counting, "STATE_BUDGET", 1)
        table = count_admissible(WeightVector((0, 0, 1, 0, 0)), 6)
        assert table.counts == (1, 2, 3, 3, 5, 7)


class TestPrefixDiagnostics:
    # after each of rows 1..rows, the merged kernel states sum to the
    # unmerged replay's prefix count, with one move table through every row
    @staticmethod
    def merged_sums(wv, rows):
        moves, states, sums = {}, {0: 1}, []
        for i in range(rows + 1):
            states = _sweep_row(states, i, wv.k_total, row_template(i, wv), moves)
            sums.append(sum(states.values()))
        return sums[1:]

    def test_merged_multiplicities_match_unmerged_pairs(self):
        # row 5 of (0,0,1,0,0): the unmerged counts never fall, since every
        # reachable prefix takes the zero row (test_lattice.TestZeroRowStability)
        for bracket, rows in [
            ((0, 0, 1, 0, 0), 5),
            ((1, 0), 4),
            ((2, 0, 0, 0, 0), 4),
            ((1, 0, 1, 0), 4),
        ]:
            wv = WeightVector(bracket)
            assert self.merged_sums(wv, rows) == unmerged_prefix_counts(wv, rows)

    @settings(deadline=None)
    @given(wv=small_brackets(), rows=st.integers(1, 3))
    def test_merged_equals_unmerged_replay(self, wv, rows):
        assert self.merged_sums(wv, rows) == unmerged_prefix_counts(wv, rows)
