import hashlib
import time
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from colorparts import counting
from colorparts.congruence import PeriodicProduct, parse_residue_spec
from colorparts.counting import (
    CountTable,
    _sweep_row,
    brute_force_count,
    count_admissible,
    dimension,
    prefix_pair_counts,
)
from colorparts.lattice import WeightVector, row_template
from colorparts.qseries import expand
from colorparts.verify import verify_weight
from replay import initial_maxima, unmerged_prefix_counts

APPENDIX_01 = (1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9, 10, 12, 14, 17, 19, 23, 26, 31)
APPENDIX_10 = (0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6, 6, 8, 9, 11, 12, 15, 16, 20)
WIDTH8_TABLE = (
    2, 4, 8, 15, 27, 47, 78, 128, 205, 323,
    499, 763, 1148, 1709, 2516, 3669, 5297, 7589, 10779, 15204,
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
    def test_width_two_golden_tables(self):
        assert count_admissible(WeightVector((0, 1)), 20).counts == APPENDIX_01
        assert count_admissible(WeightVector((1, 0)), 20).counts == APPENDIX_10

    def test_width_five_level_one(self):
        table = count_admissible(WeightVector((0, 0, 1, 0, 0)), 6)
        assert table.counts == (1, 2, 3, 3, 5, 7)

    def test_width_eight_golden_table(self):
        table = count_admissible(WeightVector((2, 1, 0, 0, 0, 0, 0, 1)), 20)
        assert table.counts == WIDTH8_TABLE

    def test_known_discrepancy_weight(self):
        # P(6) = 12; a hand list that forgets configurations like the doubled
        # bottom-row 3 stops at 8, but product side and oracle both give 12
        table = count_admissible(WeightVector.from_odd((2, 0, 0)), 8)
        assert table.counts == (1, 2, 3, 5, 8, 12, 17, 25)
        assert table[6] == 12 != 8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_admissible(WeightVector((1, 0)), 0)
        with pytest.raises(ValueError):
            WeightVector((0, 0))


class TestBruteForce:
    def test_agrees_on_rogers_ramanujan(self):
        wv = WeightVector((1, 0))
        assert brute_force_count(wv, 10).counts == count_admissible(wv, 10).counts

    def test_agrees_on_width_five(self):
        wv = WeightVector((0, 0, 1, 0, 0))
        assert brute_force_count(wv, 6).counts == (1, 2, 3, 3, 5, 7)

    def test_difference_two_partitions_by_hand(self):
        # level 1, width 2, bottom entry free: parts differ by >= 2
        assert brute_force_count(WeightVector((0, 1)), 3).counts == (1, 1, 1)


class TestOracleSweep:
    def test_dp_equals_brute_force_exhaustively(self):
        # every bracket with width <= 5 and level <= 2, to degree 10
        for w in range(2, 6):
            for bracket in iproduct(range(3), repeat=w):
                if sum(bracket) not in (1, 2):
                    continue
                wv = WeightVector(bracket)
                assert (
                    count_admissible(wv, 10).counts
                    == brute_force_count(wv, 10).counts
                ), bracket


@st.composite
def small_brackets(draw):
    """Width 2..5, level 1..3: each drawn slot adds one unit of level."""
    width = draw(st.integers(2, 5))
    slots = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=3))
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


class TestKernelLayout:
    # row 0 of each bracket reaches its level, which a radix of only the
    # level would carry into the next slot
    BRACKETS = [(1, 0), (0, 1), (2, 0, 0, 0, 0), (0, 0, 1, 0, 2), (1, 1, 1)]

    @pytest.mark.parametrize("bracket", BRACKETS)
    def test_row_zero_key_is_initial_maxima_in_radix_level_plus_one(self, bracket):
        # the key keeps m_1..m_{w-1}; no row reads m_w
        wv = WeightVector(bracket)
        radix = wv.k_total + 1
        kept = initial_maxima(wv)[:-1]
        assert max(initial_maxima(wv)) == wv.k_total
        if bracket in ((0, 1), (0, 0, 1, 0, 2)):  # k_1 = 0: the level is kept
            assert kept[-1] == wv.k_total
        key = sum(m * radix**t for t, m in enumerate(kept))
        assert _sweep_row({0: 1}, 0, wv.k_total, row_template(0, wv)) == {key: 1}

    @settings(deadline=None)
    @given(wv=small_brackets())
    def test_keys_drop_the_last_maximum(self, wv):
        level, w = wv.k_total, wv.width
        unmerged = unmerged_prefix_counts(wv, 3)
        states = {0: 1}
        for i in range(4):
            states = _sweep_row(states, i, level, row_template(i, wv))
            assert all(0 <= key < (level + 1) ** (w - 1) for key in states)
            if i:
                assert sum(states.values()) == unmerged[i - 1]

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
        wv = WeightVector.from_odd((0,) + ks)
        level = wv.k_total
        states = _sweep_row({0: 1}, 0, level, row_template(0, wv))
        for i in range(1, len(ks) + 1):
            template = row_template(i, wv)
            final = _sweep_row(states, i, level, template, final=True)
            states = _sweep_row(states, i, level, template)
            assert final == {0: sum(states.values())}


class TestDeepTables:
    # beyond the oracle's reach: the product side shares no code with the
    # kernel, and the digests pin tables counted before keys dropped m_w

    def test_deep_even_weight_matches_its_product(self):
        report = verify_weight(WeightVector.from_even((2, 1, 0, 0, 1)), 100)
        assert report.status == "verified"
        assert report.first_mismatch is None

    # SHA-256 of P(1), ..., P(N) as ASCII decimals joined by ","
    @pytest.mark.parametrize(
        "wv,n_max,digest",
        [
            (
                WeightVector.from_even((2, 1, 0, 0, 1)),
                200,
                "5c4a2b724a74186b89f7fb30de9004bcf5c8a5b270afd5e0be253cba86bd63d4",
            ),
            (
                WeightVector.from_even((3, 1, 0, 0, 1)),
                100,
                "d8a91e64a6f3a8bf1423d7d725669734b94cea818074eeaaa991ab0c518cf476",
            ),
            (
                WeightVector((2, 1, 1, 1, 0, 0, 0, 0, 0, 0)),
                24,
                "e44077aa5caee8b35fb33b63af569eb0d03834347b34f60ba09476a1bb2a8a96",
            ),
        ],
        ids=["even-2,1,0,0,1-N200", "even-3,1,0,0,1-N100", "bracket-2,1,1,1-N24"],
    )
    def test_deep_tables_match_their_digests(self, wv, n_max, digest):
        counts = count_admissible(wv, n_max).counts
        encoded = ",".join(map(str, counts)).encode("ascii")
        assert hashlib.sha256(encoded).hexdigest() == digest


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
        "ks,expected",
        [
            ((1, 1, 2, 2), 3459456),
            ((2, 1, 2, 2), 9848916),
            ((0, 2, 2, 2), 4321512),
            ((1, 2, 2, 2), 16358760),
            ((2, 2, 2, 2), 43046721),
        ],
    )
    def test_rank_four_values(self, ks, expected):
        assert dimension(ks) == expected

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_uniform_weights_regression(self, k, rank):
        # observed, not a claimed theorem
        assert dimension((k,) * rank) == (k + 1) ** (rank * rank)

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


class TestPrefixDiagnostics:
    def test_merged_multiplicities_match_unmerged_pairs(self):
        for bracket in [(0, 0, 1, 0, 0), (1, 0), (2, 0, 0, 0, 0), (1, 0, 1, 0)]:
            wv = WeightVector(bracket)
            merged = prefix_pair_counts(wv, 4)
            unmerged = unmerged_prefix_counts(wv, 4)
            assert merged == unmerged

    @settings(deadline=None)
    @given(wv=small_brackets(), rows=st.integers(1, 3))
    def test_merged_equals_unmerged_replay(self, wv, rows):
        assert prefix_pair_counts(wv, rows) == unmerged_prefix_counts(wv, rows)

    def test_counts_grow_with_rows(self):
        wv = WeightVector((0, 0, 1, 0, 0))
        counts = prefix_pair_counts(wv, 5)
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_needs_at_least_one_row(self):
        with pytest.raises(ValueError):
            prefix_pair_counts(WeightVector((0, 1)), 0)
