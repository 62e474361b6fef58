from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from colorparts import (
    CountTable,
    WeightVector,
    brute_force_count,
    count_admissible,
    dimension,
    expand,
    parse_residue_spec,
    prefix_pair_counts,
)

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

    def test_to_series_has_unit_constant(self):
        series = CountTable(2, (4, 9)).to_series()
        assert series.coeffs == (1, 4, 9)

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

    def test_row_bound_validation(self):
        with pytest.raises(ValueError):
            brute_force_count(WeightVector((0, 1)), 10, row_bound=3)

    def test_explicit_row_bound_matches_default(self):
        wv = WeightVector((1, 0, 1))
        assert (
            brute_force_count(wv, 8).counts
            == brute_force_count(wv, 8, row_bound=9).counts
        )


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
        assert table.counts == series.coeffs[1:]


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
                replay = prefix_pair_counts(wv, rank, merged=False)
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
            merged = prefix_pair_counts(wv, 4, merged=True)
            unmerged = prefix_pair_counts(wv, 4, merged=False)
            assert merged == unmerged

    def test_counts_grow_with_rows(self):
        wv = WeightVector((0, 0, 1, 0, 0))
        counts = prefix_pair_counts(wv, 5)
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_needs_at_least_one_row(self):
        with pytest.raises(ValueError):
            prefix_pair_counts(WeightVector((0, 1)), 0)
