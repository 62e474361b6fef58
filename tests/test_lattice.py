import random
from itertools import product as iproduct

import pytest

from colorparts.lattice import WeightVector, path_check, row_parts, row_template
from replay import enumerate_row_frequencies, initial_maxima, maxima_step


class TestWeightVector:
    def test_odd_sugar_interleaves(self):
        wv = WeightVector.from_odd((2, 0, 0))
        assert wv.bracket == (2, 0, 0, 0, 0)
        assert wv.width == 5 and wv.k_total == 2
        assert wv.odd_sugar == (2, 0, 0)
        assert WeightVector.from_odd((2, 1, 0, 0, 1)).bracket == (2, 0, 1, 0, 0, 0, 0, 0, 1)

    def test_even_sugar_keeps_first_two_adjacent(self):
        assert WeightVector.from_even((1, 0)).bracket == (1, 0)
        assert WeightVector.from_even((1, 1, 1)).bracket == (1, 1, 0, 1)
        wv = WeightVector.from_even((2, 1, 0, 0, 1))
        assert wv.bracket == (2, 1, 0, 0, 0, 0, 0, 1)
        assert wv.even_sugar == (2, 1, 0, 0, 1)

    def test_sugar_detection_rejects_other_brackets(self):
        assert WeightVector((1, 1, 1)).odd_sugar is None
        assert WeightVector((1, 0, 2, 0)).even_sugar is None
        assert WeightVector((1, 0, 1, 0, 1)).odd_sugar == (1, 1, 1)

    def test_sugar_labels(self):
        assert WeightVector.from_odd((1, 0, 1)).sugar_label() == "(1,0,1)"
        assert WeightVector.from_even((1, 0)).sugar_label() == "(1,0)^e"
        assert WeightVector((1, 1, 1)).sugar_label() is None

    def test_validation(self):
        for bad in [(0, 0), (1,), (-1, 2), (1.5, 0)]:
            with pytest.raises(ValueError):
                WeightVector(bad)
        with pytest.raises(ValueError):
            WeightVector.from_odd((1,))
        with pytest.raises(ValueError):
            WeightVector.from_odd((0, 0))
        with pytest.raises(ValueError):
            WeightVector.from_even((0, 0, 0))

    def test_maxima_step_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            maxima_step((0, 0), (0, 0, 0), 1)



class TestRows:
    def test_row_parts(self):
        assert row_parts(3, 5) == (5, 4, 3, 2, 1)
        assert row_parts(1, 5) == (1, 0, 0, 0, 0)
        assert row_parts(0, 4) == (0, 0, 0, 0)

    def test_row_template_prescribes_tail(self):
        wv = WeightVector((2, 0, 0, 0, 0))
        assert row_template(0, wv) == (0, 0, 0, 0, 2)
        assert row_template(1, wv) == (None, 0, 0, 0, 2)
        assert row_template(2, wv) == (None, None, None, 0, 2)
        assert row_template(3, wv) == (None,) * 5


class TestInitialMaxima:
    def test_examples(self):
        assert initial_maxima(WeightVector((2, 0, 0, 0, 0))) == (0, 0, 0, 0, 2)
        assert initial_maxima(WeightVector((0, 0, 1, 0, 0))) == (0, 0, 1, 1, 1)
        assert initial_maxima(WeightVector((2, 1, 0, 0, 0, 0, 0, 1))) == (
            1, 1, 1, 1, 1, 1, 2, 4,
        )


class TestMaximaStep:
    def test_rejects_overflow_at_prescribed_cell(self):
        assert maxima_step((0, 0, 0, 0, 2), (1, 0, 0, 0, 2), 2) is None

    def test_zero_row_propagates_prefix_maxima(self):
        assert maxima_step((0, 1, 0, 2, 0), (0, 0, 0, 0, 0), 2) == (0, 0, 1, 1, 2)

    def test_accepts_bottom_corner_mass(self):
        assert maxima_step((0, 0, 0, 0, 0), (0, 0, 0, 0, 2), 2) == (0, 0, 0, 0, 2)

    def test_row_sum_necessity(self):
        rng = random.Random(13)
        for _ in range(200):
            w = rng.randint(2, 6)
            k = rng.randint(1, 3)
            prev = tuple(rng.randint(0, k) for _ in range(w))
            row = tuple(rng.randint(0, k) for _ in range(w))
            if sum(row) > k:
                assert maxima_step(prev, row, k) is None

    def test_entries_monotone_within_row(self):
        rng = random.Random(17)
        for _ in range(200):
            w = rng.randint(2, 6)
            k = rng.randint(1, 4)
            prev = tuple(rng.randint(0, k) for _ in range(w))
            row = tuple(rng.randint(0, 1) for _ in range(w))
            result = maxima_step(prev, row, k)
            if result is not None:
                assert all(b >= a for a, b in zip(result, result[1:]))


class TestEnumerateRowFrequencies:
    def test_tight_budget_single_row(self):
        rows = list(enumerate_row_frequencies(1, WeightVector((2, 0, 0, 0, 0))))
        assert rows == [(0, 0, 0, 0, 2)]

    def test_level_one_full_width(self):
        rows = list(enumerate_row_frequencies(3, WeightVector((0, 0, 1, 0, 0))))
        assert len(rows) == 6
        assert (0, 0, 0, 0, 0) in rows
        assert all(sum(row) <= 1 for row in rows)

    def test_all_free_rows_past_the_staircase(self):
        wv = WeightVector((0, 1))
        rows = set(enumerate_row_frequencies(4, wv))
        assert rows == {(0, 0), (1, 0), (0, 1)}

    def test_budget_subtracts_prescribed(self):
        wv = WeightVector((1, 0, 0, 1))  # w = 4
        for i in (1, 2):
            template = row_template(i, wv)
            prescribed = sum(x for x in template if x is not None)
            for row in enumerate_row_frequencies(i, wv):
                free = sum(row) - prescribed
                assert 0 <= free <= wv.k_total - prescribed


def build_matrix(wv, rows, cells):
    """Rows 0..rows with free cells zeroed, then ``cells`` placed at (i, j)."""
    out = [list(row_template(0, wv))]
    for i in range(1, rows + 1):
        out.append([x if x is not None else 0 for x in row_template(i, wv)])
    for (i, j), f in cells.items():
        out[i][j - 1] = f
    return [tuple(r) for r in out]


class TestPathCheck:
    def test_double_bottom_part_admissible(self):
        # two copies of the bottom-row part 3 at level 2
        wv = WeightVector.from_odd((2, 0, 0))
        assert path_check(build_matrix(wv, 5, {(4, 5): 2}), wv)

    def test_middle_diagonal_overflow_rejected(self):
        # 3+3+1 with both 3s in the middle array row: the constant path on
        # diagonal 3 sums to 3 > 2
        wv = WeightVector.from_odd((2, 0, 0))
        assert not path_check(build_matrix(wv, 5, {(3, 3): 2, (3, 5): 1}), wv)

    def test_all_zero_free_matrix(self):
        for bracket in [(2, 0, 0, 0, 0), (0, 1), (1, 1, 1), (2, 1, 0, 0, 0, 0, 0, 1)]:
            wv = WeightVector(bracket)
            assert path_check(build_matrix(wv, 4, {}), wv)


class TestOracleEquivalence:
    """Acceptance by iterated maxima steps equals explicit path enumeration."""

    @staticmethod
    def accepted_by_maxima(wv, free_rows):
        state = initial_maxima(wv)
        for i, free in enumerate(free_rows, start=1):
            template = row_template(i, wv)
            row = []
            it = iter(free)
            for x in template:
                row.append(next(it) if x is None else x)
            state = maxima_step(state, tuple(row), wv.k_total)
            if state is None:
                return False
        return True

    @staticmethod
    def matrices(wv, rows):
        free_counts = [
            sum(1 for x in row_template(i, wv) if x is None)
            for i in range(1, rows + 1)
        ]
        per_row = []
        for count in free_counts:
            per_row.append(
                list(iproduct(range(wv.k_total + 1), repeat=count))
            )
        return iproduct(*per_row)

    def test_exhaustive_small_widths(self):
        for w in (2, 3, 4):
            for bracket in iproduct(range(3), repeat=w):
                if sum(bracket) not in (1, 2):
                    continue
                wv = WeightVector(bracket)
                for free_rows in self.matrices(wv, 3):
                    cells = {}
                    for i, free in enumerate(free_rows, start=1):
                        for t, f in enumerate(free):
                            if f:
                                cells[(i, t + 1)] = f
                    expected = path_check(build_matrix(wv, 3, cells), wv)
                    assert self.accepted_by_maxima(wv, free_rows) == expected

    def test_sampled_width_five(self):
        rng = random.Random(23)
        brackets = [b for b in iproduct(range(3), repeat=5) if sum(b) in (1, 2)]
        for bracket in brackets:
            wv = WeightVector(bracket)
            free_counts = [
                sum(1 for x in row_template(i, wv) if x is None) for i in (1, 2, 3)
            ]
            for _ in range(150):
                free_rows = tuple(
                    tuple(rng.randint(0, wv.k_total) for _ in range(count))
                    for count in free_counts
                )
                cells = {}
                for i, free in enumerate(free_rows, start=1):
                    for t, f in enumerate(free):
                        if f:
                            cells[(i, t + 1)] = f
                expected = path_check(build_matrix(wv, 3, cells), wv)
                assert self.accepted_by_maxima(wv, free_rows) == expected


class TestZeroRowStability:
    def test_reachable_states_survive_zero_rows(self):
        # run the construction a few rows; from every reachable state the
        # all-zero free row must be accepted
        for bracket in [(2, 0, 0, 0, 0), (0, 0, 1, 0, 0), (1, 1), (2, 1, 0, 1),
                        (2, 1, 0, 0, 0, 0, 0, 1)]:
            wv = WeightVector(bracket)
            states = {initial_maxima(wv)}
            for i in range(1, 7):
                new_states = set()
                for prev in states:
                    for row in enumerate_row_frequencies(i, wv):
                        nxt = maxima_step(prev, row, wv.k_total)
                        if nxt is not None:
                            new_states.add(nxt)
                zero_template = row_template(i, wv)
                zero_row = tuple(x if x is not None else 0 for x in zero_template)
                for prev in states:
                    assert maxima_step(prev, zero_row, wv.k_total) is not None
                states = new_states
