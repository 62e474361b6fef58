import json
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from colorparts.cache import CountCache, cached_count
from colorparts.congruence import (
    PeriodicProduct,
    even_width_product,
    lepowsky_product,
    parse_residue_spec,
)
from colorparts.counting import CountTable, count_admissible
from colorparts.lattice import WeightVector
from colorparts.qseries import expand
from colorparts.verify import (
    STATUS_INSUFFICIENT,
    STATUS_MISMATCH,
    STATUS_VERIFIED,
    conjectured_product,
    fit_weight,
    run_sweep,
    sweep_weights,
    verify_weight,
)

from known_identities import EVEN_ROWS, ODD_ROWS, REFUTED_VARIANTS


class TestConjecturedProduct:
    def test_odd_sugar_uses_character_product(self):
        wv = WeightVector.from_odd((2, 0, 0))
        assert conjectured_product(wv) == lepowsky_product((2, 0, 0))

    def test_even_sugar_uses_even_product(self):
        wv = WeightVector.from_even((1, 0))
        assert conjectured_product(wv) == even_width_product((1, 0))

    def test_raw_bracket_has_no_product(self):
        with pytest.raises(ValueError):
            conjectured_product(WeightVector((1, 1, 1)))

    def test_width_three_has_no_product(self):
        with pytest.raises(ValueError):
            conjectured_product(WeightVector.from_odd((1, 1)))


class TestVerifyWeight:
    def test_even_rank_four_verified(self):
        report = verify_weight(WeightVector.from_even((2, 1, 0, 0, 1)), 20)
        assert report.status == STATUS_VERIFIED
        assert report.product.modulus == 17
        assert report.first_mismatch is None

    def test_wrong_product_mismatch(self):
        report = verify_weight(
            WeightVector.from_even((1, 0)),
            20,
            product=parse_residue_spec("1,4 mod 5"),
            product_source="spec",
        )
        assert report.status == STATUS_MISMATCH
        assert report.first_mismatch == (1, 0, 1)

    def test_odd_level_two_against_listed_classes(self):
        report = verify_weight(
            WeightVector.from_odd((2, 0, 0)),
            20,
            product=parse_residue_spec("odd; 2,4,5,6,8 mod 10"),
            product_source="spec",
        )
        assert report.status == STATUS_VERIFIED

    def test_plus_factor_product_against_counts(self):
        # the width-5 level-1 middle weight follows a product carrying a
        # (1 + q^j) family over 2 mod 4
        report = verify_weight(
            WeightVector.from_odd((0, 1, 0)),
            20,
            product=parse_residue_spec("1,3,5,7 mod 8 [(+2 mod 4)]"),
            product_source="spec",
        )
        assert report.status == STATUS_VERIFIED
        assert report.counts.counts[:6] == (1, 2, 3, 3, 5, 7)

    def test_insufficient_when_degree_below_modulus(self):
        report = verify_weight(WeightVector.from_even((2, 1, 0, 0, 1)), 10)
        assert report.status == STATUS_INSUFFICIENT
        assert report.first_mismatch is None

    def test_report_dict_schema(self):
        report = verify_weight(WeightVector.from_even((1, 0)), 12)
        data = report.to_dict()
        for key in [
            "bracket", "sugar", "n_max", "modulus", "residue_exponents",
            "global_all", "global_odd", "plus_factors", "net_exponents",
            "status", "first_mismatch", "counts", "coefficients",
            "runtime_seconds", "product_source",
        ]:
            assert key in data
        assert data["status"] == STATUS_VERIFIED
        assert data["counts"] == [0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6]


class TestCatalogAtDegreeTwenty:
    """Counts match the catalog's listed class products to degree 20.

    Every catalog modulus is at most 18, so a clean comparison at degree 20
    must land on "verified" outright.
    """

    @pytest.mark.parametrize("weights,text", ODD_ROWS, ids=str)
    def test_odd_rows(self, weights, text):
        report = verify_weight(
            WeightVector.from_odd(weights),
            20,
            product=parse_residue_spec(text),
            product_source="spec",
        )
        assert report.status == STATUS_VERIFIED

    @pytest.mark.parametrize("weights,text", EVEN_ROWS, ids=str)
    def test_even_rows(self, weights, text):
        report = verify_weight(
            WeightVector.from_even(weights),
            20,
            product=parse_residue_spec(text),
            product_source="spec",
        )
        assert report.status == STATUS_VERIFIED

    @pytest.mark.parametrize("form,weights,text,first_bad", REFUTED_VARIANTS, ids=str)
    def test_refuted_variants_fail_where_recorded(self, form, weights, text, first_bad):
        builder = WeightVector.from_odd if form == "odd" else WeightVector.from_even
        report = verify_weight(
            builder(weights), 20, product=parse_residue_spec(text), product_source="spec"
        )
        assert report.status == STATUS_MISMATCH
        assert report.first_mismatch is not None
        assert report.first_mismatch[0] == first_bad
        # the structured product is the one the counts actually follow
        auto = verify_weight(builder(weights), 20)
        assert auto.first_mismatch is None


class TestSweep:
    def test_weight_families(self):
        assert sweep_weights(2, 1) == [(0, 1), (1, 0)]
        assert sweep_weights(4, 2) == [
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
        ]
        # odd widths fold reversals
        assert sweep_weights(5, 1) == [(0, 1, 0), (1, 0, 0)]
        assert sweep_weights(5, 2) == [(0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]

    def test_rejects_bad_families(self):
        with pytest.raises(ValueError):
            sweep_weights(3, 1)
        with pytest.raises(ValueError):
            sweep_weights(4, 0)

    def test_rank_one_level_one_sweep(self):
        reports = run_sweep(2, 1, 20)
        assert [r.status for r in reports] == [STATUS_VERIFIED] * 2

    def test_width_four_level_two_sweep(self):
        reports = run_sweep(4, 2, 20)
        assert len(reports) == 6
        assert all(r.status == STATUS_VERIFIED for r in reports)
        assert all(r.product.modulus == 9 for r in reports)
        shared = [
            r.counts.counts
            for r in reports
            if r.sugar in ("(1,1,0)^e", "(1,0,1)^e", "(0,0,2)^e")
        ]
        assert len(shared) == 3
        assert shared[0] == shared[1] == shared[2]

    def test_width_five_level_one_sweep(self):
        reports = run_sweep(5, 1, 20)
        assert [r.sugar for r in reports] == ["(0,1,0)", "(1,0,0)"]
        assert all(r.status == STATUS_VERIFIED for r in reports)

    def test_pool_size_is_clamped(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("colorparts.verify.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("colorparts.verify.os.cpu_count", lambda: 4)
        reports = run_sweep(2, 2, 10, jobs=10_000)  # 3 weights
        assert sizes == [3]
        assert [r.status for r in reports] == [STATUS_VERIFIED] * 3
        run_sweep(4, 2, 10, jobs=10_000)  # 6 weights
        assert sizes == [3, 4]

    def test_parallel_matches_serial(self):
        serial = run_sweep(2, 2, 15)
        parallel = run_sweep(2, 2, 15, jobs=2)
        assert [r.to_dict() | {"runtime_seconds": 0} for r in serial] == [
            r.to_dict() | {"runtime_seconds": 0} for r in parallel
        ]


class TestFitWeight:
    def test_rogers_ramanujan_recovery(self):
        _, fitted = fit_weight(WeightVector.from_even((1, 0)), 20)
        assert fitted.detected_period == 5
        assert fitted.class_multiplicities(5) == (0, 0, 1, 1, 0)

    def test_two_colored_odd_recovery(self):
        _, fitted = fit_weight(WeightVector.from_odd((1, 0, 1)), 20)
        assert fitted.detected_period == 10
        assert fitted.class_multiplicities(10) == (0, 2, 0, 1, 2, 0, 2, 1, 0, 2)

    def test_level_two_odd_recovery(self):
        # one factor on every odd class and one more on 2,4,5,6,8 mod 10
        _, fitted = fit_weight(WeightVector.from_odd((2, 0, 0)), 20)
        assert fitted.detected_period == 10
        expected = tuple(
            (1 if j % 2 else 0) + (1 if j % 10 in (2, 4, 5, 6, 8) else 0)
            for j in range(1, 21)
        )
        assert fitted.exponents == expected

    def test_generic_bracket_reports_rather_than_asserts(self):
        _, fitted = fit_weight(WeightVector((1, 1, 1)), 20)
        # whatever the verdict, the exponent sequence itself is exact
        table = count_admissible(WeightVector((1, 1, 1)), 20)
        product = PeriodicProduct(21, (0,) + tuple(-e for e in fitted.exponents))
        assert expand(product, 20) == table.to_series()


class TestCache:
    def test_cache_transparency(self, tmp_path):
        cache = CountCache(tmp_path)
        wv = WeightVector.from_even((1, 1))
        direct = count_admissible(wv, 15)
        first = cached_count(wv, 15, cache)
        second = cached_count(wv, 15, cache)
        assert direct.counts == first.counts == second.counts
        assert len(list(tmp_path.iterdir())) == 1

    def test_entry_file_name_is_pinned(self, tmp_path):
        # sha256 of the sorted JSON key {algorithm, bracket, n_max}, as cached
        # under ALGORITHM_VERSION "frontier-2"; any other name would turn every
        # existing entry into a miss without a version bump
        cache = CountCache(tmp_path)
        cached_count(WeightVector((0, 1)), 12, cache)
        assert [entry.name for entry in tmp_path.iterdir()] == [
            "5b04db90b779c6af6d2a1ff9fe4b17a7890335afa78a7d52a0b28f74d8f46f7c.json"
        ]

    def test_corrupt_entries_are_recomputed(self, tmp_path):
        cache = CountCache(tmp_path)
        wv = WeightVector((0, 1))
        cached_count(wv, 10, cache)
        entry = next(tmp_path.iterdir())
        entry.write_text("not json")
        again = cached_count(wv, 10, cache)
        assert again.counts == count_admissible(wv, 10).counts

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"counts": ["x", 1, 1]},
            {"counts": [1, None, 1]},
            {"counts": [1.5, -3, True]},
        ],
    )
    def test_malformed_entries_are_misses(self, tmp_path, payload):
        cache = CountCache(tmp_path)
        wv = WeightVector((0, 1))
        cached_count(wv, 3, cache)
        entry = next(tmp_path.iterdir())
        if isinstance(payload, dict):
            payload = {"bracket": [0, 1], "n_max": 3, **payload}
        entry.write_text(json.dumps(payload))
        assert cache.load(wv, 3) is None
        assert cached_count(wv, 3, cache).counts == (1, 1, 1)
        assert json.loads(entry.read_text())["counts"] == [1, 1, 1]

    @settings(deadline=None)
    @given(
        bracket=st.lists(st.integers(0, 3), min_size=2, max_size=6).filter(any),
        counts=st.lists(st.integers(0, 2**80), min_size=1, max_size=12),
    )
    def test_store_then_load_round_trips(self, bracket, counts):
        wv = WeightVector(tuple(bracket))
        table = CountTable(len(counts), tuple(counts))
        with tempfile.TemporaryDirectory() as root:
            cache = CountCache(root)
            cache.store(wv, table.n_max, table)
            assert cache.load(wv, table.n_max) == table

    def test_verify_with_cache_matches_without(self, tmp_path):
        wv = WeightVector.from_even((2, 0))
        with_cache = verify_weight(wv, 18, cache=CountCache(tmp_path))
        without = verify_weight(wv, 18)
        assert with_cache.counts == without.counts
        assert with_cache.status == without.status == STATUS_VERIFIED
