import json
import os
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from colorparts.cache import CountCache, cached_counts
from colorparts.congruence import (
    PeriodicProduct,
    even_width_product,
    lepowsky_product,
    parse_residue_spec,
)
from colorparts.counting import CountTable, count_admissible, count_family
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
from replay import _bounded_compositions


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
    def test_wrong_product_mismatch(self):
        report = verify_weight(
            WeightVector.from_even((1, 0)),
            20,
            product=parse_residue_spec("1,4 mod 5"),
            product_source="spec",
        )
        assert report.status == STATUS_MISMATCH
        assert report.first_mismatch == (1, 0, 1)

    def test_a_given_product_is_labelled_given_unless_named(self):
        # a mismatch against an unnamed product is not a failed conjecture
        wv, spec = WeightVector.from_even((1, 0)), parse_residue_spec("2,3 mod 5")
        assert verify_weight(wv, 20, product=spec).product_source == "given"
        named = verify_weight(wv, 20, product=spec, product_source="spec")
        assert named.product_source == "spec"
        assert verify_weight(wv, 20).product_source == "conjecture"

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

    def test_a_loaded_table_is_compared_without_counting(self, monkeypatch):
        wv = WeightVector.from_even((1, 0))
        table = count_admissible(wv, 12)

        def no_count(*args, **kwargs):
            raise AssertionError("a loaded table was counted again")

        monkeypatch.setattr("colorparts.verify.cached_counts", no_count)
        report = verify_weight(wv, 12, table=table)
        assert report.status == STATUS_VERIFIED and report.counts is table
        for n_max in (11, 13):
            with pytest.raises(ValueError):
                verify_weight(wv, n_max, table=table)

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
        # a family wider than the recursion limit: the 1,002 unit weights
        wide = sweep_weights(2002, 1)
        assert len(wide) == 1002
        assert all(sorted(ks) == [0] * 1001 + [1] for ks in wide)
        assert len(sweep_weights(278, 2)) == 9_870  # C(141, 2), under the cap
        # every bounded composition of the level, its remainder appended
        for width in (2, 4, 5, 6, 7, 8, 9):
            for k_total in (1, 2, 3, 4):
                weights = [
                    head + (k_total - sum(head),)
                    for head in _bounded_compositions(width // 2, k_total)
                ]
                if width % 2:
                    weights = [ks for ks in weights if ks >= ks[::-1]]
                assert sweep_weights(width, k_total) == sorted(weights), (width, k_total)

    def test_rejects_bad_families(self):
        with pytest.raises(ValueError):
            sweep_weights(3, 1)
        with pytest.raises(ValueError):
            sweep_weights(4, 0)

    @pytest.mark.parametrize(
        "width,k_total", [(402, 2), (280, 2), (401, 3), (4, 9_999), (20, 10), (10**18, 10**18)]
    )
    def test_rejects_families_over_the_cap(self, width, k_total, monkeypatch):
        def no_build(*args):
            raise AssertionError("an oversized family was built")

        monkeypatch.setattr("colorparts.verify.combinations_with_replacement", no_build)
        with pytest.raises(ValueError, match="too large to sweep"):
            sweep_weights(width, k_total)

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

    def test_family_count_matches_one_count_per_weight(self):
        # the family counted side by side, against one forward count per weight
        swept = run_sweep(4, 2, 15)
        serial = [verify_weight(WeightVector.from_even(ks), 15) for ks in sweep_weights(4, 2)]
        assert [_stripped(r) for r in swept] == [_stripped(r) for r in serial]

    def test_a_sweep_forks_nothing(self, tmp_path, monkeypatch):
        # a sweep counts in this process, cold or warm
        def no_fork():
            raise AssertionError("a sweep forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        cold = run_sweep(4, 2, 15, cache=CountCache(tmp_path))
        warm = run_sweep(4, 2, 15, cache=CountCache(tmp_path))
        assert [r.status for r in cold] == [STATUS_VERIFIED] * 6
        assert [_stripped(r) for r in warm] == [_stripped(r) for r in cold]

    @pytest.mark.parametrize("missing", [1, 2])
    def test_sweep_loads_each_entry_once(self, tmp_path, monkeypatch, missing):
        loads = []
        load = CountCache.load

        def counted_load(self, wv, n_max):
            loads.append(wv.bracket)
            return load(self, wv, n_max)

        monkeypatch.setattr(CountCache, "load", counted_load)
        cache = CountCache(tmp_path)
        for warmth in ("cold", "partly warm", "warm"):
            loads.clear()
            reports = run_sweep(4, 2, 15, cache=cache)  # 6 weights
            assert len(loads) == 6, warmth
            if warmth == "cold":
                for report in reports[:missing]:
                    cache._path(WeightVector(report.bracket), 15).unlink()

    @pytest.mark.parametrize("missing", [(3,), (1, 4), (0, 2, 5)])
    def test_a_partly_cached_sweep_counts_only_its_misses(self, tmp_path, monkeypatch, missing):
        # the first missing entry is corrupt, the others deleted
        cache = CountCache(tmp_path)
        cold = run_sweep(4, 2, 15, cache=cache)  # 6 weights
        paths = [cache._path(WeightVector(cold[i].bracket), 15) for i in missing]
        paths[0].write_text("not json")
        for path in paths[1:]:
            path.unlink()
        counted, stored, store = [], [], CountCache.store

        def recorded_count(wvs, n_max):
            counted.extend(wv.bracket for wv in wvs)
            return count_family(wvs, n_max)

        def recorded_store(self, wv, n_max, table):
            stored.append(wv.bracket)
            store(self, wv, n_max, table)

        monkeypatch.setattr("colorparts.cache.count_family", recorded_count)
        monkeypatch.setattr(CountCache, "store", recorded_store)
        warm = run_sweep(4, 2, 15, cache=cache)
        assert [_stripped(r) for r in warm] == [_stripped(r) for r in cold]
        assert counted == stored == [cold[i].bracket for i in missing]
        assert [json.loads(path.read_text())["counts"] for path in paths] == [
            list(cold[i].counts.counts) for i in missing
        ]


def _stripped(report) -> dict:
    return report.to_dict() | {"runtime_seconds": 0}


class TestFitWeight:
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
        assert expand(product, 20) == (1,) + table.counts


class TestCache:
    def test_cache_transparency(self, tmp_path):
        cache = CountCache(tmp_path)
        wv = WeightVector.from_even((1, 1))
        direct = count_admissible(wv, 15)
        first = cached_counts([wv], 15, cache)[0]
        second = cached_counts([wv], 15, cache)[0]
        assert direct.counts == first.counts == second.counts
        assert len(list(tmp_path.iterdir())) == 1

    def test_entry_file_name_is_pinned(self, tmp_path):
        # the key's fields {algorithm, bracket, n_max}, as cached under
        # ALGORITHM_VERSION "frontier-2"; any other name would turn every
        # existing entry into a miss without a version bump
        cache = CountCache(tmp_path)
        cached_counts([WeightVector((0, 1))], 12, cache)
        assert [entry.name for entry in tmp_path.iterdir()] == ["frontier-2_0-1_12.json"]

    def test_a_name_too_long_to_write_is_a_miss(self, tmp_path):
        # 130 entries name a file of more than 255 bytes, which the file
        # system refuses; the table is still counted, just never stored
        cache = CountCache(tmp_path)
        wv = WeightVector((0,) * 129 + (1,))
        table = count_admissible(wv, 4)
        assert len(cache._path(wv, 4).name.encode()) > 255
        cache.store(wv, 4, table)
        assert cache.load(wv, 4) is None
        assert list(tmp_path.iterdir()) == []
        assert cached_counts([wv], 4, cache)[0] == table
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_entries_are_recomputed(self, tmp_path):
        cache = CountCache(tmp_path)
        wv = WeightVector((0, 1))
        cached_counts([wv], 10, cache)
        entry = next(tmp_path.iterdir())
        entry.write_text("not json")
        again = cached_counts([wv], 10, cache)[0]
        assert again.counts == count_admissible(wv, 10).counts

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"counts": ["x", 1, 1]},
            {"counts": [1, None, 1]},
            {"counts": [1.5, -3, True]},
            {"counts": "1,1,1"},  # not a list
            {"algorithm": "frontier-1"},  # well formed, but of another version
            # nesting deeper than the JSON decoder's recursion limit
            pytest.param("[" * 100000, id="deep-nesting"),
        ],
    )
    def test_malformed_entries_are_misses(self, tmp_path, payload):
        cache = CountCache(tmp_path)
        wv = WeightVector((0, 1))
        cached_counts([wv], 3, cache)
        entry = next(tmp_path.iterdir())
        if isinstance(payload, dict):  # the stored entry with these fields changed
            payload = {**json.loads(entry.read_text()), **payload}
        entry.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        assert cache.load(wv, 3) is None
        assert cached_counts([wv], 3, cache)[0].counts == (1, 1, 1)
        assert json.loads(entry.read_text())["counts"] == [1, 1, 1]

    def test_store_is_quiet_when_no_temp_file_can_be_made(self, tmp_path, monkeypatch):
        # a read-only directory does not stop root, so the refusal is patched in
        def refuse(*args, **kwargs):
            raise OSError("no space left")

        monkeypatch.setattr("colorparts.cache.tempfile.mkstemp", refuse)
        cache = CountCache(tmp_path)
        cache.store(WeightVector((0, 1)), 3, CountTable(3, (1, 1, 1)))
        assert list(tmp_path.iterdir()) == []

    def test_store_removes_its_temp_file_and_re_raises_an_interrupt(
        self, tmp_path, monkeypatch
    ):
        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr("colorparts.cache.os.replace", interrupted)
        cache = CountCache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            cache.store(WeightVector((0, 1)), 3, CountTable(3, (1, 1, 1)))
        assert list(tmp_path.iterdir()) == []

    @settings(deadline=None)
    @given(
        brackets=st.lists(
            st.lists(st.integers(0, 12), min_size=2, max_size=6).filter(any),
            min_size=2,
            max_size=2,
        ),
        counts=st.lists(
            st.lists(st.integers(0, 2**80), min_size=1, max_size=12),
            min_size=2,
            max_size=2,
        ),
    )
    def test_store_then_load_round_trips(self, brackets, counts):
        # two keys in one directory: each loads back its own table
        entries = {
            (WeightVector(tuple(b)), len(c)): CountTable(len(c), tuple(c))
            for b, c in zip(brackets, counts)
        }
        assume(len(entries) == 2)
        with tempfile.TemporaryDirectory() as root:
            cache = CountCache(root)
            for (wv, n_max), table in entries.items():
                cache.store(wv, n_max, table)
            for (wv, n_max), table in entries.items():
                assert cache.load(wv, n_max) == table
            assert len(os.listdir(root)) == 2

    def test_verify_with_cache_matches_without(self, tmp_path):
        wv = WeightVector.from_even((2, 0))
        with_cache = verify_weight(wv, 18, cache=CountCache(tmp_path))
        without = verify_weight(wv, 18)
        assert with_cache.counts == without.counts
        assert with_cache.status == without.status == STATUS_VERIFIED
