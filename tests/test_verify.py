import json
import os
import tempfile
import time

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

    def test_a_loaded_table_is_compared_without_counting(self, monkeypatch):
        wv = WeightVector.from_even((1, 0))
        table = count_admissible(wv, 12)

        def no_count(*args, **kwargs):
            raise AssertionError("a loaded table was counted again")

        monkeypatch.setattr("colorparts.verify.cached_count", no_count)
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
        forks = _recorded_forks(monkeypatch)
        _usable_cores(monkeypatch, 4)
        reports = run_sweep(2, 2, 10, jobs=10_000)  # 3 weights
        sizes = [len(forks) + 1]
        assert sizes == [3]
        assert [r.status for r in reports] == [STATUS_VERIFIED] * 3
        forks.clear()
        run_sweep(4, 2, 10, jobs=10_000)  # 6 weights
        sizes.append(len(forks) + 1)
        assert sizes == [3, 4]

    def test_parallel_matches_serial(self):
        serial = run_sweep(2, 2, 15)
        parallel = run_sweep(2, 2, 15, jobs=2)
        assert [r.to_dict() | {"runtime_seconds": 0} for r in serial] == [
            r.to_dict() | {"runtime_seconds": 0} for r in parallel
        ]

    def test_warm_sweep_starts_no_pool(self, tmp_path, monkeypatch):
        cold = run_sweep(4, 2, 15, jobs=2, cache=CountCache(tmp_path))

        def no_fork():
            raise AssertionError("a fully cached sweep forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        warm = run_sweep(4, 2, 15, jobs=2, cache=CountCache(tmp_path))
        assert [_stripped(r) for r in warm] == [_stripped(r) for r in cold]

    def test_pool_is_sized_to_the_misses(self, tmp_path, monkeypatch):
        cache = CountCache(tmp_path)
        cold = run_sweep(4, 2, 15, cache=cache)
        deleted, corrupt = (cache._path(WeightVector(r.bracket), 15) for r in cold[1:3])
        deleted.unlink()
        corrupt.write_text("not json")
        forks = _recorded_forks(monkeypatch)
        _usable_cores(monkeypatch, 4)
        warm = run_sweep(4, 2, 15, jobs=4, cache=cache)
        sizes = [len(forks) + 1]
        assert sizes == [2]
        assert [_stripped(r) for r in warm] == [_stripped(r) for r in cold]
        assert json.loads(corrupt.read_text())["counts"] == list(cold[2].counts.counts)
        assert cache.load(WeightVector(cold[1].bracket), 15) == cold[1].counts

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_loads_each_entry_once(self, tmp_path, monkeypatch, jobs):
        loads = []
        load = CountCache.load

        def counted_load(self, wv, n_max):
            loads.append(wv.bracket)
            return load(self, wv, n_max)

        monkeypatch.setattr(CountCache, "load", counted_load)
        for warmth in ("cold", "warm"):
            loads.clear()
            run_sweep(4, 2, 15, jobs=jobs, cache=CountCache(tmp_path))  # 6 weights
            assert len(loads) == 6, warmth

    def test_workers_are_clamped_to_the_usable_cores(self, monkeypatch):
        def no_fork():
            raise AssertionError("a sweep on one usable core forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        _usable_cores(monkeypatch, 1)
        reports = run_sweep(4, 2, 10, jobs=4)
        assert [r.status for r in reports] == [STATUS_VERIFIED] * 6

    def test_a_sweep_without_fork_runs_in_one_process(self, monkeypatch):
        forks = _recorded_forks(monkeypatch)
        _usable_cores(monkeypatch, 2)
        forked = run_sweep(4, 2, 10, jobs=2)
        assert len(forks) == 1
        monkeypatch.delattr(os, "fork")
        counted = []

        def count(wv, n_max, cache=None):
            counted.append(os.getpid())
            return count_admissible(wv, n_max)

        monkeypatch.setattr("colorparts.verify.cached_count", count)
        reports = run_sweep(4, 2, 10, jobs=2)
        assert counted == [os.getpid()] * 6
        assert [_stripped(r) for r in reports] == [_stripped(r) for r in forked]

    def test_a_slow_worker_takes_fewer_weights(self, monkeypatch):
        # a fixed split would leave the sweeping process 3 of the 6 weights
        parent, counted = os.getpid(), []

        def count(wv, n_max, cache=None):
            if os.getpid() == parent:
                counted.append(wv.bracket)
                time.sleep(0.5)
            return count_admissible(wv, n_max)

        monkeypatch.setattr("colorparts.verify.cached_count", count)
        _usable_cores(monkeypatch, 2)
        reports = run_sweep(4, 2, 10, jobs=2)
        assert [r.status for r in reports] == [STATUS_VERIFIED] * 6
        assert 1 <= len(counted) <= 2

    def test_a_large_sweep_is_queued_in_runs(self, monkeypatch):
        # 3000 misses, more than the queue holds one by one: runs of three
        sugars = [(k, 1) for k in range(3000)]
        monkeypatch.setattr("colorparts.verify.sweep_weights", lambda width, k_total: sugars)
        monkeypatch.setattr("colorparts.verify.verify_weight", lambda wv, n_max, table=None: wv.bracket)
        forks = _recorded_forks(monkeypatch)
        _usable_cores(monkeypatch, 2)
        brackets = run_sweep(4, 2, 10, jobs=2)
        assert len(forks) == 1
        assert brackets == [WeightVector.from_even(sugar).bracket for sugar in sugars]

    def test_error_in_a_worker_reaches_the_caller(self, monkeypatch):
        # the second weight of three is dealt to the forked worker
        parent, failing = os.getpid(), WeightVector.from_even((1, 1))

        def count(wv, n_max, cache=None):
            if os.getpid() != parent:
                raise ValueError(f"cannot count {list(wv.bracket)}")
            return count_admissible(wv, n_max)

        monkeypatch.setattr("colorparts.verify.cached_count", count)
        _usable_cores(monkeypatch, 2)
        with pytest.raises(ValueError) as raised:
            run_sweep(2, 2, 10, jobs=2)
        assert raised.value.args == (f"cannot count {list(failing.bracket)}",)
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_error_in_the_sweeping_process_reaps_the_workers(self, monkeypatch):
        parent = os.getpid()

        def count(wv, n_max, cache=None):
            if os.getpid() == parent:
                raise ValueError("the sweeping process failed")
            time.sleep(60)  # the worker is killed, not waited for

        monkeypatch.setattr("colorparts.verify.cached_count", count)
        _usable_cores(monkeypatch, 2)
        started = time.perf_counter()
        with pytest.raises(ValueError, match="the sweeping process failed"):
            run_sweep(2, 2, 10, jobs=2)
        assert time.perf_counter() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_without_a_result_is_an_error(self, monkeypatch):
        parent = os.getpid()

        def count(wv, n_max, cache=None):
            if os.getpid() != parent:
                raise ValueError(lambda: None)  # cannot be pickled
            return count_admissible(wv, n_max)

        monkeypatch.setattr("colorparts.verify.cached_count", count)
        _usable_cores(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="exited without a result"):
            run_sweep(2, 2, 10, jobs=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _recorded_forks(monkeypatch) -> list:
    """The pids of the workers forked from now on: a sweep's workers less one."""
    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


def _usable_cores(monkeypatch, cores: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def _stripped(report) -> dict:
    return report.to_dict() | {"runtime_seconds": 0}


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
        assert expand(product, 20) == (1,) + table.counts


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
            # nesting deeper than the JSON decoder's recursion limit
            pytest.param("[" * 100000, id="deep-nesting"),
        ],
    )
    def test_malformed_entries_are_misses(self, tmp_path, payload):
        cache = CountCache(tmp_path)
        wv = WeightVector((0, 1))
        cached_count(wv, 3, cache)
        entry = next(tmp_path.iterdir())
        if isinstance(payload, dict):
            payload = {"bracket": [0, 1], "n_max": 3, **payload}
        entry.write_text(payload if isinstance(payload, str) else json.dumps(payload))
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
