import random

import pytest
from hypothesis import given, settings, strategies as st

from colorparts.congruence import PeriodicProduct, parse_residue_spec
from colorparts.qseries import Series, expand, fit_exponents


class TestExpand:
    def test_rogers_ramanujan_classes(self):
        series = expand(parse_residue_spec("1,4 mod 5"), 10)
        assert series.coeffs == (1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6)

    def test_empty_product(self):
        series = expand(PeriodicProduct(1, (0,)), 5)
        assert series.coeffs == (1, 0, 0, 0, 0, 0)

    def test_single_color_partitions(self):
        series = expand(PeriodicProduct(1, (-1,)), 6)
        assert series.coeffs == (1, 1, 2, 3, 5, 7, 11)

    def test_degree_zero(self):
        assert expand(PeriodicProduct(1, (-1,)), 0).coeffs == (1,)

    def test_factors_beyond_truncation_are_ignored(self):
        # the (1 - q^5)^-3 factor cannot reach degree 4
        with_factor = expand(PeriodicProduct(5, (-3, -1, -1, -1, -1)), 4)
        assert with_factor == expand(PeriodicProduct(1, (-1,)), 4)

    def test_plus_factors_match_rewrite(self):
        # (1 + q^j) over j = 2 mod 4 equals (1 - q^{2j})/(1 - q^j) there
        with_plus = expand(parse_residue_spec("1,3,5,7 mod 8 [(+2 mod 4)]"), 24)
        rewritten = expand(PeriodicProduct(8, (0, -1, -1, -1, 1, -1, -1, -1)), 24)
        assert with_plus == rewritten

    def test_nonnegative_for_generating_products(self):
        rng = random.Random(6)
        for _ in range(30):
            modulus = rng.randint(1, 12)
            product = PeriodicProduct(
                modulus,
                tuple(rng.randint(-3, 0) for _ in range(modulus)),
                global_all=rng.randint(-2, 0),
                global_odd=rng.randint(-2, 0),
            )
            assert min(expand(product, 30).coeffs) >= 0


@st.composite
def products_and_degrees(draw):
    """A product without plus factors and a degree N >= 2 * its period."""
    modulus = draw(st.integers(1, 8))
    product = PeriodicProduct(
        modulus,
        tuple(draw(st.lists(st.integers(-2, 2), min_size=modulus, max_size=modulus))),
        global_all=draw(st.integers(-2, 0)),
        global_odd=draw(st.integers(-2, 0)),
    )
    return product, draw(st.integers(2 * product.period, 40))


class TestFitExponents:
    @settings(deadline=None)
    @given(products_and_degrees())
    def test_fit_inverts_expand(self, case):
        product, n = case
        fitted = fit_exponents(expand(product, n))
        assert fitted.exponents == tuple(
            -product.effective_exponent(j) for j in range(1, n + 1)
        )
        # N >= 2 * period, so by Fine-Wilf the smallest period divides it
        assert product.period % fitted.detected_period == 0

    def test_roundtrip_random_products(self):
        rng = random.Random(8)
        for _ in range(40):
            modulus = rng.randint(1, 12)
            product = PeriodicProduct(
                modulus,
                tuple(rng.randint(-3, 3) for _ in range(modulus)),
                global_all=rng.randint(-1, 1),
                global_odd=rng.randint(-1, 1),
            )
            fitted = fit_exponents(expand(product, 30))
            expected = tuple(-product.effective_exponent(j) for j in range(1, 31))
            assert fitted.exponents == expected

    def test_constant_series(self):
        fitted = fit_exponents(expand(PeriodicProduct(1, (0,)), 12))
        assert fitted.exponents == (0,) * 12
        assert fitted.detected_period == 1

    def test_detected_period_and_classes(self):
        fitted = fit_exponents(expand(parse_residue_spec("1,4 mod 5"), 20))
        assert fitted.detected_period == 5
        assert fitted.class_multiplicities(5) == (0, 1, 0, 0, 1)

    def test_period_needs_two_witnesses_per_class(self):
        product = parse_residue_spec("1 mod 13")
        fitted = fit_exponents(expand(product, 20))
        assert fitted.detected_period is None
        assert fitted.candidate_period == 13
        confirmed = fit_exponents(expand(parse_residue_spec("1 mod 13"), 26))
        assert confirmed.detected_period == 13

    def test_no_period_within_bound(self):
        product = parse_residue_spec("1 mod 40")
        fitted = fit_exponents(expand(product, 30), max_modulus=10)
        assert fitted.detected_period is None
        assert fitted.candidate_period is None

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            fit_exponents(Series((2, 1, 1)))

    def test_reproduces_series(self):
        series = expand(parse_residue_spec("odd; 2,4,5,6,8 mod 10"), 18)
        fitted = fit_exponents(series)
        # one residue class per factor index j = 1..18 rebuilds the product
        rebuilt = PeriodicProduct(19, (0,) + tuple(-e for e in fitted.exponents))
        assert expand(rebuilt, 18) == series
