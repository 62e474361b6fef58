import random

import pytest
from hypothesis import given, settings, strategies as st

from colorparts.congruence import (
    PeriodicProduct,
    PlusFactor,
    even_width_product,
    parse_residue_spec,
)
from colorparts.qseries import expand, fit_exponents


def unit_factor_passes(coeffs, j, exponent, sign):
    """(1 + sign*q^j)^exponent applied one unit factor at a time."""
    out = list(coeffs)
    for _ in range(abs(exponent)):
        if exponent > 0:
            out = [c + sign * out[t - j] if t >= j else c for t, c in enumerate(out)]
        else:
            for t in range(j, len(out)):
                out[t] -= sign * out[t - j]
    return out


def euler_product(exponents, n):
    """prod (1 - q^j)^(-e_j) to degree n by m c_m = sum_k a_k c_{m-k}.

    a_k = sum_{d | k} d e_d is the logarithmic derivative, so this shares no
    step with the factor passes of ``expand`` and ``fit_exponents``.
    """
    a = [0] * (n + 1)
    for d, e in enumerate(exponents[:n], start=1):
        for k in range(d, n + 1, d):
            a[k] += d * e
    c = [1] + [0] * n
    for m in range(1, n + 1):
        c[m] = sum(a[k] * c[m - k] for k in range(1, m + 1)) // m
    return tuple(c)


@st.composite
def mixed_products(draw):
    """Per-class exponents in -12..12, nonzero globals and 0-3 plus factors
    of either sign."""
    modulus = draw(st.integers(1, 8))
    nonzero = st.integers(-3, 3).filter(bool)
    plus = draw(st.lists(st.tuples(
        st.integers(1, 6).flatmap(lambda m: st.tuples(st.integers(0, m - 1), st.just(m))),
        nonzero,
    ), max_size=3))
    return PeriodicProduct(
        modulus,
        tuple(draw(st.lists(st.integers(-12, 12), min_size=modulus, max_size=modulus))),
        global_all=draw(nonzero),
        global_odd=draw(nonzero),
        plus_factors=tuple(PlusFactor(r, m, e) for (r, m), e in plus),
    )


class TestExpand:
    def test_rogers_ramanujan_classes(self):
        series = expand(parse_residue_spec("1,4 mod 5"), 10)
        assert series == (1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6)

    def test_empty_product(self):
        series = expand(PeriodicProduct(1, (0,)), 5)
        assert series == (1, 0, 0, 0, 0, 0)

    def test_single_color_partitions(self):
        series = expand(PeriodicProduct(1, (-1,)), 6)
        assert series == (1, 1, 2, 3, 5, 7, 11)

    def test_degree_zero(self):
        assert expand(PeriodicProduct(1, (-1,)), 0) == (1,)

    def test_factors_beyond_truncation_are_ignored(self):
        # the (1 - q^5)^-3 factor cannot reach degree 4
        with_factor = expand(PeriodicProduct(5, (-3, -1, -1, -1, -1)), 4)
        assert with_factor == expand(PeriodicProduct(1, (-1,)), 4)

    def test_plus_factors_match_rewrite(self):
        # (1 + q^j) over j = 2 mod 4 equals (1 - q^{2j})/(1 - q^j) there
        with_plus = expand(parse_residue_spec("1,3,5,7 mod 8 [(+2 mod 4)]"), 24)
        rewritten = expand(PeriodicProduct(8, (0, -1, -1, -1, 1, -1, -1, -1)), 24)
        assert with_plus == rewritten

    @settings(deadline=None)
    @given(
        modulus=st.integers(1, 6),
        exponent=st.integers(-12, 12),
        plus=st.integers(-12, 12),
        degree=st.integers(0, 30),
    )
    def test_large_exponents_match_unit_passes(self, modulus, exponent, plus, degree):
        # |exponent| past the binomial switch on every factor index j
        product = PeriodicProduct(
            modulus, (exponent,) * modulus, plus_factors=(PlusFactor(1, 2, plus),)
        )
        coeffs = [1] + [0] * degree
        for j in range(1, degree + 1):
            coeffs = unit_factor_passes(coeffs, j, exponent, -1)
            if j % 2:
                coeffs = unit_factor_passes(coeffs, j, plus, +1)
        assert expand(product, degree) == tuple(coeffs)

    @settings(deadline=None)
    @given(product=mixed_products(), degree=st.integers(0, 60))
    def test_descending_passes_match_ascending_reference(self, product, degree):
        # expand applies j = degree down to 1; the reference goes up, one
        # unit factor at a time, with plus factors as (1 + q^j) passes
        coeffs = [1] + [0] * degree
        for j in range(1, degree + 1):
            coeffs = unit_factor_passes(coeffs, j, product.effective_exponent(j), -1)
            for pf in product.plus_factors:
                if j % pf.modulus == pf.residue:
                    coeffs = unit_factor_passes(coeffs, j, pf.exponent, +1)
        assert expand(product, degree) == tuple(coeffs)

    @pytest.mark.parametrize("product", [
        even_width_product((2, 1, 0, 0, 1)),  # mod 17, exponents -3..0
        PeriodicProduct(2, (-5, -5)),  # 10-colored partitions, |e| = 5
    ], ids=["mod17", "colored-w10"])
    def test_deep_expansion_matches_euler_recurrence(self, product):
        # at N = 600 divides run down residue chains for j <= 24 and block by
        # block above; |e| = 5 takes the binomial pass for j > 300, and the
        # fit multiplies back exponents up to 5
        n = 600
        exponents = tuple(-e for e in product.factor_exponents(n))
        series = expand(product, n)
        assert series == euler_product(exponents, n)
        assert fit_exponents(series).exponents == exponents

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
            assert min(expand(product, 30)) >= 0


@st.composite
def products_and_degrees(draw):
    """A product with 0-3 plus factors and a degree N <= 40, with N >= 2 * its
    period when it has no plus factors."""
    modulus = draw(st.integers(1, 8))
    plus = draw(st.lists(st.tuples(
        st.integers(1, 6).flatmap(lambda m: st.tuples(st.integers(0, m - 1), st.just(m))),
        st.integers(-3, 3),
    ), max_size=3))
    product = PeriodicProduct(
        modulus,
        tuple(draw(st.lists(st.integers(-2, 2), min_size=modulus, max_size=modulus))),
        global_all=draw(st.integers(-2, 0)),
        global_odd=draw(st.integers(-2, 0)),
        plus_factors=tuple(PlusFactor(r, m, e) for (r, m), e in plus),
    )
    return product, draw(st.integers(0 if plus else 2 * product.period, 40))


def consistent_period(exponents, m):
    """Reference period rule: e_j depends only on j mod m over j = 1..N."""
    seen = {}
    for j, e in enumerate(exponents, start=1):
        r = j % m
        if r in seen:
            if seen[r] != e:
                return False
        else:
            seen[r] = e
    return True


class TestFitExponents:
    @settings(deadline=None)
    @given(products_and_degrees())
    def test_fit_inverts_expand(self, case):
        product, n = case
        fitted = fit_exponents(expand(product, n))
        assert fitted.exponents == tuple(-e for e in product.factor_exponents(n))
        if not product.plus_factors:
            # N >= 2 * period, so by Fine-Wilf the smallest period divides it;
            # a folded plus factor may only repeat at twice its modulus
            assert product.period % fitted.detected_period == 0

    @settings(deadline=None)
    @given(
        block=st.lists(st.integers(-2, 2), min_size=1, max_size=8),
        n=st.integers(0, 40),
        change=st.none() | st.tuples(st.integers(0, 39), st.integers(-2, 2)),
    )
    def test_period_rule_matches_reference(self, block, n, change):
        exponents = [block[t % len(block)] for t in range(n)]
        if change is not None and change[0] < n:
            exponents[change[0]] = change[1]
        series = euler_product(exponents, n)
        for max_modulus in range(1, 11):
            expected = None, None
            for m in range(1, min(max_modulus + 1, n)):
                if consistent_period(exponents, m):
                    expected = (m if n >= 2 * m else None), m
                    break
            fitted = fit_exponents(series, max_modulus=max_modulus)
            assert fitted.exponents == tuple(exponents)
            assert (fitted.detected_period, fitted.candidate_period) == expected

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

    @settings(deadline=None)
    @given(st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=40))
    def test_fit_rebuilds_any_unit_series(self, tail):
        # non-product series: e_j grows roughly geometrically in j
        series = (1, *tail)
        fitted = fit_exponents(series)
        assert euler_product(fitted.exponents, len(tail)) == series

    def test_no_vacuous_candidate_period(self):
        # every sequence of N terms is consistent with period N
        fitted = fit_exponents((1, 2, 5, 14, 42, 132))  # e = 2,2,6,16,50
        assert (fitted.detected_period, fitted.candidate_period) == (None, None)
        short = fit_exponents((1, 3))
        assert (short.detected_period, short.candidate_period) == (None, None)

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
        for series in [(2, 1, 1), (), []]:
            with pytest.raises(ValueError):
                fit_exponents(series)

    def test_reproduces_series(self):
        series = expand(parse_residue_spec("odd; 2,4,5,6,8 mod 10"), 18)
        fitted = fit_exponents(series)
        # one residue class per factor index j = 1..18 rebuilds the product
        rebuilt = PeriodicProduct(19, (0,) + tuple(-e for e in fitted.exponents))
        assert expand(rebuilt, 18) == series
