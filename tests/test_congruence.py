import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from colorparts.congruence import (
    PeriodicProduct,
    PlusFactor,
    ResidueSpecError,
    build_scheme,
    build_triangle,
    even_width_product,
    lepowsky_product,
    parse_residue_spec,
    residue_class_text,
)
from colorparts.qseries import expand

from known_identities import EVEN_ROWS, ODD_ROWS


class TestScheme:
    def test_worked_example(self):
        assert build_scheme((3, 2, 1, 1, 2)) == (3, 5, 6, 7, 9, 11, 12, 13, 15)

    def test_singleton(self):
        assert build_scheme((2,)) == (2,)

    def test_unit_increments(self):
        assert build_scheme((3, 1, 1)) == (3, 4, 5, 6, 7)

    def test_structure_invariants(self):
        rng = random.Random(7)
        for _ in range(100):
            seed = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 6)))
            values = build_scheme(seed)
            rank = len(seed) - 1
            assert len(values) == 2 * rank + 1
            assert values[0] == seed[0]
            assert values[-1] == 2 * sum(seed) - seed[0]
            increments = tuple(b - a for a, b in zip(values, values[1:]))
            assert increments == seed[1:] + seed[:0:-1]
            assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [(), (0,), (1, -1), (2, 0, 1)])
    def test_rejects_bad_seeds(self, bad):
        with pytest.raises(ValueError):
            build_scheme(bad)


class TestTriangle:
    def test_worked_example(self):
        triangle = build_triangle((2, 1, 1, 2))
        expected = Counter(
            [2, 3, 4, 6, 8, 9, 10] + [1, 2, 4, 6, 7] + [1, 3, 5] + [2]
        )
        assert Counter(triangle) == expected

    def test_single_row(self):
        assert build_triangle((4,)) == (4,)

    def test_tiny(self):
        assert build_triangle((1, 1)) == (1, 1, 2, 3)

    def test_cardinality_exhaustive(self):
        # all seeds with rank <= 5 and entries in 1..4
        for rank in range(1, 6):
            count = 0
            stack = [()]
            while stack:
                seed = stack.pop()
                if len(seed) == rank:
                    assert len(build_triangle(seed)) == rank * rank
                    count += 1
                else:
                    stack.extend(seed + (v,) for v in range(1, 5))
            assert count == 4 ** rank

    def test_elimination_rule(self):
        # dropping the endpoints of a scheme and subtracting its first seed
        # entry gives the scheme of the shortened seed
        rng = random.Random(11)
        for _ in range(100):
            seed = tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 6)))
            outer = build_scheme(seed)
            inner = tuple(v - seed[0] for v in outer[1:-1])
            assert inner == build_scheme(seed[1:])


ODD_WORKED_NETS = (0, -3, -1, -2, -2, -3, -1, -3, -2, -2, -2, -3, -1, -3, -2, -2, -1, -3)
EVEN_WORKED_NETS = (0, -2, -1, -2, -2, -3, -2, -2, -2, -2, -2, -2, -3, -2, -2, -1, -2)


class TestOddWidthProduct:
    def test_worked_mod_18(self):
        product = lepowsky_product((2, 1, 0, 0, 1))
        assert product.modulus == 18
        net = product.net_residue_exponents()
        assert net[1] == -3  # three generating colors for parts = 1 mod 18
        assert net == ODD_WORKED_NETS

    def test_level_two_mod_10(self):
        # hand evaluation with scheme (3,1,1) and triangle of (1,1)
        net = lepowsky_product((2, 0, 0)).net_residue_exponents()
        assert net == (0, -1, -1, -1, -1, -2, -1, -1, -1, -1)

    def test_no_class_at_zero(self):
        for weights, _ in ODD_ROWS:
            assert lepowsky_product(weights).net_residue_exponents()[0] == 0

    def test_rejects_zero_level(self):
        with pytest.raises(ValueError):
            lepowsky_product((0, 0, 0))

    def test_rejects_low_rank(self):
        with pytest.raises(ValueError):
            lepowsky_product((1, 0))


class TestEvenWidthProduct:
    def test_rogers_ramanujan_pair(self):
        assert even_width_product((1, 0)).net_residue_exponents() == (0, 0, -1, -1, 0)
        assert even_width_product((0, 1)).net_residue_exponents() == (0, -1, 0, 0, -1)

    def test_worked_mod_17(self):
        product = even_width_product((2, 1, 0, 0, 1))
        assert product.modulus == 17
        assert product.net_residue_exponents() == EVEN_WORKED_NETS

    def test_no_class_at_zero(self):
        for weights, _ in EVEN_ROWS:
            assert even_width_product(weights).net_residue_exponents()[0] == 0

    def test_rejects_zero_level(self):
        with pytest.raises(ValueError):
            even_width_product((0, 0))


class TestCatalogProducts:
    """The structured builders and the listed residue notations must agree as
    series, not just as exponent tables, since a few rows use (1+q^j) forms."""

    @pytest.mark.parametrize("weights,text", ODD_ROWS, ids=str)
    def test_odd_rows_match(self, weights, text):
        built = expand(lepowsky_product(weights), 20)
        listed = expand(parse_residue_spec(text), 20)
        assert built == listed

    @pytest.mark.parametrize("weights,text", EVEN_ROWS, ids=str)
    def test_even_rows_match(self, weights, text):
        built = expand(even_width_product(weights), 20)
        listed = expand(parse_residue_spec(text), 20)
        assert built == listed

    def test_catalog_expansions_nonnegative_to_30(self):
        for weights, _ in ODD_ROWS:
            assert min(expand(lepowsky_product(weights), 30)) >= 0
        for weights, _ in EVEN_ROWS:
            assert min(expand(even_width_product(weights), 30)) >= 0


class TestParseResidueSpec:
    def test_odd_global_with_classes(self):
        product = parse_residue_spec("odd; 2,4,5,6,8 mod 10")
        assert product.modulus == 10
        assert product.global_all == 0
        assert product.global_odd == -1
        assert product.residue_exponents == (0, 0, -1, 0, -1, -1, -1, 0, -1, 0)

    def test_bare_classes(self):
        product = parse_residue_spec("1,4 mod 5")
        assert product.residue_exponents == (0, -1, 0, 0, -1)
        assert product.global_all == product.global_odd == 0

    def test_all_and_odd_globals(self):
        product = parse_residue_spec("all, odd; 1,4,6,8,10,13 mod 14")
        assert product.global_all == -1
        assert product.global_odd == -1
        assert product.residue_exponents[1] == -1
        assert product.residue_exponents[13] == -1

    def test_repeated_classes_accumulate(self):
        product = parse_residue_spec("1,1,3 mod 10")
        assert product.residue_exponents[1] == -2
        assert product.residue_exponents[3] == -1

    def test_globals_only(self):
        product = parse_residue_spec("odd, odd; mod 6")
        assert product.global_odd == -2
        assert product.residue_exponents == (0,) * 6

    def test_plus_factor_suffix(self):
        product = parse_residue_spec("1,3,5,7 mod 8 [(+2 mod 4)]")
        assert product.plus_factors == (PlusFactor(2, 4, 1),)
        squared = parse_residue_spec("mod 8 [(+2 mod 4)^2 (+0 mod 3)^-1]")
        assert squared.plus_factors == (PlusFactor(2, 4, 2), PlusFactor(0, 3, -1))

    def test_unreduced_residue_position(self):
        for text, message, position in [
            ("1,12 mod 10", "residue 12 not reduced mod 10", 2),
            ("17 mod 5", "residue 17 not reduced mod 5", 0),
            ("1 mod 0", "modulus must be >= 1", 6),
            ("all; 1 mod 5 [(+7 mod 4)]", "residue 7 not reduced mod 4", 16),
            ("mod 5 [(+1 mod 0)]", "modulus must be >= 1", 15),
        ]:
            with pytest.raises(ResidueSpecError) as err:
                parse_residue_spec(text)
            assert err.value.position == position
            assert str(err.value) == f"{message} (at position {position})"

    def test_malformed_inputs(self):
        # a syntax error points at the first non-blank character of the
        # clause that fails to match
        for bad, position in [
            ("", 0), ("mod", 0), ("1,2", 3), ("odd 1 mod 5", 0), ("1;2 mod 5", 1),
            ("1 mod 5 x", 8), ("1 mod 0", 6), ("all; 1 mod 5 [(+7 mod 4)]", 16),
            ("1 mod 5 [(2 mod 3)]", 9), ("mod 5 [(+1 mod 2)^x]", 7), ("1 mod 5 @", 8),
        ]:
            with pytest.raises(ResidueSpecError) as err:
                parse_residue_spec(bad)
            assert err.value.position == position
        # numbers past 10**6 are refused where they start, before conversion
        ones = "1" * 5000
        for bad, position in [
            (f"{ones} mod 5", 0), (f"mod 5 [(+1 mod 2)^{ones}]", 18),
            (f"mod 5 [(+1 mod 2)^-{ones}]", 19), ("1 mod 100000000000000000000", 6),
            ("1 mod 1000001", 6), (f"1 mod 5 [(+{ones} mod 7)]", 11),
        ]:
            with pytest.raises(ResidueSpecError) as err:
                parse_residue_spec(bad)
            assert err.value.position == position
            assert str(err.value) == f"number must be <= 1000000 (at position {position})"
        assert parse_residue_spec("1 mod 0001000000").modulus == 10**6

    def test_whitespace_insensitive(self):
        a = parse_residue_spec("odd;2,4 mod 10")
        b = parse_residue_spec("  odd ;  2 , 4   mod 10 ")
        assert a == b

    @settings(deadline=None)
    @given(data=st.data())
    def test_grammar_specs_parse_to_their_draws(self, data):
        blank = st.sampled_from(["", " ", "  ", "\t", " \t "])

        def join(tokens):
            # random whitespace around every token, none of it required
            return "".join(data.draw(blank) + t for t in tokens) + data.draw(blank)

        modulus = data.draw(st.integers(1, 12), label="modulus")
        words = data.draw(st.lists(st.sampled_from(["all", "odd"]), max_size=3))
        classes = data.draw(st.lists(st.integers(0, modulus - 1), max_size=5))
        plus = data.draw(st.lists(st.tuples(
            st.integers(1, 6).flatmap(lambda m: st.tuples(st.integers(0, m - 1), st.just(m))),
            st.sampled_from(["", "^", "^-"]),
            st.integers(0, 3),
        ), max_size=3))
        tokens = []
        if words:
            tokens += [t for w in words for t in (w, ",")][:-1] + [";"]
        tokens += [t for r in classes for t in (str(r), ",")][:-1] + ["mod", str(modulus)]
        factors = []
        if plus or data.draw(st.booleans()):
            tokens.append("[")
            for (r, m), form, e in plus:
                tokens += ["(", "+", str(r), "mod", str(m), ")"]
                if form:
                    tokens += ["^"] + (["-"] if form == "^-" else []) + [str(e)]
                factors.append(PlusFactor(r, m, -e if form == "^-" else e if form else 1))
            tokens.append("]")
        exps = [0] * modulus
        for r in classes:
            exps[r] -= 1
        expected = PeriodicProduct(
            modulus, tuple(exps), -words.count("all"), -words.count("odd"), tuple(factors)
        )
        assert parse_residue_spec(join(tokens)) == expected

    @settings(deadline=None, max_examples=300)
    @given(
        tokens=st.lists(
            st.sampled_from(
                ["all", "odd", "mod", ";", ",", "(", ")", "[", "]", "^", "+", "-", " ", "x"]
                + [str(d) for d in range(10)]
            )
            # digit runs past the 4,300-digit limit of int(str)
            | st.builds(str.__mul__, st.sampled_from("0123456789"), st.integers(1, 5000)),
            max_size=16,
        )
    )
    def test_any_alphabet_string_parses_or_reports_a_position(self, tokens):
        text = "".join(tokens)
        try:
            product = parse_residue_spec(text)
        except ResidueSpecError as err:
            assert 0 <= err.position <= len(text)
        else:
            assert isinstance(product, PeriodicProduct)


class TestPeriodicProduct:
    def test_effective_exponent_semantics(self):
        product = PeriodicProduct(4, (0, -1, 0, -2), global_all=-1, global_odd=-1)
        assert product.effective_exponent(1) == -3  # -1 all, -1 odd, -1 class
        assert product.effective_exponent(2) == -1
        assert product.effective_exponent(3) == -4
        assert product.effective_exponent(4) == -1

    def test_factor_exponents_fold_plus_factors(self):
        # (1 + q^j) = (1 - q^2j) / (1 - q^j) over odd j: period 4, not 2
        product = PeriodicProduct(1, (0,), plus_factors=(PlusFactor(1, 2, 1),))
        assert product.factor_exponents(8) == (-1, 1, -1, 0, -1, 1, -1, 0)
        # E_2j past n is dropped; globals and classes come first
        product = PeriodicProduct(3, (0, -1, 0), global_odd=-1,
                                  plus_factors=(PlusFactor(0, 3, -2),))
        assert product.factor_exponents(7) == (-2, 0, 1, -1, -1, 0, -2)
        assert product.factor_exponents(0) == ()

    def test_net_exponents_need_even_modulus_for_odd_global(self):
        with pytest.raises(ValueError):
            PeriodicProduct(5, (0,) * 5, global_odd=-1).net_residue_exponents()
        # fine when the odd global is absent
        assert PeriodicProduct(5, (0,) * 5).net_residue_exponents() == (0,) * 5

    def test_period_covers_every_factor(self):
        assert PeriodicProduct(5, (0,) * 5).period == 5
        assert PeriodicProduct(5, (0,) * 5, global_odd=-1).period == 10
        assert PeriodicProduct(10, (0,) * 10, global_odd=-1).period == 10
        assert parse_residue_spec("1,4 mod 5 [(+21 mod 30)]").period == 30
        assert parse_residue_spec("odd; 1 mod 3 [(+1 mod 4)]").period == 12

    def test_auto_products_have_period_equal_to_modulus(self):
        for product in (lepowsky_product((2, 1, 0)), even_width_product((2, 1, 0, 0, 1))):
            assert product.period == product.modulus

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicProduct(0, ())
        with pytest.raises(ValueError):
            PeriodicProduct(3, (0, 0))
        with pytest.raises(ValueError):
            PlusFactor(5, 4, 1)


class TestResidueClassText:
    def test_render(self):
        assert residue_class_text(5, (0, 0, 1, 1, 0)) == "2,3 mod 5"
        assert residue_class_text(10, (0, 2, 0, 1, 2, 0, 2, 1, 0, 2)) == (
            "1,1,3,4,4,6,6,7,9,9 mod 10"
        )
        assert residue_class_text(3, (0, 0, 0)) == "mod 3"

    def test_roundtrip_through_parser(self):
        multiplicities = (0, 2, 0, 1, 2, 0, 2, 1, 0, 2)
        text = residue_class_text(10, multiplicities)
        product = parse_residue_spec(text)
        assert tuple(-e for e in product.residue_exponents) == multiplicities

    @settings(deadline=None)
    @given(
        multiplicities=st.integers(1, 30).flatmap(
            lambda m: st.lists(st.integers(0, 3), min_size=m, max_size=m)
        )
    )
    def test_any_classes_round_trip(self, multiplicities):
        modulus = len(multiplicities)
        product = parse_residue_spec(residue_class_text(modulus, multiplicities))
        assert product == PeriodicProduct(modulus, tuple(-m for m in multiplicities))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            residue_class_text(2, (0, -1))
