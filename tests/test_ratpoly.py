"""Ring operations, evaluation, specialization and serialization of SparsePoly."""

import json
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowerlab.ratpoly import (
    SparsePoly,
    format_rational,
    parse_rational,
    poly_dumps,
    poly_from_obj,
    poly_to_obj,
)
from oracles import evaluate_by_fractions

F = Fraction


def random_poly(rng, nvars, max_terms=5, max_exp=3, coeff_range=6):
    """Small random polynomial with negative, fractional and cancelling
    coefficients."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_exp + 1) for _ in range(nvars))
        num = rng.randrange(-coeff_range, coeff_range + 1)
        terms[exps] = terms.get(exps, 0) + F(num, rng.randrange(1, 4))
    return SparsePoly(nvars, terms)


def var(n, i):
    return SparsePoly.variable(n, i)


P3 = SparsePoly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 1): -2, (0, 0, 0): -1})


def test_additive_inverse_keeps_arity():
    x1 = var(2, 0)
    z = x1 + (-x1)
    assert not z
    assert z.nvars == 2


def test_addition_merges_terms():
    x1, x2 = var(2, 0), var(2, 1)
    assert (x1 - 1) + (x2 - x1) == x2 - 1
    assert x1 * x1 + 2 * (x1 * x1) == 3 * x1 * x1


def test_product_square_and_identities():
    x1, x2 = var(2, 0), var(2, 1)
    sq = (x1 - x2) * (x1 - x2)
    assert sq == SparsePoly(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
    f = 3 * x1 * x2 - 7
    assert f * SparsePoly.one(2) == f
    assert (x1 - 1) * (x1 + 1) == x1 * x1 - 1


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        var(2, 0) + var(3, 0)
    with pytest.raises(ValueError):
        var(2, 0) * var(3, 0)


def test_evaluate_known_roots():
    assert P3.evaluate([F(-3, 5), F(-9, 41), F(-133, 205)]) == 0
    assert P3.evaluate([F(-204, 325), F(-152, 377), F(-333, 725)]) == 0
    rng = random.Random(1)
    for _ in range(25):
        t = F(rng.randrange(-50, 50), rng.randrange(1, 30))
        assert P3.evaluate([1, t, t]) == 0


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        P3.evaluate([F(1), F(1)])


COEFFICIENTS = st.one_of(
    st.integers(-10**9, 10**9),
    st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)
COORDINATES = st.one_of(
    st.just(0),
    st.integers(-10**12, 10**12),
    st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**30)),
)


def poly_and_point(nvars):
    monomials = st.tuples(*[st.integers(0, 6)] * nvars)
    return st.tuples(
        st.builds(SparsePoly, st.just(nvars), st.dictionaries(monomials, COEFFICIENTS, max_size=8)),
        st.lists(COORDINATES, min_size=nvars, max_size=nvars),
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(poly_and_point))
@example((SparsePoly.zero(2), [F(-1, 10**30), 0]))
@example((SparsePoly.const(3, F(-7, 3)), [0, -5, F(2, 3)]))
@example((SparsePoly.const(0, F(5, 4)), []))
@example((SparsePoly(2, {(3, 0): F(1, 6), (0, 2): F(-3, 4), (1, 1): 2}), [F(-5, 7), -3]))
def test_evaluate_matches_the_fraction_oracle(case):
    poly, point = case
    value = poly.evaluate(point)
    assert type(value) is Fraction
    assert value == evaluate_by_fractions(poly, point)


def test_evaluate_coerces_other_coordinates():
    poly = SparsePoly(2, {(2, 1): F(1, 3), (0, 0): -1})
    assert poly.evaluate([0.5, "2/7"]) == evaluate_by_fractions(poly, [F(1, 2), F(2, 7)])


def test_permute_swap_negates_difference():
    p2 = var(2, 1) - var(2, 0)  # x2 - x1
    assert p2.permute([1, 0]) == -p2
    assert p2.permute([0, 1]) == p2
    assert P3.permute([1, 2, 0]) == P3  # symmetric


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        P3.permute([0, 0, 1])
    with pytest.raises(ValueError):
        P3.permute([0, 1])


def test_degree_in():
    assert P3.degree_in(0) == 2
    c = SparsePoly.const(4, F(7, 2))
    assert all(c.degree_in(i) == 0 for i in range(4))
    assert SparsePoly.zero(3).degree_in(1) == 0
    f = var(2, 0) ** 3
    assert f.degree_in(1) == 0  # absent variable
    with pytest.raises(ValueError):
        P3.degree_in(3)


def test_coefficient_in_and_constant():
    f = P3
    assert f.coefficient_in(0, 2) == SparsePoly.one(2)
    assert f.coefficient_in(0, 1) == SparsePoly(2, {(1, 1): -2})
    assert f.constant() == -1


def test_specialize_contracts_arity():
    g = P3.specialize(1, 1)  # x2 := 1
    x1, x3 = var(2, 0), var(2, 1)
    assert g == (x3 - x1) * (x3 - x1)


def test_pow():
    x1 = var(2, 0)
    assert x1**0 == SparsePoly.one(2)
    assert (x1 + 1) ** 3 == x1**3 + 3 * x1**2 + 3 * x1 + 1
    with pytest.raises(ValueError):
        x1 ** (-1)


def test_exponent_validation():
    with pytest.raises(ValueError):
        SparsePoly(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        SparsePoly(2, {(1, 0, 0): 1})


def test_ring_axioms_on_random_samples():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.choice((1, 2, 3))
        a, b, c = (random_poly(rng, n) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.choice((1, 2, 3))
        a, b = random_poly(rng, n), random_poly(rng, n)
        point = [F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(n)]
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


def test_permute_is_ring_automorphism():
    rng = random.Random(44)
    for _ in range(200):
        a, b = random_poly(rng, 3), random_poly(rng, 3)
        perm = [0, 1, 2]
        rng.shuffle(perm)
        assert (a * b).permute(perm) == a.permute(perm) * b.permute(perm)
        assert (a + b).permute(perm) == a.permute(perm) + b.permute(perm)


def test_serialization_round_trip_is_canonical():
    rng = random.Random(45)
    for _ in range(200):
        f = random_poly(rng, rng.choice((1, 2, 3)))
        text = poly_dumps(f)
        g, names = poly_from_obj(json.loads(text))
        assert g == f
        assert poly_dumps(g, names) == text
    z = poly_dumps(SparsePoly.zero(4))
    assert json.loads(z)["terms"] == []
    assert poly_from_obj(json.loads(z))[0] == SparsePoly.zero(4)


def test_serialization_order_is_graded_lex_descending():
    obj = poly_to_obj(P3)
    exps = [tuple(t["e"]) for t in obj["terms"]]
    assert exps == [(1, 1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 0, 0)]
    keyed = [(sum(e), e) for e in exps]
    assert keyed == sorted(keyed, reverse=True)


def test_custom_var_names_round_trip():
    f = var(2, 0) * 2 - 1
    text = poly_dumps(f, ["r", "r1"])
    g, names = poly_from_obj(json.loads(text))
    assert names == ["r", "r1"]
    assert poly_dumps(g, names) == text


def test_pretty_matches_reference_style():
    assert P3.pretty() == "-2*x1*x2*x3+x1^2+x2^2+x3^2-1"
    assert SparsePoly.zero(2).pretty() == "0"
    f = SparsePoly(2, {(1, 0): F(3, 2), (0, 0): F(-1, 3)})
    assert f.pretty() == "3/2*x1-1/3"


def test_zero_polynomial_checks_its_names_like_poly_to_obj():
    zero = SparsePoly.zero(2)
    assert zero.pretty() == zero.pretty(["a", "b"]) == "0"
    for names in (["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="wrong length"):
            poly_to_obj(zero, names)
        with pytest.raises(ValueError, match="wrong length"):
            zero.pretty(names)


def test_rational_parse_and_format():
    assert parse_rational("-3/5") == F(-3, 5)
    assert parse_rational(" 7 ") == 7
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(-1, 3)) == "-1/3"
    with pytest.raises(ValueError):
        parse_rational("seven")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_parse_rational_accepts_only_p_and_p_over_q():
    assert parse_rational("+4/6") == F(2, 3)
    assert parse_rational("\t-12\n") == -12
    for bad in ("1e10000000", "1e6", "1.5", ".5", "1_000", "3/-4", "3/+4", "- 3",
                "3 / 4", "1/2/3", "", "inf", "nan", "٣"):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(bad)
    # int parsing's 4,300-digit limit bounds the size of what is accepted
    with pytest.raises(ValueError, match="not a rational number"):
        parse_rational("1" * 5000)
    assert parse_rational("1" * 4300) == int("1" * 4300)


def test_p5_fixture_parses():
    text = resources.files("flowerlab").joinpath("data/p5.json").read_text()
    poly, names = poly_from_obj(json.loads(text))
    assert names == ["x1", "x2", "x3", "x4", "x5"]
    assert poly_dumps(poly) + "\n" == text


def test_duplicate_monomial_rejected_in_json():
    bad = {"vars": ["x1"], "terms": [{"c": "1", "e": [1]}, {"c": "2", "e": [1]}]}
    with pytest.raises(ValueError):
        poly_from_obj(bad)


def test_json_rejects_malformed():
    bad = [
        {"terms": []},
        {"vars": ["x1"]},
        [],
        {"vars": ["x1"], "terms": [{"c": "one", "e": [1]}]},
        {"vars": ["x1"], "terms": [{"c": "1/0", "e": [1]}]},
        {"vars": ["x1"], "terms": [{"e": [1]}]},
        {"vars": ["x1"], "terms": [{"c": "1"}]},
        {"vars": ["x1"], "terms": [["1", [1]]]},
        {"vars": ["x1"], "terms": ["1"]},
        {"vars": ["x1"], "terms": [3]},
        {"vars": ["x1"], "terms": 5},
        {"vars": ["x1"], "terms": [{"c": "1", "e": 5}]},
        {"vars": ["x1"], "terms": [{"c": "1", "e": [None]}]},
        {"vars": ["x", "x"], "terms": [{"c": "1", "e": [1, 0]}]},
    ]
    for obj in bad:
        with pytest.raises(ValueError):
            poly_from_obj(obj)
