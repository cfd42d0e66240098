"""Quotient-ring arithmetic, angle-sum expansions, sign automorphisms and
the norm steps f * g(f) of the sign towers."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowerlab.mixedring import (
    MixedElement,
    apply_sign,
    cos_sin_over_slots,
    point_norm,
    point_squares,
    poly_at_mixed,
    sign_norm,
)
from flowerlab.ratpoly import SparsePoly
from oracles import angle_sum_cos_sin_direct, point_mul, point_sign


def x(n, i):
    return MixedElement.x_var(n, i)


def y(n, i):
    return MixedElement.y_var(n, i)


def test_sine_square_reduces():
    one_minus_x2 = MixedElement.one(1) - x(1, 0) * x(1, 0)
    assert y(1, 0) * y(1, 0) == one_minus_x2
    assert y(1, 0) ** 2 == one_minus_x2
    assert y(1, 0) ** 3 == one_minus_x2 * y(1, 0)


def test_multiplicative_identity():
    ec2 = cos_sin_over_slots(2, range(2))[0]
    assert ec2 * MixedElement.one(2) == ec2


def test_conjugate_pair_product_reduces():
    n = 2
    a = x(n, 0) * x(n, 1) - y(n, 0) * y(n, 1)
    b = x(n, 0) * x(n, 1) + y(n, 0) * y(n, 1)
    xx = SparsePoly.variable(n, 0) * SparsePoly.variable(n, 1)
    want = xx * xx - (SparsePoly.one(n) - SparsePoly.variable(n, 0) ** 2) * (
        SparsePoly.one(n) - SparsePoly.variable(n, 1) ** 2
    )
    assert (a * b).to_poly() == want


def test_angle_sum_base_cases():
    ec1, es1 = cos_sin_over_slots(1, range(1))
    assert ec1 == x(1, 0) and es1 == y(1, 0)
    ec2, es2 = cos_sin_over_slots(2, range(2))
    assert ec2 == x(2, 0) * x(2, 1) - y(2, 0) * y(2, 1)
    assert es2 == x(2, 1) * y(2, 0) + x(2, 0) * y(2, 1)
    ec3 = cos_sin_over_slots(3, range(3))[0]
    expect = (
        x(3, 0) * x(3, 1) * x(3, 2)
        - x(3, 0) * y(3, 1) * y(3, 2)
        - y(3, 0) * x(3, 1) * y(3, 2)
        - y(3, 0) * y(3, 1) * x(3, 2)
    )
    assert ec3 == expect


def test_direct_construction_agrees_with_recursive():
    for n in range(1, 7):
        assert cos_sin_over_slots(n, range(n)) == angle_sum_cos_sin_direct(n)


def test_pythagorean_identity_in_quotient():
    for n in range(1, 6):
        ec, es = cos_sin_over_slots(n, range(n))
        assert ec * ec + es * es == MixedElement.one(n)


def test_term_parity_of_expansions():
    for n in range(1, 7):
        ec, es = cos_sin_over_slots(n, range(n))
        assert all(bin(ybits).count("1") % 2 == 0 for (_, ybits), _ in ec.items())
        assert all(bin(ybits).count("1") % 2 == 1 for (_, ybits), _ in es.items())


def test_generator_flips_adjacent_pair():
    n = 2
    assert apply_sign(0b1, y(n, 0) * y(n, 1)) == -(y(n, 0) * y(n, 1))
    n = 3
    pure = x(n, 0) * x(n, 1) * x(n, 2)
    for gens in range(1 << (n - 1)):
        assert apply_sign(gens, pure) == pure


def test_sign_action_on_three_angle_expansion():
    # The generator on the (2,3) pair fixes y1*y2 and flips the other two.
    n = 3
    ec3 = cos_sin_over_slots(3, range(3))[0]
    flipped = apply_sign(0b10, ec3)
    expect = (
        x(n, 0) * x(n, 1) * x(n, 2)
        + x(n, 0) * y(n, 1) * y(n, 2)
        + y(n, 0) * x(n, 1) * y(n, 2)
        - y(n, 0) * y(n, 1) * x(n, 2)
    )
    assert flipped == expect


def test_sign_mask_validation():
    for gens in (-1, 0b1000, 0b1111):
        with pytest.raises(ValueError):
            apply_sign(gens, MixedElement.one(4))
        with pytest.raises(ValueError):
            sign_norm(gens, MixedElement.one(4))
        with pytest.raises(ValueError):
            point_norm(gens, 4, {0: 1}, [1] * 16)
    with pytest.raises(ValueError):
        apply_sign(1, MixedElement.one(1))
    assert apply_sign(0, MixedElement.one(1)) == MixedElement.one(1)


@pytest.mark.parametrize("gens", [True, 1.0])
def test_sign_maps_refuse_a_mask_that_is_not_an_int(gens):
    with pytest.raises(ValueError, match=f"sign mask {gens!r} out of range for 3 variables"):
        apply_sign(gens, MixedElement.one(3))
    with pytest.raises(ValueError, match=f"sign mask {gens!r} out of range for 3 variables"):
        point_sign(gens, 3, {0: 1})
    with pytest.raises(ValueError, match=f"sign mask {gens!r} out of range for 3 variables"):
        sign_norm(gens, MixedElement.one(3))
    with pytest.raises(ValueError, match=f"sign mask {gens!r} out of range for 3 variables"):
        point_norm(gens, 3, {0: 1}, [1] * 8)


def test_to_poly_extraction_and_error():
    n = 1
    elem = MixedElement.one(1) - y(n, 0) * y(n, 0) - x(n, 0) * x(n, 0)
    assert elem.to_poly() == SparsePoly.zero(1)
    with pytest.raises(ValueError, match="residual sine"):
        y(1, 0).to_poly()


def test_closure_product_for_two_angles():
    # prod over the sign group of (cos expansion - 1) collapses to (x1-x2)^2
    ec2 = cos_sin_over_slots(2, range(2))[0]
    prod = MixedElement.one(2)
    for gens in range(2):
        prod = prod * (apply_sign(gens, ec2) - 1)
    x1 = SparsePoly.variable(2, 0)
    x2 = SparsePoly.variable(2, 1)
    assert prod.to_poly() == (x1 - x2) * (x1 - x2)


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        MixedElement.one(2) + MixedElement.one(3)
    with pytest.raises(ValueError):
        MixedElement.one(2) * MixedElement.one(3)
    for exps in ((1, 0), (-1,), (1.5,)):
        with pytest.raises(ValueError):
            MixedElement(1, {(exps, 0): 1})


def test_poly_at_mixed_substitution():
    # Replacing the last variable of (x2 - x1) by the two-angle cosine
    # expansion and multiplying the conjugates gives the 3-petal polynomial.
    p2 = SparsePoly(2, {(0, 1): 1, (1, 0): -1})
    n = 3
    w = cos_sin_over_slots(n, (1, 2))[0]
    a = poly_at_mixed(p2, [x(n, 0), w])
    b = apply_sign(0b10, a)
    p3 = SparsePoly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 1): -2, (0, 0, 0): -1})
    assert (a * b).to_poly() == p3


def test_pretty_prints_cosines_before_sines_in_degree_order():
    ec, es = cos_sin_over_slots(3, range(3))
    assert ec.pretty() == "x1*x2*x3-x1*y2*y3-x2*y1*y3-x3*y1*y2"
    assert es.pretty() == "x1*x2*y3+x1*x3*y2+x2*x3*y1-y1*y2*y3"
    elem = MixedElement(2, {((1, 0), 2): Fraction(-3, 2), ((0, 0), 0): Fraction(1, 3)})
    assert repr(elem) == "MixedElement(2, '-3/2*x1*y2+1/3')"
    assert MixedElement.zero(2).pretty() == "0"
    assert (MixedElement.x_var(2, 1) ** 3 - MixedElement.one(2)).pretty() == "x2^3-1"


# -- norm steps ---------------------------------------------------------------

COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)


def elements(n):
    keys = st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.integers(0, (1 << n) - 1))
    return st.builds(MixedElement, st.just(n), st.dictionaries(keys, COEFFS, max_size=10))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(elements))
@example(MixedElement.zero(2))
@example(MixedElement.zero(4))
def test_sign_norm_is_the_product_with_the_conjugate(f):
    for g in range(1 << (f.nvars - 1)):
        assert sign_norm(g, f) == f * apply_sign(g, f)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4).flatmap(elements))
def test_sign_norm_of_a_fixed_or_a_negated_element(f):
    # (f + g(f))/2 holds the terms g fixes, (f - g(f))/2 those it negates.
    for g in range(1, 1 << (f.nvars - 1)):
        conjugate = apply_sign(g, f)
        fixed, negated = (f + conjugate) * Fraction(1, 2), (f - conjugate) * Fraction(1, 2)
        assert sign_norm(g, fixed) == fixed * fixed == fixed * apply_sign(g, fixed)
        assert sign_norm(g, negated) == -(negated * negated) == negated * apply_sign(g, negated)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sign_norm_of_angle_sums(n):
    ec, es = cos_sin_over_slots(n, range(n))
    for g in range(1 << (n - 1)):
        for f in (ec, es, ec - 1, ec * Fraction(2, 3) + es):
            assert sign_norm(g, f) == f * apply_sign(g, f)


POINT_CASES = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(st.integers(0, (1 << n) - 1), st.integers(-10**20, 10**20), max_size=1 << n),
    st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
             min_size=n, max_size=n),
))


@settings(max_examples=100, deadline=None)
@given(POINT_CASES)
def test_point_norm_is_the_product_with_the_conjugate(case):
    n, f, points = case
    squares = point_squares(points)
    for g in range(1 << (n - 1)):
        assert point_norm(g, n, f, squares) == point_mul(f, point_sign(g, n, f), squares)
