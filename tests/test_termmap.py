"""Property tests of the term-map core both polynomial rings share.

The ring axioms and ``pow`` are checked for ``SparsePoly`` and for
``MixedElement`` alike; evaluation at a rational point must be a ring
homomorphism, each sign mask a ring automorphism with xor as composition,
and the polynomial wire format must round-trip.  The two rings do not mix.
"""

import json
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowerlab.mixedring import MixedElement, apply_sign
from flowerlab.ratpoly import SparsePoly, TermMap
from oracles import compact_json, poly_from_json

COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def polys(n):
    monos = st.tuples(*[st.integers(0, 3)] * n)
    return st.builds(SparsePoly, st.just(n), st.dictionaries(monos, COEFFS, max_size=4))


def mixed(n):
    keys = st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.integers(0, (1 << n) - 1))
    return st.builds(MixedElement, st.just(n), st.dictionaries(keys, COEFFS, max_size=4))


def triples(ring):
    return st.integers(1, 3).flatmap(lambda n: st.tuples(ring(n), ring(n), ring(n)))


RING_TRIPLES = st.one_of(triples(polys), triples(mixed))


def one(a):
    return SparsePoly.one(a.nvars) if isinstance(a, SparsePoly) else MixedElement.one(a.nvars)


def test_both_rings_share_the_core():
    shared = ("__init__", "zero", "const", "one", "__add__", "__sub__", "__neg__", "__pow__",
              "__eq__", "__hash__", "_raw")
    for ring in (SparsePoly, MixedElement):
        assert issubclass(ring, TermMap)
        assert "__mul__" in ring.__dict__
        for name in shared:
            assert name not in ring.__dict__
    assert "_lift" not in SparsePoly.__dict__
    assert not hasattr(MixedElement, "scalar")


def test_constructor_checks_keys_first_and_coerces_coefficients():
    bad_keys = [(SparsePoly, 2, (1,)), (SparsePoly, 1, (-1,)), (SparsePoly, 1, (2**63,)),
                (MixedElement, 2, ((1,), 0)), (MixedElement, 2, ((0, 0), 4)),
                (MixedElement, 1, ((0,), -1)),
                # bools and other non-ints are no exponents or sine masks: a
                # (True,) key would be written as invalid JSON
                (SparsePoly, 1, (True,)), (SparsePoly, 1, (1.0,)),
                (MixedElement, 1, ((True,), 0)), (MixedElement, 1, ((0,), True)),
                (MixedElement, 1, ((0,), "1")), (MixedElement, 1, ((0,), 1.0))]
    for ring, n, key in bad_keys:
        for coeff in (1, 0):
            with pytest.raises(ValueError):
                ring(n, {key: coeff})
    for ring, low in ((SparsePoly, 0), (MixedElement, 1)):
        ring(low)
        with pytest.raises(ValueError, match=f"variable count must be at least {low}"):
            ring(low - 1)
        # A float arity must not build: its repr would raise TypeError.
        for arity in (2.0, "2", None, True):
            with pytest.raises(ValueError, match="variable count must be an int"):
                ring(arity)
        with pytest.raises(ValueError, match="variable count must be an int"):
            ring(2.0, {(1, 0) if ring is SparsePoly else ((1, 0), 0): 1})
    coerced = dict(SparsePoly(1, {(1,): 0.5, (0,): Fraction(4, 2), (2,): Fraction(0)}).items())
    assert coerced == {(1,): Fraction(1, 2), (0,): 2} and type(coerced[(0,)]) is int
    assert dict(MixedElement.const(2, Fraction(6, 3)).items()) == {((0, 0), 0): 2}
    assert MixedElement.zero(2) == MixedElement(2) and not MixedElement.zero(2)


@settings(max_examples=100, deadline=None)
@given(RING_TRIPLES)
def test_ring_axioms(abc):
    a, b, c = abc
    zero = a - a
    assert not zero and zero.nvars == a.nvars
    assert a + zero == a and a * one(a) == a
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == a + (-b) == -(b - a)
    assert hash(a + b) == hash(b + a)


@settings(max_examples=100, deadline=None)
@given(RING_TRIPLES, RATIONALS, st.integers(-3, 3))
def test_scalars_and_integers(abc, r, k):
    a, b, _ = abc
    assert r * a == a * r == a * (one(a) * r)
    assert k + a == a + k == a + one(a) * k
    assert k - a == -(a - k)
    assert (r * a) * b == r * (a * b)
    assert 0 * a == a - a


@settings(max_examples=100, deadline=None)
@given(RING_TRIPLES, st.integers(0, 4))
def test_pow_is_repeated_product(abc, k):
    a = abc[0]
    want = one(a)
    for _ in range(k):
        want = want * a
    assert a**k == want


def test_pow_rejects_bad_exponents():
    for a in (SparsePoly.variable(2, 0), MixedElement.y_var(2, 0)):
        for bad in (-1, 1.5, Fraction(1, 2)):
            with pytest.raises(ValueError):
                a**bad


def test_mixing_the_two_rings_is_a_type_error():
    p = SparsePoly.variable(2, 0) + 1
    y = MixedElement.y_var(2, 1)
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((p, y), (y, p)):
            with pytest.raises(TypeError):
                op(a, b)
    assert p != MixedElement.x_var(2, 0) + 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3).flatmap(
    lambda n: st.tuples(polys(n), polys(n), st.lists(RATIONALS, min_size=n, max_size=n))))
def test_evaluate_is_a_ring_homomorphism(case):
    a, b, point = case
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a - b).evaluate(point) == a.evaluate(point) - b.evaluate(point)
    assert (a**2).evaluate(point) == a.evaluate(point) ** 2
    assert SparsePoly.one(a.nvars).evaluate(point) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    mixed(n), mixed(n), st.integers(0, (1 << (n - 1)) - 1), st.integers(0, (1 << (n - 1)) - 1))))
def test_apply_sign_is_a_ring_automorphism(case):
    a, b, g, h = case
    assert apply_sign(g, a * b) == apply_sign(g, a) * apply_sign(g, b)
    assert apply_sign(g, a + b) == apply_sign(g, a) + apply_sign(g, b)
    assert apply_sign(g, one(a)) == one(a)
    assert apply_sign(g, apply_sign(h, a)) == apply_sign(g ^ h, a)
    assert apply_sign(g, apply_sign(g, a)) == a


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3).flatmap(polys))
def test_wire_format_round_trips(poly):
    text = compact_json(poly)
    back = poly_from_json(json.loads(text))
    assert back == poly
    assert compact_json(back) == text
    assert json.loads(text)["vars"] == [f"x{i + 1}" for i in range(poly.nvars)]
