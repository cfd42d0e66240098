"""QuadraticValue records read as numbers through the tests' ``Surd``.

A record a + b*sqrt(r) keeps its radicand as built (no square part is
pulled out), so one number has many records; these tests check that every
record of a number is the same number, and check ``Surd`` itself.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowerlab.soddy import QuadraticValue, solve_radii, sqrt_exact
from oracles import Surd, surd_of as surd

Q = QuadraticValue.make

RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=30)
NONZERO = RATIONALS.filter(lambda v: v != 0)
RADICANDS = st.one_of(
    st.integers(1, 300).map(Fraction),
    st.fractions(min_value=Fraction(1, 40), max_value=50, max_denominator=40),
)


def approx(v: Surd) -> float:
    return QuadraticValue(v.a, v.b, v.d).approx()


def magnitude(v: Surd) -> float:
    """|a| + |b*sqrt(d)|: the scale of the float error in approx()."""
    return abs(float(v.a)) + math.sqrt(float(v.b * v.b * v.d))


@given(RATIONALS, RATIONALS, RADICANDS, NONZERO)
def test_square_factors_move_between_coef_and_radicand(b, c, r, s):
    x, y = Q(b, c, r * s * s), Q(b, c * abs(s), r)
    assert surd(x) == surd(y) and x.is_rational == y.is_rational
    assert math.isclose(x.approx(), y.approx(), rel_tol=1e-12, abs_tol=1e-12)


@given(RATIONALS, NONZERO, RADICANDS, NONZERO)
def test_sign_of_coef_separates_conjugates(b, c, r, s):
    assume(sqrt_exact(r) is None)
    x, y = surd(Q(b, c, r * s * s)), surd(Q(b, -c * abs(s), r))
    conjugate = surd(Q(b, -c, r * s * s))
    assert x != y and conjugate == y
    assert x - conjugate != 0 and x + conjugate == 2 * b


@given(RATIONALS, RATIONALS, RATIONALS, RATIONALS, RADICANDS)
def test_ring_operations_and_reciprocal_against_approx(a1, b1, a2, b2, r):
    x, y = surd(Q(a1, b1, r)), surd(Q(a2, b2, r))
    fx, fy = approx(x), approx(y)
    scale = magnitude(x) + magnitude(y)
    assert math.isclose(approx(x + y), fx + fy, abs_tol=1e-12 * (1 + scale))
    assert math.isclose(approx(x - y), fx - fy, abs_tol=1e-12 * (1 + scale))
    assert math.isclose(approx(x * y), fx * fy, abs_tol=1e-12 * (1 + scale) ** 2)
    assert (x - y) + y == x and x * y == y * x
    if x != 0:
        inv = x.reciprocal()
        assert x * inv == 1
        if abs(fx) > 1e-6 * magnitude(x):
            assert math.isclose(approx(inv), 1 / fx, rel_tol=1e-6)
    else:
        with pytest.raises(ZeroDivisionError):
            x.reciprocal()


@given(RATIONALS, NONZERO, RADICANDS)
def test_sign_agrees_with_approx(b, c, r):
    x = surd(Q(b, c, r))
    f = approx(x)
    if abs(f) > 1e-9 * magnitude(x):
        assert x.sign() == (1 if f > 0 else -1)
    assert (x - x).sign() == 0


def test_large_prime_square_factor():
    # Seven-digit primes: a square factor that trial division up to 10^6
    # could not see.
    p, q, r = 1000003, 1000033, 1000037
    x, y = Q(0, 1, p * p * q * r), Q(0, p, q * r)
    assert surd(x) == surd(y)
    assert math.isclose(x.approx(), y.approx(), rel_tol=1e-15)


def test_values_print_as_built():
    report = solve_radii((Fraction(-1, 2),) * 3)
    objs = sorted((c.r1.to_obj() for c in report.candidates), key=lambda o: o["coef"])
    assert [(o["base"], o["coef"], o["radicand"]) for o in objs] == [
        ("3", "-1/24", "6912"), ("3", "1/24", "6912")
    ]
    assert all(surd(c.r1) == Surd(3, 2 if c.r1.coef > 0 else -2, 3) for c in report.candidates)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-10**55, 10**55), min_size=3, max_size=3),
       st.integers(10**59, 10**60 - 1))
def test_sixty_digit_solve_has_exact_roots(offsets, den):
    # Perturbations of the symmetric triple (-1/2, -1/2, -1/2) with 60-digit
    # denominators; the r1 quadratic has two real irrational roots there.
    xs = [Fraction(-1, 2) + Fraction(o, den) for o in offsets]
    report = solve_radii(xs)
    json.dumps(report.to_obj())
    qa, qb, qc = report.quadratic
    assert len(report.candidates) == 2
    for cand in report.candidates:
        b, c, d = cand.r1.base, cand.r1.coef, cand.r1.radicand
        # r1 = b + c*sqrt(d) is a root of qa*r^2 + qb*r + qc, both parts exactly.
        assert qa * (b * b + c * c * d) + qb * b + qc == 0
        assert (2 * qa * b + qb) * c == 0
        assert cand.equations_ok
