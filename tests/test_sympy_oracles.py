"""sympy as an independent oracle for the flower polynomials and their
exact evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowerlab.flowerpoly import flower_poly
from flowerlab.soddy import sqrt_exact
from oracles import Surd

sp = pytest.importorskip("sympy")


def to_sympy(poly, xs):
    return sp.Add(*[
        sp.Rational(c.numerator, c.denominator) * sp.Mul(*[x**e for x, e in zip(xs, exps)])
        for exps, c in poly.items()
    ])


def definitional_product(n, xs, ss):
    """The product of x_n - cos(t_1 + e_2*t_2 + ... + e_{n-1}*t_{n-1}) over
    all signs e, reduced by s_i^2 = 1 - x_i^2 (x_i = cos t_i, s_i = sin t_i)."""
    factors = []
    for signs in range(1 << max(n - 2, 0)):
        c, s = sp.Integer(1), sp.Integer(0)
        for i in range(n - 1):
            e = -1 if i and signs >> (i - 1) & 1 else 1
            c, s = c * xs[i] - e * s * ss[i], s * xs[i] + e * c * ss[i]
        factors.append(xs[n - 1] - c)
    relations = [si**2 + xi**2 - 1 for xi, si in zip(xs, ss)]
    _, remainder = sp.reduced(sp.expand(sp.Mul(*factors)), relations, *ss, *xs, order="lex")
    return remainder


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flower_poly_is_the_expanded_definitional_product(n):
    xs, ss = sp.symbols(f"x1:{n + 1}"), sp.symbols(f"s1:{n + 1}")
    product = definitional_product(n, xs, ss)
    assert not product.free_symbols & set(ss)
    assert sp.expand(product - to_sympy(flower_poly(n), xs)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_evaluate_matches_sympy_substitution(n):
    poly = flower_poly(n)
    xs = sp.symbols(f"x1:{n + 1}")
    expr = to_sympy(poly, xs)
    rng = random.Random(f"sympy-evaluate:{n}")
    for _ in range(10):
        point = [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)) for _ in xs]
        exact = expr.subs({x: sp.Rational(v.numerator, v.denominator) for x, v in zip(xs, point)})
        assert poly.evaluate(point) == Fraction(int(exact.p), int(exact.q))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_flower_poly_is_irreducible(n):
    # P_n is monic in x_n, so a factorisation would survive specialising
    # x_1..x_{n-1}; an irreducible specialisation of full degree certifies
    # that P_n is irreducible over Q (see the flowerpoly docstring).
    poly = flower_poly(n)
    for ell in (3, 5, 7, 11, 13)[: n - 1]:
        poly = poly.specialize(0, Fraction(ell - 1, ell + 1))
    x = sp.Symbol("x")
    _, factors = sp.factor_list(to_sympy(poly, [x]), x, domain="QQ")
    assert [(sp.degree(f, x), k) for f, k in factors] == [(1 << (n - 2), 1)]



@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(-50, 50, max_denominator=40), min_size=5, max_size=5))
def test_surd_arithmetic_matches_sympy(values):
    # Surd is the tests' reference for irrational radii: check it once more.
    a1, b1, a2, b2, d = (sp.Rational(v.numerator, v.denominator) for v in values)
    assume(d > 0 and sqrt_exact(values[4]) is None)
    x, y = (Surd(*values[i:i + 2], values[4]) for i in (0, 2))
    ex, ey = a1 + b1 * sp.sqrt(d), a2 + b2 * sp.sqrt(d)
    for got, want in ((x + y, ex + ey), (x - y, ex - ey), (x * y, ex * ey),
                      (x * values[2] + values[3], ex * a2 + b2)):
        assert sp.expand(sp.radsimp(want) - got.a - got.b * sp.sqrt(d)) == 0
    if a1 or b1:
        got = x.reciprocal()
        assert sp.expand(sp.radsimp(1 / ex) - got.a - got.b * sp.sqrt(d)) == 0
    assert x.sign() == sp.sign(ex) and (x == y) == (a1 == a2 and b1 == b2)
