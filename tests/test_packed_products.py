"""Packed-key products in both rings against naive tuple-key products.

The oracles below multiply term by term on exponent tuples, with no packing,
so they share no code with the kernels they check.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from flowerlab.mixedring import MixedElement
from flowerlab.ratpoly import SparsePoly
from oracles import norm_form

# Small exponents plus values on either side of a packing width boundary.
EXPONENTS = st.one_of(
    st.integers(0, 4),
    st.sampled_from([127, 128, 255, 256, 2**31 - 1, 2**31, 2**31 + 1]),
)
COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)


def naive_poly_product(a: SparsePoly, b: SparsePoly) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def naive_mixed_product(a: MixedElement, b: MixedElement) -> dict:
    n = a.nvars
    out = {}
    for (ea, sa), ca in a.items():
        for (eb, sb), cb in b.items():
            # y_i * y_i = 1 - x_i^2 for every i in both supports.
            partial = {tuple(x + y for x, y in zip(ea, eb)): ca * cb}
            for i in range(n):
                if sa >> i & 1 and sb >> i & 1:
                    nxt = {}
                    for exps, c in partial.items():
                        nxt[exps] = nxt.get(exps, 0) + c
                        raised = exps[:i] + (exps[i] + 2,) + exps[i + 1 :]
                        nxt[raised] = nxt.get(raised, 0) - c
                    partial = nxt
            for exps, c in partial.items():
                key = (exps, sa ^ sb)
                out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v != 0}


def assert_canonical(terms) -> None:
    for _, c in terms:
        assert c != 0
        assert not (isinstance(c, Fraction) and c.denominator == 1)


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(0, 3))
    monos = st.dictionaries(st.tuples(*[EXPONENTS] * n), COEFFS, max_size=6)
    return SparsePoly(n, draw(monos)), SparsePoly(n, draw(monos))


@st.composite
def mixed_pairs(draw):
    n = draw(st.integers(1, 3))
    keys = st.tuples(st.tuples(*[EXPONENTS] * n), st.integers(0, (1 << n) - 1))
    terms = st.dictionaries(keys, COEFFS, max_size=5)
    return MixedElement(n, draw(terms)), MixedElement(n, draw(terms))


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_poly_product_matches_naive(pair):
    a, b = pair
    prod = a * b
    assert dict(prod.items()) == naive_poly_product(a, b)
    assert_canonical(prod.items())
    assert prod.nvars == a.nvars


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_poly_square_matches_naive(pair):
    a, _ = pair
    square = a * a
    assert dict(square.items()) == naive_poly_product(a, a)
    assert_canonical(square.items())
    # The squaring path (same object) and the general path agree.
    assert square == a * SparsePoly(a.nvars, dict(a.items()))


@settings(max_examples=200, deadline=None)
@given(mixed_pairs())
def test_mixed_product_matches_naive(pair):
    a, b = pair
    prod = a * b
    assert dict(prod.items()) == naive_mixed_product(a, b)
    assert_canonical(prod.items())
    assert dict((a * a).items()) == naive_mixed_product(a, a)


def test_zero_variable_products():
    a, b = SparsePoly.const(0, Fraction(3, 2)), SparsePoly.const(0, Fraction(2, 3))
    assert a * b == SparsePoly.one(0)
    assert (a * b).coefficient(()) == 1 and isinstance((a * b).coefficient(()), int)
    assert a * a == SparsePoly.const(0, Fraction(9, 4))
    assert not a * SparsePoly.zero(0)
    assert SparsePoly.variable(1, 0).specialize(0, 2) * a == SparsePoly.const(0, 3)


def test_width_boundaries():
    for e in (255, 2**31):
        x = SparsePoly(2, {(e, 0): 1, (0, 1): 1})
        y = SparsePoly(2, {(e, 1): -1, (1, 0): 2})
        assert dict((x * y).items()) == naive_poly_product(x, y)
        assert (x * x).coefficient((2 * e, 0)) == 1
    low = SparsePoly(1, {(255,): 1})
    assert low * SparsePoly(1, {(1,): 1}) == SparsePoly(1, {(256,): 1})


def test_products_that_cancel():
    x1, x2 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    diff = (x1 - x2) * (x1 + x2)
    assert dict(diff.items()) == {(2, 0): 1, (0, 2): -1}
    assert not x1 * SparsePoly.zero(2)
    x, y = MixedElement.x_var(1, 0), MixedElement.y_var(1, 0)
    assert y * y + x * x == MixedElement.one(1)
    assert dict(((y + x) * (y - x)).items()) == {((0,), 0): 1, ((2,), 0): -2}
    s = MixedElement.y_var(2, 0) * MixedElement.y_var(2, 1)
    c = MixedElement.x_var(2, 0) * MixedElement.x_var(2, 1)
    # (c - s)(c + s) = c^2 - (1 - x1^2)(1 - x2^2): the s terms cancel.
    norm = (c - s) * (c + s)
    assert all(ybits == 0 for (_, ybits), _ in norm.items())
    assert len(norm) == 3


@settings(max_examples=100, deadline=None)
@given(poly_pairs(), poly_pairs())
def test_norm_form_matches_naive(pq, dd):
    (p, q), (d, _) = pq, dd
    if d.nvars != p.nvars:
        d = SparsePoly.const(p.nvars, 3)
    q2 = SparsePoly(p.nvars, naive_poly_product(q, q))
    want = SparsePoly(p.nvars, naive_poly_product(p, p)) - SparsePoly(p.nvars, naive_poly_product(q2, d))
    got = norm_form(p, q, d)
    assert got == want
    assert_canonical(got.items())
