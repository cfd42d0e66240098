"""The integer-cleared ``solve_radii`` against the Fraction solver it replaced.

``reference_solve`` below is that solver, kept as the oracle: it eliminates
r_2 and r_3 with ``Fraction`` arithmetic, solves the r_1 quadratic through
``sqrt_exact`` and back-substitutes and re-verifies every root in the tests'
``Surd`` arithmetic, which has no counterpart in ``soddy``.
``solve_radii`` must return the same report, field by field and as
byte-identical JSON.
"""

import dataclasses
import json
import math
import random
import re
from fractions import Fraction
from itertools import product
from math import isqrt
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowerlab.discrepancy import solver_sweep_agree
from flowerlab.geometry import ANGLE_SUM_TOL, FlowerConfig, angle_sum_residual
from flowerlab.soddy import (
    CosTriple,
    QuadraticValue,
    RadiiCandidate,
    SoddyParams,
    SolveReport,
    _back_substitute,
    _pair_equation_ok,
    _scan_tuple,
    _sign,
    cosines_from_params,
    solve_radii,
    sqrt_exact,
    sweep_radii,
)
from oracles import surd_of

F = Fraction


def fraction_coefficients(u, w):
    """q_a, q_b, q_c of the r_1 quadratic, by eliminating r_2 and r_3 from
    (r_i - u_i)(r_j - u_j) = w_i; works on Fractions and sympy expressions."""
    a1 = u[0] - u[1]
    a3 = u[2] - u[1]
    p1 = w[0] - a1 * u[0]
    p3 = w[2] - a3 * u[2]
    return (
        a1 * a3 - w[1],
        a1 * p3 + a3 * p1 + w[1] * (u[0] + u[2]),
        p1 * p3 - w[1] * u[0] * u[2],
    )


def reference_solve(cosines) -> SolveReport:
    if not isinstance(cosines, CosTriple):
        cosines = CosTriple(*(F(x) for x in cosines))
    xs = cosines.as_tuple()
    for x in xs:
        if x == -1:
            raise ValueError("cosine -1 gives a degenerate (straight-angle) petal pair")
        if not (F(-1) < x < 1):
            raise ValueError(f"cosine {x} outside (-1, 1)")
    u = tuple((1 - x) / (1 + x) for x in xs)
    w = tuple(ui * (ui + 1) for ui in u)
    qa, qb, qc = fraction_coefficients(u, w)

    fast = abs(math.fsum(math.acos(float(x)) for x in xs) - 2.0 * math.pi)
    tol = ANGLE_SUM_TOL
    sum_residual = fast if fast > 1e3 * tol or fast < 1e-3 * tol else angle_sum_residual(xs)
    # The branch check also asks every cosine to be negative, as in every
    # genuine three-petal flower: a gate added to both solvers at once.
    angle_ok = sum_residual <= tol and all(x < 0 for x in xs)

    roots: list[QuadraticValue] = []
    disc: Optional[Fraction] = None
    disc_square: Optional[bool] = None
    if qa != 0:
        disc = qb * qb - 4 * qa * qc
        disc_square = disc >= 0 and sqrt_exact(disc) is not None
        if disc >= 0:
            roots = [
                QuadraticValue.make(F(-qb, 2 * qa), F(1, 2 * qa), disc),
                QuadraticValue.make(F(-qb, 2 * qa), F(-1, 2 * qa), disc),
            ]
            if disc == 0:
                roots = roots[:1]
    elif qb != 0:
        roots = [QuadraticValue.make(F(-qc, qb))]

    candidates, flowers = [], []
    for root in roots:
        r1 = surd_of(root)
        if r1 == u[0] or r1 == u[2]:
            zero = QuadraticValue.make(0)
            candidates.append(
                RadiiCandidate(root, zero, zero, True, False, False, angle_ok, degenerate=True)
            )
            continue
        r2 = (r1 - u[0]).reciprocal() * w[0] + u[0]
        r3 = (r1 - u[2]).reciprocal() * w[2] + u[2]
        eq_ok = (
            (r1 - u[0]) * (r2 - u[0]) == w[0]
            and (r2 - u[1]) * (r3 - u[1]) == w[1]
            and (r3 - u[2]) * (r1 - u[2]) == w[2]
        )
        positive = r1.sign() > 0 and r2.sign() > 0 and r3.sign() > 0
        radii = [QuadraticValue.make(v.a, v.b, v.d) for v in (r1, r2, r3)]
        cand = RadiiCandidate(*radii, root.is_rational, positive, eq_ok, angle_ok)
        candidates.append(cand)
        if cand.valid and cand.rational:
            flowers.append(FlowerConfig(F(1), tuple(v.base for v in radii)))
    return SolveReport(cosines, (qa, qb, qc), disc, disc_square, sum_residual,
                       angle_ok, tuple(candidates), tuple(flowers))


def representation(q: QuadraticValue):
    return (type(q.base), q.base, q.coef, q.radicand)


def assert_matches_reference(cosines):
    try:
        want = reference_solve(cosines)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            solve_radii(cosines)
        return None
    got = solve_radii(cosines)
    assert json.dumps(got.to_obj()) == json.dumps(want.to_obj())
    for field in dataclasses.fields(SolveReport):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    for c, d in zip(got.candidates, want.candidates, strict=True):
        assert c == d
        for q, r in ((c.r1, d.r1), (c.r2, d.r2), (c.r3, d.r3)):
            assert representation(q) == representation(r)
    return got


def test_every_bound_8_lattice_tuple_matches_the_reference():
    for params in product(range(1, 9), repeat=4):
        assert_matches_reference(cosines_from_params(SoddyParams(*params)))


# -- hypothesis triples ------------------------------------------------------------

COSINE = st.fractions(min_value=-1, max_value=1, max_denominator=10**4).filter(
    lambda x: -1 < x < 1
)
NEAR_ONE = st.integers(2, 10**12).map(lambda k: F(k - 1, k))
EDGE_COSINE = st.one_of(COSINE, NEAR_ONE, NEAR_ONE.map(lambda x: -x))


def cosine_of(u: Fraction) -> Fraction:
    """Invert u = (1 - x)/(1 + x)."""
    return (1 - u) / (1 + u)


def u_of(x: Fraction) -> Fraction:
    return (1 - x) / (1 + x)


@settings(max_examples=60, deadline=None)
@given(EDGE_COSINE, EDGE_COSINE, EDGE_COSINE)
def test_random_triples_match_the_reference(x1, x2, x3):
    assert_matches_reference((x1, x2, x3))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40))
def test_parametrized_triples_match_the_reference(m1, n1, m2, n2):
    # square discriminants: the parametrized triples are the rational ones
    report = assert_matches_reference(cosines_from_params(SoddyParams(m1, n1, m2, n2)))
    if report is not None:
        assert report.discriminant_square


@settings(max_examples=30, deadline=None)
@given(EDGE_COSINE, EDGE_COSINE)
def test_linear_case_matches_the_reference(x1, x3):
    # q_a = u_1*u_3 - u_2*(u_1 + u_3 + 1) vanishes at this u_2
    u1, u3 = u_of(x1), u_of(x3)
    report = assert_matches_reference((x1, cosine_of(u1 * u3 / (u1 + u3 + 1)), x3))
    assert report.quadratic[0] == 0 and report.discriminant is None
    assert [(c.r1.is_rational, c.r1.base) for c in report.candidates] == [(True, F(-1, 2))]


@settings(max_examples=30, deadline=None)
@given(EDGE_COSINE, EDGE_COSINE, st.booleans())
def test_root_at_a_pole_matches_the_reference(xa, x2, first):
    # r_1 = u_1 is a root iff u_3 = u_1*u_2/(1 + u_1 + u_2), and symmetrically
    ua, u2 = u_of(xa), u_of(x2)
    other = cosine_of(ua * u2 / (1 + ua + u2))
    triple = (xa, x2, other) if first else (other, x2, xa)
    report = assert_matches_reference(triple)
    pole = u_of(triple[0] if first else triple[2])
    assert pole in [c.r1.base for c in report.candidates if c.degenerate and c.r1.is_rational]


@settings(max_examples=60, deadline=None)
@given(EDGE_COSINE, EDGE_COSINE, EDGE_COSINE)
def test_discriminant_is_four_w1_w2_w3(x1, x2, x3):
    # why no triple reaches a zero or negative discriminant
    report = solve_radii((x1, x2, x3))
    w1, w2, w3 = (u * (u + 1) for u in map(u_of, (x1, x2, x3)))
    if report.quadratic[0] != 0:
        assert report.discriminant == 4 * w1 * w2 * w3 > 0
        assert len(report.candidates) == 2


def test_closed_form_coefficients_symbolically():
    sp = pytest.importorskip("sympy")
    p = sp.symbols("p1:4")
    q = sp.symbols("q1:4", positive=True)
    a = [q[i] - p[i] for i in range(3)]
    b = [q[i] + p[i] for i in range(3)]
    c = [2 * q[i] for i in range(3)]
    u = [(1 - p[i] / q[i]) / (1 + p[i] / q[i]) for i in range(3)]
    w = [ui * (ui + 1) for ui in u]
    qa, qb, qc = fraction_coefficients(u, w)
    den = b[0] * b[1] ** 2 * b[2]
    big_a = (a[0] * b[1] - a[1] * b[0]) * (a[2] * b[1] - a[1] * b[2]) - a[1] * c[1] * b[0] * b[2]
    big_c = a[0] * a[2] * c[1] * b[1]
    assert sp.cancel(qa - big_a / den) == 0
    assert sp.cancel(qb - 2 * qc) == 0
    assert sp.cancel(qc - big_c / den) == 0
    assert sp.cancel(qc * (qc - qa) - w[0] * w[1] * w[2]) == 0


# -- closed forms on the parametrized triple ------------------------------------
#
# For cosines_from_params(m1, n1, m2, n2) write cross = m1*n2 + m2*n1 and
# q_i = m_i^2 + n_i^2.  The r_1 quadratic then has the roots
# n1*cross/(n2*q1 - n1*cross) and -n1*cross/(n2*q1 + n1*cross), and the
# first comes with r_2 = n1*n2/(cross - n1*n2), r_3 = n2*cross/(n1*q2 - n2*cross).


def closed_form_radii(m1, n1, m2, n2):
    q1, q2, cross = m1 * m1 + n1 * n1, m2 * m2 + n2 * n2, m1 * n2 + m2 * n1
    return (n1 * cross / (n2 * q1 - n1 * cross), n1 * n2 / (cross - n1 * n2),
            n2 * cross / (n1 * q2 - n2 * cross))


def test_parametrized_closed_forms_symbolically():
    sp = pytest.importorskip("sympy")
    m1, n1, m2, n2 = sp.symbols("m1 n1 m2 n2", positive=True)
    q1, q2, cross = m1**2 + n1**2, m2**2 + n2**2, m1 * n2 + m2 * n1
    # x_i = p_i/q_i as cosines_from_params builds them, not reduced
    p = [m1**2 - n1**2, m2**2 - n2**2, (m1**2 - n1**2) * (m2**2 - n2**2) - 4 * m1 * m2 * n1 * n2]
    q = [q1, q2, q1 * q2]
    a = [qi - pi for pi, qi in zip(p, q)]
    b = [qi + pi for pi, qi in zip(p, q)]
    c = [2 * qi for qi in q]
    big_a = (a[0] * b[1] - a[1] * b[0]) * (a[2] * b[1] - a[1] * b[2]) - a[1] * c[1] * b[0] * b[2]
    big_c = a[0] * a[2] * c[1] * b[1]
    s = 16 * m2**2 * n1 * n2 * q1 * q2 * cross
    assert sp.expand(big_c * (big_c - big_a) - s**2) == 0
    assert sp.expand(s**2 - 256 * m2**4 * n1**2 * n2**2 * q1**2 * q2**2 * cross**2) == 0
    # QA factors as -16*m2^2*q2*(n2*q1 - n1*cross)*(n2*q1 + n1*cross), so with
    # positive parameters QA = 0 exactly when n2*q1 = n1*cross.
    assert sp.expand(big_a + 16 * m2**2 * q2 * (n2 * q1 - n1 * cross) * (n2 * q1 + n1 * cross)) == 0
    assert sp.cancel((-big_c - s) / big_a - n1 * cross / (n2 * q1 - n1 * cross)) == 0
    assert sp.cancel((-big_c + s) / big_a + n1 * cross / (n2 * q1 + n1 * cross)) == 0
    radii = closed_form_radii(m1, n1, m2, n2)
    u = [ai / bi for ai, bi in zip(a, b)]
    for i in range(3):
        w = u[i] * (u[i] + 1)
        assert sp.cancel((radii[i] - u[i]) * (radii[(i + 1) % 3] - u[i]) - w) == 0


def test_bound_8_lattice_matches_the_closed_forms():
    valid = flat = 0
    for params in product(range(1, 9), repeat=4):
        m1, n1, m2, n2 = params
        q1, q2, cross = m1 * m1 + n1 * n1, m2 * m2 + n2 * n2, m1 * n2 + m2 * n1
        degenerate = m1 * m2 == n1 * n2
        qa_zero = n2 * q1 == n1 * cross
        # constraints 3 and 5, constraint 4 reversed, and the angle-sum branch
        want = (cross > n1 * n2 and n2 * q1 > n1 * cross and n1 * q2 > n2 * cross
                and n1 * n2 > m1 * m2)
        record = _scan_tuple(params)
        assert record.degenerate == degenerate, params
        assert record.valid_flower_count == want, params
        assert (record.discriminant_square is None) == (degenerate or qa_zero), params
        if want:
            (flower,) = solve_radii(cosines_from_params(SoddyParams(*params))).valid_flowers
            assert flower.petals == closed_form_radii(F(m1), n1, m2, n2), params
        valid += want
        flat += qa_zero and not degenerate
    assert (valid, flat) == (188, 20)


def integer_candidates(cosines):
    """(a_i, b_i, c_i), R and each candidate's radii as triples (x, y, m)
    for (x + y*sqrt(R))/m, from the closed forms of the ``solve_radii``
    docstring."""
    abc = [(x.denominator - x.numerator, x.denominator + x.numerator, 2 * x.denominator)
           for x in cosines]
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = abc
    qa = (a1 * b2 - a2 * b1) * (a3 * b2 - a2 * b3) - a2 * c2 * b1 * b3
    qc = a1 * a3 * c2 * b2
    rad = qc * (qc - qa)
    s = isqrt(rad)
    roots = [(s - qc, 0, qa), (-s - qc, 0, qa)] if s * s == rad else [(-qc, 1, qa), (-qc, -1, qa)]
    return abc, rad, [(r1, _back_substitute(*abc[0], r1, rad), _back_substitute(*abc[2], r1, rad))
                      for r1 in roots]


RATIONAL_COSINES = (F(-204, 325), F(-152, 377), F(-333, 725))  # radii 23/2, 23/3, 23/6
IRRATIONAL_COSINES = (F(-1, 3), F(-2, 5), F(-1, 4))


def test_integer_pair_check_rejects_a_radius_moved_by_one():
    for cosines in (RATIONAL_COSINES, IRRATIONAL_COSINES):
        abc, rad, candidates = integer_candidates(cosines)
        want = reference_solve(cosines).candidates
        for radii, cand in zip(candidates, want, strict=True):
            # the triples are the reference's radii
            want_radii = [surd_of(cand.r1), surd_of(cand.r2), surd_of(cand.r3)]
            assert [surd_of(QuadraticValue.make(F(x, m), F(y, m), rad))
                    for x, y, m in radii] == want_radii
            for i in range(3):
                ra, rb = radii[i], radii[(i + 1) % 3]
                assert _pair_equation_ok(*abc[i], ra, rb, rad)
                # the same radii as unreduced triples still pass
                for k, j in ((-3, 5), (5, -3)):
                    assert _pair_equation_ok(*abc[i], tuple(k * v for v in ra),
                                             tuple(j * v for v in rb), rad)
                for part in range(3):
                    moved_a = tuple(v + (part == n) for n, v in enumerate(ra))
                    moved_b = tuple(v - (part == n) for n, v in enumerate(rb))
                    assert not _pair_equation_ok(*abc[i], moved_a, rb, rad), (cosines, part)
                    assert not _pair_equation_ok(*abc[i], ra, moved_b, rad), (cosines, part)


@settings(max_examples=60, deadline=None)
@given(EDGE_COSINE, EDGE_COSINE, EDGE_COSINE)
def test_irrational_radii_are_the_records_make_builds(x1, x2, x3):
    # solve_radii writes (x + y*sqrt(R))/m = x/m + y*D/(2*m)*sqrt(disc) as a
    # record itself; QuadraticValue.make of those three parts is the oracle.
    report = solve_radii((x1, x2, x3))
    assume(report.discriminant_square is False)
    abc, _, candidates = integer_candidates((x1, x2, x3))
    den = abc[0][1] * abc[1][1] ** 2 * abc[2][1]
    for cand, radii in zip(report.candidates, candidates, strict=True):
        for got, (x, y, m) in zip((cand.r1, cand.r2, cand.r3), radii, strict=True):
            want = QuadraticValue.make(F(x, m), F(y * den, 2 * m), report.discriminant)
            assert representation(got) == representation(want) and not got.is_rational


def bracket_sign(x: int, y: int, rad: int) -> int:
    """Sign of x + y*sqrt(rad) from ever finer ``isqrt`` brackets of
    |y|*sqrt(rad) in Fractions."""
    t, sy, scale = y * y * rad, (y > 0) - (y < 0), 1
    while True:
        s = isqrt(t * scale * scale)
        lo, hi = sorted((x + sy * F(s, scale), x + sy * F(s + 1, scale)))
        if s * s == t * scale * scale:
            return (lo > 0) - (lo < 0) if sy >= 0 else (hi > 0) - (hi < 0)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        scale *= 10


def test_exact_sign_agrees_with_a_bracket_oracle_near_cancellation():
    _, solver_rad, _ = integer_candidates(IRRATIONAL_COSINES)
    for rad in (2, 3, 10**40 + 1, solver_rad):
        for y in (1, -1, 7, -7, 10**20 + 3, -(10**20 + 3)):
            s = isqrt(y * y * rad)
            for x in (0, s, -s, s + 1, -(s + 1)):
                want = bracket_sign(x, y, rad)
                assert _sign((x, y, 1), rad) == -_sign((-3 * x, -3 * y, 3), rad) == want
                assert _sign((x, y, -2), rad) == -want, (x, y, rad)
    for x in (5, 0, -5):
        assert _sign((x, 0, 1), 7) == bracket_sign(x, 0, 7) == (x > 0) - (x < 0)


def irrational_triples(count: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    rng, out = random.Random(20), []
    while len(out) < count:
        triple = tuple(F(rng.randint(-99, 99), 100) for _ in range(3))
        if reference_solve(triple).discriminant_square is False:
            out.append(triple)
    return out


def test_every_root_takes_the_integer_path(monkeypatch):
    triples = irrational_triples(20)
    want = [reference_solve(t) for t in triples]
    made = []
    make = QuadraticValue.make.__func__
    monkeypatch.setattr(QuadraticValue, "make",
                        classmethod(lambda cls, *a: made.append(a) or make(cls, *a)))

    def refuse(*args):
        raise AssertionError("QuadraticValue arithmetic on the solve path")

    monkeypatch.setattr(QuadraticValue, "__add__", refuse)
    for triple, report in zip(triples, want):
        made.clear()
        got = solve_radii(triple)
        assert json.dumps(got.to_obj()) == json.dumps(report.to_obj())
        for c, d in zip(got.candidates, report.candidates, strict=True):
            for q, r in ((c.r1, d.r1), (c.r2, d.r2), (c.r3, d.r3)):
                assert representation(q) == representation(r)
        assert len(got.candidates) == 2 and made == []  # radii built without make
    made.clear()
    solve_radii(RATIONAL_COSINES)
    assert made == []


# -- properties of the solver and the scan ----------------------------------------

PARAMS = st.tuples(*[st.integers(1, 30)] * 4)


@settings(max_examples=40, deadline=None)
@given(PARAMS)
def test_solver_agrees_with_sweep_on_parametrized_triples(params):
    triple = cosines_from_params(SoddyParams(*params))
    try:
        report = solve_radii(triple)
    except ValueError:
        return  # x_3 = -1
    assert solver_sweep_agree(report, sweep_radii(triple))


@settings(max_examples=60, deadline=None)
@given(PARAMS, st.integers(1, 6), st.integers(1, 6))
def test_scan_record_is_invariant_under_pair_scaling(params, k, j):
    m1, n1, m2, n2 = params
    record = _scan_tuple(params)
    scaled = _scan_tuple((k * m1, k * n1, j * m2, j * n2))
    assert dataclasses.replace(scaled, m1=m1, n1=n1, m2=m2, n2=n2) == record
