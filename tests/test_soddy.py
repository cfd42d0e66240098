"""Rational cosine parametrization, radii solving, and curvature machinery."""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowerlab.flowerpoly import flower_poly
from flowerlab.geometry import FlowerConfig, validate_flower
from flowerlab.soddy import (
    CosTriple,
    CurvatureQuad,
    GrahamRecord,
    QuadraticValue,
    SoddyParams,
    constraint_report,
    cosines_from_params,
    descartes_check,
    graham_inverse,
    graham_quadruples,
    integer_scale,
    rational_sine,
    scan_lattice,
    solve_radii,
    sqrt_exact,
    sweep_radii,
    tangent_curvatures,
)
from flowerlab.soddy import _scan_tuple
from oracles import Surd, graham_quadruples_by_m, surd_of as surd

F = Fraction

REFERENCE_TRIPLE = CosTriple(F(-3, 5), F(-9, 41), F(-133, 205))
ROUND_TRIP_TRIPLE = CosTriple(F(-204, 325), F(-152, 377), F(-333, 725))


def test_parametrized_cosines_examples():
    assert cosines_from_params(SoddyParams(1, 2, 4, 5)) == REFERENCE_TRIPLE
    assert cosines_from_params(SoddyParams(1, 1, 1, 1)) == CosTriple(F(0), F(0), F(-1))


def test_params_validation():
    with pytest.raises(ValueError):
        SoddyParams(0, 1, 1, 1)
    with pytest.raises(ValueError):
        SoddyParams(1, 1, 1, -2)
    for bad in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="m1 must be a positive integer"):
            SoddyParams(bad, 2, 3, 4)


def test_constraints_examples():
    assert constraint_report(SoddyParams(1, 2, 4, 5)).all_hold
    rep = constraint_report(SoddyParams(1, 2, 1, 2))
    assert not rep.cross_gt_product and not rep.all_hold
    assert not constraint_report(SoddyParams(1, 3, 1, 3)).cross_gt_product


def test_parametrized_lattice_lies_on_variety():
    p3 = flower_poly(3)
    for t in product(range(1, 9), repeat=4):
        triple = cosines_from_params(SoddyParams(*t))
        assert p3.evaluate(triple.as_tuple()) == 0
        for x in triple.as_tuple():
            assert rational_sine(x) is not None


def test_rational_sine():
    assert rational_sine(F(-3, 5)) == F(4, 5)
    assert rational_sine(F(-133, 205)) == F(156, 205)
    assert rational_sine(F(1, 3)) is None
    assert rational_sine(F(1)) == 0
    with pytest.raises(ValueError):
        rational_sine(F(3, 2))


def test_sqrt_exact():
    assert sqrt_exact(F(9, 4)) == F(3, 2)
    assert sqrt_exact(F(2)) is None
    assert sqrt_exact(F(0)) == 0
    with pytest.raises(ValueError):
        sqrt_exact(F(-1))


def test_descartes_identity():
    assert descartes_check(CurvatureQuad(2, 3, 6, 23))
    assert descartes_check(CurvatureQuad(-1, 2, 2, 3))
    assert not descartes_check(CurvatureQuad(1, 1, 1, 1))
    # the identity is homogeneous, so scaled quadruples still pass
    assert descartes_check(CurvatureQuad(F(1, 3), F(1, 2), F(1), F(23, 6)))


def test_tangent_curvatures():
    a, b = tangent_curvatures(2, 3, 6)
    assert a.is_rational and b.is_rational and (a.base, b.base) == (23, -1)
    c, d = tangent_curvatures(1, 2, 3)
    assert not c.is_rational and not d.is_rational
    assert c.base == 6 and c.radicand == 11 and c.coef == 2
    assert d.coef == -2
    # equal curvatures k give k*(3 +/- 2*sqrt(3)), always irrational
    e, f = tangent_curvatures(2, 2, 2)
    assert surd(e) == Surd(6, 4, 3) and surd(f) == Surd(6, -4, 3)
    with pytest.raises(ValueError):
        tangent_curvatures(1, -5, 1)


def test_tangent_curvatures_satisfy_descartes_exactly():
    rng = random.Random(5)
    for _ in range(50):
        ks = [F(rng.randrange(1, 30), rng.randrange(1, 6)) for _ in range(3)]
        for companion in tangent_curvatures(*ks):
            values = [*ks, surd(companion)]
            assert sum(v * v for v in values) * 2 == sum(values) * sum(values)


def test_quadratic_value_algebra():
    v = surd(QuadraticValue.make(3, 2, 3))
    assert v == surd(QuadraticValue.make(3, F(1, 24), 6912))  # same value, other radicand
    assert QuadraticValue.make(1, 2, 9) == QuadraticValue(F(7), F(0), F(0))  # square folds
    assert v.sign() == 1 and (-v).sign() == -1
    assert Surd(3, -2, 3).sign() == -1  # 3 < 2*sqrt(3)
    assert Surd(4, -2, 3).sign() == 1
    assert v * v.reciprocal() == 1
    assert v - v == 0
    with pytest.raises(ValueError):
        Surd(0, 1, 2) + Surd(0, 1, 3)
    with pytest.raises(ValueError):
        QuadraticValue.make(0, 1, -2)


def test_quadratic_value_is_an_output_record():
    # The library does no arithmetic on these values and compares them field
    # by field; the tests' Surd does the arithmetic.
    # A class statement, not make_dataclass: from Python 3.13 on, a class
    # statement also sets __static_attributes__ and __firstlineno__.
    @dataclass(frozen=True)
    class Fields:
        base: Fraction
        coef: Fraction
        radicand: Fraction

    own = set(vars(QuadraticValue)) - set(vars(Fields))
    assert own == {"make", "is_rational", "approx", "to_obj", "__add__"}
    v = QuadraticValue.make(3, 2, 3)
    assert v == QuadraticValue.make(3, 2, 3) != QuadraticValue.make(3, F(1, 24), 6912)
    assert hash(v) == hash((v.base, v.coef, v.radicand)) and QuadraticValue.make(7) != 7
    assert v + 1 == QuadraticValue(F(4), F(2), F(3))
    with pytest.raises(TypeError):
        v + v


def test_solver_on_reference_triple():
    report = solve_radii(REFERENCE_TRIPLE)
    assert report.discriminant_square
    roots = sorted(c.r1.base for c in report.candidates if c.r1.is_rational)
    assert roots == [F(-26), F(-26, 51)]
    assert all(c.equations_ok for c in report.candidates)
    assert not any(c.positive for c in report.candidates)
    assert report.valid_flowers == ()
    assert report.angle_sum_ok  # on the right branch, yet no positive radii


def test_solver_recovers_round_trip_flower():
    report = solve_radii(ROUND_TRIP_TRIPLE)
    petals = [f.petals for f in report.valid_flowers]
    assert (F(23, 2), F(23, 3), F(23, 6)) in petals
    for flower in report.valid_flowers:
        assert validate_flower(flower).valid


def test_solver_symmetric_triple_is_irrational():
    report = solve_radii((F(-1, 2), F(-1, 2), F(-1, 2)))
    assert report.discriminant_square is False
    assert len(report.candidates) == 2
    good = [c for c in report.candidates if c.valid]
    assert len(good) == 1
    cand = good[0]
    assert not cand.rational
    expected = Surd(3, 2, 3)
    assert surd(cand.r1) == surd(cand.r2) == surd(cand.r3) == expected
    assert report.valid_flowers == ()  # irrational flowers are not listed


def test_solver_rejects_degenerate_cosines():
    # The float sweep shares the exact solver's check and its messages.
    bad = [((F(-1), F(0), F(0)), "cosine -1 gives a degenerate"),
           ((F(3, 2), F(0), F(0)), "cosine 3/2 outside"),
           ((0, 1, 0), "cosine 1 outside"), ((0.5, 0.5, -1.0), "cosine -1 gives")]
    for cosines, message in bad:
        for solve in (solve_radii, sweep_radii):
            with pytest.raises(ValueError, match=message):
                solve(cosines)


def test_solver_and_sweep_reject_a_cosine_list_not_of_three():
    for cosines in ([F(1, 2)] * 2, [F(1, 2)] * 4):
        with pytest.raises(ValueError, match=f"need 3 cosines, got {len(cosines)}"):
            solve_radii(cosines)
        with pytest.raises(ValueError, match=f"need 3 cosines, got {len(cosines)}"):
            sweep_radii(cosines)


def test_sweep_agrees_with_solver():
    from flowerlab.discrepancy import solver_sweep_agree

    triples = [
        REFERENCE_TRIPLE,
        ROUND_TRIP_TRIPLE,
        CosTriple(F(-1, 2), F(-1, 2), F(-1, 2)),
        cosines_from_params(SoddyParams(1, 2, 2, 3)),
        cosines_from_params(SoddyParams(2, 3, 3, 4)),
        cosines_from_params(SoddyParams(1, 4, 2, 3)),
    ]
    for triple in triples:
        report = solve_radii(triple)
        assert solver_sweep_agree(report, sweep_radii(triple)), triple


def test_integer_scale():
    scaled = integer_scale(F(1), [F(26), F(54, 11), F(351, 59)])
    assert scaled.scale == 649
    assert scaled.config == FlowerConfig(F(649), (F(16874), F(3186), F(3861)))
    assert integer_scale(1, [2, 3, 4]).scale == 1
    scaled = integer_scale(1, [F(23, 2), F(23, 3), F(23, 6)])
    assert scaled.scale == 6
    assert scaled.config == FlowerConfig(F(6), (F(69), F(46), F(23)))
    with pytest.raises(ValueError):
        integer_scale(1, [F(-1, 2), F(1), F(1)])


def test_graham_parameter_examples():
    assert GrahamRecord(3, 1, 2, 5).curvatures.as_tuple() == (3, -1, 2, 2)
    assert GrahamRecord(1, 0, 1, 1).curvatures.as_tuple() == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        GrahamRecord(2, 1, 2, 5)  # 4 + 1 != 10


def test_graham_quadruples_satisfy_descartes():
    records = graham_quadruples(20)
    assert records, "generator found nothing"
    for rec in records:
        assert descartes_check(rec.curvatures)
        x, m, d1, d2 = rec.x, rec.m, rec.d1, rec.d2
        assert 0 <= 2 * m <= d1 <= d2 <= 20
    assert any(not r.degenerate for r in records)
    assert any(r.degenerate for r in records)
    # the smallest gasket quadruple appears
    assert any(set(map(int, r.curvatures.as_tuple())) == {-1, 2, 2, 3} for r in records)


def test_graham_walk_over_x_matches_the_walk_over_m():
    for bound in range(1, 61):
        assert graham_quadruples(bound) == graham_quadruples_by_m(bound), bound
    records = graham_quadruples(200)
    assert records == graham_quadruples_by_m(200)
    assert len(records) == 3587


def test_graham_inverse_examples():
    ratios = graham_inverse(SoddyParams(1, 2, 4, 5))
    assert ratios.m_over_x == F(6, 13)
    assert ratios.d1_over_x == F(25, 26)
    assert ratios.d2_over_x == F(82, 65)
    assert ratios.identity_holds
    unit = graham_inverse(SoddyParams(1, 1, 1, 1))
    assert unit.m_over_x == 0 and unit.d1_over_x == 1 and unit.d2_over_x == 1


def test_graham_inverse_identity_on_lattice():
    for t in product(range(1, 7), repeat=4):
        assert graham_inverse(SoddyParams(*t)).identity_holds


def assert_scan_ratios_match_graham(params):
    rec = _scan_tuple(params)
    ratios = graham_inverse(SoddyParams(*params))
    assert rec.d1_le_d2 == (ratios.d1_over_x <= ratios.d2_over_x)
    assert rec.two_m_gt_d1 == (2 * ratios.m_over_x > ratios.d1_over_x)


def test_scan_ratio_flags_match_graham_inverse_on_lattice():
    for t in product(range(1, 9), repeat=4):
        assert_scan_ratios_match_graham(t)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(1, 10**6)] * 4))
def test_scan_ratio_flags_match_graham_inverse_on_large_entries(params):
    assert_scan_ratios_match_graham(params)


def test_square_root_reduction_identity():
    # the radical in the closed-form radius expression collapses to
    # beta * (c2*m1*n2 + c1*m2*n1)^2 whenever b1*c1 = b2*c2 = beta
    for beta in (1, 2, 3, 5, 6, 7, 10):
        pairs = [(b, beta // b) for b in range(1, beta + 1) if beta % b == 0]
        for (b1, c1), (b2, c2) in product(pairs, repeat=2):
            for m1, n1, m2, n2 in product(range(1, 4), repeat=4):
                lhs = c1 * c2 * (
                    b1 * c2 * m1**2 * n2**2
                    + 2 * beta * m1 * m2 * n1 * n2
                    + b2 * c1 * m2**2 * n1**2
                )
                assert lhs == beta * (c2 * m1 * n2 + c1 * m2 * n1) ** 2


def test_scan_lattice_summary_and_determinism():
    res = scan_lattice(5)
    assert res.summary["total"] == 625
    assert len(res.records) == 625
    params = [(r.m1, r.n1, r.m2, r.n2) for r in res.records]
    assert params == sorted(params)
    with pytest.raises(ValueError):
        scan_lattice(0)


@pytest.mark.parametrize("bound", [True, 2.0])
def test_scan_lattice_refuses_a_bound_that_is_not_an_int(bound):
    with pytest.raises(ValueError, match=rf"scan bound must be in 1\.\.21, got {bound}"):
        scan_lattice(bound)


@pytest.mark.parametrize("bound", [True, 2.0])
def test_graham_quadruples_refuses_a_bound_that_is_not_an_int(bound):
    with pytest.raises(ValueError, match=rf"bound must be in 1\.\.1000, got {bound}"):
        graham_quadruples(bound)


def test_scan_constraint_findings_small_bound():
    res = scan_lattice(6)
    passing = [r for r in res.records if r.all_pass]
    assert passing, "no constraint-passing tuples at bound 6"
    assert all(r.discriminant_square for r in passing)
    assert all(r.d1_le_d2 for r in passing)
    solvable = [r for r in res.records if r.valid_flower_count]
    assert solvable
    # empirical finding: solvability coincides with the fourth constraint
    # reversed, all others holding
    for r in solvable:
        c = r.constraints
        assert c[0] and c[1] and c[2] and not c[3] and c[4]


def test_scan_findings_at_recorded_bound():
    # the audited claims at bound 12: square discriminants and d1 <= d2 for
    # every constraint-passing tuple; the 2m > d1 comparison is a tally
    # (empirically it is not universal), and no passing tuple solves
    res = scan_lattice(12)
    passing = [r for r in res.records if r.all_pass]
    assert len(passing) == res.summary["constraint_pass"] > 0
    assert all(r.discriminant_square for r in passing)
    assert all(r.d1_le_d2 for r in passing)
    assert 0 < res.summary["pass_2m_gt_d1"] < res.summary["constraint_pass"]
    assert res.summary["solvable_total"] > 0
    assert res.summary["solvable_and_constraint_pass"] == 0


def test_valid_solutions_satisfy_descartes():
    # every solved flower, with the center's unit curvature prepended,
    # is a mutually tangent quadruple
    triples = [
        ROUND_TRIP_TRIPLE,
        cosines_from_params(SoddyParams(1, 2, 2, 3)),
        cosines_from_params(SoddyParams(1, 2, 5, 8)),
        cosines_from_params(SoddyParams(2, 3, 5, 7)),
    ]
    seen = 0
    for triple in triples:
        for flower in solve_radii(triple).valid_flowers:
            quad = CurvatureQuad(1, *(1 / p for p in flower.petals))
            assert descartes_check(quad), flower
            seen += 1
    assert seen >= 2


ENTRY = st.integers(1, 10**12)


def _just_above(m: int, per_mille: int) -> int:
    return min(10**12, m + 1 + m * per_mille // 1000)


# Uniform tuples are rarely flowers; about a third of those with each n_i
# in (m_i, 3*m_i] are.
PARAMS = st.one_of(
    st.tuples(ENTRY, ENTRY, ENTRY, ENTRY),
    st.builds(lambda m1, k1, m2, k2: (m1, _just_above(m1, k1), m2, _just_above(m2, k2)),
              ENTRY, st.integers(0, 2000), ENTRY, st.integers(0, 2000)),
)


@settings(max_examples=300, deadline=None)
@given(PARAMS)
@example((10000000001, 10000000000, 10000000001, 10000000000))  # the wrong branch
@example((1, 2, 2, 3))  # a valid flower
@example((1, 1, 1, 1))  # third cosine -1
def test_a_tuple_has_a_valid_flower_iff_the_closed_form_holds(params):
    # The soddy docstring's closed form: constraints 3 and 5, the reversed
    # fourth, and n1*n2 > m1*m2 (the angle-sum branch).
    m1, n1, m2, n2 = params
    cross = m1 * n2 + m2 * n1
    closed_form = (cross > n1 * n2 and n1 * (m2 * m2 + n2 * n2) > n2 * cross
                   and n2 * (m1 * m1 + n1 * n1) > n1 * cross and n1 * n2 > m1 * m2)
    cosines = cosines_from_params(SoddyParams(*params))
    if m1 * m2 == n1 * n2:  # the third cosine is -1
        with pytest.raises(ValueError, match="degenerate"):
            solve_radii(cosines)
        return
    flowers = solve_radii(cosines).valid_flowers
    assert bool(flowers) == closed_form
    for flower in flowers:
        assert validate_flower(flower).valid


def test_round_trip_from_curvatures():
    up, _ = tangent_curvatures(2, 3, 6)
    assert up.is_rational and up.base == 23
    quad = CurvatureQuad(2, 3, 6, up.base)
    assert descartes_check(quad)
    # center = smallest circle, petals = the other three, scaled to center 1
    petals = tuple(F(23, 1) / b for b in (2, 3, 6))
    report = solve_radii(ROUND_TRIP_TRIPLE)
    assert any(f.petals == petals for f in report.valid_flowers)
    scaled = integer_scale(1, petals)
    assert scaled.config == FlowerConfig(F(6), (F(69), F(46), F(23)))


def test_parametrization_reaches_every_integer_flower():
    # Every ordered petal triple with radii in 1..40 whose inner Soddy circle
    # has rational curvature k0 = k1 + k2 + k3 + 2*sqrt(k1*k2 + k2*k3 + k3*k1)
    # comes back from its parameters n1/m1 = 2*k0/(k0 + k1 + k2 - k3) and
    # n2/m2 = 2*k0/(k0 + k2 + k3 - k1), scaled to center radius 1.
    found = 0
    for radii in product(range(1, 41), repeat=3):
        r1, r2, r3 = radii
        square = r1 * r2 * r3 * (r1 + r2 + r3)
        root = isqrt(square)
        if root * root != square:
            continue
        k1, k2, k3 = (F(1, r) for r in radii)
        k0 = k1 + k2 + k3 + 2 * F(root, r1 * r2 * r3)
        t1, t2 = 2 * k0 / (k0 + k1 + k2 - k3), 2 * k0 / (k0 + k2 + k3 - k1)
        params = SoddyParams(t1.denominator, t1.numerator, t2.denominator, t2.numerator)
        report = solve_radii(cosines_from_params(params))
        assert tuple(r * k0 for r in radii) in [f.petals for f in report.valid_flowers]
        found += 1
    assert found == 735
