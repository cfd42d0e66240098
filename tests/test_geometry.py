"""Flower validation from radii, layout tangency, and SVG output."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from flowerlab.flowerpoly import flower_poly
from flowerlab.geometry import (
    CirclePlacement,
    FlowerConfig,
    angle_sum_residual,
    center_angle_cosine,
    flower_cosines,
    layout,
    render_svg,
    validate_flower,
)
from oracles import (
    angle_sum_residual_in_mp_context,
    center_angle_cosine_by_fractions,
    evaluate_by_fractions,
    validation_report_obj,
)

F = Fraction

ROUND_TRIP = FlowerConfig(F(6), (F(69), F(46), F(23)))
SQUARE_FLOWER = FlowerConfig(F(1), (F(2), F(3), F(2), F(3)))  # four right angles


def test_cosine_examples():
    assert center_angle_cosine(1, 1, 1) == F(1, 2)
    assert center_angle_cosine(6, 69, 46) == F(-204, 325)
    assert center_angle_cosine(1, 26, F(54, 11)) == F(-3, 5)


def test_cosine_rejects_nonpositive():
    with pytest.raises(ValueError):
        center_angle_cosine(0, 1, 1)
    with pytest.raises(ValueError):
        center_angle_cosine(1, -2, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        FlowerConfig(F(1), (F(1), F(2)))
    with pytest.raises(ValueError):
        FlowerConfig(F(0), (F(1), F(1), F(1)))


def test_round_trip_flower_is_valid():
    report = validate_flower(ROUND_TRIP)
    assert report.valid
    assert report.variety_residual == 0
    assert report.angle_sum_residual <= 1e-12
    assert report.cosines == (F(-204, 325), F(-152, 377), F(-333, 725))
    assert all(report.angle_range_ok)


def test_four_petal_right_angle_flower():
    report = validate_flower(SQUARE_FLOWER)
    assert report.valid
    assert report.cosines == (F(0),) * 4
    assert report.variety_residual == 0


def test_unit_configuration_is_not_a_flower():
    report = validate_flower(FlowerConfig(F(1), (F(1), F(1), F(1))))
    assert not report.valid
    assert report.cosines == (F(1, 2),) * 3
    # angles of pi/3 sum to pi, and a positive cosine breaks the 3-petal range
    assert any("angle sum" in r for r in report.reasons)
    assert not all(report.angle_range_ok)


def test_scale_invariance():
    rng = random.Random(3)
    for _ in range(20):
        k = F(rng.randrange(1, 40), rng.randrange(1, 40))
        scaled = ROUND_TRIP.scaled(k)
        assert flower_cosines(scaled) == flower_cosines(ROUND_TRIP)
        assert validate_flower(scaled).valid
    bad = FlowerConfig(F(1), (F(1), F(1), F(1)))
    assert not validate_flower(bad.scaled(F(7, 3))).valid


def test_variety_zero_does_not_imply_flower():
    # These cosines zero the 3-petal polynomial and lie in (-1, 0), but the
    # radii system has no positive solution; the validator agrees with the
    # solver in rejecting the recorded integer configuration built for them.
    from flowerlab.soddy import solve_radii

    cosines = (F(-3, 5), F(-9, 41), F(-133, 205))
    from flowerlab.flowerpoly import flower_poly

    assert flower_poly(3).evaluate(cosines) == 0
    assert all(F(-1) < c < 0 for c in cosines)
    solved = solve_radii(cosines)
    assert solved.valid_flowers == ()
    report = validate_flower(FlowerConfig(F(649), (F(16874), F(3186), F(3861))))
    assert not report.valid
    assert report.variety_residual != 0


def near_regular_radii(rng, n, bits):
    """Integer radii within 1% of a regular n-petal flower (center first)."""
    center = rng.getrandbits(bits) | (1 << (bits - 1))
    s = math.sin(math.pi / n)
    scaled = [round(10**6 * s / (1 - s) * (1 + rng.uniform(-0.01, 0.01))) for _ in range(n)]
    return [center] + [max(1, center * v // 10**6) for v in scaled]


def hexagon_radii(k, bumped=None):
    """A regular six-petal flower of radius-k coins, optionally with one
    petal one unit larger."""
    radii = [k] * 7
    if bumped is not None:
        radii[bumped] += 1
    return radii


def test_variety_residual_matches_the_fraction_oracle():
    rng = random.Random(8)
    near = [near_regular_radii(rng, n, bits) for n in (4, 5) for bits in (8, 24, 60)]
    near.append(near_regular_radii(rng, 6, 16))
    bumped = [hexagon_radii(236, 2), hexagon_radii(17, 6)]
    for radii in near + bumped:
        report = validate_flower(FlowerConfig(radii[0], tuple(radii[1:])))
        oracle = evaluate_by_fractions(flower_poly(len(radii) - 1), report.cosines)
        assert report.variety_residual == oracle
        assert not report.valid
        # A bumped petal changes two equal cosines, and t - t cancels in a
        # signed angle sum, so a bumped hexagon stays on the variety; its
        # angle sum is what fails.
        assert (oracle == 0) == (radii in bumped)


def test_regular_hexagon_is_exactly_on_the_variety():
    for k in (1, 17, 254):
        report = validate_flower(FlowerConfig(k, (k,) * 6))
        assert report.variety_residual == 0 and type(report.variety_residual) is F
        assert report.valid


def test_layout_positions_and_tangency():
    placements = layout(ROUND_TRIP)
    assert len(placements) == 4
    center, petals = placements[0], placements[1:]
    assert center.is_center and center.x == 0.0 and center.y == 0.0
    assert petals[0].x == pytest.approx(75.0, abs=1e-9)
    assert petals[0].y == pytest.approx(0.0, abs=1e-9)
    radii = ROUND_TRIP.petals
    for i, p in enumerate(petals):
        dist = math.hypot(p.x, p.y)
        assert dist == pytest.approx(float(ROUND_TRIP.center + radii[i]), rel=1e-12)
    for i in range(len(petals)):
        a, b = petals[i], petals[(i + 1) % len(petals)]
        gap = math.hypot(a.x - b.x, a.y - b.y)
        assert gap == pytest.approx(a.radius + b.radius, rel=1e-9)


def test_layout_tangency_four_petals():
    petals = layout(SQUARE_FLOWER)[1:]
    for i in range(4):
        a, b = petals[i], petals[(i + 1) % 4]
        gap = math.hypot(a.x - b.x, a.y - b.y)
        assert gap == pytest.approx(a.radius + b.radius, rel=1e-9)


def test_layout_rejects_invalid():
    with pytest.raises(ValueError):
        layout(FlowerConfig(F(1), (F(1), F(1), F(1))))


def test_render_svg_deterministic():
    placements = layout(ROUND_TRIP)
    svg = render_svg(placements)
    assert svg == render_svg(placements)
    assert svg.count("<circle") == 4
    assert svg.startswith('<?xml version="1.0"')
    assert 'viewBox="' in svg


def test_render_svg_rejects_empty():
    with pytest.raises(ValueError):
        render_svg([])


def test_render_svg_accepts_raw_placements():
    svg = render_svg([CirclePlacement(0.0, 0.0, 1.0, True), CirclePlacement(2.0, 0.0, 1.0, False)])
    assert svg.count("<circle") == 2


# sha256 of ``render_svg(layout(...))``, recorded when the layout still ran
# in mpmath's global context at 40 digits.
GOLDEN_SVG_SHA256 = {
    "ROUND_TRIP": "04e286b219d8b5ec53bcdceb0ef2fda0a542471f95862978d50ef557b9869651",
    "SQUARE_FLOWER": "f3c26b3f932ab6730d88cdb3cfc3f64b0017119c2e6edbcdbae8ca26cbb46a91",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SVG_SHA256))
def test_render_svg_matches_the_recorded_drawing(name):
    svg = render_svg(layout(globals()[name]))
    assert hashlib.sha256(svg.encode()).hexdigest() == GOLDEN_SVG_SHA256[name]


# Curvatures (b1, b2, b3) of three mutually tangent circles whose inner
# Soddy circle, of curvature b1 + b2 + b3 + 2*sqrt(b1*b2 + b2*b3 + b3*b1),
# has an integer curvature: that circle is the center of a genuine flower.
DESCARTES = [
    (b1, b2, b3)
    for b1 in range(1, 31)
    for b2 in range(b1, 31)
    for b3 in range(b2, 31)
    if math.isqrt(b1 * b2 + b2 * b3 + b3 * b1) ** 2 == b1 * b2 + b2 * b3 + b3 * b1
]


def descartes_radii(curvatures, scale, bump=0) -> list:
    """Radii (center first) of the flower around the inner Soddy circle, as
    rationals when ``scale`` is 1, else as integers times ``scale``; ``bump``
    is added to the first petal, which breaks the flower by about
    bump/scale."""
    b1, b2, b3 = curvatures
    b4 = b1 + b2 + b3 + 2 * math.isqrt(b1 * b2 + b2 * b3 + b3 * b1)
    unit = math.lcm(b1, b2, b3, b4) if scale > 1 else 1
    radii = [F(unit * scale, b) for b in (b4, b1, b2, b3)]
    radii[1] += bump
    return radii


POSITIVE_RATIONALS = st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6)
RADII_256_BIT = st.integers(1 << 255, (1 << 256) - 1)


def radii_lists(radius):
    """Center plus 3..6 petals, each drawn from ``radius``."""
    return st.integers(3, 6).flatmap(lambda n: st.lists(radius, min_size=n + 1, max_size=n + 1))


DESCARTES_FLOWERS = st.builds(
    descartes_radii, st.sampled_from(DESCARTES), st.one_of(st.just(1), st.integers(2, 1 << 200))
)
# Scaled past 136 bits and bumped: angle sums within a few units of the
# 40-digit working precision, where every rounding step shows in the float.
NEARLY_DESCARTES_FLOWERS = st.builds(
    descartes_radii, st.sampled_from(DESCARTES), st.integers(1 << 100, 1 << 300), st.integers(1, 9)
)
HEXAGONS = st.integers(1, 1 << 256).map(lambda k: [k] * 7)
FLOWER_RADII = st.one_of(
    radii_lists(POSITIVE_RATIONALS),
    radii_lists(RADII_256_BIT),
    DESCARTES_FLOWERS,
    NEARLY_DESCARTES_FLOWERS,
    HEXAGONS,
)


def config_of(radii) -> FlowerConfig:
    return FlowerConfig(radii[0], tuple(radii[1:]))


def test_descartes_flowers_are_valid_with_a_tiny_angle_sum_residual():
    assert len(DESCARTES) >= 10
    for curvatures in DESCARTES:
        report = validate_flower(config_of(descartes_radii(curvatures, 1)))
        assert report.valid and report.angle_sum_residual < 1e-35


@settings(max_examples=300, deadline=None)
@given(POSITIVE_RATIONALS, POSITIVE_RATIONALS, st.one_of(POSITIVE_RATIONALS, RADII_256_BIT))
@example(F(6), F(69), F(46))
@example(F(1, 10**6), F(10**6), F(1, 3))
def test_cosine_equals_the_fraction_formula(r, ri, rj):
    cosine = center_angle_cosine(r, ri, rj)
    assert type(cosine) is F
    assert cosine == center_angle_cosine_by_fractions(r, ri, rj)
    assert center_angle_cosine(rj, ri, r) == center_angle_cosine_by_fractions(rj, ri, r)


@settings(max_examples=200, deadline=None)
@given(FLOWER_RADII)
@example([6, 69, 46, 23])
@example([1, 2, 3, 2, 3])
@example([254] * 7)
@example(descartes_radii(DESCARTES[0], 1))
@example(descartes_radii((1, 1, 24), 2**127 + 1, 1))
@example(descartes_radii((1, 1, 12), 2**130 + 1, 1))
def test_angle_sum_is_bit_identical_to_the_mp_context_oracle(radii):
    cosines = flower_cosines(config_of(radii))
    assert angle_sum_residual(cosines).hex() == angle_sum_residual_in_mp_context(cosines).hex()


SMALL_RADII = st.fractions(min_value=F(1, 100), max_value=100, max_denominator=100)


@settings(max_examples=60, deadline=None)
@given(st.one_of(radii_lists(SMALL_RADII), DESCARTES_FLOWERS))
@example([6, 69, 46, 23])
@example([1, 2, 3, 2, 3])
@example([17] * 7)
@example([17, 17, 18, 17, 17, 17, 17])
@example([1, 1, 1, 1])
@example([1, 2, 3, 2])
def test_report_equals_the_oracle_report(radii):
    config = config_of(radii)
    assert validate_flower(config).to_obj() == validation_report_obj(config)


def test_angle_sum_leaves_the_mpmath_context_alone():
    cosines = flower_cosines(ROUND_TRIP)
    expected = angle_sum_residual_in_mp_context(cosines)
    for dps in (15, 100):
        with mp.workdps(dps):
            assert angle_sum_residual(cosines) == expected
            assert mp.dps == dps


def test_angle_sum_names_a_cosine_outside_the_unit_interval():
    for bad in (F(3, 2), F(-7, 5)):
        with pytest.raises(ValueError, match=f"cosine {bad} outside"):
            angle_sum_residual([F(-1, 2), bad, F(0)])
    # The ends of the interval are angles 0 and pi.
    assert angle_sum_residual([F(-1), F(-1), F(1)]) < 1e-39
