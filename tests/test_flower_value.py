"""P_n at a rational point by the sign-conjugate tower (``flower_value``),
checked against the expanded polynomial and the Fraction-sum oracle, and
``validate_flower`` checked to build no polynomial."""

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowerlab import flowerpoly, geometry
from flowerlab.flowerpoly import SizeLimitError, clear_cache, flower_poly, flower_value
from flowerlab.geometry import FlowerConfig, flower_cosines, validate_flower
from flowerlab.ratpoly import SparsePoly
from oracles import evaluate_by_fractions

BIG = 10**30
COORDS = st.one_of(
    st.sampled_from([F(0), F(1), F(-1)]),
    st.fractions(min_value=-2, max_value=2, max_denominator=1000),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
POINTS = st.integers(2, 6).flatmap(lambda n: st.lists(COORDS, min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(POINTS)
@example([F(1), F(-1)])
@example([F(0), F(1), F(-1)])
@example([F(1, BIG - 1), F(-BIG + 3, BIG), F(0), F(1), F(7, BIG)])
@example([F(1, 2), F(-1), F(0), F(1), F(2, 3), F(-BIG + 1, BIG)])
def test_tower_equals_the_expanded_polynomial(xs):
    pn = flower_poly(len(xs))
    value = flower_value(xs)
    assert type(value) is F
    assert value == pn.evaluate(xs) == evaluate_by_fractions(pn, xs)


FLOWERS_ON_THE_VARIETY = [FlowerConfig(k, (k,) * 6) for k in (1, 17, 254)] + [
    FlowerConfig(1, (2, 3, 2, 3)),
    FlowerConfig(6, (69, 46, 23)),
]


@pytest.mark.parametrize("config", FLOWERS_ON_THE_VARIETY, ids=str)
def test_tower_is_zero_on_flowers(config):
    assert flower_value(flower_cosines(config)) == 0


def test_tower_takes_ints_and_refuses_bad_sizes():
    assert flower_value([3, 5]) == 2 == flower_poly(2).evaluate([3, 5])
    for xs in ([], [F(1, 2)]):
        with pytest.raises(ValueError, match="at least two coordinates"):
            flower_value(xs)
    with pytest.raises(SizeLimitError, match=f"n=7 exceeds the size ceiling {flowerpoly.MAX_N}"):
        flower_value([F(1, 2)] * 7)


CHECKED_FLOWERS = [
    FlowerConfig(6, (69, 46, 23)),
    FlowerConfig(1, (1, 1, 1)),
    FlowerConfig(1, (2, 3, 2, 3)),
    FlowerConfig(3, (5, 7, 11, 13)),
    FlowerConfig(1, (1, 2, 3, 4, 5)),
    FlowerConfig(F(7, 3), (1, F(9, 2), 2, 8, 3)),
    FlowerConfig(17, (17,) * 6),
    FlowerConfig(236, (236, 236, 237, 236, 236, 236)),
]


def test_validate_flower_builds_no_polynomial(monkeypatch):
    def expected(config):
        report = validate_flower(config)
        residual = flower_poly(config.n).evaluate(report.cosines)
        return replace(report, variety_residual=residual).to_obj()

    want = [expected(config) for config in CHECKED_FLOWERS]

    def refuse(*args):
        raise AssertionError("validate_flower built or evaluated a polynomial")

    clear_cache()
    monkeypatch.setattr(SparsePoly, "evaluate", refuse)
    monkeypatch.setattr(flowerpoly, "flower_poly", refuse)
    monkeypatch.setattr(geometry, "flower_poly", refuse)
    try:
        assert [validate_flower(config).to_obj() for config in CHECKED_FLOWERS] == want
        assert flowerpoly._RECURSION_CACHE == {}
    finally:
        clear_cache()
