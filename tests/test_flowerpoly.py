"""Flower polynomial constructions, structural identities, radius expansion."""

import enum
import math
import random
from importlib import resources
from itertools import combinations

import pytest

from flowerlab import flowerpoly, geometry, mixedring
from flowerlab.flowerpoly import (
    CheckReport,
    FlowerPolySet,
    SizeLimitError,
    closure_product_poly,
    flower_poly,
    flower_poly_from_product,
    radius_coefficients_symmetric,
    radius_expansion,
    random_flower_angles,
    variety_residual,
    verify,
    verify_general_recursion,
    verify_monic,
    verify_specialization,
    verify_square,
    verify_symmetry,
)
from flowerlab.mixedring import MixedElement, apply_sign, cos_sin_over_slots
from flowerlab.ratpoly import SparsePoly, poly_dumps

P1 = SparsePoly(1, {(1,): 1, (0,): -1})
P2 = SparsePoly(2, {(0, 1): 1, (1, 0): -1})
P3 = SparsePoly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 1): -2, (0, 0, 0): -1})


def transcribed_p4() -> SparsePoly:
    terms = {}
    for i in range(4):
        e = [0, 0, 0, 0]
        e[i] = 4
        terms[tuple(e)] = 1
    for i, j in combinations(range(4), 2):
        e = [0, 0, 0, 0]
        e[i] = e[j] = 2
        terms[tuple(e)] = -2
    for triple in combinations(range(4), 3):
        e = [0, 0, 0, 0]
        for i in triple:
            e[i] = 2
        terms[tuple(e)] = 4
    terms[(1, 1, 1, 1)] = 8
    for i in range(4):
        e = [1, 1, 1, 1]
        e[i] = 3
        terms[tuple(e)] = -4
    return SparsePoly(4, terms)


def test_base_cases_match_fixtures():
    assert flower_poly(1) == P1
    assert flower_poly(2) == P2
    assert poly_dumps(flower_poly(1)) == poly_dumps(P1)
    assert poly_dumps(flower_poly(2)) == poly_dumps(P2)


def test_three_and_four_petal_displays():
    assert flower_poly(3) == P3
    assert flower_poly(4) == transcribed_p4()


def test_five_petal_designated_coefficients():
    p5 = flower_poly(5)
    designated = {
        (0, 0, 0, 0, 8): 1,
        (1, 1, 1, 1, 7): -8,
        (0, 2, 0, 0, 6): 4,
        (2, 2, 2, 0, 6): 16,
        (8, 0, 0, 0, 0): 1,
        (0, 0, 0, 0, 6): -4,
        (0, 0, 2, 2, 6): -8,
        (1, 1, 1, 1, 5): -24,
        (1, 3, 1, 1, 5): 40,
        (3, 3, 3, 3, 3): -128,
        (2, 2, 2, 2, 4): -144,
        (4, 0, 0, 0, 4): 6,
        (2, 0, 0, 0, 2): 12,
        (0, 0, 0, 0, 0): 1,
    }
    for exps, coeff in designated.items():
        assert p5.coefficient(exps) == coeff, exps


def test_five_petal_fixture_file_is_canonical():
    text = resources.files("flowerlab").joinpath("data/p5.json").read_text()
    assert text == poly_dumps(flower_poly(5)) + "\n"


class Count(enum.IntEnum):
    FOUR = 4


@pytest.mark.parametrize("build", [closure_product_poly, flower_poly_from_product, verify])
def test_range_checked_constructions_refuse_an_int_subclass(build):
    with pytest.raises(ValueError, match="supports n in 2..[56], got 4"):
        build(Count.FOUR)


@pytest.mark.parametrize("n", [True, 2.0])
def test_flower_poly_refuses_a_bool_or_float(n):
    with pytest.raises(ValueError, match=f"petal count must be a positive integer, got {n}"):
        flower_poly(n)


@pytest.mark.parametrize("composition", [(True, 2), (1.0, 2)])
def test_block_product_refuses_parts_that_are_not_ints(composition):
    with pytest.raises(ValueError, match="composition must have positive parts"):
        flowerpoly.block_product(3, composition)


@pytest.mark.parametrize("n", [3.0, True])
def test_block_product_refuses_a_size_that_is_not_an_int(n):
    with pytest.raises(ValueError, match=f"n must be a positive integer, got {n}"):
        flowerpoly.block_product(n, (1, 2) if n == 3 else (1,))


def test_closure_small_cases():
    # For n = 1 the closure product is P_1, not its square, so it is refused.
    with pytest.raises(ValueError, match="supports n in 2..5, got 1"):
        closure_product_poly(1)
    x1, x2 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    assert closure_product_poly(2) == (x1 - x2) * (x1 - x2)
    assert closure_product_poly(3) == P3 * P3


def test_closure_gate():
    with pytest.raises(ValueError):
        closure_product_poly(6)


def test_product_route_equals_recursion():
    for n in range(2, 7):
        assert flower_poly_from_product(n) == flower_poly(n)


def mixed_ring_step(prev: SparsePoly, n: int) -> SparsePoly:
    """prev with its last variable replaced by w = cos(t_{n-1}+t_n), times its
    conjugate under the sign generator on y_{n-1}*y_n, multiplied out in the
    mixed ring (the recursion step before the norm form)."""
    last = prev.nvars - 1
    w = cos_sin_over_slots(n, (n - 2, n - 1))[0]
    w_pow = [MixedElement.one(n)]
    for _ in range(prev.degree_in(last)):
        w_pow.append(w_pow[-1] * w)
    a = MixedElement.zero(n)
    for exps, coeff in prev.items():
        a = a + MixedElement(n, {(exps[:last] + (0, 0), 0): coeff}) * w_pow[exps[last]]
    return (a * apply_sign(1 << (n - 2), a)).to_poly()


def test_traced_names_stay_bound_where_the_tracer_looks_them_up():
    # perfbench/spans.py wraps apply_sign and flower_poly in these modules'
    # namespaces, though neither module calls the name it imports.
    assert flowerpoly.apply_sign is mixedring.apply_sign
    assert geometry.flower_poly is flowerpoly.flower_poly


def test_norm_form_matches_mixed_ring_step():
    ref = flower_poly(2)
    for n in range(3, 7):
        ref = mixed_ring_step(ref, n)
        assert ref == flower_poly(n)


def test_square_identity():
    for n in range(2, 6):
        assert verify_square(n).ok


def test_specialization_identity():
    for n in range(3, 6):
        for i in range(n):
            assert verify_specialization(n, i).ok
    # explicit algebra for the smallest case: x2 := 1 in the 3-petal
    # polynomial leaves (x3 - x1)^2
    spec = flower_poly(3).specialize(1, 1)
    x1, x3 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    assert spec == (x3 - x1) * (x3 - x1)


def test_symmetry():
    assert verify_symmetry(3) == CheckReport("symmetry", 3, True, "6 permutations")
    assert verify_symmetry(4) == CheckReport("symmetry", 4, True, "24 permutations")
    # from n = 5 on, a seeded sample of 40 permutations
    assert verify_symmetry(5) == CheckReport("symmetry", 5, True, "40 permutations")
    # the two-variable case is not symmetric
    assert verify_symmetry(2) == CheckReport("symmetry", 2, False, "not invariant under (1, 0)")


def test_every_check_reports_a_corrupted_polynomial(monkeypatch):
    x1 = SparsePoly.variable(4, 0)
    monkeypatch.setitem(flowerpoly._RECURSION_CACHE, 4, flower_poly(4) + x1 ** 4)
    reports, skipped = verify(4)
    assert skipped == []
    assert [r.check for r in reports] == [
        "square", "symmetry", *["specialization"] * 4, "general-recursion", "monic"]
    assert not any(r.ok for r in reports)
    for r in reports:
        if r.check in ("square", "specialization", "general-recursion"):
            assert "first differing term (" in r.detail, r
    assert reports[0].detail == "first differing term (7, 1, 1, 1): closure=-8, square=-16"
    assert reports[2].detail.startswith("x_1:=1, first differing term ")
    assert reports[6].detail.startswith("composition (2, 2), first differing term ")
    assert reports[7].detail == "leading coefficient in x1 is 2, want 1"


def test_verify_plan():
    reports, skipped = verify(2)
    assert [(r.check, r.ok) for r in reports] == [("square", True), ("monic", True)]
    assert skipped == ["symmetry (supports n in 3..6, got 2)",
                       "specialization (supports n in 3..6, got 2)",
                       "recursion (supports n in 3..6, got 2)"]
    reports, skipped = verify(6, ["monic", "square"])  # run in table order
    assert [r.check for r in reports] == ["monic"]
    assert skipped == ["square (supports n in 2..5, got 6)"]
    reports, _ = verify(5, ["recursion"])
    assert reports == [CheckReport("general-recursion", 5, True, "composition (2, 1, 2)")]
    reports, _ = verify(6, ["recursion"])
    assert reports == [CheckReport("general-recursion", 6, True, "composition (2, 2, 2)")]
    for n in (1, 7):
        with pytest.raises(ValueError, match=f"verify supports n in 2..6, got {n}"):
            verify(n)
    # An empty report must never stand for "every named check passed".
    with pytest.raises(ValueError, match=r"unknown checks: \['symetry'\]"):
        verify(5, ["symetry"])
    with pytest.raises(ValueError, match="unknown checks"):
        verify(5, ["monic", "Monic"])
    with pytest.raises(ValueError, match="unknown checks"):
        verify(3, "square")  # a bare string is a list of one-letter names


def test_verify_calls_the_checks_through_the_module(monkeypatch):
    # Span tracing wraps the module attributes, so the plan must look them up.
    calls = []
    monkeypatch.setattr(flowerpoly, "verify_monic", lambda n: calls.append(n) or "m")
    assert verify(3, ["monic"]) == (["m"], [])
    assert calls == [3]


def test_monicity():
    for n in range(2, 7):
        assert verify_monic(n).ok, n
    # the two-variable polynomial is monic only in its last variable
    assert flower_poly(2).coefficient_in(0, 1) == SparsePoly.const(1, -1)
    assert flower_poly(4).degree_in(2) == 4
    assert flower_poly(5).degree_in(4) == 8


def _compositions(n):
    """Every composition of n (ordered positive parts)."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in _compositions(n - first)]


@pytest.mark.parametrize(
    "composition",
    [c for n in range(3, 6) for c in _compositions(n) if len(c) >= 2],
    ids=lambda c: "+".join(map(str, c)),
)
def test_general_recursion_compositions(composition):
    assert verify_general_recursion(sum(composition), composition).ok


def test_general_recursion_rejects_bad_compositions():
    with pytest.raises(ValueError):
        verify_general_recursion(5, (2, 3, 1))  # sums to 6
    with pytest.raises(ValueError):
        verify_general_recursion(4, (4,))
    with pytest.raises(ValueError):
        verify_general_recursion(4, (2, 1))
    with pytest.raises(ValueError):
        verify_general_recursion(4, (2, 0, 2))


def test_size_ceiling():
    with pytest.raises(SizeLimitError):
        flower_poly(7)
    with pytest.raises(SizeLimitError):
        flower_poly(8)
    with pytest.raises(SizeLimitError):
        flower_poly(99)
    with pytest.raises(ValueError):
        flower_poly(0)


def test_variety_residual_special_points():
    third = 2 * math.pi / 3
    assert variety_residual(3, [third, third, third]) <= 1e-12
    assert variety_residual(3, [math.pi, math.pi / 2, math.pi / 2]) <= 1e-12


def test_variety_residual_validates_input():
    with pytest.raises(ValueError):
        variety_residual(3, [1.0, 1.0, 1.0])  # wrong sum
    with pytest.raises(ValueError):
        variety_residual(3, [2 * math.pi, 1.0, -1.0 + 2 * math.pi])  # nonpositive
    with pytest.raises(ValueError):
        variety_residual(3, [1.0, 1.0])


def test_variety_residual_random_membership():
    rng = random.Random(12)
    for n in (3, 4, 5):
        for _ in range(200):
            angles = random_flower_angles(n, rng)
            assert variety_residual(n, angles) <= 1e-9


def test_radius_expansion_structure():
    rx = radius_expansion()
    assert rx.homogeneous.nvars == 4
    # homogeneous of total degree 12 in (r, r1, r2, r3)
    assert all(sum(e) == 12 for e, _ in rx.homogeneous.items())
    assert rx.homogeneous.degree_in(0) == 4
    assert len(rx.coefficients) == 5
    for power, coeff in enumerate(rx.coefficients):
        assert all(sum(e) == 12 - power for e, _ in coeff.items())
    assert rx.coefficients[0] == SparsePoly(3, {(4, 4, 4): 16})
    assert radius_coefficients_symmetric(rx)


def test_flower_poly_set_consistency():
    pn = flower_poly(3)
    bundle = FlowerPolySet(3, {"pn": "recursive"}, pn, pn * pn)
    obj = bundle.to_obj()
    assert obj["n"] == 3 and obj["cn"] is not None
    with pytest.raises(ValueError):
        FlowerPolySet(3, {}, pn, pn)  # not the square
