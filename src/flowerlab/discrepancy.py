"""Cross-checks of the exact machinery against recorded reference values.

Two reference artifacts for the three-petal case are kept here:

* a worked example: parameters (1, 2, 4, 5) giving cosines
  (-3/5, -9/41, -133/205), together with the radii (26, 54/11, 351/59) and
  their integer scaling (649; 16874, 3186, 3861) that were recorded for it;
* the five coefficient lists of the radius polynomial split
  r^8*g8 + r^6*g6 + r^4*g4 - r^2*g2 + g0 (the recorded display attaches
  doubled powers of r; coefficient degrees identify the intended slots
  4, 3, 2, 1, 0 unambiguously).

The reports below recompute everything from scratch and state where the
computation agrees with the recorded values and where it does not.
Agreement between the in-package routes (exact solver, flower validator,
float sweep) is required; agreement with the recorded values is reported,
never assumed.  As of writing, the recorded example radii satisfy the first
and third pairwise cosine equations but not the second, the recorded g2
trinomial disagrees in two of three monomials (as printed it is not even
symmetric in the petal radii), and everything else matches.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .flowerpoly import radius_coefficients_symmetric, radius_expansion
from .geometry import FlowerConfig, center_angle_cosine, validate_flower
from .ratpoly import SparsePoly, format_rational, wire
from .soddy import (
    CosTriple,
    SoddyParams,
    SolveReport,
    cosines_from_params,
    integer_scale,
    solve_radii,
    sweep_radii,
)

REFERENCE_PARAMS = SoddyParams(1, 2, 4, 5)
REFERENCE_RADII = (Fraction(26), Fraction(54, 11), Fraction(351, 59))
REFERENCE_SCALED = FlowerConfig(Fraction(649), (Fraction(16874), Fraction(3186), Fraction(3861)))

# Recorded coefficient lists of the radius polynomial split, keyed by their
# display label; "power" is the actual exponent of the center radius and
# "sign" the sign the display attaches to the r^power * g term.
REFERENCE_RADIUS_COEFFS: dict[str, dict] = {
    "g8": {
        "power": 4,
        "sign": 1,
        "terms": {
            (0, 4, 4): 16, (4, 4, 0): 16, (4, 0, 4): 16,
            (3, 3, 2): 64, (2, 3, 3): 64, (3, 2, 3): 64,
            (4, 1, 3): -64, (4, 3, 1): -64, (3, 4, 1): -64,
            (3, 1, 4): -64, (1, 3, 4): -64, (1, 4, 3): -64,
            (2, 2, 4): 96, (4, 2, 2): 96, (2, 4, 2): 96,
        },
    },
    "g6": {
        "power": 3,
        "sign": 1,
        "terms": {
            (3, 2, 4): 64, (4, 2, 3): 64, (4, 3, 2): 64,
            (3, 4, 2): 64, (2, 3, 4): 64, (2, 4, 3): 64,
            (4, 1, 4): -64, (1, 4, 4): -64, (4, 4, 1): -64,
            (3, 3, 3): 384,
        },
    },
    "g4": {
        "power": 2,
        "sign": 1,
        "terms": {
            (4, 2, 4): 96, (4, 4, 2): 96, (2, 4, 4): 96,
            (4, 3, 3): 64, (3, 3, 4): 64, (3, 4, 3): 64,
        },
    },
    "g2": {
        "power": 1,
        "sign": -1,
        "terms": {(3, 4, 4): 64, (4, 3, 4): -64, (4, 4, 3): -64},
    },
    "g0": {
        "power": 0,
        "sign": 1,
        "terms": {(4, 4, 4): 16},
    },
}


def positive_solution_approxes(report: SolveReport) -> list[tuple[float, float, float]]:
    """Float triples for the solver's positive, equation-verified candidates."""
    out = []
    for cand in report.candidates:
        if cand.positive and cand.equations_ok and not cand.degenerate:
            out.append((cand.r1.approx(), cand.r2.approx(), cand.r3.approx()))
    return sorted(out)


# Relative tolerance of the float sweep against the exact solver's roots.
SWEEP_REL_TOL = 1e-5


def solver_sweep_agree(report: SolveReport, sweep: Sequence[tuple[float, float, float]]) -> bool:
    """Same positive solutions (as sets, within ``SWEEP_REL_TOL``)?"""
    exact = positive_solution_approxes(report)
    approx = sorted(sweep)
    if len(exact) != len(approx):
        return False
    for (a1, a2, a3), (b1, b2, b3) in zip(exact, approx):
        for a, b in ((a1, b1), (a2, b2), (a3, b3)):
            if abs(a - b) > SWEEP_REL_TOL * (1.0 + abs(a)):
                return False
    return True


def pairwise_equation_checks(config: FlowerConfig, cosines: CosTriple) -> dict:
    """Which of the three pairwise cosine equations do the radii satisfy?"""
    scaled = config.scaled(Fraction(1) / config.center)  # center radius 1
    r = scaled.petals
    return {
        "x1": center_angle_cosine(1, r[0], r[1]) == cosines.x1,
        "x2": center_angle_cosine(1, r[1], r[2]) == cosines.x2,
        "x3": center_angle_cosine(1, r[2], r[0]) == cosines.x3,
    }


def radius_example_report() -> dict:
    """Recompute the recorded worked example and compare all routes.

    The report's ``internal_agreement`` section must come out all-true (the
    exact solver, the float sweep, and the flower validator describe the
    same geometry); the ``reference_agreement`` section records how the
    recorded values compare and may legitimately contain False.
    """
    cosines = cosines_from_params(REFERENCE_PARAMS)
    solved = solve_radii(cosines)
    swept = sweep_radii(cosines)
    validation = validate_flower(REFERENCE_SCALED)

    reference_flower = FlowerConfig(Fraction(1), REFERENCE_RADII)
    reference_is_solution = any(
        f.petals == REFERENCE_RADII for f in solved.valid_flowers
    )
    scaled = integer_scale(Fraction(1), REFERENCE_RADII)

    agree_solver_sweep = solver_sweep_agree(solved, swept)
    # The validator accepts the scaled reference config exactly when the
    # reference radii solve the system (validation is scale invariant).
    agree_solver_validator = validation.valid == reference_is_solution

    return wire({
        "params": REFERENCE_PARAMS.as_tuple(),
        "cosines": cosines,
        "reference_radii": REFERENCE_RADII,
        "reference_scaled": REFERENCE_SCALED,
        "reference_rescale_check": scaled,
        "solver": solved,
        "sweep_positive_roots": swept,
        "validator": validation,
        "reference_pair_equations": pairwise_equation_checks(reference_flower, cosines),
        "internal_agreement": {
            "solver_vs_sweep": agree_solver_sweep,
            "solver_vs_validator": agree_solver_validator,
            "all": agree_solver_sweep and agree_solver_validator,
        },
        "reference_agreement": {
            "radii_solve_system": reference_is_solution,
            "validator_accepts_scaled": validation.valid,
            "scaling_factor_matches": scaled.config == REFERENCE_SCALED,
        },
    })


def _poly_from_terms(terms: dict) -> SparsePoly:
    return SparsePoly(3, {tuple(e): c for e, c in terms.items()})


def radius_expansion_report() -> dict:
    """Compare the computed radius-polynomial split against the recorded
    coefficient lists; mismatches are itemized, not raised."""
    expansion = radius_expansion()
    entries = {}
    all_match = True
    for label, ref in REFERENCE_RADIUS_COEFFS.items():
        computed = expansion.coefficients[ref["power"]]
        reference = _poly_from_terms(ref["terms"]) * ref["sign"]
        diffs = []
        for exps in sorted(set(e for e, _ in computed.items()) | set(e for e, _ in reference.items())):
            a = computed.coefficient(exps)
            b = reference.coefficient(exps)
            if a != b:
                diffs.append(
                    {
                        "monomial": list(exps),
                        "computed": format_rational(a),
                        "reference": format_rational(b),
                    }
                )
        match = not diffs
        all_match = all_match and match
        entries[label] = {
            "power": ref["power"],
            "display_sign": ref["sign"],
            "match": match,
            "differences": diffs,
        }
    g0 = expansion.coefficients[0]
    return {
        "coefficients": entries,
        "computed_symmetric": radius_coefficients_symmetric(expansion),
        "constant_coefficient_ok": g0 == SparsePoly(3, {(4, 4, 4): 16}),
        "all_match": all_match,
    }
