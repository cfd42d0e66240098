"""Flower validation from coin radii, planar layout, and SVG rendering.

A flower configuration is a center radius plus a cyclic list of petal radii,
all exact rationals.  Validation separates two kinds of evidence:

* exact: the consecutive-pair cosines (law of cosines, a degree-0
  homogeneous expression in the radii) must zero the flower polynomial.
  ``flowerpoly.flower_value`` evaluates it at the cosines as a tower of
  sign-conjugate products, so the expanded polynomial is never built; the
  petal count still stops at ``flowerpoly.MAX_N``, because the residual's
  digits grow about twofold per petal;
* numeric: the center angles must actually sum to 2*pi.  The polynomial
  relation alone admits configurations on other angle branches (for example
  one angle equal to the sum of the others), so the angle sum is the
  deciding check.  It is evaluated with ``DPS``-digit arithmetic against
  the float tolerance ``ANGLE_SUM_TOL``.

For three petals each center angle of a genuine flower lies strictly
between 90 and 180 degrees, i.e. its cosine lies in (-1, 0); that range is
enforced exactly.  For more petals only non-degeneracy is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp

# validate_flower does not call flower_poly; the name stays bound because
# perfbench/spans.py wraps it in this module's __dict__.
from .flowerpoly import flower_poly, flower_value  # noqa: F401
from .ratpoly import format_rational

# Decimal digits of the mpmath arithmetic behind the angle sum and the layout.
DPS = 40
# Largest |angle sum - 2*pi| a valid flower may show.
ANGLE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class FlowerConfig:
    """Center radius plus cyclically ordered petal radii, all positive."""

    center: Fraction
    petals: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center))
        object.__setattr__(self, "petals", tuple(Fraction(p) for p in self.petals))
        if len(self.petals) < 3:
            raise ValueError("a flower needs at least three petals")
        if self.center <= 0 or any(p <= 0 for p in self.petals):
            raise ValueError("all radii must be strictly positive")

    @property
    def n(self) -> int:
        return len(self.petals)

    def scaled(self, factor) -> "FlowerConfig":
        factor = Fraction(factor)
        return FlowerConfig(self.center * factor, tuple(p * factor for p in self.petals))

    def to_obj(self) -> dict:
        return {
            "center": format_rational(self.center),
            "petals": [format_rational(p) for p in self.petals],
        }


def center_angle_cosine(r, ri, rj) -> Fraction:
    """Cosine of the center angle spanned by two adjacent petals.

    From the triangle with sides r+ri, r+rj and ri+rj; simplifies to
    (r^2 + r*ri + r*rj - ri*rj) / ((r+ri)(r+rj)), which is invariant under
    scaling all three radii.
    """
    r, ri, rj = Fraction(r), Fraction(ri), Fraction(rj)
    if r <= 0 or ri <= 0 or rj <= 0:
        raise ValueError("radii must be strictly positive")
    return (r * r + r * ri + r * rj - ri * rj) / ((r + ri) * (r + rj))


@dataclass(frozen=True)
class ValidationReport:
    config: FlowerConfig
    cosines: tuple[Fraction, ...]
    variety_residual: Fraction  # exact value of the flower polynomial
    angle_sum_residual: float
    angle_range_ok: tuple[bool, ...]
    valid: bool
    reasons: tuple[str, ...]

    def to_obj(self) -> dict:
        return {
            "config": self.config.to_obj(),
            "cosines": [format_rational(c) for c in self.cosines],
            "variety_residual": format_rational(self.variety_residual),
            "angle_sum_residual": self.angle_sum_residual,
            "angle_range_ok": list(self.angle_range_ok),
            "valid": self.valid,
            "reasons": list(self.reasons),
        }


def flower_cosines(config: FlowerConfig) -> tuple[Fraction, ...]:
    """Cosines of the n center angles between consecutive petals (cyclic)."""
    n = config.n
    return tuple(
        center_angle_cosine(config.center, config.petals[i], config.petals[(i + 1) % n])
        for i in range(n)
    )


def angle_sum_residual(cosines: Sequence[Fraction]) -> float:
    """|sum of arccos(cosines) - 2*pi| evaluated with ``DPS`` digits."""
    with mp.workdps(DPS):
        total = mp.fsum(
            mp.acos(mp.mpf(c.numerator) / mp.mpf(c.denominator)) for c in map(Fraction, cosines)
        )
        return float(abs(total - 2 * mp.pi))


def validate_flower(config: FlowerConfig) -> ValidationReport:
    """Full validity check: exact polynomial membership, numeric angle sum,
    and (for three petals) the exact per-angle range."""
    n = config.n
    cosines = flower_cosines(config)
    residual = flower_value(cosines)
    sum_residual = angle_sum_residual(cosines)
    if n == 3:
        range_ok = tuple(Fraction(-1) < c < 0 for c in cosines)
        range_msg = "center angle outside (90, 180) degrees"
    else:
        range_ok = tuple(Fraction(-1) < c < 1 for c in cosines)
        range_msg = "degenerate center angle"
    reasons: list[str] = []
    if residual != 0:
        reasons.append("cosines do not lie on the flower variety")
    if sum_residual > ANGLE_SUM_TOL:
        reasons.append(f"angle sum misses 2*pi by {sum_residual:.3e}")
    if not all(range_ok):
        reasons.append(range_msg)
    return ValidationReport(
        config=config,
        cosines=cosines,
        variety_residual=residual,
        angle_sum_residual=sum_residual,
        angle_range_ok=range_ok,
        valid=not reasons,
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class CirclePlacement:
    x: float
    y: float
    radius: float
    is_center: bool

    def to_obj(self) -> dict:
        return {"x": self.x, "y": self.y, "radius": self.radius, "is_center": self.is_center}


class InvalidFlowerError(ValueError):
    """Raised by ``layout`` for a configuration that fails ``validate_flower``."""


def layout(config: FlowerConfig) -> list[CirclePlacement]:
    """Place a validated flower in the plane.

    The center coin sits at the origin; petal k sits at distance
    center + petal_k from the origin, rotated by the cumulative sum of the
    preceding center angles.  Raises ``InvalidFlowerError`` for
    configurations that fail ``validate_flower``.
    """
    report = validate_flower(config)
    if not report.valid:
        raise InvalidFlowerError("not a valid flower: " + "; ".join(report.reasons))
    placements = [CirclePlacement(0.0, 0.0, float(config.center), True)]
    with mp.workdps(DPS):
        angles = [
            mp.acos(mp.mpf(c.numerator) / mp.mpf(c.denominator)) for c in report.cosines
        ]
        phi = mp.mpf(0)
        for k, petal in enumerate(config.petals):
            dist = mp.mpf((config.center + petal).numerator) / mp.mpf(
                (config.center + petal).denominator
            )
            placements.append(
                CirclePlacement(
                    float(dist * mp.cos(phi)), float(dist * mp.sin(phi)), float(petal), False
                )
            )
            phi += angles[k]
    return placements


def render_svg(placements: Sequence[CirclePlacement]) -> str:
    """Deterministic SVG for a list of circle placements.

    Fixed six-decimal formatting and a viewBox fitted to the bounding box
    with a 5% margin make the output byte-identical for identical input.
    """
    if not placements:
        raise ValueError("nothing to render")
    min_x = min(p.x - p.radius for p in placements)
    max_x = max(p.x + p.radius for p in placements)
    min_y = min(p.y - p.radius for p in placements)
    max_y = max(p.y + p.radius for p in placements)
    span = max(max_x - min_x, max_y - min_y)
    margin = 0.05 * span
    view = (
        f"{min_x - margin:.6f} {-(max_y + margin):.6f} "
        f"{max_x - min_x + 2 * margin:.6f} {max_y - min_y + 2 * margin:.6f}"
    )
    stroke = f"{0.005 * span:.6f}"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
    ]
    for p in placements:
        fill = "#e8c468" if p.is_center else "#9ecbe8"
        lines.append(
            f'  <circle cx="{p.x:.6f}" cy="{-p.y:.6f}" r="{p.radius:.6f}" '
            f'fill="{fill}" fill-opacity="0.85" stroke="#333333" stroke-width="{stroke}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
