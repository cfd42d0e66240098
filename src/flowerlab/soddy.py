"""Rational three-petal flowers and mutually tangent circle quadruples.

Contents:

* a four-integer parametrization of rational cosine triples on the
  three-petal flower variety, with the five positivity constraints that are
  supposed to accompany it (``cosines_from_params`` / ``constraint_report``).
  With cross = m1*n2 + m2*n1 and q_i = m_i^2 + n_i^2 the radii are proved
  to be r_1 = n1*cross/(n2*q1 - n1*cross), r_2 = n1*n2/(cross - n1*n2) and
  r_3 = n2*cross/(n1*q2 - n2*cross) (the other root of the r_1 quadratic,
  -n1*cross/(n2*q1 + n1*cross), is negative).  So r_1 > 0 iff
  n2*q1 > n1*cross: the fourth recorded constraint, n1*cross > n2*q1, is
  reversed, and a tuple has a valid flower iff constraints 3 and 5 hold,
  the reversed fourth holds, and n1*n2 > m1*m2 (the angle-sum branch).
  The parametrization reaches every integer flower: petal curvatures k_i
  with a rational inner Soddy curvature k_0 come back at center radius 1 from
  n1/m1 = 2*k_0/(k_0 + k_1 + k_2 - k_3), n2/m2 = 2*k_0/(k_0 + k_2 + k_3 - k_1)
  (``test_parametrization_reaches_every_integer_flower``, radii 1..40);
* the exact radii solver ``solve_radii``: the three pairwise law-of-cosines
  equations factor as (r_i - u)(r_j - u) = w with u = (1-x)/(1+x) and
  w = u(u+1), and eliminating r_2, r_3 leaves an integer quadratic in r_1;
  every root, rational or not, is back-substituted, re-verified and signed
  in the integers of Z[sqrt(R)] and gated by the angle-sum branch check;
  ``QuadraticValue`` records each irrational radius for output only;
* ``sweep_radii``: a float grid-plus-bisection search for positive
  solutions of the same system, kept deliberately independent of the exact
  algebra so the two can audit each other;
* the Descartes curvature identity, the two tangent-curvature companions of
  a triple, an integer curvature-quadruple generator with its side
  condition x^2 + m^2 = d1*d2, and the rational inverse mapping from the
  four-integer parametrization onto those generator ratios;
* ``scan_lattice``: an exhaustive serial audit over the parameter lattice,
  one record per tuple in lexicographic order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from operator import attrgetter
from typing import Iterator, Optional, Sequence

from .geometry import ANGLE_SUM_TOL, FlowerConfig, angle_sum_residual
from .ratpoly import Record, format_rational, nested_json, wire


# -- small exact helpers -------------------------------------------------------


def sqrt_exact(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None if irrational."""
    value = Fraction(value)
    if value < 0:
        raise ValueError("negative radicand")
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def rational_sine(x) -> Optional[Fraction]:
    """sin from cos when it is rational: sqrt(1 - x^2) if that is a perfect
    rational square, else None.  Requires |x| <= 1."""
    x = Fraction(x)
    if abs(x) > 1:
        raise ValueError(f"|{x}| > 1 is not a cosine")
    return sqrt_exact(1 - x * x)


@dataclass(frozen=True)
class QuadraticValue:
    """Output record for a number base + coef*sqrt(radicand): irrational
    radii and tangent curvatures, packaged for ``to_obj()``.

    ``make`` folds perfect-square radicands away, so ``coef != 0`` means the
    value is irrational.  Any other radicand p/q is kept as the integer p*q
    (with coef/q) and never factored, so one number has many records:
    3 + 2*sqrt(3) is also 3 + 1/24*sqrt(6912).  Records compare field by
    field, not by value, and the library does no arithmetic on them.
    """

    base: Fraction
    coef: Fraction
    radicand: Fraction

    @classmethod
    def make(cls, base, coef=0, radicand=0) -> "QuadraticValue":
        base, coef, radicand = Fraction(base), Fraction(coef), Fraction(radicand)
        if radicand < 0:
            raise ValueError("negative radicand")
        if coef == 0 or radicand == 0:
            return cls(base, Fraction(0), Fraction(0))
        root = sqrt_exact(radicand)
        if root is not None:
            return cls(base + coef * root, Fraction(0), Fraction(0))
        # sqrt(p/q) = sqrt(p*q)/q keeps the radicand an integer.
        q = radicand.denominator
        return cls(base, coef / q, Fraction(radicand.numerator * q))

    @property
    def is_rational(self) -> bool:
        return self.coef == 0

    def approx(self) -> float:
        root = math.sqrt(float(self.coef * self.coef * self.radicand))
        return float(self.base) + (root if self.coef > 0 else -root)

    def __add__(self, other) -> "QuadraticValue":
        # Only perfbench/test_perfbench.py calls this: it builds a wrong root as cand.r1 + 1.
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QuadraticValue(self.base + other, self.coef, self.radicand)

    def to_obj(self) -> dict:
        out = {"rational": self.is_rational, "approx": self.approx()}
        if self.is_rational:
            out["value"] = format_rational(self.base)
        else:
            out["base"] = format_rational(self.base)
            out["coef"] = format_rational(self.coef)
            out["radicand"] = format_rational(self.radicand)
        return out


# -- parametrized cosines -------------------------------------------------------


@dataclass(frozen=True)
class SoddyParams:
    """Four positive integers parametrizing a rational cosine triple."""

    m1: int
    n1: int
    m2: int
    n2: int

    def __post_init__(self):
        for name in ("m1", "n1", "m2", "n2"):
            v = getattr(self, name)
            if type(v) is not int or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.m1, self.n1, self.m2, self.n2)


@dataclass(frozen=True)
class CosTriple:
    x1: Fraction
    x2: Fraction
    x3: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x1, self.x2, self.x3)

    def to_obj(self) -> list[str]:
        # format_rational, not wire: a CosTriple built from ints prints strings.
        return [format_rational(x) for x in self.as_tuple()]


def cosines_from_params(p: SoddyParams) -> CosTriple:
    """Exact cosine triple on the three-petal flower variety.

    x1 and x2 come from the classic two-square parametrization of rational
    points on the unit circle, and x3 is the angle-sum cosine
    x1*x2 - sqrt(1-x1^2)*sqrt(1-x2^2), which here is rational by
    construction; the triple zeroes the flower polynomial identically and
    all three components admit rational sines.
    """
    m1, n1, m2, n2 = p.as_tuple()
    q1 = m1 * m1 + n1 * n1
    q2 = m2 * m2 + n2 * n2
    a1 = m1 * m1 - n1 * n1
    a2 = m2 * m2 - n2 * n2
    x1 = Fraction(a1, q1)
    x2 = Fraction(a2, q2)
    x3 = Fraction(a1 * a2 - 4 * m1 * m2 * n1 * n2, q1 * q2)
    return CosTriple(x1, x2, x3)


@dataclass(frozen=True)
class ConstraintReport(Record):
    """The five inequalities that are supposed to pick out genuine flowers."""

    n1_gt_m1: bool
    n2_gt_m2: bool
    cross_gt_product: bool  # m1*n2 + m2*n1 > n1*n2
    r1_positive: bool  # n1*(m1*n2 + m2*n1) > n2*(m1^2 + n1^2)
    r3_positive: bool  # n1*(m2^2 + n2^2) > n2*(m1*n2 + m2*n1)

    WIRE_EXTRA = ("all_hold",)

    @property
    def all_hold(self) -> bool:
        return all(self.as_tuple())

    def as_tuple(self) -> tuple[bool, ...]:
        return (self.n1_gt_m1, self.n2_gt_m2, self.cross_gt_product,
                self.r1_positive, self.r3_positive)


def constraint_report(p: SoddyParams) -> ConstraintReport:
    m1, n1, m2, n2 = p.as_tuple()
    cross = m1 * n2 + m2 * n1
    return ConstraintReport(
        n1_gt_m1=n1 > m1,
        n2_gt_m2=n2 > m2,
        cross_gt_product=cross > n1 * n2,
        r1_positive=n1 * cross > n2 * (m1 * m1 + n1 * n1),
        r3_positive=n1 * (m2 * m2 + n2 * n2) > n2 * cross,
    )


# -- Descartes circle identity ----------------------------------------------------


@dataclass(frozen=True)
class CurvatureQuad:
    """Four curvatures; zero means a tangent line, negative an enclosing circle."""

    b1: Fraction
    b2: Fraction
    b3: Fraction
    b4: Fraction

    def __post_init__(self):
        for name in ("b1", "b2", "b3", "b4"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def as_tuple(self):
        return (self.b1, self.b2, self.b3, self.b4)

    def to_obj(self) -> list[str]:
        return wire(self.as_tuple())


def descartes_check(quad: CurvatureQuad) -> bool:
    """Exact test of the four-circle curvature identity:
    b1^2+b2^2+b3^2+b4^2 = (b1+b2+b3+b4)^2 / 2."""
    b = quad.as_tuple()
    return sum(x * x for x in b) * 2 == sum(b) ** 2


def tangent_curvatures(k1, k2, k3) -> tuple[QuadraticValue, QuadraticValue]:
    """The two curvatures completing three mutually tangent circles:
    k1 + k2 + k3 +/- 2*sqrt(k1*k2 + k2*k3 + k3*k1).  Both companions satisfy
    the Descartes identity with the given triple."""
    k1, k2, k3 = Fraction(k1), Fraction(k2), Fraction(k3)
    radicand = k1 * k2 + k2 * k3 + k3 * k1
    if radicand < 0:
        raise ValueError(f"negative radicand {radicand}; no real tangent circle")
    s = k1 + k2 + k3
    return (
        QuadraticValue.make(s, 2, radicand),
        QuadraticValue.make(s, -2, radicand),
    )


# -- exact radii solver ------------------------------------------------------------


@dataclass(frozen=True)
class RadiiCandidate(Record):
    """One root of the r_1 quadratic with the matching r_2, r_3."""

    r1: QuadraticValue
    r2: QuadraticValue
    r3: QuadraticValue
    rational: bool
    positive: bool
    equations_ok: bool
    angle_sum_ok: bool
    degenerate: bool = False

    WIRE_EXTRA = ("valid",)

    @property
    def valid(self) -> bool:
        return (
            self.positive and self.equations_ok and self.angle_sum_ok
            and not self.degenerate
        )


@dataclass(frozen=True)
class SolveReport(Record):
    cosines: CosTriple
    quadratic: tuple[Fraction, Fraction, Fraction]  # a, b, c in a*r^2 + b*r + c
    discriminant: Optional[Fraction]  # None when the equation degenerates to linear
    discriminant_square: Optional[bool]
    angle_sum_residual: float
    angle_sum_ok: bool
    candidates: tuple[RadiiCandidate, ...]
    valid_flowers: tuple[FlowerConfig, ...]  # rational valid solutions, center radius 1


_ZERO = Fraction(0)


def _back_substitute(a: int, b: int, c: int, r1: tuple[int, int, int], rad: int):
    """r = u + w/(r_1 - u) for u = a/b and w = a*c/b^2, where the triple
    (x, y, m) stands for (x + y*sqrt(rad))/m.  Returns r as such a triple,
    or None when r_1 = u leaves r undefined."""
    x, y, m = r1
    # With t = e + e_y*sqrt(rad): r_1 - u = t/(m*b) and r = a*(t + c*m)/(b*t).
    e, e_y = x * b - a * m, y * b
    if not e_y:
        return (a * (e + c * m), 0, b * e) if e else None
    # Times the conjugate e - e_y*sqrt(rad), nonzero because rad is no square.
    norm = e * e - e_y * e_y * rad
    return (a * (e * (e + c * m) - e_y * e_y * rad), -a * c * m * e_y, b * norm)


def _pair_equation_ok(a: int, b: int, c: int, ra: tuple[int, int, int],
                      rb: tuple[int, int, int], rad: int) -> bool:
    """(r_a - u)(r_b - u) == w for u = a/b, w = a*c/b^2 and the triples r_a, r_b
    of ``_back_substitute``, with every denominator multiplied out: the
    rational part must be a*c*m_a*m_b and the sqrt(rad) part 0."""
    (xa, ya, ma), (xb, yb, mb) = ra, rb
    ea, fa = xa * b - a * ma, ya * b
    eb, fb = xb * b - a * mb, yb * b
    return ea * eb + fa * fb * rad == a * c * ma * mb and ea * fb + fa * eb == 0


def _sign(r: tuple[int, int, int], rad: int) -> int:
    """Exact sign -1, 0 or 1 of (x + y*sqrt(rad))/m for r = (x, y, m), where
    rad > 0 unless y = 0."""
    x, y, m = r
    sm, sx, sy = (m > 0) - (m < 0), (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx * sy >= 0:  # one sign, or x or y is 0
        return sm * (sx or sy)
    # Opposite signs: compare x^2 with y^2 * rad.
    d = x * x - y * y * rad
    return sm * sx * ((d > 0) - (d < 0))


def _cosine_parts(cosines: CosTriple | Sequence) -> tuple[CosTriple, list[tuple[int, int]]]:
    """A ``CosTriple``, or a sequence that holds three rationals, as a
    ``CosTriple`` with each cosine's numerator and denominator; every cosine
    must lie in (-1, 1)."""
    if not isinstance(cosines, CosTriple):
        xs = tuple(cosines)
        if len(xs) != 3:
            raise ValueError(f"need 3 cosines, got {len(xs)}")
        cosines = CosTriple(*map(Fraction, xs))
    parts = []
    for x in cosines.as_tuple():
        p, q = x.numerator, x.denominator
        if p == -q:
            raise ValueError("cosine -1 gives a degenerate (straight-angle) petal pair")
        if not -q < p < q:
            raise ValueError(f"cosine {x} outside (-1, 1)")
        parts.append((p, q))
    return cosines, parts


def solve_radii(cosines: CosTriple | Sequence) -> SolveReport:
    """Solve for petal radii (center radius 1) matching an exact cosine triple.

    Eliminating r_2 (via the x_1 equation) and r_3 (via the x_3 equation)
    from the x_2 equation leaves one quadratic q_a*r^2 + q_b*r + q_c in r_1.
    It is solved in integers.  With x_i = p_i/q_i, a_i = q_i - p_i,
    b_i = q_i + p_i and c_i = 2*q_i (so u_i = a_i/b_i, w_i = a_i*c_i/b_i^2),
    its coefficients over D = b_1*b_2^2*b_3 are

        q_a = QA/D,  QA = (a_1*b_2 - a_2*b_1)(a_3*b_2 - a_2*b_3) - a_2*c_2*b_1*b_3,
        q_c = QC/D,  QC = a_1*a_3*c_2*b_2,    q_b = 2*q_c.

    The discriminant is 4*QC*(QC - QA)/D^2 = 4*w_1*w_2*w_3 > 0.  With
    R = QC*(QC - QA), each root is an integer triple (x, y, m) standing for
    (x + y*sqrt(R))/m: (-QC +/- s, 0, QA) when ``isqrt`` gives R = s^2,
    (-QC, +/-1, QA) otherwise, and (-1, 0, 2) for -q_c/q_b when QA = 0.
    Every root takes one path in Z[sqrt(R)]: r_2 and r_3 by
    ``_back_substitute`` (r_1 = u_1 or u_3 is a degenerate candidate), the
    three pairwise equations re-verified with denominators cleared, and an
    exact sign per radius; ``QuadraticValue`` only packages the results.  A
    valid flower needs positive radii, all three equations and the angle-sum
    branch check: the float angle sum within ``ANGLE_SUM_TOL`` of 2*pi and
    every cosine negative, as in every genuine three-petal flower.
    """
    cosines, parts = _cosine_parts(cosines)
    abc, angles = [], []
    for p, q in parts:
        abc.append((q - p, q + p, 2 * q))
        angles.append(math.acos(p / q))
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = abc
    qa_num = (a1 * b2 - a2 * b1) * (a3 * b2 - a2 * b3) - a2 * c2 * b1 * b3
    qc_num = a1 * a3 * c2 * b2
    den = b1 * b2 * b2 * b3
    qa, qb, qc = Fraction(qa_num, den), Fraction(2 * qc_num, den), Fraction(qc_num, den)

    # Double precision decides the branch check except within three orders
    # of magnitude of ``ANGLE_SUM_TOL``; the ambiguous window escalates to
    # 40-digit arithmetic.
    fast = abs(math.fsum(angles) - 2.0 * math.pi)
    if fast > 1e3 * ANGLE_SUM_TOL or fast < 1e-3 * ANGLE_SUM_TOL:
        sum_residual = fast
    else:
        sum_residual = angle_sum_residual(cosines.as_tuple())
    # Three rays from a point satisfy one of theta_a = theta_b + theta_c or
    # sum theta = 2*pi; with every angle in (90, 180) degrees only the sum
    # can hold, so the range decides the branch where the float sum cannot.
    # A cosine p/q is negative exactly when a = q - p exceeds b = q + p.
    angle_ok = sum_residual <= ANGLE_SUM_TOL and a1 > b1 and a2 > b2 and a3 > b3

    disc: Optional[Fraction] = None
    disc_square: Optional[bool] = None
    rad = 0
    roots = [(-1, 0, 2)]  # linear: -q_c/q_b, with q_b = 2*q_c and q_c > 0
    if qa_num != 0:
        # disc/4 = q_c*(q_c - q_a) = w_1*w_2*w_3 > 0: two distinct real roots.
        rad = qc_num * (qc_num - qa_num)
        disc = Fraction(4 * rad, den * den)
        s = isqrt(rad)
        disc_square = s * s == rad
        if disc_square:
            roots = [(s - qc_num, 0, qa_num), (-s - qc_num, 0, qa_num)]
        else:
            roots = [(-qc_num, 1, qa_num), (-qc_num, -1, qa_num)]
            disc_q = disc.denominator  # sqrt(p/q) = sqrt(p*q)/q, as QuadraticValue.make has it
            radicand = Fraction(disc.numerator * disc_q)
    rational = disc_square is not False

    candidates: list[RadiiCandidate] = []
    flowers: list[FlowerConfig] = []
    for r1 in roots:
        r2 = _back_substitute(a1, b1, c1, r1, rad)
        r3 = _back_substitute(a3, b3, c3, r1, rad)
        degenerate = r2 is None or r3 is None  # reported with r_2 = r_3 = 0
        if degenerate:
            r2 = r3 = (0, 0, 1)
        eq_ok = not degenerate and (
            _pair_equation_ok(a1, b1, c1, r1, r2, rad)
            and _pair_equation_ok(a2, b2, c2, r2, r3, rad)
            and _pair_equation_ok(a3, b3, c3, r3, r1, rad)
        )
        positive = not degenerate and (
            _sign(r1, rad) > 0 and _sign(r2, rad) > 0 and _sign(r3, rad) > 0
        )
        if rational:
            values = [QuadraticValue(Fraction(x, m), _ZERO, _ZERO) for x, _, m in (r1, r2, r3)]
        else:
            # sqrt(R) = (D/(2q))*sqrt(radicand); y != 0, since QA, a_i and c_i are nonzero.
            values = [QuadraticValue(Fraction(x, m), Fraction(y * den, 2 * m * disc_q), radicand)
                      for x, y, m in (r1, r2, r3)]
        cand = RadiiCandidate(*values, rational, positive, eq_ok, angle_ok, degenerate)
        candidates.append(cand)
        if rational and cand.valid:
            flowers.append(FlowerConfig(Fraction(1), tuple(v.base for v in values)))

    return SolveReport(
        cosines=cosines,
        quadratic=(qa, qb, qc),
        discriminant=disc,
        discriminant_square=disc_square,
        angle_sum_residual=sum_residual,
        angle_sum_ok=angle_ok,
        candidates=tuple(candidates),
        valid_flowers=tuple(flowers),
    )


def sweep_radii(cosines: Sequence) -> list[tuple[float, float, float]]:
    """Positive radii solutions found by float grid search plus bisection.

    Independent of the exact solver: walks r_1 over a 4000-step log grid on
    [1e-6, 1e6], derives r_2 and r_3 from the first and third pairwise
    equations, and bisects sign changes of the second equation's residual.
    Spurious pole crossings are rejected by re-checking the residual at the
    bisected point.  Returns (r1, r2, r3) triples with all entries positive;
    cosines outside (-1, 1) raise ``solve_radii``'s ``ValueError``.
    """
    samples, r_min, r_max = 4000, 1e-6, 1e6
    xs = [float(x) for x in _cosine_parts(cosines)[0].as_tuple()]
    u = [(1.0 - x) / (1.0 + x) for x in xs]
    w = [ui * (ui + 1.0) for ui in u]

    def residual(r1: float):
        d1 = r1 - u[0]
        d3 = r1 - u[2]
        if abs(d1) < 1e-300 or abs(d3) < 1e-300:
            return None
        r2 = u[0] + w[0] / d1
        r3 = u[2] + w[2] / d3
        f = (r2 - u[1]) * (r3 - u[1]) - w[1]
        if not math.isfinite(f):
            return None
        return f, r2, r3

    ratio = r_max / r_min
    grid = [r_min * ratio ** (i / samples) for i in range(samples + 1)]
    # Make sure the poles split grid cells instead of hiding inside one.
    for pole in (u[0], u[2]):
        if r_min < pole < r_max:
            grid.extend([pole * (1 - 1e-9), pole * (1 + 1e-9)])
    grid.sort()

    tol = 1e-7 * (1.0 + abs(w[1]))
    found: list[tuple[float, float, float]] = []
    prev: Optional[tuple[float, float]] = None
    for r in grid:
        res = residual(r)
        if res is None:
            prev = None
            continue
        f = res[0]
        if prev is not None:
            r0, f0 = prev
            if f == 0.0 or f0 == 0.0 or (f < 0.0) != (f0 < 0.0):
                lo, hi, flo = r0, r, f0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    rm = residual(mid)
                    if rm is None:
                        break
                    fm = rm[0]
                    if fm == 0.0:
                        lo = hi = mid
                        break
                    if (fm < 0.0) == (flo < 0.0):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                root = 0.5 * (lo + hi)
                rr = residual(root)
                if rr is not None and abs(rr[0]) <= tol:
                    _, r2, r3 = rr
                    if root > 0 and r2 > 0 and r3 > 0:
                        if not any(abs(root - f0_) <= 1e-6 * (1 + abs(root)) for f0_, _, _ in found):
                            found.append((root, r2, r3))
        prev = (r, f)
    return found


# -- integer scaling ------------------------------------------------------------


@dataclass(frozen=True)
class ScaledFlower(Record):
    scale: int
    config: FlowerConfig


def integer_scale(center, petals: Sequence) -> ScaledFlower:
    """Scale a rational flower by the lcm of all denominators, producing
    integer radii; the multiplier is reported, common factors are kept."""
    center = Fraction(center)
    petals = [Fraction(p) for p in petals]
    if center <= 0 or any(p <= 0 for p in petals):
        raise ValueError("radii must be strictly positive")
    scale = 1
    for v in [center, *petals]:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    return ScaledFlower(
        scale=scale,
        config=FlowerConfig(center * scale, tuple(p * scale for p in petals)),
    )


# -- integer curvature quadruples --------------------------------------------------


@dataclass(frozen=True)
class GrahamRecord(Record):
    """Witness (x, m, d1, d2) with x^2 + m^2 = d1*d2, its curvature quadruple,
    and whether a curvature is <= 0 (a tangent line or an enclosing circle)."""

    x: int
    m: int
    d1: int
    d2: int
    # Set once by __post_init__, after the side-condition check.
    curvatures: CurvatureQuad = field(init=False)
    degenerate: bool = field(init=False)

    CSV_FIELDS = ("x", "m", "d1", "d2", "b1", "b2", "b3", "b4", "degenerate")

    def __post_init__(self):
        x, m, d1, d2 = self.x, self.m, self.d1, self.d2
        if x * x + m * m != d1 * d2:
            raise ValueError(f"side condition x^2 + m^2 = d1*d2 fails for {(x, m, d1, d2)}")
        quad = CurvatureQuad(x, d1 - x, d2 - x, d1 + d2 - 2 * m - x)
        object.__setattr__(self, "curvatures", quad)
        object.__setattr__(self, "degenerate", any(b <= 0 for b in quad.as_tuple()))

    def csv_row(self) -> list:
        return [self.x, self.m, self.d1, self.d2, *self.curvatures.to_obj(), int(self.degenerate)]


# Largest accepted bound of ``graham_quadruples``: the cost grows as the
# cube of the bound (17.5 M candidate x at 1000; a fresh ``graham`` process
# took 0.25 s at 400, and 1.6-1.8 s and 8.2 MB of JSON lines at 1000, on
# 2 vCPU AMD EPYC).
MAX_GRAHAM_BOUND = 1000


def graham_quadruples(d2_bound: int) -> list[GrahamRecord]:
    """All integer curvature quadruples from the generator
    b = (x, d1-x, d2-x, d1+d2-2m-x) over 0 <= 2m <= d1 <= d2 <= bound with
    x^2 + m^2 = d1*d2 and x >= 0.  Every output satisfies the Descartes
    identity; non-positive curvatures are flagged, not dropped."""
    if type(d2_bound) is not int or not 1 <= d2_bound <= MAX_GRAHAM_BOUND:
        raise ValueError(f"bound must be in 1..{MAX_GRAHAM_BOUND}, got {d2_bound}")
    out: list[GrahamRecord] = []
    for d2 in range(1, d2_bound + 1):
        for d1 in range(0, d2 + 1):
            prod = d1 * d2
            # m <= d1//2 exactly when x^2 >= least; x walks down, so m walks
            # up, over the few x near sqrt(d1*d2) instead of every m.
            least = prod - (d1 // 2) ** 2  # >= d1*d2 - d1^2/4 >= 0
            for x in range(isqrt(prod), isqrt(least - 1) if least else -1, -1):
                t = prod - x * x
                m = isqrt(t)
                if m * m == t:
                    out.append(GrahamRecord(x, m, d1, d2))
    return out


@dataclass(frozen=True)
class GrahamRatios(Record):
    """The generator parameters, per unit of x, recovered from a
    four-integer cosine parametrization."""

    m_over_x: Fraction
    d1_over_x: Fraction
    d2_over_x: Fraction

    WIRE_EXTRA = ("identity_holds",)

    @property
    def identity_holds(self) -> bool:
        return 1 + self.m_over_x**2 == self.d1_over_x * self.d2_over_x


def graham_inverse(p: SoddyParams) -> GrahamRatios:
    """Map cosine parameters onto curvature-generator ratios:
    m/x = (n1*n2 - m1*m2)/(m1*n2 + m2*n1),
    d1/x = n2*(m1^2 + n1^2)/(n1*(m1*n2 + m2*n1)),
    d2/x = n1*(m2^2 + n2^2)/(n2*(m1*n2 + m2*n1)).
    The side condition 1 + (m/x)^2 = (d1/x)(d2/x) holds identically."""
    m1, n1, m2, n2 = p.as_tuple()
    cross = m1 * n2 + m2 * n1
    return GrahamRatios(
        m_over_x=Fraction(n1 * n2 - m1 * m2, cross),
        d1_over_x=Fraction(n2 * (m1 * m1 + n1 * n1), n1 * cross),
        d2_over_x=Fraction(n1 * (m2 * m2 + n2 * n2), n2 * cross),
    )


# -- lattice scan ----------------------------------------------------------------


@dataclass(frozen=True)
class ScanRecord(Record):
    m1: int
    n1: int
    m2: int
    n2: int
    constraints: tuple[bool, bool, bool, bool, bool]
    all_pass: bool
    degenerate: bool  # a cosine hit -1; the radii system has no meaning there
    discriminant_square: Optional[bool]
    valid_flower_count: int
    d1_le_d2: bool
    two_m_gt_d1: bool

    CSV_FIELDS = (
        "m1", "n1", "m2", "n2",
        "c_n1_gt_m1", "c_n2_gt_m2", "c_cross", "c_r1_pos", "c_r3_pos",
        "all_pass", "degenerate", "discriminant_square", "valid_flower_count",
        "d1_le_d2", "two_m_gt_d1",
    )

    def csv_row(self) -> list:
        return [self.m1, self.n1, self.m2, self.n2, *(int(c) for c in self.constraints),
                int(self.all_pass), int(self.degenerate), self.discriminant_square,
                self.valid_flower_count, int(self.d1_le_d2), int(self.two_m_gt_d1)]


def _scan_tuple(params: tuple[int, int, int, int]) -> ScanRecord:
    p = SoddyParams(*params)
    rep = constraint_report(p)
    triple = cosines_from_params(p)
    m1, n1, m2, n2 = params
    q1, q2 = m1 * m1 + n1 * n1, m2 * m2 + n2 * n2
    degenerate = False
    disc_square: Optional[bool] = None
    flowers = 0
    try:
        solved = solve_radii(triple)
        disc_square = solved.discriminant_square
        flowers = len(solved.valid_flowers)
    except ValueError:
        degenerate = True
    # The last two flags: graham_inverse's d1/x <= d2/x and 2*m/x > d1/x, times
    # the positive n1*n2*cross and n1*cross.
    return ScanRecord(*params, rep.as_tuple(), rep.all_hold, degenerate, disc_square, flowers,
                      n2 * n2 * q1 <= n1 * n1 * q2, 2 * n1 * (n1 * n2 - m1 * m2) > n2 * q1)


@dataclass(frozen=True)
class ScanResult(Record):
    bound: int
    summary: dict
    records: tuple[ScanRecord, ...]

    def json_chunks(self) -> Iterator[str]:
        """``json.dumps(self.to_obj(), indent=2)`` in chunks, one per record.

        A record's fixed shape becomes one template with a ``%s`` slot per
        scalar; json's C encoder writes the scalars of a batch of
        ``_SCAN_JSON_BATCH`` records at once, and each record's template is
        filled from its run of the batch's scalars."""
        head = json.dumps({"bound": self.bound, "summary": dict(self.summary)}, indent=2)
        # head[:-2] drops the closing "\n}", so more keys can follow.
        yield head[:-2] + ',\n  "records": ['
        records = self.records
        if records:
            names = [f.name for f in fields(ScanRecord)]
            values_of = attrgetter(*names)
            slots = {k: ["%s"] * len(v) if type(v) is tuple else "%s"
                     for k, v in zip(names, values_of(records[0]))}
            template = "\n    " + nested_json(slots, 2).replace('"%s"', "%s")
            width = template.count("%s")
            for start in range(0, len(records), _SCAN_JSON_BATCH):
                batch = records[start:start + _SCAN_JSON_BATCH]
                text = json.dumps([values_of(rec) for rec in batch])
                # Every scalar is an int, bool or None, so without the brackets
                # of the batch, its records and their tuple fields the text is
                # the batch's scalars in order.
                leaves = text.replace("[", "").replace("]", "").split(", ")
                for i in range(0, len(leaves), width):
                    yield ("," if start or i else "") + template % tuple(leaves[i:i + width])
        yield ("\n  ]" if records else "]") + "\n}"


# Records per ``json.dumps`` call in ``ScanResult.json_chunks``.  Writing the
# bound-12 scan takes as long at 64 as at 1,024 records (30 ms on 2 vCPUs),
# but a batch's text and scalars at 1,024 add 1.75 MB to the heap peak and
# at 128 only 0.23 MB.
_SCAN_JSON_BATCH = 128


# Largest accepted bound of ``scan_lattice``, which visits bound^4 tuples: at
# 21 (194,481) ``soddy-scan --out FILE`` takes about 5 s on 2 vCPUs, peaks at
# 84 MB and writes 67.6 MB of JSON.  So the output size and the records held
# until the write, not solving, now limit the bound.
MAX_SCAN_BOUND = 21


def scan_lattice(bound: int) -> ScanResult:
    """Audit every parameter tuple with entries in 1..bound.

    Records are in lexicographic parameter order; the summary tallies how
    the constraint set relates to square discriminants, solvable flowers,
    and the two generator inequalities."""
    if type(bound) is not int or not 1 <= bound <= MAX_SCAN_BOUND:
        raise ValueError(f"scan bound must be in 1..{MAX_SCAN_BOUND}, got {bound}")
    records = [_scan_tuple(t) for t in product(range(1, bound + 1), repeat=4)]
    passing = [r for r in records if r.all_pass]
    summary = {
        "total": len(records),
        "constraint_pass": len(passing),
        "pass_square_discriminant": sum(1 for r in passing if r.discriminant_square),
        "pass_with_valid_flower": sum(1 for r in passing if r.valid_flower_count),
        "pass_d1_le_d2": sum(1 for r in passing if r.d1_le_d2),
        "pass_2m_gt_d1": sum(1 for r in passing if r.two_m_gt_d1),
        "solvable_total": sum(1 for r in records if r.valid_flower_count),
        "solvable_and_constraint_pass": sum(
            1 for r in passing if r.valid_flower_count
        ),
    }
    return ScanResult(bound=bound, summary=summary, records=tuple(records))
