"""Independent constructions the tests check the library against."""

import json
import math
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

from mpmath import mp

from flowerlab.flowerpoly import flower_poly
from flowerlab.geometry import ANGLE_SUM_TOL, DPS, FlowerConfig
from flowerlab.mixedring import MixedElement, _sign_flips
from flowerlab.ratpoly import (
    Coeff,
    SparsePoly,
    _mul_into,
    _pack_terms,
    _square_into,
    _unpack_terms,
    pack_width,
    parse_rational,
    poly_to_obj,
)
from flowerlab.soddy import GrahamRecord

TWO_PI = 2.0 * math.pi


def poly_from_json(obj) -> SparsePoly:
    """The polynomial of a ``poly_to_obj`` object.  It reads only the package's
    own output, so it checks nothing."""
    terms = {tuple(t["e"]): parse_rational(t["c"]) for t in obj["terms"]}
    return SparsePoly(len(obj["vars"]), terms)


def compact_json(poly: SparsePoly) -> str:
    """``poly_to_obj`` without whitespace: the format of ``data/p5.json``."""
    return json.dumps(poly_to_obj(poly), separators=(",", ":"))


def float_residual(poly: SparsePoly, angles: Sequence[float]) -> float:
    """|poly(cos a_1, ..., cos a_n)| in floating point."""
    xs = [math.cos(a) for a in angles]
    return abs(sum(float(c) * math.prod(x**e for x, e in zip(xs, exps))
                   for exps, c in poly.items()))


def random_flower_angles(n: int, rng) -> list[float]:
    """Random positive angles summing to 2*pi: draw n-1 uniformly on
    (0, 2*pi) and set the last to the remainder, rejecting non-positive."""
    while True:
        head = [rng.uniform(0.0, TWO_PI) for _ in range(n - 1)]
        last = TWO_PI - math.fsum(head)
        if last > 1e-9 and all(a > 1e-9 for a in head):
            return head + [last]


def is_primitive_solution(beta: int, x: int, y: int, z: int) -> bool:
    """x^2 + beta*y^2 = z^2 in positive, pairwise coprime integers."""
    return (
        x >= 1 and y >= 1 and z >= 1
        and x * x + beta * y * y == z * z
        and gcd(x, y) == 1 and gcd(y, z) == 1 and gcd(x, z) == 1
    )


def angle_sum_cos_sin_direct(n: int) -> tuple[MixedElement, MixedElement]:
    """cos(t_1+...+t_n) and sin(t_1+...+t_n) in the mixed ring, built
    term by term instead of by the angle-addition recursion.

    Each of the 2^n sin/cos patterns contributes one term: patterns with an
    even number 2e of sines go to the cosine with sign (-1)^e, patterns with
    an odd number 2e+1 go to the sine with sign (-1)^e.
    """
    cos_terms, sin_terms = {}, {}
    for mask in range(1 << n):
        sines = mask.bit_count()
        exps = tuple(0 if mask >> i & 1 else 1 for i in range(n))
        sign = -1 if (sines // 2) % 2 else 1
        (sin_terms if sines % 2 else cos_terms)[(exps, mask)] = sign
    return MixedElement(n, cos_terms), MixedElement(n, sin_terms)


def point_mul(a: dict[int, int], b: dict[int, int], squares: Sequence[int]) -> dict[int, int]:
    """Product of two point elements (``mixedring.point_squares``): terms
    with masks ma and mb multiply to mask ma ^ mb times ``squares[ma & mb]``.
    With ``point_sign`` it is the oracle of ``mixedring.point_norm``."""
    out: dict[int, int] = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma ^ mb
            out[m] = get(m, 0) + ca * cb * squares[ma & mb]
    return {m: c for m, c in out.items() if c}


def point_sign(gens: int, nvars: int, element: dict[int, int]) -> dict[int, int]:
    """``mixedring.apply_sign`` on a point element over ``nvars`` slots."""
    flips = _sign_flips(gens, nvars)
    return {m: -c if (m & flips).bit_count() & 1 else c for m, c in element.items()}


def evaluate_by_fractions(poly: SparsePoly, point) -> Fraction:
    """Exact value of ``poly`` at ``point``, summed term by term in
    ``Fraction`` arithmetic (each coordinate power computed once)."""
    if len(point) != poly.nvars:
        raise ValueError(
            f"point length {len(point)} does not match variable count {poly.nvars}"
        )
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in point]
    powers = [{} for _ in range(poly.nvars)]
    total = 0
    for exps, coeff in poly.items():
        term = coeff
        for i, e in enumerate(exps):
            if e:
                cache = powers[i]
                p = cache.get(e)
                if p is None:
                    p = values[i] ** e
                    cache[e] = p
                term = term * p
        total = total + term
    return Fraction(total)


def center_angle_cosine_by_fractions(r, ri, rj) -> Fraction:
    """The law of cosines for the triangle of sides r+ri, r+rj and ri+rj,
    in ``Fraction`` arithmetic."""
    r, ri, rj = Fraction(r), Fraction(ri), Fraction(rj)
    return (r * r + r * ri + r * rj - ri * rj) / ((r + ri) * (r + rj))


def angle_sum_residual_in_mp_context(cosines: Sequence[Fraction]) -> float:
    """|sum of arccos(cosines) - 2*pi| with mpmath's high-level functions,
    at ``DPS`` digits set in its global context."""
    with mp.workdps(DPS):
        total = mp.fsum(
            mp.acos(mp.mpf(c.numerator) / mp.mpf(c.denominator)) for c in map(Fraction, cosines)
        )
        return float(abs(total - 2 * mp.pi))


def validation_report_obj(config: FlowerConfig) -> dict:
    """``validate_flower(config).to_obj()`` rebuilt from the oracles above,
    the expanded flower polynomial and ``Fraction`` range comparisons."""
    n, r, petals = config.n, config.center, config.petals
    cosines = [center_angle_cosine_by_fractions(r, petals[i], petals[(i + 1) % n]) for i in range(n)]
    residual = Fraction(flower_poly(n).evaluate(cosines))
    sum_residual = angle_sum_residual_in_mp_context(cosines)
    high = 0 if n == 3 else 1
    range_ok = [-1 < c < high for c in cosines]
    reasons = []
    if residual != 0:
        reasons.append("cosines do not lie on the flower variety")
    if sum_residual > ANGLE_SUM_TOL:
        reasons.append(f"angle sum misses 2*pi by {sum_residual:.3e}")
    if not all(range_ok):
        reasons.append(
            "center angle outside (90, 180) degrees" if n == 3 else "degenerate center angle"
        )
    return {
        "config": {"center": str(r), "petals": [str(p) for p in petals]},
        "cosines": [str(c) for c in cosines],
        "variety_residual": str(residual),
        "angle_sum_residual": sum_residual,
        "angle_range_ok": range_ok,
        "valid": not reasons,
        "reasons": reasons,
    }


class Surd:
    """Exact a + b*sqrt(d) for rationals a, b and d >= 0, where d is no
    rational square unless b = 0.  Operands are rationals or surds over the
    same d.  Equal values have equal a (else a square root would be rational),
    so equality compares a, b^2*d and the sign of b*d.  Surds are unhashable."""

    def __init__(self, a, b=0, d=0):
        self.a, self.b, self.d = Fraction(a), Fraction(b), Fraction(d)

    def _lift(self, other) -> tuple["Surd", Fraction]:
        o = other if isinstance(other, Surd) else Surd(other)
        if self.b and o.b and self.d != o.d:
            raise ValueError("surds over different radicands")
        return o, self.d if self.b else o.d

    def __add__(self, other) -> "Surd":
        o, d = self._lift(other)
        return Surd(self.a + o.a, self.b + o.b, d)

    def __mul__(self, other) -> "Surd":
        o, d = self._lift(other)
        return Surd(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> "Surd":
        return self * -1

    def __sub__(self, other) -> "Surd":
        return self + -other

    def __rsub__(self, other) -> "Surd":
        return -self + other

    def reciprocal(self) -> "Surd":
        norm = self.a * self.a - self.b * self.b * self.d  # ZeroDivisionError at 0
        return Surd(self.a / norm, -self.b / norm, self.d)

    def sign(self) -> int:
        sa, sb = (self.a > 0) - (self.a < 0), (self.b * self.d > 0) - (self.b * self.d < 0)
        if sa * sb >= 0:
            return sa or sb
        # Opposite signs: the larger of a^2 and b^2*d wins.
        return sa if self.a * self.a > self.b * self.b * self.d else -sa

    def __eq__(self, other) -> bool:
        o = other if isinstance(other, Surd) else Surd(other)
        return (self.a, self.b * self.b * self.d, self.b * self.d > 0) == (
            o.a, o.b * o.b * o.d, o.b * o.d > 0)


def surd_of(value) -> Surd:
    """A ``QuadraticValue`` record as a ``Surd``."""
    return Surd(value.base, value.coef, value.radicand)


def brute_force_triples_by_x(beta: int, z_bound: int) -> set[tuple[int, int, int]]:
    """The loop ``pythag.brute_force_triples`` ran before it walked y against
    a table of squares, kept verbatim without its argument gate: scan
    x < z <= z_bound, solve for y by division and ``isqrt``, keep pairwise
    coprime solutions."""
    out: set[tuple[int, int, int]] = set()
    for z in range(2, z_bound + 1):
        zz = z * z
        for x in range(1, z):
            t = zz - x * x
            q, r = divmod(t, beta)
            if r:
                continue
            y = isqrt(q)
            if y < 1 or y * y != q:
                continue
            if gcd(x, y) == 1 and gcd(y, z) == 1 and gcd(x, z) == 1:
                out.add((x, y, z))
    return out


# ``flowerpoly``'s norm step squared the whole P and Q with this before it
# multiplied head groups; kept verbatim as the oracle of that route.
def norm_form(p: SparsePoly, q: SparsePoly, d: SparsePoly) -> SparsePoly:
    """p^2 - q^2*d, the norm of p + q*sqrt(d).

    Both products are accumulated in one packed map and unpacked once, so
    neither p^2 nor q^2*d is ever built as a polynomial.
    """
    p._check_arity(q)
    p._check_arity(d)
    bits = pack_width(max(2 * p._max_exponent(), 2 * q._max_exponent() + d._max_exponent()))
    q2: dict[int, Coeff] = {}
    _square_into(q2, _pack_terms(q, bits))
    acc: dict[int, Coeff] = {}
    _square_into(acc, _pack_terms(p, bits))
    _mul_into(acc, [(k, c) for k, c in q2.items() if c], _pack_terms(-d, bits))
    return _unpack_terms(acc, p.nvars, bits)


# ``soddy.graham_quadruples`` walked m before it walked x down from
# sqrt(d1*d2); kept verbatim, without its argument gate, as the oracle of
# that route.
def graham_quadruples_by_m(d2_bound: int) -> list[GrahamRecord]:
    out: list[GrahamRecord] = []
    for d2 in range(1, d2_bound + 1):
        for d1 in range(0, d2 + 1):
            prod = d1 * d2
            for m in range(0, d1 // 2 + 1):
                t = prod - m * m  # >= d1*d2 - d1^2/4 >= 0
                x = isqrt(t)
                if x * x != t:
                    continue
                out.append(GrahamRecord(x, m, d1, d2))
    return out
