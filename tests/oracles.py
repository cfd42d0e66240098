"""Independent constructions the tests check the library against."""

from fractions import Fraction
from typing import Sequence

from mpmath import mp

from flowerlab.flowerpoly import flower_poly
from flowerlab.geometry import ANGLE_SUM_TOL, DPS, FlowerConfig
from flowerlab.mixedring import MixedElement
from flowerlab.ratpoly import SparsePoly


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
