"""Flower polynomials of wheel coin graphs, with cross-checked constructions.

For an n-petal flower (center coin tangent to a cycle of n petal coins) the
cosines x_i of the n center angles satisfy a single polynomial relation.
This module builds that polynomial three ways:

* ``flower_poly(n)``           norm-form recursion P^2 - Q^2*D from P_{n-1}
                               in plain polynomial arithmetic (the cheap
                               route, used everywhere else in the package);
* ``flower_poly_from_product`` product of (x_n - sigma(cos expansion)) over
                               the sign group on the first n-1 variables;
* ``closure_product_poly(n)``  the full product of (sigma(cos expansion)-1)
                               over all 2^(n-1) sign masks, which equals
                               the square of the flower polynomial.

The last two, the paper's products of conjugates, are ``block_product`` over
the blocks (n-1, 1) and (n); other compositions give its block recursion.
It takes one product per sign generator, so each route is bounded only by
what it builds: P_n up to ``MAX_N``, the closure product P_n^2 up to n = 5.

``flower_value(xs)`` is the exact P_n(xs) by the tower of the blocks
(n-1, 1) run at a rational point, on ``mixedring``'s point elements: n-2
products of dicts with at most 2^(n-2) int entries instead of the 19,449
terms of P_6, so a flower check never builds or reads the polynomial.

P_n (n = 3..6) is irreducible over Q, and so over Z, being monic.  It is
monic in x_n (``verify_monic``), so any factorisation survives setting
x_1..x_{n-1} to rationals, and a test finds the specialisation at
x_i = (l_i - 1)/(l_i + 1), l = 3, 5, 7, 11, 13, irreducible of degree 2^(n-2).

The verify_* checks (square, symmetry, monic degree, specialization at
x_i = 1, block recursion) return reports naming the first differing term.
``VERIFY_CHECKS`` is the whole plan of ``flowerlab verify`` (the checks in
run order, the petal counts and the inputs of each); ``verify`` runs it.

``radius_expansion`` performs the n = 3 change of variables from cosines to
radii: substituting the law-of-cosines expression for each cosine into the
closure polynomial and clearing denominators yields a homogeneous polynomial
in (r, r1, r2, r3) whose coefficients with respect to powers of r are each
symmetric under rotating or reversing the petal radii.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Iterator, Optional, Sequence

# block_product does not call apply_sign; the name stays bound because
# perfbench/spans.py wraps it in this module's __dict__.
from .mixedring import (
    apply_sign,  # noqa: F401
    cos_sin_over_slots,
    point_cos_sin,
    point_norm,
    point_squares,
    poly_at_mixed,
    sign_norm,
)
from .ratpoly import Coeff, Exponents, Record, SparsePoly, norm_form, poly_json_chunks

# P_7 did not finish in over 14 minutes and 600 MB, so the ceiling refuses it.
MAX_N = 6

TWO_PI = 2.0 * math.pi


class SizeLimitError(ValueError):
    """Requested petal count exceeds the size ceiling ``MAX_N``."""


_RECURSION_CACHE: dict[int, SparsePoly] = {}


def clear_cache() -> None:
    _RECURSION_CACHE.clear()


def _check_n(n: int, low: int, high: int, what: str) -> None:
    if type(n) is not int or not low <= n <= high:
        raise ValueError(f"{what} supports n in {low}..{high}, got {n}")


def _check_ceiling(n: int) -> None:
    if n > MAX_N:
        raise SizeLimitError(f"n={n} exceeds the size ceiling {MAX_N}")


def _norm_form_step(prev: SparsePoly, n: int) -> SparsePoly:
    """prev(x_1..x_{n-2}, w) times its conjugate, where w = cos(t_{n-1}+t_n).

    With c = x_{n-1}*x_n, s = y_{n-1}*y_n and D = s^2 = (1-x_{n-1}^2)(1-x_n^2),
    the powers w^k = (c - s)^k = P_k + Q_k*s follow P_{k+1} = c*P_k - D*Q_k
    and Q_{k+1} = c*Q_k - P_k.  So prev at w is a = P + Q*s, the sign
    generator that negates s maps it to P - Q*s, and the product of the two
    is the norm P^2 - Q^2*D: plain polynomial arithmetic, no sine variables.
    """
    last = prev.nvars - 1
    groups: dict[int, dict[Exponents, Coeff]] = {}
    for exps, coeff in prev.items():
        groups.setdefault(exps[last], {})[exps[:last] + (0, 0)] = coeff
    xa, xb = SparsePoly.variable(n, n - 2), SparsePoly.variable(n, n - 1)
    c = xa * xb
    d = (1 - xa * xa) * (1 - xb * xb)
    p = q = SparsePoly.zero(n)
    pk, qk = SparsePoly.one(n), SparsePoly.zero(n)
    for k in range(max(groups) + 1):
        if k:
            pk, qk = c * pk - d * qk, c * qk - pk
        if k in groups:
            g = SparsePoly(n, groups[k])
            p, q = p + g * pk, q + g * qk
    return norm_form(p, q, d)


def flower_poly(n: int) -> SparsePoly:
    """The n-variable flower polynomial, by the norm-form recursion.

    Monic of degree 2^(n-2) in each variable for n >= 2 and symmetric for
    n >= 3.  Term counts grow exponentially with n, so sizes beyond
    ``MAX_N`` raise ``SizeLimitError`` rather than being attempted.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"petal count must be a positive integer, got {n}")
    _check_ceiling(n)
    cached = _RECURSION_CACHE.get(n)
    if cached is not None:
        return cached
    if n == 1:
        result = SparsePoly(1, {(1,): 1, (0,): -1})
    elif n == 2:
        result = SparsePoly(2, {(0, 1): 1, (1, 0): -1})
    else:
        result = _norm_form_step(flower_poly(n - 1), n)
    _RECURSION_CACHE[n] = result
    return result


def flower_value(xs: Sequence[Coeff]) -> Fraction:
    """P_n(xs), exact, with no polynomial built: the tower of
    ``flower_poly_from_product`` at the point.

    With x_i = p_i/q_i, Q = q_1...q_{n-1} and C = Q*cos(t_1+...+t_{n-1})
    (``point_cos_sin``), f = p_n*Q - q_n*C is Q*q_n*(x_n - cos) as a point
    element.  f <- f * g(f) for the generators g = 0..n-3 multiplies its
    2^(n-2) sign conjugates, which leaves one sine-free term, and
    P_n(xs) = f / (Q*q_n)^(2^(n-2)) is the one division.  That denominator
    about doubles in digits with each petal, so n stops at ``MAX_N`` like
    ``flower_poly``.  Each step is the norm step ``point_norm``: a term g
    negates never multiplies one g fixes, because the two such products in
    f * g(f) cancel.
    """
    n = len(xs)
    if n < 2:
        raise ValueError(f"flower_value needs at least two coordinates, got {n}")
    _check_ceiling(n)
    *head, last = (x if isinstance(x, Fraction) else Fraction(x) for x in xs)
    big_q = math.prod(x.denominator for x in head)
    f = {m: -last.denominator * c for m, c in point_cos_sin(head)[0].items()}
    f[0] = f.get(0, 0) + last.numerator * big_q
    squares = point_squares(head)
    for g in range(n - 2):
        f = point_norm(1 << g, n - 1, f, squares)
    return Fraction(f.get(0, 0), (big_q * last.denominator) ** (1 << (n - 2)))


def flower_poly_from_product(n: int) -> SparsePoly:
    """The flower polynomial as the product of (x_n - sigma(cos expansion))
    over all sign masks acting on the first n-1 variables: the block
    product over the blocks (n-1, 1).

    Independent of the recursion route, and bounded like it by ``MAX_N``:
    the norm tower never builds the 2^(n-2) factors one by one, and each
    of its steps f <- f * g(f) is the norm step ``sign_norm``, which skips
    the pairs of a term g negates and a term g fixes (they cancel).
    """
    _check_n(n, 2, MAX_N, "flower_poly_from_product")
    return block_product(n, (n - 1, 1))


def closure_product_poly(n: int) -> SparsePoly:
    """Product of (sigma(cos expansion) - 1) over the whole sign group: the
    block product of P_1 = x_1 - 1 over the single block (n).

    This is the defining construction of the closure polynomial: all sine
    factors cancel in the full product, and the result is the square of
    ``flower_poly(n)``.  For n = 1 the product is P_1 itself, not its square,
    so n starts at 2; it stops at 5 because P_6^2 is out of reach.
    """
    _check_n(n, 2, 5, "closure_product_poly")
    return block_product(n, (n,))


def block_product(n: int, composition: Sequence[int]) -> SparsePoly:
    """Product of P_k(sigma_1(c_1), ..., sigma_k(c_k)) over all per-block
    sign choices, where the n angles are split into consecutive blocks of
    the given sizes, c_j is the cosine expansion of block j's angle sum and
    sigma_j ranges over the sign subgroup inside block j.  For k <= 2, P_k
    is a base case, not the recursion.

    Built as a norm tower.  Generator g negates a term with an odd number
    of sines among slots 0..g; c_j has an even number, all inside block j,
    so generators outside block j fix it and each factor is sigma(f) with
    f = P_k(c_1, ..., c_k).  The generators are commuting involutions, so
    f <- f * g(f) once for each generator g inside the blocks multiplies
    sigma(f) over the whole group.  Each step is the norm step
    ``sign_norm``: with f = A + B, B the terms g negates, a term a of A and
    a term b of B meet in f * g(f) once as a*(-b) and once as b*a, so those
    pairs cancel and f * g(f) = A^2 - B^2.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    composition = tuple(composition)
    if not composition or any(type(s) is not int or s < 1 for s in composition):
        raise ValueError(f"composition must have positive parts: {composition}")
    if sum(composition) != n:
        raise ValueError(f"composition {composition} does not sum to {n}")
    block_cos, generators = [], []
    offset = 0
    for size in composition:
        block_cos.append(cos_sin_over_slots(n, range(offset, offset + size))[0])
        generators.extend(range(offset, offset + size - 1))
        offset += size
    f = poly_at_mixed(flower_poly(len(composition)), block_cos)
    for g in generators:
        f = sign_norm(1 << g, f)
    return f.to_poly()


# -- structural checks ---------------------------------------------------------


@dataclass(frozen=True)
class CheckReport(Record):
    check: str
    n: int
    ok: bool
    detail: str = ""


def _compare(name: str, n: int, got: SparsePoly, want: SparsePoly, where: str = "",
             pair: str = "{} vs {}", ok_detail: str = "") -> CheckReport:
    """A report on ``got == want``: a pass carries ``ok_detail``, a failure
    ``where`` and the first term (canonical order) where they differ, with
    its two coefficients put in ``pair``."""
    diff = got - want
    if not diff:
        return CheckReport(name, n, True, ok_detail)
    exps = diff.sorted_terms()[0][0]
    detail = f"first differing term {exps}: "
    detail += pair.format(got.coefficient(exps), want.coefficient(exps))
    return CheckReport(name, n, False, f"{where}, {detail}" if where else detail)


def verify_square(n: int) -> CheckReport:
    """Does the closure product equal the square of the flower polynomial?"""
    _check_n(n, *VERIFY_CHECKS["square"][0], "verify_square")
    pn = flower_poly(n)
    return _compare("square", n, closure_product_poly(n), pn * pn,
                    pair="closure={}, square={}")


def verify_specialization(n: int, index: int) -> CheckReport:
    """Setting x_index := 1 must give the square of the (n-1)-petal polynomial."""
    _check_n(n, *VERIFY_CHECKS["specialization"][0], "verify_specialization")
    if not 0 <= index < n:
        raise ValueError(f"variable index {index} out of range")
    specialized = flower_poly(n).specialize(index, 1)
    smaller = flower_poly(n - 1)
    return _compare("specialization", n, specialized, smaller * smaller,
                    where=f"x_{index + 1}:=1")


def verify_general_recursion(n: int, composition: Sequence[int]) -> CheckReport:
    """Check the block recursion: splitting the n angles into consecutive
    blocks of sizes (n_1..n_k) and taking the product of the k-variable
    flower polynomial over all per-block sign choices (``block_product``)
    must reproduce the n-variable polynomial."""
    composition = tuple(composition)
    if len(composition) < 2:
        raise ValueError(f"composition must have >= 2 positive parts: {composition}")
    pn = flower_poly(n)  # refuses n beyond MAX_N before the product is built
    where = f"composition {composition}"
    return _compare("general-recursion", n, block_product(n, composition), pn,
                    where=where, ok_detail=where)


def verify_symmetry(n: int) -> CheckReport:
    """The polynomial must be invariant under every variable permutation for
    n <= 4, and under a seeded sample of 40 of them for n >= 5: a sample,
    not a proof."""
    pn = flower_poly(n)
    perms = list(permutations(range(n)))
    if n >= 5:
        perms = random.Random(0).sample(perms, 40)
    for perm in perms:
        if pn.permute(perm) != pn:
            return CheckReport("symmetry", n, False, f"not invariant under {perm}")
    return CheckReport("symmetry", n, True, f"{len(perms)} permutations")


def verify_monic(n: int) -> CheckReport:
    """Degree in every variable must be 2^(n-2); the leading coefficient is
    the constant 1 in every variable for n >= 3 (for n = 2 only the last
    variable carries +1, the first carries -1)."""
    _check_n(n, *VERIFY_CHECKS["monic"][0], "verify_monic")
    pn = flower_poly(n)
    want = 1 << (n - 2)
    for i in range(n):
        if pn.degree_in(i) != want:
            return CheckReport(
                "monic", n, False, f"degree in x{i + 1} is {pn.degree_in(i)}, want {want}"
            )
        lead = pn.coefficient_in(i, want)
        expect = 1 if (n >= 3 or i == n - 1) else -1
        if lead != SparsePoly.const(n - 1, expect):
            return CheckReport(
                "monic", n, False,
                f"leading coefficient in x{i + 1} is {lead.pretty()}, want {expect}",
            )
    return CheckReport("monic", n, True)


# The block composition the recursion check uses at each n in its range.
_RECURSION_COMPOSITIONS = {3: (2, 1), 4: (2, 2), 5: (2, 1, 2), 6: (2, 2, 2)}

# The plan of ``verify``: each check in run order, with the petal counts it
# supports (the square, specialization and monic gates read them here) and
# how it runs at n, looking the verify_* functions up as module globals at
# call time so that a wrapper set on this module sees every call.
VERIFY_CHECKS = {
    "square": ((2, 5), lambda n: [verify_square(n)]),
    # The two-variable case is asymmetric by design.
    "symmetry": ((3, MAX_N), lambda n: [verify_symmetry(n)]),
    "specialization": ((3, MAX_N),
                       lambda n: [verify_specialization(n, i) for i in range(n)]),
    "recursion": ((min(_RECURSION_COMPOSITIONS), max(_RECURSION_COMPOSITIONS)),
                  lambda n: [verify_general_recursion(n, _RECURSION_COMPOSITIONS[n])]),
    "monic": ((2, MAX_N), lambda n: [verify_monic(n)]),
}


def verify(n: int, checks: Iterable[str] = ()) -> tuple[list[CheckReport], list[str]]:
    """Run the named checks of ``VERIFY_CHECKS`` (all when none is named) at
    n in table order.  Returns the reports and, for each chosen check whose
    range leaves out n, a line like ``symmetry (supports n in 3..6, got 2)``.
    A name outside the table (or a bare string) raises ValueError."""
    ranges = [bounds for bounds, _ in VERIFY_CHECKS.values()]
    _check_n(n, min(low for low, _ in ranges), max(high for _, high in ranges), "verify")
    chosen = set(checks) or VERIFY_CHECKS.keys()
    if not chosen <= VERIFY_CHECKS.keys():
        raise ValueError(f"unknown checks: {sorted(chosen - VERIFY_CHECKS.keys())}")
    reports, skipped = [], []
    for name, ((low, high), run) in VERIFY_CHECKS.items():
        if name not in chosen:
            continue
        if low <= n <= high:
            reports.extend(run(n))
        else:
            skipped.append(f"{name} (supports n in {low}..{high}, got {n})")
    return reports, skipped


# -- numeric variety membership --------------------------------------------------


def variety_residual(n: int, angles: Sequence[float]) -> float:
    """|flower polynomial at (cos a_1, ..., cos a_n)| for angles summing to 2*pi."""
    if n < 3:
        raise ValueError("need at least three angles")
    if len(angles) != n:
        raise ValueError(f"expected {n} angles, got {len(angles)}")
    if any(a <= 0 for a in angles):
        raise ValueError("angles must be positive")
    if abs(math.fsum(angles) - TWO_PI) > 1e-12:
        raise ValueError(f"angles sum to {math.fsum(angles)!r}, not 2*pi")
    pn = flower_poly(n)
    return abs(pn.evaluate_float([math.cos(a) for a in angles]))


def random_flower_angles(n: int, rng) -> list[float]:
    """Random positive angles summing to 2*pi: draw n-1 uniformly on
    (0, 2*pi) and set the last to the remainder, rejecting non-positive."""
    while True:
        head = [rng.uniform(0.0, TWO_PI) for _ in range(n - 1)]
        last = TWO_PI - math.fsum(head)
        if last > 1e-9 and all(a > 1e-9 for a in head):
            return head + [last]


# -- radius polynomial for three petals -------------------------------------------


@dataclass(frozen=True)
class RadiusExpansion:
    """Homogeneous degree-12 polynomial in (r, r1, r2, r3) from the 3-petal
    closure relation, split by powers of the center radius r.

    ``coefficients[j]`` is the coefficient of r^j, a polynomial in
    (r1, r2, r3) of total degree 12 - j; each one is invariant under all
    permutations of the petal radii.
    """

    homogeneous: SparsePoly  # 4 variables: r, r1, r2, r3
    coefficients: tuple[SparsePoly, ...]  # index = power of r, 3 variables


def radius_expansion() -> RadiusExpansion:
    """Substitute the law-of-cosines expression for each center-angle cosine
    into the 3-petal closure polynomial and clear all denominators.

    With center radius r and petal radii r_i, the cosine between petals a,b
    is (r^2 + r*r_a + r*r_b - r_a*r_b) / ((r+r_a)(r+r_b)).  Clearing the
    common denominator of the inner (unsquared) relation gives a homogeneous
    degree-6 polynomial F; the closure relation is F^2 = 0.
    """
    n4 = 4  # slots: 0 = r, 1..3 = petal radii
    r = SparsePoly.variable(n4, 0)
    radii = [SparsePoly.variable(n4, i) for i in (1, 2, 3)]
    pairs = [(0, 1), (1, 2), (2, 0)]  # petal index pairs for x1, x2, x3
    numerators = []
    for a, b in pairs:
        ra, rb = radii[a], radii[b]
        numerators.append(r * r + r * ra + r * rb - ra * rb)
    shifted = [r + ri for ri in radii]  # (r + r_i)
    missing = [2, 0, 1]  # petal not involved in cosine x_i
    f = SparsePoly.zero(n4)
    for num, miss in zip(numerators, missing):
        f = f + num * num * shifted[miss] * shifted[miss]
    f = f - 2 * numerators[0] * numerators[1] * numerators[2]
    f = f - shifted[0] * shifted[0] * shifted[1] * shifted[1] * shifted[2] * shifted[2]
    g = f * f
    top = g.degree_in(0)
    coeffs = tuple(g.coefficient_in(0, j) for j in range(top + 1))
    return RadiusExpansion(homogeneous=g, coefficients=coeffs)


def radius_coefficients_symmetric(expansion: RadiusExpansion) -> bool:
    """Every r-power coefficient invariant under rotating and reversing the
    petal radii (these generate all six permutations)."""
    rotation = (1, 2, 0)
    reversal = (0, 2, 1)  # fix r1, swap r2 and r3
    for coeff in expansion.coefficients:
        if coeff.permute(rotation) != coeff or coeff.permute(reversal) != coeff:
            return False
    return True


# -- bundled result for serialization --------------------------------------------


@dataclass(frozen=True)
class FlowerPolySet(Record):
    """A flower polynomial with provenance tags and an optional closure square."""

    n: int
    provenance: dict
    pn: SparsePoly
    cn: Optional[SparsePoly] = None

    def __post_init__(self):
        if self.pn.nvars != self.n:
            raise ValueError("polynomial arity does not match petal count")
        if self.cn is not None and self.cn != self.pn * self.pn:
            raise ValueError("closure polynomial is not the square of the flower polynomial")

    def json_chunks(self) -> Iterator[str]:
        """``json.dumps(self.to_obj(), indent=2)`` in chunks, the
        polynomials term by term (``poly_json_chunks``)."""
        head = json.dumps({"n": self.n, "provenance": dict(self.provenance)}, indent=2)
        # head[:-2] drops the closing "\n}", so more keys can follow.
        yield head[:-2] + ',\n  "pn": '
        yield from poly_json_chunks(self.pn, 1)
        yield ',\n  "cn": '
        yield from ("null",) if self.cn is None else poly_json_chunks(self.cn, 1)
        yield "\n}"
