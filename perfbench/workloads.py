"""Job lists and the seeded request generator for the three workloads.

``construct`` and ``enumerate`` are fixed lists of CLI invocations (one
pass runs each job once); their outputs are checked against the digests in
``expected.json``.  ``check`` is a stream of library requests generated in
blocks of a fixed mix from ``--seed`` (all but the irrational solves, see
``IRRATIONAL_EXPONENTS``); each request carries the verdict the
generator built it to have, or the solve report it must match.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

PYTH_BETAS = (1, 2, 3, 5, 6, 7, 10, 11, 13)

JOBS = {
    "construct": {
        "full": [
            ["pn", "--n", "6"],
            ["verify", "--n", "5", "--all"],
            ["cn", "--n", "5"],
            ["pn", "--n", "5", "--route", "product"],
            ["discrepancy"],
        ],
        "smoke": [
            ["pn", "--n", "4"],
            ["verify", "--n", "3", "--all"],
            ["cn", "--n", "3"],
            ["pn", "--n", "3", "--route", "product"],
            ["discrepancy"],
        ],
    },
    "enumerate": {
        "full": [
            ["soddy-scan", "--bound", "12"],
            ["graham", "--bound", "200"],
            *[
                ["pyth", "--beta", str(b), "--bound", "1000", *brute]
                for b in PYTH_BETAS
                for brute in ([], ["--brute-force"])
            ],
        ],
        "smoke": [
            ["soddy-scan", "--bound", "3"],
            ["graham", "--bound", "20"],
            *[
                ["pyth", "--beta", str(b), "--bound", "50", *brute]
                for b in (1, 2)
                for brute in ([], ["--brute-force"])
            ],
        ],
    },
}

# Jobs whose median time is reported under the names used in ROADMAP.md.
NAMED_JOBS = {
    "pn --n 6": "pn6_s",
    "verify --n 5 --all": "verify5_s",
    "cn --n 5": "cn5_s",
}
SCAN_JOB = {"full": ("soddy-scan --bound 12", 12**4), "smoke": ("soddy-scan --bound 3", 3**4)}

# Requests per check block, by kind.  Shares follow the intended mix: mostly
# cheap three-petal checks, a tail of n = 5 and n = 6 evaluations, exact
# solves on parametrized and on arbitrary cosine triples, and 1% of
# three-petal flowers with radii of 800+ digits.
BLOCK_MIX = {
    "full": {"n3": 55, "n4": 15, "n5": 8, "n6": 2, "solve_params": 10,
             "solve_irrational": 9, "huge_n3": 1},
    "smoke": {"n3": 8, "n4": 3, "n5": 2, "n6": 0, "solve_params": 3,
              "solve_irrational": 3, "huge_n3": 1},
}
WARM_NS = {"full": (3, 4, 5, 6), "smoke": (3, 4, 5)}

N3_BITS = (8, 16, 32, 64, 128, 256)
N45_BITS = (8, 16, 32, 64)
# Denominator exponents of the arbitrary cosine triples: a ladder from 10^3
# to 10^6 (10^3 only in smoke mode), so every block has the same cost shape.
# Their cost is heavy-tailed: at 10^6 one solve takes from 10 ms to 1.5 s,
# with the factorization of the discriminant, not its size.  Drawn from the
# seed, they gave check's wall_s an IQR/median of 0.23 over five seeds with
# the same program (0.03 with them fixed), so these triples depend on the block
# index only: every run meets the same tail, the seed shapes the other 91%.
IRRATIONAL_EXPONENTS = {"full": tuple(3 + 3 * j / 8 for j in range(9)), "smoke": (3.0,)}


@dataclass(frozen=True)
class SolveTruth:
    """What ``solve_radii`` must report for a cosine triple, worked out here
    without the solver: the r_1 quadratic (a, b, c), its discriminant, how
    many roots it has, whether they are rational, and the valid flowers as
    petal-radii triples (center radius 1)."""

    quadratic: tuple[Fraction, Fraction, Fraction]
    discriminant: Fraction
    roots: int
    rational: bool
    flowers: frozenset


@dataclass(frozen=True)
class Request:
    kind: str  # a key of BLOCK_MIX
    radii: tuple | None = None  # validate_flower: center then petals
    cosines: tuple | None = None  # solve_radii: exact cosine triple
    expect_valid: bool | None = None  # validate_flower: the verdict built in
    truth: SolveTruth | None = None  # solve_radii: the report built in


def _descartes_curvatures(rng: random.Random) -> tuple[int, int, int, int]:
    """Positive integer curvatures of four mutually tangent circles, from the
    generator (x, d1 - x, d2 - x, d1 + d2 - 2m - x) with x^2 + m^2 = d1*d2."""
    while True:
        x, m = rng.randint(1, 12), rng.randint(0, 12)
        total = x * x + m * m
        d1 = rng.choice([d for d in range(1, math.isqrt(total) + 1) if total % d == 0])
        d2 = total // d1
        if 2 * m > d1:
            continue
        b = (x, d1 - x, d2 - x, d1 + d2 - 2 * m - x)
        if min(b) > 0:
            return b


def _three_petal_flower(rng: random.Random, bits: int) -> list[int]:
    """Integer radii (center first) of a genuine three-petal flower: the
    circle of largest curvature sits inside the other three."""
    b = sorted(_descartes_curvatures(rng))
    lcm = math.lcm(*b)
    center, petals = lcm // b[3], [lcm // v for v in b[:3]]
    rng.shuffle(petals)
    k_bits = max(1, bits - center.bit_length())
    k = rng.getrandbits(k_bits) | (1 << (k_bits - 1))
    return [center * k] + [p * k for p in petals]


def _near_regular_flower(rng: random.Random, n: int, bits: int) -> list[int]:
    """Integer radii close to a regular n-petal flower; the exact regular
    petal radius is irrational for n = 4, 5, so this is never a flower."""
    center = rng.getrandbits(bits) | (1 << (bits - 1))
    s = math.sin(math.pi / n)
    petals = []
    for _ in range(n):
        scaled = round(10**6 * s / (1 - s) * (1 + rng.uniform(-0.01, 0.01)))
        petals.append(max(1, center * scaled // 10**6))
    return [center] + petals


def _cosine_quadratic(xs) -> tuple[Fraction, Fraction, Fraction]:
    """The quadratic in r_1 (center radius 1) left by the three pairwise
    equations (r_i - u_i)(r_j - u_i) = w_i with u = (1-x)/(1+x), w = u(u+1)."""
    u = [(1 - x) / (1 + x) for x in xs]
    w = [v * (v + 1) for v in u]
    a1, a3 = u[0] - u[1], u[2] - u[1]
    p1, p3 = w[0] - a1 * u[0], w[2] - a3 * u[2]
    qa = a1 * a3 - w[1]
    qb = a1 * p3 + a3 * p1 + w[1] * (u[0] + u[2])
    qc = p1 * p3 - w[1] * u[0] * u[2]
    return qa, qb, qc


def _square_root(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num, den = math.isqrt(value.numerator), math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def _solve_truth(xs, angle_sum_ok: bool) -> SolveTruth:
    """The expected report; ``angle_sum_ok`` says whether the three angles
    sum to 2*pi, which the caller knows from how it built the triple."""
    qa, qb, qc = _cosine_quadratic(xs)
    disc = qb * qb - 4 * qa * qc
    root = _square_root(disc)
    roots = 0 if disc < 0 else 1 if disc == 0 else 2
    flowers = set()
    if root is not None and angle_sum_ok:
        u = [(1 - x) / (1 + x) for x in xs]
        w = [v * (v + 1) for v in u]
        for r1 in {(-qb + root) / (2 * qa), (-qb - root) / (2 * qa)}:
            if r1 in (u[0], u[2]):
                continue
            r2 = u[0] + w[0] / (r1 - u[0])
            r3 = u[2] + w[2] / (r1 - u[2])
            if min(r1, r2, r3) > 0 and (r2 - u[1]) * (r3 - u[1]) == w[1]:
                flowers.add((r1, r2, r3))
    return SolveTruth((qa, qb, qc), disc, roots, root is not None, frozenset(flowers))


def _param_solve(rng: random.Random) -> tuple[tuple[Fraction, ...], SolveTruth]:
    """Cosine triple of a four-integer parameter tuple with entries up to 10^4,
    with its expected report.  x_k = cos(t_k), t_k = 2*atan(n_k/m_k) for
    k = 1, 2, and x_3 = cos(t_1 + t_2), so the angles sum to 2*pi exactly
    when t_1 + t_2 > pi, that is when n1*n2 > m1*m2."""
    while True:
        m1, n1, m2, n2 = (rng.randint(1, 10**4) for _ in range(4))
        q1, q2 = m1 * m1 + n1 * n1, m2 * m2 + n2 * n2
        a1, a2 = m1 * m1 - n1 * n1, m2 * m2 - n2 * n2
        xs = (Fraction(a1, q1), Fraction(a2, q2), Fraction(a1 * a2 - 4 * m1 * m2 * n1 * n2, q1 * q2))
        if all(-1 < x < 1 for x in xs) and _cosine_quadratic(xs)[0] != 0:
            return xs, _solve_truth(xs, n1 * n2 > m1 * m2)


def _irrational_solve(rng: random.Random, exponent: float) -> tuple[tuple[Fraction, ...], SolveTruth]:
    """Arbitrary cosine triple with denominators near 10^exponent whose
    quadratic has a positive non-square discriminant (irrational radii, so
    no valid flower whatever the angle sum), with its expected report."""
    low = int(10**exponent)
    while True:
        xs = []
        for _ in range(3):
            q = rng.randint(low, low + low // 5)
            xs.append(Fraction(rng.randint(1 - q, q - 1), q))
        truth = _solve_truth(xs, False)
        if truth.quadratic[0] != 0 and truth.roots == 2 and not truth.rational:
            return tuple(xs), truth


def check_block(seed: int, index: int, mode: str) -> list[Request]:
    """Block ``index`` of the check stream: the same requests for the same seed."""
    rng = random.Random(f"flowerlab-check:{seed}:{index}")
    mix = BLOCK_MIX[mode]
    out: list[Request] = []
    for i in range(mix["n3"]):
        radii = _three_petal_flower(rng, N3_BITS[i % len(N3_BITS)])
        valid = i % 2 == 0
        if not valid:
            radii[rng.randint(1, 3)] += 1
        out.append(Request("n3", tuple(radii), expect_valid=valid))
    for n in (4, 5):
        for i in range(mix[f"n{n}"]):
            radii = _near_regular_flower(rng, n, N45_BITS[i % len(N45_BITS)])
            out.append(Request(f"n{n}", tuple(radii), expect_valid=False))
    for i in range(mix["n6"]):
        k = rng.randint(1, 254)
        radii = [k] * 7
        valid = i % 2 == 0
        if not valid:
            radii[rng.randint(1, 6)] += 1
        out.append(Request("n6", tuple(radii), expect_valid=valid))
    for _ in range(mix["solve_params"]):
        xs, truth = _param_solve(rng)
        out.append(Request("solve_params", cosines=xs, truth=truth))
    exponents = IRRATIONAL_EXPONENTS[mode]
    fixed = random.Random(f"flowerlab-check-irrational:{index}")
    for i in range(mix["solve_irrational"]):
        xs, truth = _irrational_solve(fixed, exponents[i % len(exponents)])
        out.append(Request("solve_irrational", cosines=xs, truth=truth))
    for _ in range(mix["huge_n3"]):
        # Scaled to 2,700+ bits (800+ digits), then every radius is moved.
        radii = [r + rng.getrandbits(1350) for r in _three_petal_flower(rng, 2700)]
        out.append(Request("huge_n3", tuple(radii), expect_valid=False))
    rng.shuffle(out)
    return out
