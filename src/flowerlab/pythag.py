"""Primitive solutions of x^2 + beta*y^2 = z^2 for square-free beta.

``generate_triples`` enumerates solutions through their witness form: a
factorization beta = b*c with b*m^2 and c*n^2 coprime gives

    x = |b*m^2 - c*n^2| / 2,  y = m*n,    z = (b*m^2 + c*n^2) / 2

when m and n share parity (only both-odd survives the coprimality filter),
and the unhalved variant x = |b*m^2 - c*n^2|, y = 2*m*n, z = b*m^2 + c*n^2
for mixed parity.  Witness combinations whose halved forms are not integers
are skipped; ``brute_force_triples`` is the exhaustive oracle that confirms
nothing is lost that way.  It knows nothing of witnesses: it walks every
(z, y) with beta*y^2 < z^2 and finds x by looking z^2 - beta*y^2 up in an
exact table of squares.  Distinct witnesses for one (x, y, z) are merged,
keeping every witness.

Both routes refuse a beta that is not square-free.  Finding the factor
pairs of beta and testing it for square-freeness both trial-divide up to
sqrt(beta), so beta is capped at ``MAX_BETA``; the z bounds are capped at
``MAX_BOUND`` and ``MAX_BRUTE_FORCE_BOUND``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterator

from .ratpoly import Record

# Largest accepted beta: trial division up to sqrt(10**12) takes about a
# tenth of a second, and the cost grows as sqrt(beta).
MAX_BETA = 10**12
# Largest accepted z bounds, timed as ``pyth --beta 1 ... --out FILE`` in a
# fresh process on 2 vCPUs (Python 3.11.7), where ``graham`` at its ceiling
# takes 4.8 s.  ``generate_triples`` at 10**6 takes 5.3 s and its JSON is
# 55 MB; the cost grows linearly.  The brute force grows quadratically and
# beta = 1, with the longest y walk, is its slowest: 2.2 s at 10**4, 4.5 s
# at 15000, 8.8 s at 2*10**4.
MAX_BOUND = 10**6
MAX_BRUTE_FORCE_BOUND = 15000


def _check_args(beta: int, z_bound: int, max_bound: int) -> None:
    if type(beta) is not int or beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta}")
    if beta > MAX_BETA:
        raise ValueError(f"beta must be at most {MAX_BETA}, got {beta}")
    if type(z_bound) is not int or not 1 <= z_bound <= max_bound:
        raise ValueError(f"bound must be in 1..{max_bound}, got {z_bound}")
    if not is_squarefree(beta):
        raise ValueError(f"beta = {beta} is not square-free")


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n >= 1)."""
    if type(n) is not int or n < 1:
        raise ValueError("expected a positive integer")
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Witness(Record):
    b: int
    c: int
    m: int
    n: int
    halved: bool


@dataclass(frozen=True)
class PythTriple(Record):
    """One solution found by ``brute_force_triples``, as ``pyth --brute-force``
    writes it."""

    beta: int
    x: int
    y: int
    z: int


@dataclass(frozen=True)
class PythSolution(Record):
    beta: int
    x: int
    y: int
    z: int
    witnesses: tuple[Witness, ...]

    def triple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def _factor_pairs(beta: int) -> Iterator[tuple[int, int]]:
    """Every (b, c) with b*c = beta, in ascending b: trial division up to
    isqrt(beta), the small divisors first, then their cofactors."""
    small = [d for d in range(1, isqrt(beta) + 1) if beta % d == 0]
    large = [beta // d for d in reversed(small) if d * d != beta]
    for b in small + large:
        yield b, beta // b


def generate_triples(beta: int, z_bound: int) -> list[PythSolution]:
    """All primitive solutions with z <= z_bound, each with its witnesses."""
    _check_args(beta, z_bound, MAX_BOUND)
    found: dict[tuple[int, int, int], list[Witness]] = {}

    def emit(x: int, y: int, z: int, witness: Witness) -> None:
        if x < 1 or z > z_bound:
            return
        if gcd(x, y) != 1 or gcd(y, z) != 1 or gcd(x, z) != 1:
            return
        found.setdefault((x, y, z), []).append(witness)

    # Both branch formulas solve the equation identically for any m, n;
    # integrality of the halved form and the primitivity filter are what
    # select the genuine witnesses, so neither branch restricts parity
    # up front.  (For even beta a same-parity pair can only appear through
    # the unhalved branch, its halved form being non-integral.)
    for b, c in _factor_pairs(beta):
        m = 1
        while b * m * m <= 2 * z_bound:
            n = 1
            while b * m * m + c * n * n <= 2 * z_bound:
                bm2, cn2 = b * m * m, c * n * n
                if gcd(bm2, cn2) == 1:
                    if (bm2 + cn2) % 2 == 0:
                        emit(abs(bm2 - cn2) // 2, m * n, (bm2 + cn2) // 2,
                             Witness(b, c, m, n, True))
                    if bm2 + cn2 <= z_bound:
                        emit(abs(bm2 - cn2), 2 * m * n, bm2 + cn2,
                             Witness(b, c, m, n, False))
                n += 1
            m += 1

    out = [
        PythSolution(beta, x, y, z, tuple(ws))
        for (x, y, z), ws in sorted(found.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))
    ]
    return out


def brute_force_triples(beta: int, z_bound: int) -> set[tuple[int, int, int]]:
    """Exhaustive oracle: for every z <= z_bound and every y >= 1 with
    beta*y^2 < z^2, look z^2 - beta*y^2 up in an exact table of squares to
    find x; keep the pairwise coprime solutions."""
    _check_args(beta, z_bound, MAX_BRUTE_FORCE_BOUND)
    root = {k * k: k for k in range(1, z_bound + 1)}
    scaled = [beta * y * y for y in range(isqrt((z_bound * z_bound - 1) // beta) + 1)]
    return {
        (x, y, z)
        for zz, z in root.items()
        for y in range(1, isqrt((zz - 1) // beta) + 1)
        if (x := root.get(zz - scaled[y]))
        and gcd(x, y) == 1 and gcd(y, z) == 1 and gcd(x, z) == 1
    }
