"""Independent constructions the tests check the library against."""

from fractions import Fraction

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
