"""Walk through the flower polynomial family and its cross-checks.

The n-petal flower polynomial relates the cosines of the n center angles of
a ring of coins around a unit coin.  This script builds the small cases by
the cheap norm-form recursion, rebuilds them from their two slower
definitions, and exercises the structural identities that make the family
trustworthy: square decomposition, symmetry, monic degree, specialization,
and the general block recursion.
"""

import time
from itertools import permutations

from flowerlab.flowerpoly import (
    closure_product_poly,
    flower_poly,
    flower_poly_from_product,
    radius_expansion,
    verify_general_recursion,
    verify_monic,
    verify_specialization,
    verify_square,
)


def main() -> None:
    print("== the first flower polynomials ==")
    for n in (1, 2, 3, 4):
        print(f"n={n}: {flower_poly(n).pretty()}")

    print("\n== three constructions, one polynomial ==")
    for n in (2, 3, 4, 5):
        t0 = time.perf_counter()
        pn = flower_poly(n)
        via_product = flower_poly_from_product(n)
        closure = closure_product_poly(n)
        dt = time.perf_counter() - t0
        same = via_product == pn and closure == pn * pn
        print(f"n={n}: {len(pn)} terms; product route and closure square agree: {same} "
              f"({dt:.2f}s)")

    print("\n== structural identities ==")
    for n in (2, 3, 4, 5):
        print(f"square decomposition n={n}:", verify_square(n).ok)
    p4 = flower_poly(4)
    print("symmetry n=4 (all 24 permutations):",
          all(p4.permute(p) == p4 for p in permutations(range(4))))
    print("monic of degree 2^(n-2), n=6:", verify_monic(6).ok)
    print("specialization x_2 := 1 at n=4:", verify_specialization(4, 1).ok)
    print("block recursion n=5, blocks (2,1,2):",
          verify_general_recursion(5, (2, 1, 2)).ok)

    print("\n== radius polynomial for three petals ==")
    rx = radius_expansion()
    print("homogeneous part has", len(rx.homogeneous), "terms of total degree 12")
    for power, coeff in enumerate(rx.coefficients):
        degree = max((sum(e) for e, _ in coeff.items()), default=0)
        print(f"  r^{power} coefficient: {len(coeff)} terms, degree {degree}")
    # pretty() names the variables x1..x3; here they are the petal radii.
    print("constant coefficient:", rx.coefficients[0].pretty().replace("x", "r"))


if __name__ == "__main__":
    main()
