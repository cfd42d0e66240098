"""flowerlab: exact arithmetic for coin-graph flowers.

Subpackages cover sparse rational polynomials and the term-map core shared
by both polynomial rings (ratpoly), the mixed cosine/sine quotient ring with
its sign automorphisms, kept as the independent oracle for the definitional
product routes (mixedring), the flower polynomial family and its structural
checks (flowerpoly), rational and integer tangent-circle configurations
(soddy), generalized Pythagorean triples (pythag), flower validation and
rendering from radii (geometry), and cross-checks against recorded reference
values (discrepancy).  The ``cli`` module wires everything to a
``flowerlab`` command.
"""

from .ratpoly import SparsePoly
from .mixedring import MixedElement

__all__ = ["SparsePoly", "MixedElement"]

__version__ = "0.1.0"
