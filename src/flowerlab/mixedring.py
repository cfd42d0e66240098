"""Arithmetic in the ring Q[x_1..x_n, y_1..y_n] / (y_i^2 - (1 - x_i^2)).

Think of x_i = cos(t_i) and y_i = sin(t_i): the relation y_i^2 = 1 - x_i^2
is rewritten eagerly, so every stored term carries each y_i to the power 0
or 1.  A term is keyed by its x-exponent tuple plus a bitmask of the y
variables present.

This ring is the independent oracle for the flower polynomial: the
definitional product routes in ``flowerpoly`` multiply sign conjugates of
angle-sum expansions here, as a norm tower with one norm step f * g(f)
per sign generator g, while ``flower_poly`` itself never leaves plain
polynomial arithmetic.  The module provides

* ``cos_sin_over_slots``: the expansions of cos and sin of an angle sum,
  built by the two-term angle-addition recursion;
* ``apply_sign``: the group Z_2^(n-1) of ring automorphisms that fix all
  x_i and flip the signs of adjacent products y_i*y_{i+1}.  An element is
  an int whose bit i switches on generator i (0-based); composition is
  xor and the group is ``range(1 << (n - 1))``.  Generator i negates a term
  exactly when the term contains an odd number of y's among slots 0..i,
  i.e. when the term "crosses" boundary i; ``_sign_flips`` turns a group
  element into the one parity mask both ring forms test terms against;
* ``poly_at_mixed``: a pure polynomial evaluated at ring elements;
* the ring at a rational point x_i = p_i/q_i, where y_i = s_i/q_i and
  s_i^2 = q_i^2 - p_i^2 is an int: a point element is a dict from sine
  mask to int, and two terms multiply to mask ma ^ mb times
  prod_{i in ma & mb} (q_i^2 - p_i^2).  ``point_cos_sin`` and
  ``point_norm`` are the expansions and the norm step there, so
  ``flowerpoly.flower_value`` runs the norm tower on numbers.

Multiplication keeps no kernel of its own: each operand's terms are grouped
by y mask, the blocks are multiplied on packed x exponents with
``ratpoly``'s kernel, the products that share sines are multiplied by
their y_i^2 = 1 - x_i^2 factor once per group, and the result is unpacked
in one batched pass.  The norm towers, ``sign_norm(gens, f)``, take
f <- f * apply_sign(g, f) for each sign mask g of ``gens`` and run the same
reduction on fewer block products: with f = A + B, B the terms g negates,
a step is A^2 - B^2, since a term of A and a term of B meet twice with
opposite signs and cancel.  Each side is squared, every pair of its terms
multiplied once, and no pair across the sides is multiplied at all.  The
tower stays packed from its first step to its last, at one pack width
fixed up front: the largest x exponent plus sine bit in a slot of f, times
2^len(gens), bounds every exponent it forms.

Like the pure polynomials, elements are immutable and all operations pure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Sequence

from .ratpoly import (
    Coeff,
    Exponents,
    SparsePoly,
    TermMap,
    _mul_into,
    _normalized,
    _square_into,
    _unpack_keys,
    format_terms,
    pack_exponents,
    pack_width,
)

MixedKey = tuple[Exponents, int]  # (x exponents, y-support bitmask)


class MixedElement(TermMap):
    """Immutable element of the quotient ring; y-exponents are 0 or 1."""

    __slots__ = ()

    _MIN_NVARS = 1

    @staticmethod
    def _check_key(nvars: int, key) -> MixedKey:
        exps, ybits = key
        exps = SparsePoly._check_key(nvars, exps)
        if type(ybits) is not int or ybits < 0 or ybits >> nvars:
            raise ValueError(f"y-support {ybits!r} out of range")
        return exps, ybits

    @staticmethod
    def _unit_key(nvars: int) -> MixedKey:
        return (0,) * nvars, 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def x_var(cls, nvars: int, index: int) -> "MixedElement":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        return cls._raw(nvars, {(tuple(int(i == index) for i in range(nvars)), 0): 1})

    @classmethod
    def y_var(cls, nvars: int, index: int) -> "MixedElement":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        return cls._raw(nvars, {((0,) * nvars, 1 << index): 1})

    # -- inspection --------------------------------------------------------

    def to_poly(self) -> SparsePoly:
        """Extract as a plain polynomial; error if any y survives."""
        out: dict[Exponents, Coeff] = {}
        for (exps, ybits), coeff in self._terms.items():
            if ybits:
                ys = "*".join(f"y{i + 1}" for i in range(self.nvars) if ybits >> i & 1)
                raise ValueError(f"residual sine factor {ys} in element; not a pure polynomial")
            out[exps] = coeff
        return SparsePoly._raw(self.nvars, out)

    def pretty(self) -> str:
        """Plain-text form, terms by descending (degree, x exponents, y mask)."""
        n = self.nvars
        names = [f"{v}{i + 1}" for v in "xy" for i in range(n)]
        keys = sorted(self._terms, key=lambda k: (sum(k[0]) + k[1].bit_count(), k), reverse=True)
        return format_terms(names, (
            (e + tuple(b >> i & 1 for i in range(n)), self._terms[e, b]) for e, b in keys
        ))

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other) -> "MixedElement":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, MixedElement):
            return NotImplemented
        self._check_arity(other)
        # Two terms with y masks sa and sb multiply to y mask sa ^ sb times
        # prod_{i in sa & sb} (1 - x_i^2).  So the products of each pair of
        # mask blocks are summed, x exponents packed as in SparsePoly, into
        # a group keyed by (sa ^ sb, sa & sb), and each group is multiplied
        # by its reduction factor once.  Widths allow for the extra x^2.
        bits = pack_width(self._max_exponent() + other._max_exponent() + 2)
        b = other._blocks(bits)
        groups: _Groups = {}
        for sa, block_a in self._blocks(bits).items():
            for sb, block_b in b.items():
                by_common = groups.setdefault(sa ^ sb, {})
                _mul_into(by_common.setdefault(sa & sb, {}), block_a, block_b)
        return _unpack_accs(self.nvars, bits, _reduce_groups(self.nvars, bits, groups))

    def _max_exponent(self) -> int:
        return max((max(e) for e, _ in self._terms), default=0)

    def _blocks(self, bits: int) -> _Blocks:
        """The terms grouped by y mask, with packed x exponents."""
        blocks: _Blocks = {}
        for (e, ybits), c in self._terms.items():
            blocks.setdefault(ybits, []).append((pack_exponents(e, bits), c))
        return blocks


# Packed blocks: y mask -> [(packed x exponents, nonzero coefficient)].
_Blocks = dict[int, list[tuple[int, Coeff]]]
# Packed accumulators: y mask -> packed x exponents -> coefficient, with
# the cancelled terms still in.
_Accs = dict[int, dict[int, Coeff]]
# Block products before the sine squares are applied: y mask -> common
# sines -> packed x exponents -> coefficient.
_Groups = dict[int, _Accs]


def _reduce_groups(nvars: int, bits: int, groups: _Groups) -> _Accs:
    """The packed accumulators of sum_{mask, common} y^mask *
    prod_{i in common} (1 - x_i^2) * groups[mask][common]: each group is
    multiplied by its sine squares once.  Consumes ``groups``."""
    accs: _Accs = {}
    for mask, by_common in groups.items():
        acc = accs[mask] = by_common.pop(0, {})
        for common, group in by_common.items():
            # The few factor terms go outermost, so each inner loop runs
            # over the long group.
            _mul_into(acc, _sine_squares(nvars, bits, common), group.items())
    return accs


def _sine_squares(nvars: int, bits: int, mask: int, sign: int = 1) -> list[tuple[int, int]]:
    """Packed terms of sign * prod_{i in mask} (1 - x_i^2), the product of
    the squares y_i^2 of the sines in ``mask``."""
    terms = [(0, sign)]
    for i in range(nvars):
        if mask >> i & 1:
            x2 = 2 << (nvars - 1 - i) * bits
            terms += [(k + x2, -c) for k, c in terms]
    return terms


def _unpack_accs(nvars: int, bits: int, accs: _Accs) -> MixedElement:
    """The element of packed accumulators, dropping cancelled terms, with
    every x key unpacked in one batched pass (``ratpoly``'s field-at-a-time
    unpack)."""
    keys: list[int] = []
    masks: list[int] = []
    coeffs: list[Coeff] = []
    for mask, acc in accs.items():
        ks = [k for k, c in acc.items() if c]
        keys += ks
        coeffs += map(acc.__getitem__, ks)
        masks += repeat(mask, len(ks))
    exps = _unpack_keys(keys, nvars, bits)
    return MixedElement._raw(nvars, dict(zip(zip(exps, masks), _normalized(coeffs))))


# -- sign automorphisms --------------------------------------------------------


def _sign_flips(gens: int, nvars: int) -> int:
    """The y slots whose sines the sign automorphism ``gens`` counts.

    A term is negated once per switched-on generator i whose prefix 0..i
    holds an odd number of its y's, so in all exactly when its y-support
    meets the returned mask in an odd number of slots: bit j is the parity
    of the generators i >= j.  Zero exactly when ``gens`` is.
    """
    if type(gens) is not int or gens < 0 or gens >> (nvars - 1):
        raise ValueError(f"sign mask {gens!r} out of range for {nvars} variables")
    flips = 0
    for j in range(nvars - 1):
        if (gens >> j).bit_count() & 1:
            flips |= 1 << j
    return flips


def apply_sign(gens: int, element: MixedElement) -> MixedElement:
    """Apply the sign automorphism whose generators are the set bits of
    ``gens``: negate the terms whose y-support meets ``_sign_flips`` oddly.
    Pure-x terms are always fixed."""
    n = element.nvars
    flips = _sign_flips(gens, n)
    if not flips:
        return element
    return MixedElement._raw(n, {
        key: -c if (key[1] & flips).bit_count() & 1 else c for key, c in element.items()
    })


def sign_norm(gens: Sequence[int], element: MixedElement) -> MixedElement:
    """The norm tower: f <- f * apply_sign(g, f) for each sign mask g of
    ``gens`` in turn, from f = ``element``, on packed keys throughout.

    The element is packed once into y-mask blocks, every step maps packed
    accumulators to packed accumulators, and the result is unpacked once.
    A step never builds the conjugate: split f as A + B, where B holds the
    terms g negates.  A term a of A and a term b of B meet twice in the
    product, once as c_a*t_a * (-c_b*t_b) and once as c_b*t_b * c_a*t_a,
    and cancel, so the product is A^2 - B^2: each y-mask block is squared,
    each pair of blocks on the same side is multiplied once with doubled
    coefficients, and the groups are reduced as in ``MixedElement.__mul__``.

    The pack width is fixed up front.  In each slot, a product of two terms
    has x exponent plus sine bit at most the sum of its factors' (a shared
    sine becomes the x_i^2 of 1 - x_i^2), so a step at most doubles the
    largest such degree D over the terms of f, and D * 2^len(gens) bounds
    every exponent the tower forms.
    """
    nvars = element.nvars
    all_flips = [_sign_flips(g, nvars) for g in gens]
    top = max((e[i] + (ybits >> i & 1) for e, ybits in element._terms for i in range(nvars)),
              default=0)
    bits = pack_width(top << len(all_flips))
    accs = {mask: dict(block) for mask, block in element._blocks(bits).items()}
    for flips in all_flips:
        accs = _norm_step(nvars, bits, flips, accs)
    return _unpack_accs(nvars, bits, accs)


def _norm_step(nvars: int, bits: int, flips: int, accs: _Accs) -> _Accs:
    """One step of ``sign_norm`` on packed accumulators, for the sign
    automorphism whose ``_sign_flips`` mask is ``flips``."""
    sides: tuple[list, list] = ([], [])
    for mask, acc in accs.items():
        block = [(k, c) for k, c in acc.items() if c]
        if block:
            sides[(mask & flips).bit_count() & 1].append((mask, block))
    # A block squares to y mask 0 times its own sine squares, which go on
    # at once; a product of two different blocks keeps a sine.
    unmixed: dict[int, Coeff] = {}
    groups: _Groups = {0: {0: unmixed}}
    for sign, side in zip((1, -1), sides):
        for i, (sa, block_a) in enumerate(side):
            if sa:
                square: dict[int, Coeff] = {}
                _square_into(square, block_a)
                _mul_into(unmixed, _sine_squares(nvars, bits, sa, sign), square.items())
            else:  # the sine-free block, on the fixed side
                _square_into(unmixed, block_a)
            doubled = [(k, 2 * sign * c) for k, c in block_a]
            for sb, block_b in side[i + 1 :]:
                by_common = groups.setdefault(sa ^ sb, {})
                _mul_into(by_common.setdefault(sa & sb, {}), doubled, block_b)
    return _reduce_groups(nvars, bits, groups)


# -- angle-sum expansions --------------------------------------------------------


def cos_sin_over_slots(nvars: int, slots: Sequence[int]) -> tuple[MixedElement, MixedElement]:
    """cos/sin expansion of the angle sum over the given variable slots.

    Peels off the first slot with the two-term angle-addition rule and
    recurses on the rest.
    """
    slots = tuple(slots)
    if not slots:
        raise ValueError("need at least one variable slot")
    if len(set(slots)) != len(slots) or not all(0 <= s < nvars for s in slots):
        raise ValueError(f"bad slot list {slots} for {nvars} variables")
    xj = MixedElement.x_var(nvars, slots[0])
    yj = MixedElement.y_var(nvars, slots[0])
    if len(slots) == 1:
        return xj, yj
    ec, es = cos_sin_over_slots(nvars, slots[1:])
    return xj * ec - yj * es, yj * ec + xj * es


def poly_at_mixed(poly: SparsePoly, args: Sequence[MixedElement]) -> MixedElement:
    """Evaluate a pure polynomial at mixed-ring arguments."""
    if len(args) != poly.nvars:
        raise ValueError(
            f"argument count {len(args)} does not match variable count {poly.nvars}"
        )
    if not args:
        raise ValueError("need at least one argument")
    nvars = args[0].nvars
    for a in args:
        if a.nvars != nvars:
            raise ValueError("mixed arguments must share one ambient ring")
    # The caches start at the arguments and a term's coefficient is
    # applied last, so no product by one or by a scalar element is taken.
    powers: list[dict[int, MixedElement]] = [{1: a} for a in args]

    def power(i: int, k: int) -> MixedElement:
        cache = powers[i]
        p = cache.get(k)
        if p is None:
            p = power(i, k - 1) * args[i]
            cache[k] = p
        return p

    total = MixedElement.zero(nvars)
    for exps, coeff in poly.items():
        term = None
        for i, e in enumerate(exps):
            if e:
                term = power(i, e) if term is None else term * power(i, e)
        total = total + (MixedElement.const(nvars, coeff) if term is None else term * coeff)
    return total


# -- at a rational point ---------------------------------------------------------
#
# At x_i = p_i/q_i write y_i = s_i/q_i, where s_i^2 = q_i^2 - p_i^2.  An
# element whose terms each hold x_i or y_i once in every slot i, such as an
# angle-sum expansion, is then prod q_i in the denominator times a point
# element: a dict from sine bitmask m to the int coefficient of
# prod_{i in m} s_i.  No square root is taken; s_i^2 is the int above.


def point_squares(points: Sequence[Fraction]) -> list[int]:
    """``squares[m]`` = prod_{i in m} (q_i^2 - p_i^2) for every bitmask m of
    the slots: the factor two point terms multiply by where their sines meet."""
    squares = [1]
    for x in points:
        s2 = x.denominator**2 - x.numerator**2
        squares += [v * s2 for v in squares]
    return squares


def point_cos_sin(points: Sequence[Fraction]) -> tuple[dict[int, int], dict[int, int]]:
    """cos and sin of t_1 + ... + t_k at cos(t_i) = points[i], times
    prod q_i, as point elements.

    The two-term angle-addition rule, one slot at a time: with c, s the
    expansions over the slots before j, cos gains c*p_j - s*s_j and sin
    s*p_j + c*s_j, and s_j puts bit j on a mask that had none.
    """
    if not points:
        raise ValueError("need at least one point coordinate")
    cos, sin = {0: points[0].numerator}, {1: 1}
    for j, x in enumerate(points[1:], 1):
        p, bit = x.numerator, 1 << j
        cos, sin = (
            {**{m: c * p for m, c in cos.items()}, **{m | bit: -c for m, c in sin.items()}},
            {**{m: c * p for m, c in sin.items()}, **{m | bit: c for m, c in cos.items()}},
        )
    return cos, sin


def point_norm(gens: int, nvars: int, element: dict[int, int],
               squares: Sequence[int]) -> dict[int, int]:
    """``element`` times its image under the sign automorphism ``gens`` over
    ``nvars`` slots, as a step of ``sign_norm``: A^2 - B^2 with B the terms
    ``gens`` negates.  Terms with masks ma and mb multiply to mask ma ^ mb times
    ``squares[ma & mb]`` (``point_squares``)."""
    flips = _sign_flips(gens, nvars)
    sides: tuple[list, list] = ([], [])
    for m, c in element.items():
        sides[(m & flips).bit_count() & 1].append((m, c))
    out: dict[int, int] = {}
    get = out.get
    for sign, side in zip((1, -1), sides):
        for i, (ma, ca) in enumerate(side):
            out[0] = get(0, 0) + sign * ca * ca * squares[ma]
            ca = 2 * sign * ca
            for mb, cb in side[i + 1 :]:
                m = ma ^ mb
                out[m] = get(m, 0) + ca * cb * squares[ma & mb]
    return {m: c for m, c in out.items() if c}
