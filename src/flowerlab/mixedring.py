"""Arithmetic in the ring Q[x_1..x_n, y_1..y_n] / (y_i^2 - (1 - x_i^2)).

Think of x_i = cos(t_i) and y_i = sin(t_i): the relation y_i^2 = 1 - x_i^2
is rewritten eagerly, so every stored term carries each y_i to the power 0
or 1.  A term is keyed by its x-exponent tuple plus a bitmask of the y
variables present.

The module provides

* ``angle_sum_cos_sin(n)``: the expansions of cos(t_1+...+t_n) and
  sin(t_1+...+t_n) as elements of this ring, built by the two-term
  angle-addition recursion, and ``angle_sum_cos_sin_direct(n)``, the same
  values built combinatorially (one term per sin/cos pattern) as an
  independent oracle;
* ``SignVector`` / ``apply_sign``: the group of ring automorphisms that fix
  all x_i and flip the signs of adjacent products y_i*y_{i+1}.  Generator i
  (0-based) negates a term exactly when the term contains an odd number of
  y's among slots 0..i, i.e. when the term "crosses" boundary i.

Like the pure polynomials, elements are immutable and all operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, Sequence

from .ratpoly import (
    Coeff,
    Exponents,
    SparsePoly,
    normalize_coeff,
    pack_exponents,
    pack_width,
    parse_int_list,
    parse_rational,
    unpack_exponents,
)

MixedKey = tuple[Exponents, int]  # (x exponents, y-support bitmask)

class MixedElement:
    """Immutable element of the quotient ring; y-exponents are 0 or 1."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[MixedKey, Coeff] | None = None):
        if nvars < 1:
            raise ValueError("variable count must be positive")
        clean: dict[MixedKey, Coeff] = {}
        if terms:
            for (exps, ybits), coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
                if ybits < 0 or ybits >> nvars:
                    raise ValueError(f"y-support {ybits:#x} out of range")
                coeff = normalize_coeff(coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff))
                if coeff != 0:
                    clean[(exps, ybits)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MixedElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, terms: dict[MixedKey, Coeff]) -> "MixedElement":
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", terms)
        return self

    @classmethod
    def zero(cls, nvars: int) -> "MixedElement":
        return cls._raw(nvars, {})

    @classmethod
    def scalar(cls, nvars: int, value: Coeff) -> "MixedElement":
        return cls(nvars, {((0,) * nvars, 0): value})

    @classmethod
    def one(cls, nvars: int) -> "MixedElement":
        return cls.scalar(nvars, 1)

    @classmethod
    def x_var(cls, nvars: int, index: int) -> "MixedElement":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        exps = [0] * nvars
        exps[index] = 1
        return cls._raw(nvars, {(tuple(exps), 0): 1})

    @classmethod
    def y_var(cls, nvars: int, index: int) -> "MixedElement":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        return cls._raw(nvars, {((0,) * nvars, 1 << index): 1})

    @classmethod
    def from_poly(cls, poly: SparsePoly) -> "MixedElement":
        return cls._raw(poly.nvars, {(e, 0): c for e, c in poly.items()})

    # -- inspection --------------------------------------------------------

    def items(self):
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedElement):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def to_poly(self) -> SparsePoly:
        """Extract as a plain polynomial; error if any y survives."""
        out: dict[Exponents, Coeff] = {}
        for (exps, ybits), coeff in self._terms.items():
            if ybits:
                ys = "*".join(f"y{i + 1}" for i in range(self.nvars) if ybits >> i & 1)
                raise ValueError(f"residual sine factor {ys} in element; not a pure polynomial")
            out[exps] = coeff
        return SparsePoly(self.nvars, out)

    def pretty(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        keys = sorted(
            self._terms,
            key=lambda k: (sum(k[0]) + bin(k[1]).count("1"), k[0], k[1]),
            reverse=True,
        )
        for exps, ybits in keys:
            coeff = self._terms[(exps, ybits)]
            factors = [
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            factors += [f"y{i + 1}" for i in range(self.nvars) if ybits >> i & 1]
            mono = "*".join(factors)
            negative = coeff < 0
            mag = -coeff if negative else coeff
            body = mono if (mono and mag == 1) else (f"{mag}*{mono}" if mono else str(mag))
            sign = "-" if negative else ("" if not parts else "+")
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MixedElement({self.nvars}, {self.pretty()!r})"

    # -- ring operations ----------------------------------------------------

    def _check_arity(self, other: "MixedElement") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other) -> "MixedElement":
        if isinstance(other, (int, Fraction)):
            other = MixedElement.scalar(self.nvars, other)
        elif isinstance(other, SparsePoly):
            other = MixedElement.from_poly(other)
        if not isinstance(other, MixedElement):
            return NotImplemented
        self._check_arity(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            new = out.get(key, 0) + coeff
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = normalize_coeff(new)
        return MixedElement._raw(self.nvars, out)

    def __radd__(self, other) -> "MixedElement":
        return self.__add__(other)

    def __neg__(self) -> "MixedElement":
        return MixedElement._raw(self.nvars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "MixedElement":
        if isinstance(other, (int, Fraction)):
            other = MixedElement.scalar(self.nvars, other)
        elif isinstance(other, SparsePoly):
            other = MixedElement.from_poly(other)
        if not isinstance(other, MixedElement):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "MixedElement":
        return (-self).__add__(other)

    def __mul__(self, other) -> "MixedElement":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MixedElement.zero(self.nvars)
            return MixedElement._raw(
                self.nvars,
                {k: normalize_coeff(c * other) for k, c in self._terms.items()},
            )
        if isinstance(other, SparsePoly):
            other = MixedElement.from_poly(other)
        if not isinstance(other, MixedElement):
            return NotImplemented
        self._check_arity(other)
        # Packed key: the x exponents packed as in SparsePoly, shifted above
        # the y bitmask.  Two keys then add to the key of the product before
        # y_i^2 reduction; for a common mask m, subtracting 2*m clears the
        # doubled y bits and each term of prod_{i in m} (1 - x_i^2) adds a
        # packed delta to the x part.  Widths allow for those extra x^2.
        nvars = self.nvars
        ymask = (1 << nvars) - 1
        bits = pack_width(self._max_exponent() + other._max_exponent() + 2)
        a = self._packed(bits)
        groups: dict[int, list[tuple[int, Coeff]]] = {}
        for k, c in other._packed(bits):
            groups.setdefault(k & ymask, []).append((k, c))
        reductions = {}
        for sa in {k & ymask for k, _ in a}:
            for sb in groups:
                common = sa & sb
                if common and common not in reductions:
                    reductions[common] = _reduction_offsets(nvars, bits, common)
        acc: dict[int, Coeff] = {}
        get = acc.get
        for ka, ca in a:
            sa = ka & ymask
            for sb, group in groups.items():
                common = sa & sb
                if not common:
                    for kb, cb in group:
                        k = ka + kb
                        acc[k] = get(k, 0) + ca * cb
                    continue
                plus, minus = reductions[common]
                for kb, cb in group:
                    k0 = ka + kb
                    c = ca * cb
                    for off in plus:
                        k = k0 + off
                        acc[k] = get(k, 0) + c
                    for off in minus:
                        k = k0 + off
                        acc[k] = get(k, 0) - c
        out: dict[MixedKey, Coeff] = {}
        for k, c in acc.items():
            if c:
                out[(unpack_exponents(k >> nvars, nvars, bits), k & ymask)] = normalize_coeff(c)
        return MixedElement._raw(nvars, out)

    def _max_exponent(self) -> int:
        return max((max(e) for e, _ in self._terms), default=0)

    def _packed(self, bits: int) -> list[tuple[int, Coeff]]:
        nvars = self.nvars
        return [((pack_exponents(e, bits) << nvars) | ybits, c)
                for (e, ybits), c in self._terms.items()]

    def __rmul__(self, other) -> "MixedElement":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "MixedElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MixedElement.one(self.nvars)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result


def _reduction_offsets(nvars: int, bits: int, mask: int) -> tuple[list[int], list[int]]:
    """Packed-key offsets for the product of two terms sharing the y mask
    ``mask``: clear the doubled y bits and add each term of
    prod_{i in mask} (1 - x_i^2), split by the sign of that term."""
    offsets = [(-2 * mask, 1)]
    for i in range(nvars):
        if mask >> i & 1:
            x2 = 2 << ((nvars - 1 - i) * bits + nvars)
            offsets += [(off + x2, -sign) for off, sign in offsets]
    return ([off for off, sign in offsets if sign > 0],
            [off for off, sign in offsets if sign < 0])


# -- sign automorphisms --------------------------------------------------------


@dataclass(frozen=True)
class SignVector:
    """Element of the sign group Z_2^(n-1) acting on the mixed ring.

    ``bits[i]`` switches on generator i (0-based), the automorphism that
    negates y_i*y_{i+1} and fixes every other adjacent product and all x's.
    """

    nvars: int
    bits: tuple[bool, ...]

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("variable count must be positive")
        if len(self.bits) != self.nvars - 1:
            raise ValueError(
                f"sign vector needs {self.nvars - 1} bits, got {len(self.bits)}"
            )

    @classmethod
    def identity(cls, nvars: int) -> "SignVector":
        return cls(nvars, (False,) * (nvars - 1))

    @classmethod
    def generator(cls, nvars: int, index: int) -> "SignVector":
        bits = [False] * (nvars - 1)
        bits[index] = True
        return cls(nvars, tuple(bits))

    def is_identity(self) -> bool:
        return not any(self.bits)

    def compose(self, other: "SignVector") -> "SignVector":
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        return SignVector(self.nvars, tuple(a ^ b for a, b in zip(self.bits, other.bits)))


def sign_vectors(nvars: int) -> Iterator[SignVector]:
    """All 2^(n-1) sign vectors, identity first."""
    for bits in product((False, True), repeat=nvars - 1):
        yield SignVector(nvars, bits)


def apply_sign(sigma: SignVector, element: MixedElement) -> MixedElement:
    """Apply a sign automorphism; pure-x terms are always fixed."""
    if sigma.nvars != element.nvars:
        raise ValueError(
            f"arity mismatch: sign vector on {sigma.nvars} variables, "
            f"element on {element.nvars}"
        )
    masks = [(1 << (i + 1)) - 1 for i, on in enumerate(sigma.bits) if on]
    if not masks:
        return element
    out: dict[MixedKey, Coeff] = {}
    for (exps, ybits), coeff in element.items():
        if ybits:
            neg = False
            for m in masks:
                if (ybits & m).bit_count() & 1:
                    neg = not neg
            if neg:
                coeff = -coeff
        out[(exps, ybits)] = coeff
    return MixedElement._raw(element.nvars, out)


# -- angle-sum expansions --------------------------------------------------------


def cos_sin_over_slots(
    nvars: int, slots: Sequence[int], pick: int = 0
) -> tuple[MixedElement, MixedElement]:
    """cos/sin expansion of the angle sum over the given variable slots.

    Peels off slot ``slots[pick]`` with the two-term angle-addition rule and
    recurses on the rest; any ``pick`` yields the same element.
    """
    slots = tuple(slots)
    if not slots:
        raise ValueError("need at least one variable slot")
    if len(set(slots)) != len(slots) or not all(0 <= s < nvars for s in slots):
        raise ValueError(f"bad slot list {slots} for {nvars} variables")
    if not 0 <= pick < len(slots):
        raise ValueError("pick out of range")
    j = slots[pick]
    if len(slots) == 1:
        return MixedElement.x_var(nvars, j), MixedElement.y_var(nvars, j)
    rest = slots[:pick] + slots[pick + 1 :]
    ec, es = cos_sin_over_slots(nvars, rest)
    xj = MixedElement.x_var(nvars, j)
    yj = MixedElement.y_var(nvars, j)
    return xj * ec - yj * es, yj * ec + xj * es


def angle_sum_cos_sin(n: int) -> tuple[MixedElement, MixedElement]:
    """Expansions of cos(t_1+...+t_n) and sin(t_1+...+t_n), recursively built."""
    if n < 1:
        raise ValueError("need at least one angle")
    return cos_sin_over_slots(n, range(n))


def angle_sum_cos_sin_direct(n: int) -> tuple[MixedElement, MixedElement]:
    """Same values as ``angle_sum_cos_sin`` built term-by-term.

    Each of the 2^n sin/cos patterns contributes one term: patterns with an
    even number 2e of sines go to the cosine with sign (-1)^e, patterns with
    an odd number 2e+1 go to the sine with sign (-1)^e.  Serves as the
    independent oracle for the recursive construction.
    """
    if n < 1:
        raise ValueError("need at least one angle")
    zero_x = (0,) * n
    cos_terms: dict[MixedKey, Coeff] = {}
    sin_terms: dict[MixedKey, Coeff] = {}
    for mask in range(1 << n):
        sines = mask.bit_count()
        exps = tuple(0 if mask >> i & 1 else 1 for i in range(n))
        if sines % 2 == 0:
            cos_terms[(exps, mask)] = -1 if (sines // 2) % 2 else 1
        else:
            sin_terms[(exps, mask)] = -1 if ((sines - 1) // 2) % 2 else 1
    return MixedElement._raw(n, cos_terms), MixedElement._raw(n, sin_terms)


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
    powers: list[dict[int, MixedElement]] = [
        {0: MixedElement.one(nvars)} for _ in range(poly.nvars)
    ]

    def power(i: int, k: int) -> MixedElement:
        cache = powers[i]
        p = cache.get(k)
        if p is None:
            p = power(i, k - 1) * args[i]
            cache[k] = p
        return p

    total = MixedElement.zero(nvars)
    for exps, coeff in poly.items():
        term = MixedElement.scalar(nvars, coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        total = total + term
    return total


# -- JSON serialization ---------------------------------------------------------
#
# Extends the polynomial wire format with a per-term "ys" list of 1-based
# variable indices whose sine factor is present.


def mixed_to_obj(element: MixedElement) -> dict:
    n = element.nvars
    keys = sorted(
        element._terms,
        key=lambda k: (sum(k[0]) + bin(k[1]).count("1"), k[0], k[1]),
        reverse=True,
    )
    terms = []
    for exps, ybits in keys:
        coeff = element._terms[(exps, ybits)]
        terms.append(
            {
                "c": str(Fraction(coeff)),
                "e": list(exps),
                "ys": [i + 1 for i in range(n) if ybits >> i & 1],
            }
        )
    return {"vars": [f"x{i + 1}" for i in range(n)], "terms": terms}


def mixed_from_obj(obj: Mapping) -> MixedElement:
    try:
        nvars = len(obj["vars"])
        raw_terms = obj["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError("mixed element object needs 'vars' and 'terms'") from exc
    if not isinstance(raw_terms, list):
        raise ValueError(f"mixed element 'terms' must be a list, got {raw_terms!r}")
    terms: dict[MixedKey, Coeff] = {}
    for entry in raw_terms:
        try:
            text, raw_exps, raw_ys = entry["c"], entry["e"], entry.get("ys", [])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"mixed term needs 'c' and 'e': {entry!r}") from exc
        coeff = parse_rational(str(text))
        exps = parse_int_list(raw_exps, "mixed term 'e'")
        ybits = 0
        for i in parse_int_list(raw_ys, "mixed term 'ys'"):
            if not 1 <= i <= nvars:
                raise ValueError(f"sine index {i} out of range 1..{nvars}")
            ybits |= 1 << (i - 1)
        key = (exps, ybits)
        if key in terms:
            raise ValueError(f"duplicate term in serialized element: {key}")
        terms[key] = coeff
    return MixedElement(nvars, terms)
