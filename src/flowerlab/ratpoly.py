"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a map from exponent tuples to nonzero rational coefficients:

    x1^2*x2 + 3/2   (2 variables)  ->  {(2, 1): 1, (0, 0): Fraction(3, 2)}

Coefficients are ``fractions.Fraction`` values, stored as plain ``int``
whenever the denominator is 1 (ints and Fractions mix freely in arithmetic
and compare/hash identically, and integer fast paths matter in the big
products this package computes).  The zero polynomial is an empty term map
that still remembers its variable count, so ring arity survives arithmetic
with 0.

Multiplication works on exponent tuples packed into single int keys
(``pack_exponents``) and unpacks its result once, on the way out.

Exact evaluation clears denominators up front: every coordinate p/q and
every coefficient is brought over one common integer denominator, the terms
are summed as plain ints, and the single division (with its one gcd) comes
last.  Summing ``Fraction`` terms instead pays a gcd on every product and
every partial sum.

Canonical term order is graded lexicographic, descending: higher total
degree first, ties broken lexicographically on the exponent tuple with the
first variable strongest.  Serialization always uses this order, so two
equal polynomials serialize identically.  ``poly_json_chunks`` writes the
indented JSON of ``poly_to_obj`` term by term, for polynomials too large to
build as a dict tree first.

All values are immutable after construction and every operation is a pure
function; instances can be shared freely between threads or processes.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

Exponents = tuple[int, ...]
Coeff = int | Fraction

# Exponents far beyond any computable polynomial here; catches plumbing bugs
# (e.g. an exponent that was accidentally multiplied instead of added).
_MAX_EXPONENT = 1 << 62


def normalize_coeff(value: Coeff) -> Coeff:
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational ``p`` or ``p/q``, optionally signed and
    padded with whitespace.  Decimals and exponents (``1e10000000`` has
    10 M digits) are refused, so int parsing's 4,300-digit limit bounds it."""
    match = _RATIONAL.fullmatch(text.strip())
    if match:
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational number: {text!r}")


def parse_int_list(raw, what: str) -> tuple[int, ...]:
    """Parse a JSON list of integers, such as a term's exponents."""
    if not isinstance(raw, list):
        raise ValueError(f"{what} must be a list, got {raw!r}")
    if not all(type(v) is int for v in raw):
        raise ValueError(f"{what} must hold integers, got {raw!r}")
    return tuple(raw)


def format_rational(value: Coeff) -> str:
    """Canonical string for a rational: ``p`` when integral, else ``p/q``."""
    return str(Fraction(value))


def format_terms(names: Sequence[str], terms: Iterable[tuple[Exponents, Coeff]]) -> str:
    """Plain-text sum of (exponents, coefficient) pairs in print order, the
    exponents read against ``names``: a unit coefficient is left out before
    its factors, a minus sign replaces the plus, and no terms print ``0``."""
    parts: list[str] = []
    for exps, coeff in terms:
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)
        mag = abs(coeff)
        if not mono:
            body = format_rational(mag)
        else:
            body = mono if mag == 1 else f"{format_rational(mag)}*{mono}"
        parts.append("-" + body if coeff < 0 else "+" + body if parts else body)
    return "".join(parts) or "0"


def _grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


class TermMap:
    """Immutable map from term keys to nonzero rational coefficients, with
    the ring plumbing shared by ``SparsePoly`` and the mixed cos/sin ring.

    A subclass supplies its lowest arity ``_MIN_NVARS``, ``_check_key`` (a
    key made canonical, or ValueError), ``_unit_key`` (the constant term's
    key), ``pretty`` (its term order and factor names for ``format_terms``)
    and the ``__mul__`` kernel, which hands scalars to ``_scale``.
    """

    __slots__ = ("nvars", "_terms")

    _MIN_NVARS = 0

    def __init__(self, nvars: int, terms: Mapping | None = None):
        if type(nvars) is not int:
            raise ValueError(f"variable count must be an int, got {nvars!r}")
        if nvars < self._MIN_NVARS:
            raise ValueError(f"variable count must be at least {self._MIN_NVARS}, got {nvars}")
        clean: dict = {}
        if terms:
            for key, coeff in terms.items():
                key = self._check_key(nvars, key)
                coeff = normalize_coeff(coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff))
                if coeff != 0:
                    clean[key] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _raw(cls, nvars: int, terms: dict):
        # Internal: terms must already be canonical (validated keys,
        # normalized nonzero coefficients).
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", terms)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int):
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: Coeff):
        return cls(nvars, {cls._unit_key(nvars): value})

    @classmethod
    def one(cls, nvars: int):
        return cls.const(nvars, 1)

    def _lift(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.const(self.nvars, other)
        return None

    # -- inspection --------------------------------------------------------

    def items(self):
        """Read-only view of (key, coefficient) pairs (unordered)."""
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.nvars}, {self.pretty()!r})"

    # -- ring operations ----------------------------------------------------

    def _check_arity(self, other: "TermMap") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._check_arity(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            new = out.get(key, 0) + coeff
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = normalize_coeff(new)
        return self._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.nvars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _scale(self, value: Coeff):
        """The scalar multiple value*self."""
        if value == 0:
            return self._raw(self.nvars, {})
        value = normalize_coeff(value)
        return self._raw(
            self.nvars, {k: normalize_coeff(c * value) for k, c in self._terms.items()}
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self._lift(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result


class SparsePoly(TermMap):
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ()

    @staticmethod
    def _check_key(nvars: int, exps) -> Exponents:
        exps = tuple(exps)
        if len(exps) != nvars:
            raise ValueError(
                f"exponent tuple {exps} does not match variable count {nvars}"
            )
        for e in exps:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative ints: {exps}")
            if e > _MAX_EXPONENT:
                raise ValueError(f"exponent overflow: {e}")
        return exps

    @staticmethod
    def _unit_key(nvars: int) -> Exponents:
        return (0,) * nvars

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SparsePoly":
        """The polynomial x_index (0-based index)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    # -- inspection --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Coeff]]:
        """Terms in canonical (graded-lex descending) order."""
        return sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        return self._terms.get(tuple(exps), 0)

    def constant(self) -> Coeff:
        return self._terms.get(self._unit_key(self.nvars), 0)

    def degree_in(self, index: int) -> int:
        """Largest exponent of the given variable; 0 if the variable is absent."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        if not self._terms:
            return 0
        return max(e[index] for e in self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def _max_exponent(self) -> int:
        return max((max(e, default=0) for e in self._terms), default=0)

    def coefficient_in(self, index: int, power: int) -> "SparsePoly":
        """Coefficient of x_index^power, as a polynomial in the other variables."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        out: dict[Exponents, Coeff] = {}
        for exps, coeff in self._terms.items():
            if exps[index] == power:
                out[exps[:index] + exps[index + 1 :]] = coeff
        return SparsePoly._raw(self.nvars - 1, out)

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_arity(other)
        bits = pack_width(self._max_exponent() + other._max_exponent())
        a = _pack_terms(self, bits)
        acc: dict[int, Coeff] = {}
        if other is self:
            _square_into(acc, a)
        else:
            _mul_into(acc, a, _pack_terms(other, bits))
        return _unpack_terms(acc, self.nvars, bits)

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, point: Sequence[Coeff]) -> Fraction:
        """Exact value at a rational point; a ring homomorphism Q[x] -> Q.

        Integer-cleared: with x_i = p_i/q_i, d_i the largest exponent of
        x_i and L the lcm of the coefficient denominators, the value is

            sum (c*L) * prod T_i[e_i]  /  (L * prod q_i^d_i),

        where T_i[e] = p_i^e * q_i^(d_i - e) is tabulated once per call.  The
        sum runs over plain ints and the one division happens at the end.
        It is folded Horner-style, one variable at a time from the last:
        terms that agree on the exponents still to be folded are summed
        first, so the factors they share are multiplied in once.
        """
        if len(point) != self.nvars:
            raise ValueError(
                f"point length {len(point)} does not match variable count {self.nvars}"
            )
        values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in point]
        terms = self._terms
        if not terms:
            return Fraction(0)
        scale = math.lcm(*map(attrgetter("denominator"), terms.values()))
        # Normalized coefficients are ints exactly when scale is 1.
        level = terms if scale == 1 else {
            exps: c.numerator * (scale // c.denominator) for exps, c in terms.items()
        }
        denominator = scale
        for i in reversed(range(self.nvars)):
            p, q = values[i].numerator, values[i].denominator
            d = max(map(itemgetter(i), level))
            table = [p**e * q ** (d - e) for e in range(d + 1)]
            denominator *= q**d
            folded: dict[Exponents, int] = {}
            for exps, value in level.items():
                key = exps[:i]
                folded[key] = folded.get(key, 0) + value * table[exps[i]]
            level = folded
        return Fraction(level[()], denominator)

    def evaluate_float(self, point: Sequence[float]) -> float:
        """Floating-point value at a real point."""
        if len(point) != self.nvars:
            raise ValueError(
                f"point length {len(point)} does not match variable count {self.nvars}"
            )
        values = [float(v) for v in point]
        total = 0.0
        for exps, coeff in self._terms.items():
            term = float(coeff)
            for i, e in enumerate(exps):
                if e:
                    term *= values[i] ** e
            total += term
        return total

    def specialize(self, index: int, value: Coeff) -> "SparsePoly":
        """Set x_index to a rational constant and drop that variable slot."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        value = normalize_coeff(value if isinstance(value, (int, Fraction)) else Fraction(value))
        powers: dict[int, Coeff] = {0: 1}
        out: dict[Exponents, Coeff] = {}
        for exps, coeff in self._terms.items():
            k = exps[index]
            p = powers.get(k)
            if p is None:
                p = value**k
                powers[k] = p
            key = exps[:index] + exps[index + 1 :]
            new = out.get(key, 0) + coeff * p
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = normalize_coeff(new)
        return SparsePoly._raw(self.nvars - 1, out)

    def permute(self, perm: Sequence[int]) -> "SparsePoly":
        """Apply a variable permutation: result(x_1..x_n) = self(x_perm[0]+1, ...).

        ``perm`` must be a bijection of 0..n-1; slot i of self is moved to
        slot perm[i] of the result.
        """
        if len(perm) != self.nvars or sorted(perm) != list(range(self.nvars)):
            raise ValueError(f"not a bijection on {self.nvars} variables: {perm!r}")
        out: dict[Exponents, Coeff] = {}
        for exps, coeff in self._terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exps):
                new[perm[i]] = e
            out[tuple(new)] = coeff
        return SparsePoly._raw(self.nvars, out)

    # -- display -------------------------------------------------------------

    def pretty(self, var_names: Sequence[str] | None = None) -> str:
        """Plain-text form, e.g. ``x1^2+x2^2+x3^2-2*x1*x2*x3-1``."""
        return format_terms(resolve_var_names(self.nvars, var_names), self.sorted_terms())


# -- packed monomials -----------------------------------------------------------
#
# Multiplication packs each exponent tuple into one int, ``bits`` bits per
# variable with the first variable most significant, so that multiplying two
# monomials is adding two ints (the packed monomials of Monagan and Pearce).
# The width is taken from the operands' largest exponents, wide enough that
# no field of a product can carry into its neighbour.


def pack_width(top: int) -> int:
    """Bits per variable for packed keys whose exponents are at most ``top``."""
    return max(1, top.bit_length())


def pack_exponents(exps: Exponents, bits: int) -> int:
    key = 0
    for e in exps:
        key = key << bits | e
    return key


def unpack_exponents(key: int, nvars: int, bits: int) -> Exponents:
    mask = (1 << bits) - 1
    return tuple([key >> shift & mask for shift in range((nvars - 1) * bits, -1, -bits)])


def _pack_terms(poly: SparsePoly, bits: int) -> list[tuple[int, Coeff]]:
    return [(pack_exponents(e, bits), c) for e, c in poly._terms.items()]


def _unpack_terms(acc: dict[int, Coeff], nvars: int, bits: int) -> SparsePoly:
    """The polynomial of a packed accumulator, dropping cancelled terms."""
    return SparsePoly._raw(nvars, {
        unpack_exponents(k, nvars, bits): normalize_coeff(c) for k, c in acc.items() if c
    })


def _mul_into(acc: dict[int, Coeff], a: list[tuple[int, Coeff]],
              b: list[tuple[int, Coeff]]) -> None:
    """acc += a * b on packed terms."""
    get = acc.get
    for ka, ca in a:
        for kb, cb in b:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


def _square_into(acc: dict[int, Coeff], a: list[tuple[int, Coeff]]) -> None:
    """acc += a * a, each cross product computed once and doubled."""
    get = acc.get
    for i, (ka, ca) in enumerate(a):
        k = ka + ka
        acc[k] = get(k, 0) + ca * ca
        ca += ca
        for kb, cb in a[i + 1 :]:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


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


def resolve_var_names(nvars: int, var_names: Sequence[str] | None = None) -> list[str]:
    """The given variable names, or the default ``x1..xn`` when none are."""
    names = list(var_names) if var_names else [f"x{i + 1}" for i in range(nvars)]
    if len(names) != nvars:
        raise ValueError("variable name list has wrong length")
    return names


# -- JSON serialization -------------------------------------------------------
#
# Wire format:
#   {"vars": ["x1", ...], "terms": [{"c": "<p>" or "<p>/<q>", "e": [e1, ...]}]}
# with terms in graded-lex descending order and canonical fraction strings.


def poly_to_obj(poly: SparsePoly, var_names: Sequence[str] | None = None) -> dict:
    return {
        "vars": resolve_var_names(poly.nvars, var_names),
        "terms": [
            {"c": format_rational(c), "e": list(e)} for e, c in poly.sorted_terms()
        ],
    }


def nested_json(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2)`` as it sits ``depth`` levels deep in an
    indented document.  JSON text holds no raw newline inside a string, so
    indenting every line after the first is exact."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


def poly_json_chunks(poly: SparsePoly, depth: int = 0) -> Iterator[str]:
    """``json.dumps(poly_to_obj(poly), indent=2)`` nested ``depth`` levels
    deep, in chunks: the head, one string per term filled into a template
    of the term's fixed shape (no term dict), and the tail."""
    pad = "\n" + "  " * depth
    p2, p3, p4 = (pad + "  " * k for k in (2, 3, 4))
    exps = "[" + p4 + "%s" + p3 + "]" if poly.nvars else "[%s]"
    term = p2 + "{" + p3 + '"c": "%s",' + p3 + '"e": ' + exps + p2 + "}"
    sep = "," + p4
    names = nested_json(resolve_var_names(poly.nvars), depth + 1)
    yield "{" + pad + '  "vars": ' + names + "," + pad + '  "terms": ['
    for i, (e, c) in enumerate(poly.sorted_terms()):
        yield ("," if i else "") + term % (format_rational(c), sep.join(map(str, e)))
    yield (pad + "  ]" if poly else "]") + pad + "}"


def poly_from_obj(obj: Mapping) -> tuple[SparsePoly, list[str]]:
    try:
        names, raw_terms = obj["vars"], obj["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError("polynomial object needs 'vars' and 'terms'") from exc
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise ValueError(f"polynomial 'vars' must be a list of names, got {names!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"polynomial 'vars' repeats a name: {names!r}")
    if not isinstance(raw_terms, list):
        raise ValueError(f"polynomial 'terms' must be a list, got {raw_terms!r}")
    nvars = len(names)
    terms: dict[Exponents, Coeff] = {}
    for entry in raw_terms:
        try:
            text, raw_exps = entry["c"], entry["e"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"polynomial term needs 'c' and 'e': {entry!r}") from exc
        coeff = parse_rational(str(text))
        exps = parse_int_list(raw_exps, "polynomial term 'e'")
        if exps in terms:
            raise ValueError(f"duplicate monomial in serialized polynomial: {exps}")
        terms[exps] = coeff
    return SparsePoly(nvars, terms), list(names)


def poly_dumps(poly: SparsePoly, var_names: Sequence[str] | None = None) -> str:
    return json.dumps(poly_to_obj(poly, var_names), separators=(",", ":"))
