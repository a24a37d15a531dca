"""Finite-field scalars, monomials, polynomials, and polynomial systems.

Everything here is an immutable value type, and each make takes its
parts as an iterable of (key, value) pairs.  Monomial.sort_key is the one
global monomial order, graded-lexicographic (total degree first, then
higher powers of earlier variables first), so that matrix rows and columns
built from it are reproducible across runs.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, Optional, Sequence, Tuple


class PolyError(ValueError):
    """Raised for malformed algebraic inputs."""


class PolyParseError(PolyError):
    """Raised when polynomial text cannot be parsed."""


class Record:
    """Base of nullcert's immutable value types.

    A subclass lists its fields in __slots__ and its __init__ sets them with
    set_field, then checks them.  Records of one class are equal, and hash
    alike, when their fields are; assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(operator.attrgetter(*cls.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


set_field = object.__setattr__


# Trial division settles a modulus below this in milliseconds; for 2^61-1 it
# would try ~7.6*10^8 odd divisors.
MAX_MODULUS = 2**31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class FieldSpec(Record):
    """A prime field GF(p)."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        set_field(self, "p", p)
        if isinstance(p, int) and p >= MAX_MODULUS:
            raise PolyError(f"field modulus must be below 2^31, got {p}")
        if not isinstance(p, int) or not _is_prime(p):
            raise PolyError(f"field modulus must be prime, got {p!r}")


class Monomial(Record):
    """A power product of variables.

    exponents is a sparse map stored as ((var, exp), ...) with var indices
    ascending, every exp positive, and var < n_vars.  Variable index i
    corresponds to x{i+1} in text form.  Monomials order by sort_key().
    """

    __slots__ = ("exponents", "n_vars")

    def __init__(self, exponents: Tuple[Tuple[int, int], ...], n_vars: int) -> None:
        set_field(self, "exponents", exponents)
        set_field(self, "n_vars", n_vars)
        last = -1
        for var, exp in exponents:
            if var <= last:
                raise PolyError(f"variables out of order in {exponents}")
            if not 0 <= var < n_vars:
                raise PolyError(f"variable index {var} outside 0..{n_vars - 1}")
            if exp <= 0:
                raise PolyError(f"exponent {exp} must be positive")
            last = var

    @classmethod
    def make(cls, exponents: Iterable[Tuple[int, int]], n_vars: int) -> "Monomial":
        """The monomial of (var, exp) pairs in any order; repeated vars add."""
        merged: Dict[int, int] = {}
        for var, exp in exponents:
            merged[var] = merged.get(var, 0) + exp
        pairs = tuple(sorted((v, e) for v, e in merged.items() if e != 0))
        return cls(pairs, n_vars)

    @classmethod
    def one(cls, n_vars: int) -> "Monomial":
        return cls((), n_vars)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def sort_key(self) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """The graded-order key: total degree, then ((var, -exp), ...)."""
        # Within one total degree the pairs compare like the sorted index
        # tuples with multiplicity, (0, 0, 1) for x1^2*x2: the first differing
        # pair has the smaller variable, or the larger power of the same
        # variable, on the earlier monomial.  Unlike such a tuple, the key is
        # as small as the exponent map however large the exponents are.
        return (self.degree, tuple((v, -e) for v, e in self.exponents))

    def mul(self, other: "Monomial") -> "Monomial":
        if self.n_vars != other.n_vars:
            raise PolyError("monomial n_vars mismatch")
        merged = dict(self.exponents)
        for var, exp in other.exponents:
            merged[var] = merged.get(var, 0) + exp
        return Monomial(tuple(sorted(merged.items())), self.n_vars)

    # Record's __eq__ and __hash__ with the two fields spelled out: monomials
    # key every term map, and this skips the generic field getter.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exponents == other.exponents and self.n_vars == other.n_vars

    def __hash__(self) -> int:
        return hash((self.exponents, self.n_vars))


# Term display order: total degree descending, then graded-lex within a
# degree, so "x1^3+1" and "x1^2+x1*x2+x2^2" print in the conventional way.
def _display_key(m: Monomial) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    degree, key = m.sort_key()
    return (-degree, key)


class Polynomial(Record):
    """A polynomial over GF(p) as a term map Monomial -> nonzero coefficient.

    terms is canonically ordered by _display_key; no zero coefficients are
    stored; the zero polynomial has an empty term tuple and degree -1.
    """

    __slots__ = ("field", "n_vars", "terms")

    def __init__(self, field: FieldSpec, n_vars: int, terms: Tuple[Tuple[Monomial, int], ...]) -> None:
        set_field(self, "field", field)
        set_field(self, "n_vars", n_vars)
        set_field(self, "terms", terms)
        prev = None
        for mono, coeff in terms:
            if mono.n_vars != n_vars:
                raise PolyError("term n_vars mismatch")
            if not 0 < coeff < field.p:
                raise PolyError(f"coefficient {coeff} outside 1..{field.p - 1}")
            key = _display_key(mono)
            if prev is not None and key <= prev:
                raise PolyError("terms out of canonical order")
            prev = key

    @classmethod
    def make(
        cls,
        field: FieldSpec,
        n_vars: int,
        terms: Iterable[Tuple[Monomial, int]],
    ) -> "Polynomial":
        """The polynomial of (monomial, coeff) pairs; repeated monomials add mod p."""
        acc: Dict[Monomial, int] = {}
        for mono, coeff in terms:
            acc[mono] = (acc.get(mono, 0) + coeff) % field.p
        kept = [(m, c) for m, c in acc.items() if c != 0]
        kept.sort(key=lambda mc: _display_key(mc[0]))
        return cls(field, n_vars, tuple(kept))

    @classmethod
    def one(cls, field: FieldSpec, n_vars: int) -> "Polynomial":
        return cls(field, n_vars, ((Monomial.one(n_vars), 1),))

    @classmethod
    def from_monomial(cls, mono: Monomial, field: FieldSpec) -> "Polynomial":
        return cls.make(field, mono.n_vars, [(mono, 1)])

    @property
    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(m.degree for m, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def renamed(self, images: Sequence[int]) -> "Polynomial":
        """The polynomial with variable v renamed to images[v]."""
        n = self.n_vars
        terms = [(Monomial.make([(images[v], e) for v, e in m.exponents], n), c) for m, c in self.terms]
        return Polynomial.make(self.field, n, terms)

    def __str__(self) -> str:
        return format_poly(self)


def format_monomial(mono: Monomial, coeff: int = 1) -> str:
    if not mono.exponents:
        return str(coeff)
    parts = [] if coeff == 1 else [str(coeff)]
    for var, exp in mono.exponents:
        parts.append(f"x{var + 1}" if exp == 1 else f"x{var + 1}^{exp}")
    return "*".join(parts)


def format_poly(a: Polynomial) -> str:
    if a.is_zero():
        return "0"
    return "+".join(format_monomial(m, c) for m, c in a.terms)


def _split_terms(s: str) -> list[Tuple[int, str]]:
    terms = []
    i = 0
    while i < len(s):
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        if j == i:
            raise PolyParseError(f"empty term at position {i} in {s!r}")
        terms.append((sign, s[i:j]))
        i = j
    if not terms:
        raise PolyParseError("empty polynomial text")
    return terms


def _parse_term(body: str, n_vars: int, where: str) -> Tuple[Monomial, int]:
    coeff = 1
    exps: list[Tuple[int, int]] = []
    for pos, part in enumerate(body.split("*")):
        if not part:
            raise PolyParseError(f"empty factor in term {where!r}")
        if part.isdecimal():
            if pos != 0:
                raise PolyParseError(f"coefficient must lead the term in {where!r}")
            coeff = int(part)
            continue
        if not part.startswith("x"):
            raise PolyParseError(f"bad factor {part!r} in term {where!r}")
        var_txt, caret, exp_txt = part[1:].partition("^")
        if not var_txt.isdecimal() or (caret and not exp_txt.isdecimal()):
            raise PolyParseError(f"bad factor {part!r} in term {where!r}")
        var = int(var_txt)
        exp = int(exp_txt) if caret else 1
        if not 1 <= var <= n_vars:
            raise PolyParseError(f"variable x{var} outside 1..{n_vars} in term {where!r}")
        if exp < 1:
            raise PolyParseError(f"exponent must be positive in term {where!r}")
        exps.append((var - 1, exp))
    return Monomial.make(exps, n_vars), coeff


def parse_poly(text: str, field: FieldSpec, n_vars: int) -> Polynomial:
    """Parse the text form: terms joined by + (or -), term = c*x<i>^<e>*...

    Whitespace is ignored anywhere.  Coefficients reduce mod p; a leading
    minus maps to the additive inverse.
    """
    s = "".join(text.split())
    pairs = []
    for sign, body in _split_terms(s):
        mono, coeff = _parse_term(body, n_vars, body)
        pairs.append((mono, sign * coeff))
    return Polynomial.make(field, n_vars, pairs)


def parse_monomial(text: str, n_vars: int) -> Monomial:
    """Parse a single monomial like x1*x8*x9 or x2^3 (no coefficient)."""
    s = "".join(text.split())
    mono, coeff = _parse_term(s, n_vars, s)
    if coeff != 1:
        raise PolyParseError(f"expected a bare monomial, got coefficient {coeff} in {text!r}")
    return mono


class PolySystem(Record):
    """An ordered polynomial system F = (f_1, ..., f_s) with source tags.

    Tags name where each polynomial came from (vertex:i, edge:u-v,
    cutter:u-v-w, user:k) and travel into certificates.
    """

    __slots__ = ("field", "n_vars", "polys", "tags")

    def __init__(
        self, field: FieldSpec, n_vars: int, polys: Tuple[Polynomial, ...], tags: Tuple[str, ...] = ()
    ) -> None:
        if not polys:
            raise PolyError("polynomial system must be nonempty")
        if not tags:
            tags = tuple(f"user:{i}" for i in range(len(polys)))
        set_field(self, "field", field)
        set_field(self, "n_vars", n_vars)
        set_field(self, "polys", polys)
        set_field(self, "tags", tags)
        if len(tags) != len(polys):
            raise PolyError("tags length must match polynomial count")
        for poly in polys:
            if poly.field != field or poly.n_vars != n_vars:
                raise PolyError("system polynomial field or n_vars mismatch")

    @classmethod
    def make(
        cls,
        field_spec: FieldSpec,
        n_vars: int,
        polys: Iterable[Polynomial],
        tags: Optional[Iterable[str]] = None,
    ) -> "PolySystem":
        return cls(field_spec, n_vars, tuple(polys), tuple(tags) if tags is not None else ())

    def __len__(self) -> int:
        return len(self.polys)


__all__ = [
    "FieldSpec",
    "Monomial",
    "Polynomial",
    "PolySystem",
    "PolyError",
    "PolyParseError",
    "format_monomial",
    "format_poly",
    "parse_poly",
    "parse_monomial",
]
