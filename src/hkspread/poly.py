"""Exact sparse polynomial arithmetic over prime fields.

Polynomials are immutable term maps {exponent tuple: coefficient} with
coefficients reduced into [0, p).  A RingSpec carries the characteristic,
the variable names and optional homogeneous quotient relations; a RingSpec
with no relations models a polynomial ring.
"""

from __future__ import annotations

import keyword
from operator import add, le, mul, sub

from .errors import (
    AlgebraError,
    FrobeniusPowerError,
    HomogeneityError,
    NotPrimeError,
    RingMismatchError,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """Arithmetic mod a prime p; elements are plain ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrimeError(f"characteristic must be prime, got {p}")
        self.p = p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Monomial(tuple):
    """Exponent vector; one entry per ring variable."""

    def degree(self) -> int:
        return sum(self)

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(map(add, self, other))

    def divides(self, other: "Monomial") -> bool:
        return all(map(le, self, other))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other, assuming other divides self."""
        return Monomial(map(sub, self, other))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(map(max, self, other))

    def scaled(self, q: int) -> "Monomial":
        return Monomial(q * a for a in self)

    def is_coprime(self, other: "Monomial") -> bool:
        return not any(map(mul, self, other))


def _valid_var_name(name: str) -> bool:
    return name.isidentifier() and not keyword.iskeyword(name)


class RingSpec:
    """F_p[x_1..x_n] or a quotient of it by homogeneous relations.

    Relations may be handed in as polynomials of another RingSpec with the
    same characteristic; they are re-bound here by variable name, which is
    what makes incremental construction (declare variables, then the
    quotient) and polynomial-extension base change possible.
    """

    __slots__ = ("field", "variables", "relations", "_dimension", "_hash")

    def __init__(self, characteristic, variables, relations=()):
        self.field = PrimeField(characteristic)
        variables = tuple(variables)
        if not variables:
            raise AlgebraError("at least one variable is required")
        for v in variables:
            if not _valid_var_name(v):
                raise AlgebraError(f"invalid variable name {v!r}")
        if len(set(variables)) != len(variables):
            raise AlgebraError("duplicate variable names")
        self.variables = variables
        self._dimension = None
        self._hash = None
        adopted = []
        for rel in relations:
            f = self.adopt(rel)
            if f.is_zero():
                continue
            if not f.is_homogeneous():
                raise HomogeneityError(
                    f"quotient relation {f} is not homogeneous")
            adopted.append(f)
        self.relations = tuple(adopted)

    # -- basic properties ---------------------------------------------------

    @property
    def characteristic(self) -> int:
        return self.field.p

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def dimension(self) -> int:
        """Krull dimension, computed once from the relation ideal."""
        if self._dimension is None:
            if not self.relations:
                self._dimension = self.nvars
            else:
                from .groebner import krull_dimension
                from .ideals import Ideal
                self._dimension = krull_dimension(Ideal(self, ()))
        return self._dimension

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RingSpec):
            return NotImplemented
        return (self.field == other.field
                and self.variables == other.variables
                and tuple(r.terms_key() for r in self.relations)
                == tuple(r.terms_key() for r in other.relations))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.p, self.variables,
                               tuple(r.terms_key() for r in self.relations)))
        return self._hash

    def __repr__(self):
        base = f"F_{self.field.p}[{','.join(self.variables)}]"
        if self.relations:
            base += "/(" + ", ".join(str(r) for r in self.relations) + ")"
        return base

    # -- element constructors ----------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.field.p
        mono = Monomial((0,) * self.nvars)
        return Polynomial(self, {mono: c} if c else {})

    def gen(self, i: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {Monomial(exps): 1})

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def monomial(self, exponents, coeff=1) -> "Polynomial":
        c = coeff % self.field.p
        return Polynomial(self, {Monomial(exponents): c} if c else {})

    def poly(self, source) -> "Polynomial":
        """Build an element from a string, an int, or a foreign polynomial."""
        if isinstance(source, Polynomial):
            return self.adopt(source)
        if isinstance(source, int):
            return self.constant(source)
        from .script import parse_polynomial
        return parse_polynomial(source, self)

    def ideal(self, *gens):
        from .ideals import Ideal
        return Ideal(self, tuple(self.poly(g) for g in gens))

    # -- ring constructions -------------------------------------------------

    def quotient(self, *relations) -> "RingSpec":
        """Same variables, with the given homogeneous relations appended."""
        rels = list(self.relations)
        for r in relations:
            rels.append(self.poly(r) if isinstance(r, str) else r)
        return RingSpec(self.field.p, self.variables, rels)

    def adjoin_variables(self, names) -> "RingSpec":
        """Polynomial extension by new variables."""
        names = tuple(names)
        for n in names:
            if n in self.variables:
                raise AlgebraError(f"variable {n!r} already in the ring")
        return RingSpec(self.field.p, self.variables + names, self.relations)

    def adopt(self, poly: "Polynomial") -> "Polynomial":
        """Re-bind a polynomial of a compatible ring by variable name."""
        if isinstance(poly, Polynomial) and poly.ring is self:
            return poly
        if not isinstance(poly, Polynomial):
            raise AlgebraError(f"cannot adopt {type(poly).__name__}")
        if poly.ring.field.p != self.field.p:
            raise RingMismatchError("different characteristics")
        try:
            position = [self.variables.index(v) for v in poly.ring.variables]
        except ValueError:
            missing = set(poly.ring.variables) - set(self.variables)
            raise RingMismatchError(f"unknown variables {sorted(missing)}")
        terms = {}
        for mono, c in poly.terms.items():
            exps = [0] * self.nvars
            for src, e in enumerate(mono):
                exps[position[src]] = e
            terms[Monomial(exps)] = c
        return Polynomial(self, terms)


def as_q(ring: RingSpec, q) -> int:
    """Return q if it is an int power p^e (e >= 0) of the characteristic."""
    p = ring.field.p
    if type(q) is int:
        v = 1
        while v < q:
            v *= p
        if v == q:
            return q
    raise FrobeniusPowerError(f"{q} is not a power of {p}")


class Polynomial:
    """Immutable sparse polynomial over a RingSpec."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms):
        p = ring.field.p
        clean = {}
        n = ring.nvars
        for mono, c in terms.items():
            c %= p
            if not c:
                continue
            if not isinstance(mono, Monomial):
                mono = Monomial(mono)
            if len(mono) != n:
                raise AlgebraError("exponent vector has wrong length")
            clean[mono] = c
        self.ring = ring
        self.terms = clean

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_homogeneous(self) -> bool:
        degs = {m.degree() for m in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree() for m in self.terms)

    def max_exponent(self) -> int:
        return max(map(max, self.terms), default=0)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"operands in different rings: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.field.p
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            v = (terms.get(mono, 0) + c) % p
            if v:
                terms[mono] = v
            else:
                terms.pop(mono, None)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, {m: (-c) % p for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.field.p
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                v = (terms.get(m, 0) + c1 * c2) % p
                if v:
                    terms[m] = v
                else:
                    terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative polynomial power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.field.p
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

    def qth_power(self, q) -> "Polynomial":
        """Frobenius power f^q: exponents scaled by q, coefficients to the q."""
        q = as_q(self.ring, q)
        p = self.ring.field.p
        return Polynomial(self.ring,
                          {m.scaled(q): pow(c, q, p) for m, c in self.terms.items()})

    # -- leading data -------------------------------------------------------

    def leading_monomial(self, order) -> Monomial:
        if not self.terms:
            raise AlgebraError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order) -> int:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self.scale(self.ring.field.inv(lc))

    # -- equality / display -------------------------------------------------

    def terms_key(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms_key()))

    def _format_monomial(self, mono: Monomial) -> str:
        parts = []
        for name, e in zip(self.ring.variables, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        from .orders import DEGREVLEX
        parts = []
        for mono in sorted(self.terms, key=DEGREVLEX.key, reverse=True):
            c = self.terms[mono]
            body = self._format_monomial(mono)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ring}>"
