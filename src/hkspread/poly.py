"""Exact sparse polynomial arithmetic over prime fields.

Polynomials are immutable term maps {exponent tuple: coefficient} with
coefficients reduced into [1, p).  An exponent vector is a plain tuple of
ints >= 0, checked once where it enters (`Polynomial.__init__`); what the
package builds itself skips the check (`Polynomial._trusted`).  A RingSpec
carries the characteristic, the variable names and optional homogeneous
quotient relations; a RingSpec with no relations models a polynomial ring.
"""

from __future__ import annotations

import keyword
from operator import add

from .errors import (
    AlgebraError,
    FrobeniusPowerError,
    HomogeneityError,
    NotPrimeError,
    RingMismatchError,
    UnitRelationError,
)


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017: psi_13).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to `_PRIME_BASES`, exact below
    PRIME_LIMIT; from there on it raises NotPrimeError, as these bases no
    longer decide primality."""
    if n >= PRIME_LIMIT:
        raise NotPrimeError(f"characteristic {n} is too large: the primality "
                            f"test is exact only below {PRIME_LIMIT}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & -(n - 1)).bit_length() - 1   # n - 1 = d·2^s, d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valid_var_name(name: str) -> bool:
    return name.isidentifier() and not keyword.iskeyword(name)


class RingSpec:
    """F_p[x_1..x_n] or a quotient of it by homogeneous relations of positive
    degree.

    Relations may be handed in as polynomials of another RingSpec with the
    same characteristic; they are re-bound here by variable name, which is
    what makes incremental construction (declare variables, then the
    quotient) and polynomial-extension base change possible.
    """

    __slots__ = ("characteristic", "variables", "relations", "_dimension",
                 "_relation_basis")

    def __init__(self, characteristic, variables, relations=()):
        if not is_prime(characteristic):
            raise NotPrimeError(
                f"characteristic must be prime, got {characteristic}")
        self.characteristic = characteristic
        variables = tuple(variables)
        if not variables:
            raise AlgebraError("at least one variable is required")
        for v in variables:
            if not valid_var_name(v):
                raise AlgebraError(f"invalid variable name {v!r}")
        if len(set(variables)) != len(variables):
            raise AlgebraError("duplicate variable names")
        self.variables = variables
        self._dimension = None
        self._relation_basis = None
        adopted = []
        for rel in relations:
            f = self.adopt(rel)
            if f.is_zero():
                continue
            if not f.is_homogeneous():
                raise HomogeneityError(
                    f"quotient relation {f} is not homogeneous")
            if f.degree() == 0:
                raise UnitRelationError(
                    f"quotient relation {f} is a nonzero constant, so the "
                    "ring would be zero")
            adopted.append(f)
        self.relations = tuple(adopted)

    # -- basic properties ---------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def dimension(self) -> int:
        """Krull dimension, computed once from the relation basis."""
        if self._dimension is None:
            from .groebner import krull_dimension
            self._dimension = (krull_dimension(self.relation_basis())
                               if self.relations else self.nvars)
        return self._dimension

    def relation_basis(self):
        """The reduced DEGREVLEX Groebner basis of the relations, the basis
        of the zero ideal of the ring, computed once."""
        if self._relation_basis is None:
            from .groebner import buchberger_raw
            self._relation_basis = buchberger_raw(self.relations, ring=self)
        return self._relation_basis

    def _key(self):
        """The ring's identity: equal rings have equal keys, and hash alike."""
        return (self.characteristic, self.variables,
                tuple(r.terms_key() for r in self.relations))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RingSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        base = f"F_{self.characteristic}[{','.join(self.variables)}]"
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
        return self.monomial((0,) * self.nvars, c)

    def gen(self, i: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[i] = 1
        return self.monomial(exps)

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def monomial(self, exponents, coeff=1) -> "Polynomial":
        return Polynomial(self, {tuple(exponents): coeff})

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
        return RingSpec(self.characteristic, self.variables, rels)

    def unused_names(self, stems) -> tuple:
        """Each stem with `_` appended until it names no variable of the
        ring and no name before it: the names of adjoined variables."""
        names = []
        for name in stems:
            while name in self.variables or name in names:
                name += "_"
            names.append(name)
        return tuple(names)

    def adjoin_variables(self, names) -> "RingSpec":
        """Polynomial extension by new variables."""
        names = tuple(names)
        for n in names:
            if n in self.variables:
                raise AlgebraError(f"variable {n!r} already in the ring")
        return RingSpec(self.characteristic, self.variables + names, self.relations)

    def adopt(self, poly: "Polynomial") -> "Polynomial":
        """Re-bind a polynomial of a compatible ring by variable name."""
        if isinstance(poly, Polynomial) and poly.ring is self:
            return poly
        if not isinstance(poly, Polynomial):
            raise AlgebraError(f"cannot adopt {type(poly).__name__}")
        if poly.ring.characteristic != self.characteristic:
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
            terms[tuple(exps)] = c
        return Polynomial._trusted(self, terms)


def as_q(ring: RingSpec, q) -> int:
    """Return q if it is an int power p^e (e >= 0) of the characteristic."""
    p = ring.characteristic
    if type(q) is int:
        v = 1
        while v < q:
            v *= p
        if v == q:
            return q
    raise FrobeniusPowerError(f"{q} is not a power of {p}")


def _product(a, b, check):
    if check is not None:
        check(a, b)
    return a * b


class Polynomial:
    """Immutable sparse polynomial over a RingSpec."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms):
        """The one check of terms from outside the package: each key an
        exponent tuple of the ring's length with int entries >= 0, each
        coefficient an int."""
        p, n = ring.characteristic, ring.nvars
        clean = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != n:
                raise AlgebraError("exponent vector has wrong length")
            if not all(isinstance(e, int) and e >= 0 for e in mono):
                raise AlgebraError(f"exponents must be ints >= 0, got {mono}")
            if not isinstance(c, int):
                raise AlgebraError(f"coefficients must be ints, got {c!r}")
            c %= p
            if c:
                clean[mono] = c
        self.ring = ring
        self.terms = clean

    @classmethod
    def _trusted(cls, ring: RingSpec, terms: dict) -> "Polynomial":
        """`terms` unchecked: exponent tuples of the ring, coefficients in [1, p)."""
        f = object.__new__(cls)
        f.ring, f.terms = ring, terms
        return f

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.terms))) <= 1

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

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
        p = self.ring.characteristic
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            v = (terms.get(mono, 0) + c) % p
            if v:
                terms[mono] = v
            else:
                terms.pop(mono, None)
        return Polynomial._trusted(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.characteristic
        return Polynomial._trusted(self.ring, {m: (-c) % p for m, c in self.terms.items()})

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
        p = self.ring.characteristic
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                v = (terms.get(m, 0) + c1 * c2) % p
                if v:
                    terms[m] = v
                else:
                    terms.pop(m, None)
        return Polynomial._trusted(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return self.power(n)

    def power(self, n: int, check=None) -> "Polynomial":
        """f^n from the base-p digits of n, leading digit first: f^(p·m + d)
        = (f^m)^[p]·f^d is exact in characteristic p, so f^(Σ d_i·p^i) =
        Π (f^[p^i])^(d_i), and each f^d (d < p) is taken by squaring: O(log n)
        products in all.  `check(a, b)`, if given, is called before each
        product a·b.  A power of one term is one exponent multiplication."""
        if n < 0:
            raise AlgebraError("negative polynomial power")
        p = self.ring.characteristic
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            return Polynomial._trusted(
                self.ring, {tuple(n * e for e in m): pow(c, n, p)})
        digits = []
        while n:
            n, d = divmod(n, p)
            digits.append(d)
        result = self.ring.one
        for d in reversed(digits):
            result = result.qth_power(p)
            if d:
                factor = self
                for bit in bin(d)[3:]:
                    factor = _product(factor, factor, check)
                    if bit == "1":
                        factor = _product(factor, self, check)
                result = _product(result, factor, check)
        return result

    def scale(self, c: int) -> "Polynomial":
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

    def qth_power(self, q) -> "Polynomial":
        """Frobenius power f^q: exponents scaled by q, coefficients to the q."""
        q = as_q(self.ring, q)
        p = self.ring.characteristic
        return Polynomial._trusted(self.ring, {
            tuple(q * e for e in m): pow(c, q, p) for m, c in self.terms.items()})

    # -- leading data -------------------------------------------------------

    def leading_monomial(self, order) -> tuple:
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
        return self.scale(pow(lc, -1, self.ring.characteristic))

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

    def _format_monomial(self, mono: tuple) -> str:
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
