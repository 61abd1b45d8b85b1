"""Monomial orders: degrevlex (default), lex, deglex, plus the internal
block order used for one-variable elimination, and the packed integer
monomials (`Packing`) that the Groebner kernel computes with."""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .errors import AlgebraError
from .poly import Monomial, Polynomial


def _lex_key(exps):
    return tuple(exps)


def _deglex_key(exps):
    return (sum(exps), tuple(exps))


def _degrevlex_key(exps):
    # higher = smaller reversed-negated tail
    return (sum(exps), tuple([-e for e in reversed(exps)]))


_KEYS = {"lex": _lex_key, "deglex": _deglex_key, "degrevlex": _degrevlex_key}


def weight_vector(order, n: int, base: int):
    """Integer weights w with Σ w_i·a_i < Σ w_i·b_i iff a < b in `order`,
    for exponents below base/n: the order's matrix rows (`rows`), whose
    values then differ by less than base, as the digits of one number."""
    w = [0] * n
    for row in order.rows(n):
        w = [base * a + b for a, b in zip(w, row)]
    return w


class MonomialOrder:
    """Total multiplicative well-order on exponent vectors.

    Comparison goes through sort keys: bigger key = bigger monomial.
    `rows(n)` gives the same order as a matrix: a < b iff the first row
    whose value tells them apart is smaller on a.
    """

    __slots__ = ("kind", "key")

    KINDS = ("degrevlex", "lex", "deglex")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise AlgebraError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.key = _KEYS[kind]

    def rows(self, n: int):
        unit = [[int(i == k) for i in range(n)] for k in range(n)]
        if self.kind == "lex":
            return unit
        if self.kind == "deglex":
            return [[1] * n] + unit[:-1]
        return [[1] * n] + [[-e for e in row] for row in unit[:0:-1]]

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.kind == self.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"MonomialOrder({self.kind!r})"

    @property
    def name(self) -> str:
        return self.kind


class AuxBlockOrder:
    """Eliminates variable 0: compares its exponent first, then the rest
    under an inner order.  Used only for the intersection construction."""

    __slots__ = ("inner",)

    def __init__(self, inner: MonomialOrder):
        self.inner = inner

    def key(self, exps):
        return (exps[0], self.inner.key(exps[1:]))

    def rows(self, n: int):
        return [[1] + [0] * (n - 1)] + [[0] + r for r in self.inner.rows(n - 1)]

    def __eq__(self, other):
        return isinstance(other, AuxBlockOrder) and other.inner == self.inner

    def __hash__(self):
        return hash(("aux", self.inner))

    @property
    def name(self) -> str:
        return f"eliminate-first+{self.inner.name}"


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")
DEGLEX = MonomialOrder("deglex")

_BY_NAME = {"degrevlex": DEGREVLEX, "lex": LEX, "deglex": DEGLEX}


def order_by_name(name: str) -> MonomialOrder:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise AlgebraError(f"unknown monomial order {name!r}")


class Overflow(Exception):
    """A packed exponent would reach its field's guard bit."""


class Packing:
    """Exponent vectors of n variables as ints for one order: exponent i in
    bits [iF, iF + W) (F = W + 1) under a guard bit, minus the order's rank
    (`weight_vector`, base n·2^W) above all fields.  With G the guard bits,
    a divides b iff ((b | G) − a) & G == G; the guard bits left by that test
    select the lcm.  A reducer entry (lead, top, tail) holds a monic
    polynomial, top the per-variable maxima of its terms: top + u has a
    guard bit set iff a term times u overflows."""

    __slots__ = ("width", "guard", "field", "low", "shifts", "coeffs")

    def __init__(self, order, n, width):
        f = width + 1
        self.width, self.shifts = width, range(0, n * f, f)
        self.guard = sum(1 << s + width for s in self.shifts)
        self.field, self.low = (1 << width) - 1, (1 << n * f) - 1
        self.coeffs = [(-w << n * f) + (1 << s) for w, s in
                       zip(weight_vector(order, n, n << width), self.shifts)]

    def pack(self, m):
        return sum(map(mul, self.coeffs, m))

    def monomial(self, x):
        return Monomial([x >> s & self.field for s in self.shifts])

    def terms(self, f):
        return {sum(map(mul, self.coeffs, m)): c for m, c in f.terms.items()}

    def polynomial(self, ring, terms):
        return Polynomial(ring, {self.monomial(x): c for x, c in terms})

    def lcm(self, a, b):   # the exponents of lcm(a, b), without the rank
        g = self.guard
        t = ((b | g) - a) & g
        return (a ^ (a ^ b) & (t - (t >> self.width))) & self.low

    def reducer(self, terms: dict, lead: int):
        g, w, top = self.guard, self.width, 0
        for x in terms:
            t = ((x | g) - top) & g
            top ^= (top ^ x) & (t - (t >> w))
        return lead, top, [(x, c) for x, c in terms.items() if x != lead]


packing_for = lru_cache(maxsize=256)(Packing)
