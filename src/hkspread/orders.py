"""Monomial orders and the packed integer monomials (`Packing`) that the
Groebner kernel computes with.

An order is its matrix (Robbiano, EUROCAL 1985): a < b iff the first row
whose value tells them apart is smaller on a.  Sort keys, the packing's
weights (`weight_vector`), the block order that eliminates one variable
(`AuxBlockOrder`) and the degrevlex orders with one chosen variable last
(`RevlexLastOrder`) all read the same rows.  The orders a script can
choose are degrevlex (default), lex and deglex; the other two serve the
colon and intersection constructions of ideals.py."""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .errors import AlgebraError
from .poly import Polynomial


def weight_vector(order, n: int, base: int):
    """Integer weights w with Σ w_i·a_i < Σ w_i·b_i iff a < b in `order`,
    for exponents below base/n: the order's matrix rows (`rows`), whose
    values then differ by less than base, as the digits of one number."""
    w = [0] * n
    for row in order.rows(n):
        w = [base * a + b for a, b in zip(w, row)]
    return w


class MonomialOrder:
    """Total multiplicative well-order on exponent vectors, given by its
    matrix: `rows(n)` gives the rows for n variables, built once per n.
    `key(exps)` is the tuple of row values, so a bigger key is a bigger
    monomial.  Orders are equal when their names are."""

    __slots__ = ("name", "rows")

    def __init__(self, name: str, rows):
        self.name = name
        self.rows = lru_cache(maxsize=None)(rows)

    def key(self, exps):
        return tuple([sum(map(mul, row, exps)) for row in self.rows(len(exps))])

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"MonomialOrder({self.name!r})"


def _unit(n):
    return [[int(i == k) for i in range(n)] for k in range(n)]


LEX = MonomialOrder("lex", _unit)
DEGLEX = MonomialOrder("deglex", lambda n: [[1] * n] + _unit(n)[:-1])
DEGREVLEX = MonomialOrder("degrevlex", lambda n: [[1] * n] + [
    [-e for e in row] for row in _unit(n)[:0:-1]])

ORDERS = {order.name: order for order in (DEGREVLEX, LEX, DEGLEX)}


def order_by_name(name: str) -> MonomialOrder:
    try:
        return ORDERS[name]
    except KeyError:
        raise AlgebraError(f"unknown monomial order {name!r}")


@lru_cache(maxsize=None)
def AuxBlockOrder(inner: MonomialOrder) -> MonomialOrder:
    """Eliminates variable 0: its exponent is the first row, the rows of
    `inner` on the other variables follow.  Used only by the elimination
    behind colons and intersections that no power of one variable
    settles (ideals.py)."""
    return MonomialOrder(f"eliminate-first+{inner.name}", lambda n: [
        [1] + [0] * (n - 1)] + [[0] + row for row in inner.rows(n - 1)])


@lru_cache(maxsize=None)
def RevlexLastOrder(i: int) -> MonomialOrder:
    """Degree reverse lex with variable i last: the degree row, then minus
    the exponent of variable i, then minus those of the others from the
    last one back.  On a homogeneous polynomial, x_i^k divides the leading
    term iff it divides every term.  Variable n - 1 gives the rows of
    DEGREVLEX.  Used by colons by a power of x_i (ideals.py)."""
    def rows(n):
        ranked = [i] + [k for k in range(n - 1, -1, -1) if k != i]
        return [[1] * n] + [[-int(k == j) for j in range(n)]
                            for k in ranked[:n - 1]]
    return MonomialOrder(f"degrevlex-last-{i}", rows)


class Overflow(Exception):
    """A packed exponent would reach its field's guard bit."""


class Packing:
    """Exponent tuples of n variables as ints for one order: exponent i in
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
        """The exponent tuple packed in x (the rank above is dropped)."""
        return tuple([x >> s & self.field for s in self.shifts])

    def terms(self, f):
        return {sum(map(mul, self.coeffs, m)): c for m, c in f.terms.items()}

    def polynomial(self, ring, terms):   # coefficients in [0, p), zeros left out
        return Polynomial._trusted(ring, {self.monomial(x): c for x, c in terms if c})

    def lcms(self, a, leads):
        """The exponents of lcm(a, b), without the rank, for each b in
        `leads`: the guard bits that the test "a divides b" leaves mark the
        fields where b is at least a, and those fields are taken from b."""
        g, w, low = self.guard, self.width, self.low
        return [(a ^ (a ^ b) & (t - (t >> w))) & low
                for b in leads for t in [((b | g) - a) & g]]

    def reducer(self, terms: dict, lead: int):
        g, w, top = self.guard, self.width, 0
        for x in terms:
            t = ((x | g) - top) & g
            top ^= (top ^ x) & (t - (t >> w))
        return lead, top, [(x, c) for x, c in terms.items() if x != lead]


packing_for = lru_cache(maxsize=256)(Packing)
