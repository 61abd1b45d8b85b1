"""Ideal-level algebra: the one way from an ideal of R = F_p[x]/(relations)
to its reduced basis (`Ideal.groebner_basis`), sums, products, Frobenius
(bracket) powers, colons, intersections, and minimal generator counts.

An ideal's basis comes from Buchberger on the generators plus the
relations (`groebner.buchberger_raw`) or, for a bracket power, from a
Frobenius chain, and it is kept on the ideal.  In a session
(`groebner.basis_memo`) equal ideals built by different commands each run
Buchberger once, then share one basis, numerator and chain.

Bracket powers are Frobenius chains that live on the bases: I^[q] keeps
the generators g^q but records only (GB of I, q), and its DEGREVLEX GB is
`GroebnerBasis.frobenius()` of that basis taken log_p(q) times, each level
built once from the one before.  A level costs about one basis raised to
the p-th power, not reductions that grow with q, and is built on packed
monomials, as `contains_ideal` is: neither turns a basis into polynomials.

A colon by a power x_i^a of one variable, of an ideal with homogeneous
generators, is read off one basis (Bayer-Stillman, Invent. Math. 87,
1987; Eisenbud, GTM 150, Prop. 15.12): in a degree reverse-lex order with
x_i last, x_i^k divides a homogeneous element iff it divides its leading
term, so the elements of the reduced GB of I + relations, each divided by
the largest x_i^k with k <= a that divides it, are a GB of the colon in
that order.  For the ring's last variable the order is DEGREVLEX, the
basis is I's own (a bracket power's comes off its chain), and the
quotients give the colon's reduced GB with no pair phase; for another
variable one Buchberger run in `RevlexLastOrder(i)` gives the basis, and
the colon's DEGREVLEX GB comes from `Ideal.groebner_basis`.  The
intersection with (x_i^a) is x_i^a·(I : x_i^a).

Every other colon and intersection (several generators, a generator that
is not a power of one variable, or an inhomogeneous other side) runs one
elimination, in `AuxBlockOrder(DEGREVLEX)` with one more variable, per
generator: the t-free part of the reduced elimination basis is the
intersection's reduced GB, and its quotients by g are a GB of the colon
by g.  A colon by several generators intersects their quotient lists in
the ambient ring, one elimination per further generator, and
interreduces the last result once (`reduced_basis`).  Every result keeps
its DEGREVLEX GB.
"""

from __future__ import annotations

from functools import partial, reduce

from .errors import (
    AlgebraError,
    HomogeneityError,
    PreconditionError,
    ResourceLimitError,
    RingMismatchError,
)
from .groebner import (
    GroebnerBasis,
    _Budget,
    _interned,
    active_guard,
    buchberger_raw,
    exact_quotient,
    krull_dimension,
    reduced_basis,
)
from .orders import DEGREVLEX, AuxBlockOrder, RevlexLastOrder
from .poly import Polynomial, RingSpec, as_q


class Ideal:
    """Generator list bound to a ring, with lazily cached reduced GBs.

    The ring's quotient relations are appended to the generators whenever a
    GB is computed, so membership, dimension, and lengths are those of R,
    not of the ambient polynomial ring.
    """

    __slots__ = ("ring", "gens", "_gb", "_base")

    def __init__(self, ring: RingSpec, gens=()):
        self.ring = ring
        clean = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise AlgebraError("ideal generators must be polynomials")
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            if not g.is_zero():
                clean.append(g)
        self.gens = tuple(clean)
        self._gb = {}
        self._base = None  # (a DEGREVLEX GB of I, q) when this is I^[q]

    # -- canonical form -----------------------------------------------------

    def groebner_basis(self, order=None) -> GroebnerBasis:
        """The reduced GB under `order` (DEGREVLEX by default) of the
        generators plus the relations, computed once per ideal and, in a
        session, interned by value (see the module docstring)."""
        order = order or DEGREVLEX
        gb = self._gb.get(order)
        if gb is None:
            if self._base and order == DEGREVLEX:
                gb, q = self._base
                while q > 1:
                    gb, q = gb.frobenius(), q // self.ring.characteristic
            else:
                gb = _interned(buchberger_raw(self.gens + self.ring.relations,
                                              order, ring=self.ring))
            self._gb[order] = gb
        return gb

    def __contains__(self, f) -> bool:
        if isinstance(f, int):
            f = self.ring.constant(f)
        return self.groebner_basis().contains(f)

    def contains_ideal(self, other: "Ideal") -> bool:
        """Reduces other's reduced GB, which generates other plus the
        relations, in one kernel call: a bracket power's generators grow
        with q, its GB is read off the chain."""
        return self.groebner_basis().contains_basis(other.groebner_basis())

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.groebner_basis() == other.groebner_basis()

    def is_zero(self) -> bool:
        return self.groebner_basis().is_zero()

    def is_unit(self) -> bool:
        return self.groebner_basis().is_unit()

    def dimension(self) -> int:
        return krull_dimension(self.groebner_basis())

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other):
        other = self._check(other)
        return Ideal(self.ring,
                     tuple(f * g for f in self.gens for g in other.gens))

    def bracket_power(self, q) -> "Ideal":
        """I^[q]: the generators raised to the q-th power, with the GB taken
        from level q of I's Frobenius chain (see the module docstring);
        when I is itself level q0 of a chain, level q0·q of that chain.
        q = 1 gives I.  The guard caps the exponents of the generators
        raised to the q-th power."""
        q = as_q(self.ring, q)
        guard = active_guard()
        for g in self.gens:
            if g.max_exponent() * q > guard.max_exponent:
                raise ResourceLimitError(
                    f"bracket power exponent exceeds cap ({guard.max_exponent})")
        if q == 1:
            return self
        base, q0 = self._base or (self.groebner_basis(), 1)
        power = Ideal(self.ring, tuple(g.qth_power(q) for g in self.gens))
        power._base = (base, q0 * q)
        return power

    def _check(self, other) -> "Ideal":
        if isinstance(other, Polynomial):
            other = Ideal(self.ring, (other,))
        if not isinstance(other, Ideal):
            raise AlgebraError(f"expected an ideal, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatchError("ideals in different rings")
        return other

    def extended_to(self, ring: RingSpec) -> "Ideal":
        """Image in a polynomial extension: a ring with the same
        characteristic, more variables and this ring's relations adopted
        into it, as `RingSpec.adjoin_variables` makes it.  A ring with
        other relations is not an extension of this one."""
        if ring.relations != tuple(ring.adopt(r) for r in self.ring.relations):
            raise RingMismatchError(
                "extension ring must keep exactly this ring's relations")
        return Ideal(ring, tuple(ring.adopt(g) for g in self.gens))

    def __repr__(self):
        return "Ideal(" + ", ".join(str(g) for g in self.gens) + ")"


def maximal_ideal(ring: RingSpec) -> Ideal:
    """The ideal of all variables."""
    return Ideal(ring, ring.gens())


# -- intersection and colon ----------------------------------------------------


def _variable_power(I: Ideal, J: Ideal):
    """(i, a) when J is generated by one term c·x_i^a, a >= 1, and I by
    homogeneous polynomials; otherwise None."""
    if len(J.gens) != 1 or len(J.gens[0].terms) != 1:
        return None
    [exps] = J.gens[0].terms
    support = [i for i, e in enumerate(exps) if e]
    if len(support) != 1 or not all(g.is_homogeneous() for g in I.gens):
        return None
    return support[0], exps[support[0]]


def _colon_by_power(I: Ideal, i: int, a: int) -> Ideal:
    """(I : x_i^a) read off one basis, as the module docstring says.  The
    guard caps a as it caps the generators of an elimination."""
    _Budget(active_guard()).check_exponent(a)
    ring = I.ring
    last = i == ring.nvars - 1
    quotients = []
    for h in I.groebner_basis(DEGREVLEX if last else RevlexLastOrder(i)).polys:
        k = min(a, min(m[i] for m in h.terms))
        quotients.append(h if not k else Polynomial._trusted(
            ring, {m[:i] + (m[i] - k,) + m[i + 1:]: c for m, c in h.terms.items()}))
    return _with_basis(ring, quotients) if last else _with_own_basis(ring, quotients)


def _intersect_ambient(ring: RingSpec, gens_a, gens_b):
    """The reduced DEGREVLEX GB of (gens_a) ∩ (gens_b) in the ambient
    polynomial ring, sorted by lead: the t-free part of the reduced GB of
    t·A + (1−t)·B under the order eliminating t (elimination theorem)."""
    ext = RingSpec(ring.characteristic,
                   ring.unused_names(["t"]) + ring.variables)
    t = ext.gen(0)
    one_minus_t = ext.one - t
    lifted = [t * ext.adopt(f) for f in gens_a]
    lifted += [one_minus_t * ext.adopt(g) for g in gens_b]
    G = buchberger_raw(lifted, AuxBlockOrder(DEGREVLEX), ring=ext)
    return [Polynomial._trusted(ring, {m[1:]: c for m, c in f.terms.items()})
            for f in G.polys if all(m[0] == 0 for m in f.terms)]


def _with_basis(ring: RingSpec, gens) -> Ideal:
    """Ideal(ring, gens) whose DEGREVLEX GB is read off gens, a GB of the
    ideal they generate with the relations (`reduced_basis`): the one that
    Buchberger on gens plus the relations would return."""
    ideal = Ideal(ring, tuple(gens))
    ideal._gb[DEGREVLEX] = reduced_basis(ideal.gens, ring)
    return ideal


def _with_own_basis(ring: RingSpec, gens) -> Ideal:
    """Ideal(ring, gens) with its DEGREVLEX GB computed now, by Buchberger."""
    ideal = Ideal(ring, tuple(gens))
    ideal.groebner_basis()
    return ideal


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {r : rJ ⊆ I}, with its DEGREVLEX GB.  When J is generated
    by one term c·x_i^a and I's generators are homogeneous, it is read
    off one basis of I + relations (`_colon_by_power`); otherwise it runs
    the elimination (`_colon_by_elimination`).  Both give the reduced GB
    of the preimage of I : J in the ambient ring, which contains the
    relations."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    if not J.gens:
        return Ideal(I.ring, (I.ring.one,))
    power = _variable_power(I, J)
    if power:
        return _colon_by_power(I, *power)
    return _colon_by_elimination(I, J)


def _colon_by_elimination(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = ∩_g (I : g), g over J's generators (at least one), one
    elimination per generator.

    In a quotient ring the computation runs on ambient preimages: the
    relations are appended to I (they vanish in R) before dividing by the
    single generator, which happens in the ambient polynomial ring.  The
    quotients h/g of the GB of (I + relations) ∩ (g) are a GB of
    (I + relations) : g, as LT(g·f) = LT(g)·LT(f), and it contains the
    relations.  So the ambient intersection of these lists, one per
    generator, is a GB of the preimage of I : J, and interreducing it
    gives its reduced GB in R.
    """
    ring = I.ring
    ambient_i = list(I.gens) + list(ring.relations)
    quotients = [[exact_quotient(h, g) for h in _intersect_ambient(ring, ambient_i, [g])]
                 for g in J.gens]
    return _with_basis(ring, reduce(partial(_intersect_ambient, ring), quotients))


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J, with its DEGREVLEX GB.  When one side is generated by one
    term g = c·x_i^a and the other's generators are homogeneous, it is
    g·(other : g), whose GB is g times the colon's, as LT(g·f) =
    LT(g)·LT(f).  In a quotient ring the relations join it by Buchberger:
    they lie in other + relations, so the preimage (other + relations) ∩
    ((g) + relations) is (other + relations) ∩ (g) + relations.
    Otherwise it runs the elimination (`_intersection_by_elimination`)."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    ring = I.ring
    for other, side in ((I, J), (J, I)):
        power = _variable_power(other, side)
        if power:
            g = side.gens[0]
            gens = [g * f for f in _colon_by_power(other, *power).groebner_basis().polys]
            if ring.relations:
                return _with_own_basis(ring, gens)
            return _with_basis(ring, gens)
    return _intersection_by_elimination(I, J)


def _intersection_by_elimination(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J, with the relations appended to both sides: the ambient
    intersection then contains them, so its reduced GB is the result's."""
    ring = I.ring
    gens = _intersect_ambient(ring,
                              list(I.gens) + list(ring.relations),
                              list(J.gens) + list(ring.relations))
    return _with_basis(ring, gens)


def min_gens(I: Ideal) -> int:
    """μ(I) = λ(I / mI) for homogeneous I (graded Nakayama)."""
    for g in I.gens:
        if not g.is_homogeneous():
            raise HomogeneityError(f"generator {g} is not homogeneous")
    if I.is_unit():
        raise PreconditionError("minimal generator count needs a proper ideal")
    from .lengths import length_subquotient
    m = maximal_ideal(I.ring)
    value = length_subquotient(I, m * I)
    return value.value
