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

Intersections and colons by one generator run one elimination each, and
their results keep the basis it yields as their DEGREVLEX GB: the t-free
part of the reduced elimination basis is the intersection's reduced GB,
and its quotients by g are a GB of the colon by g.  A colon by several
generators intersects their quotient lists in the ambient ring, one
elimination per further generator, and interreduces the last result once
(`reduced_basis`).
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
    _interned,
    active_guard,
    buchberger_raw,
    exact_quotient,
    krull_dimension,
    reduced_basis,
)
from .orders import DEGREVLEX, AuxBlockOrder
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
        """Image in a ring with more variables (same characteristic)."""
        return Ideal(ring, tuple(ring.adopt(g) for g in self.gens))

    def __repr__(self):
        return "Ideal(" + ", ".join(str(g) for g in self.gens) + ")"


def maximal_ideal(ring: RingSpec) -> Ideal:
    """The ideal of all variables."""
    return Ideal(ring, ring.gens())


# -- intersection and colon via one-variable elimination ----------------------


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


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {r : rJ ⊆ I} = ∩_g (I : g), g over J's generators.

    In a quotient ring the computation runs on ambient preimages: the
    relations are appended to I (they vanish in R) before dividing by the
    single generator, which happens in the ambient polynomial ring.  The
    quotients h/g of the GB of (I + relations) ∩ (g) are a GB of
    (I + relations) : g, as LT(g·f) = LT(g)·LT(f), and it contains the
    relations.  So the ambient intersection of these lists, one per
    generator, is a GB of the preimage of I : J, and interreducing it
    gives its reduced GB in R.
    """
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    ring = I.ring
    if not J.gens:
        return Ideal(ring, (ring.one,))
    ambient_i = list(I.gens) + list(ring.relations)
    quotients = [[exact_quotient(h, g) for h in _intersect_ambient(ring, ambient_i, [g])]
                 for g in J.gens]
    return _with_basis(ring, reduce(partial(_intersect_ambient, ring), quotients))


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J, with the relations appended to both sides: the ambient
    intersection then contains them, so its reduced GB is the result's."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
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
