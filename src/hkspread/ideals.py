"""Ideal-level algebra: sums, products, Frobenius (bracket) powers,
colons, intersections, and minimal generator counts.

Bracket powers are built as Frobenius chains.  I^[q] keeps the generators
g^q of I's generators, but its DEGREVLEX GB is level q of I's chain: level
pq is computed from the reduced GB of level q, each element raised to the
p-th power and reduced modulo the ring's relation GB.  That is exact in
characteristic p: (g + h)^p = g^p + h^p, and the relation ideal contains
the p-th powers of its elements, so these generate I^[pq] plus the
relations.  Buchberger then starts from a basis that is already nearly
reduced, and each level costs about one basis raised to the p-th power
instead of reductions that grow with q.

A base ideal keeps its own chain, and its bracket powers point into it.
Inside a session (`chain_memo`, set by `run_script`) chains are looked up
by (ring, reduced GB of the base) instead, so equal ideals built by
different commands share every level.  The memo is a `ContextVar`, like
the guard: nothing is shared across sessions or threads.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import (
    AlgebraError,
    HomogeneityError,
    PreconditionError,
    ResourceLimitError,
    RingMismatchError,
)
from .groebner import (
    GroebnerBasis,
    active_guard,
    buchberger,
    buchberger_raw,
    krull_dimension,
)
from .orders import DEGREVLEX, AuxBlockOrder
from .poly import Monomial, Polynomial, RingSpec, as_q


class Ideal:
    """Generator list bound to a ring, with lazily cached reduced GBs.

    The ring's quotient relations are appended automatically whenever a GB
    is computed, so membership, dimension, and lengths are those of R, not
    of the ambient polynomial ring.
    """

    __slots__ = ("ring", "gens", "_gb", "_chain")

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
        self._chain = None  # (_Chain, q) when this ideal is level q of it

    # -- canonical form -----------------------------------------------------

    def groebner_basis(self, order=None):
        order = order or DEGREVLEX
        gb = self._gb.get(order)
        if gb is None:
            chain, q = self._chain or (None, 1)
            if q > 1 and order == DEGREVLEX:
                gb = chain.basis(q)
            else:
                gb = buchberger(self.gens, order, ring=self.ring)
            self._gb[order] = gb
        return gb

    def __contains__(self, f) -> bool:
        if isinstance(f, int):
            f = self.ring.constant(f)
        return self.groebner_basis().contains(f)

    def contains_ideal(self, other: "Ideal") -> bool:
        """Reduces other's reduced GB, which generates other plus the
        relations: a bracket power's generators grow with q, its GB is
        read off the chain."""
        gb = self.groebner_basis()
        return all(gb.contains(g) for g in other.groebner_basis().polys)

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

    def is_proper(self) -> bool:
        return not self.is_unit()

    def is_zero_dimensional(self) -> bool:
        return krull_dimension(self) <= 0

    def dimension(self) -> int:
        return krull_dimension(self)

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
        if self._chain is None:
            gb = self.groebner_basis()
            memo = _CHAINS.get()
            chain = _Chain(gb) if memo is None else memo.setdefault(
                (self.ring, gb), _Chain(gb))
            self._chain = (chain, 1)
        chain, q0 = self._chain
        power = Ideal(self.ring, tuple(g.qth_power(q) for g in self.gens))
        power._chain = (chain, q0 * q)
        return power

    def colon(self, other) -> "Ideal":
        return ideal_colon(self, self._check(other))

    def intersection(self, other) -> "Ideal":
        return ideal_intersection(self, self._check(other))

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


# The session's chain memo: (ring, reduced DEGREVLEX GB of a base ideal) ->
# its _Chain.  None outside a session.
_CHAINS = ContextVar("hkspread_chains", default=None)


@contextmanager
def chain_memo():
    """Share Frobenius chains between the ideals of one session."""
    token = _CHAINS.set({})
    try:
        yield
    finally:
        _CHAINS.reset(token)


class _Chain:
    """Reduced DEGREVLEX GBs {q: GB(I^[q])} of one base ideal I."""

    __slots__ = ("ring", "bases", "relations")

    def __init__(self, base: GroebnerBasis):
        self.ring = base.ring
        self.bases = {1: base}
        self.relations = None

    def basis(self, q: int) -> GroebnerBasis:
        gb = self.bases.get(q)
        if gb is None:
            ring = self.ring
            p = ring.characteristic
            prev = self.basis(q // p)
            if self.relations is None:
                self.relations = Ideal(ring, ()).groebner_basis()
            gb = buchberger([self.relations.reduce(g.qth_power(p))
                             for g in prev.polys], DEGREVLEX, ring=ring)
            self.bases[q] = gb
        return gb


def maximal_ideal(ring: RingSpec) -> Ideal:
    """The ideal of all variables."""
    return Ideal(ring, ring.gens())


# -- intersection and colon via one-variable elimination ----------------------


def _aux_ring(ring: RingSpec):
    name = "t"
    while name in ring.variables:
        name += "_"
    ext = RingSpec(ring.field.p, (name,) + ring.variables)
    return ext


def _lift(f: Polynomial, ext: RingSpec, t_exp: int = 0) -> Polynomial:
    return Polynomial(ext, {Monomial((t_exp,) + tuple(m)): c
                            for m, c in f.terms.items()})


def _drop_aux(f: Polynomial, ring: RingSpec) -> Polynomial:
    return Polynomial(ring, {Monomial(tuple(m)[1:]): c
                             for m, c in f.terms.items()})


def _intersect_ambient(ring: RingSpec, gens_a, gens_b):
    """Generators of (gens_a) ∩ (gens_b) in the ambient polynomial ring,
    via t·A + (1−t)·B and elimination of t."""
    ext = _aux_ring(ring)
    t = ext.gen(0)
    one_minus_t = ext.one - t
    lifted = [t * _lift(f, ext) for f in gens_a]
    lifted += [one_minus_t * _lift(g, ext) for g in gens_b]
    order = AuxBlockOrder(DEGREVLEX)
    G = buchberger_raw(lifted, order, ring=ext)
    kept = [f for f in G.polys if all(m[0] == 0 for m in f.terms)]
    return [_drop_aux(f, ring) for f in kept]


def _exact_divide(h: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient h/g in the ambient polynomial ring (h must be a multiple)."""
    order = DEGREVLEX
    field = h.ring.field
    glm = g.leading_monomial(order)
    glc_inv = field.inv(g.terms[glm])
    r = h
    quot = h.ring.zero
    while not r.is_zero():
        lm = r.leading_monomial(order)
        if not glm.divides(lm):
            raise AlgebraError("exact division failed")
        fac = Polynomial(h.ring,
                         {lm.quotient(glm): (r.terms[lm] * glc_inv) % field.p})
        quot = quot + fac
        r = r - fac * g
    return quot


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {r : rJ ⊆ I}, intersecting single-generator colons.

    In a quotient ring the computation runs on ambient preimages: the
    relations are appended to I (they vanish in R) before dividing by the
    single generator, which happens in the ambient polynomial ring.
    """
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    ring = I.ring
    if not J.gens:
        return Ideal(ring, (ring.one,))
    parts = []
    ambient_i = list(I.gens) + list(ring.relations)
    for g in J.gens:
        meet = _intersect_ambient(ring, ambient_i, [g])
        parts.append(Ideal(ring, tuple(_exact_divide(h, g) for h in meet)))
    result = parts[0]
    for part in parts[1:]:
        result = ideal_intersection(result, part)
    return result


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    ring = I.ring
    gens = _intersect_ambient(ring,
                              list(I.gens) + list(ring.relations),
                              list(J.gens) + list(ring.relations))
    return Ideal(ring, tuple(gens))


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
