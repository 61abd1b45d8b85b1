"""Ideal-level algebra: the one way from an ideal of R = F_p[x]/(relations)
to its reduced basis (`Ideal.groebner_basis`), sums, products, Frobenius
(bracket) powers, colons, intersections, and minimal generator counts.

An ideal's basis comes from Buchberger on the generators plus the
relations (`groebner.buchberger_raw`) or, for a bracket power, from a
Frobenius chain, and it is kept on the ideal.  Inside a session
(`basis_memo`, set by `run_script`) every basis and chain level is
interned by value and order, with no lookup by generator set: equal
ideals built by different commands each run Buchberger once, then share
one basis and through it one numerator and one chain.  The memo is a
ContextVar, like the guard: nothing is shared across sessions or threads.

Bracket powers are Frobenius chains that live on the bases: I^[q] keeps
the generators g^q but records only (GB of I, q), and its DEGREVLEX GB is
`GroebnerBasis.frobenius()` of that basis taken log_p(q) times, each level
built once from the one before.  A level costs about one basis raised to
the p-th power, not reductions that grow with q.

Intersections and colons run one elimination each, and their results keep
the basis it yields as their DEGREVLEX GB: the t-free part of the reduced
elimination basis is the intersection's reduced GB, and its quotients by
g are a GB of the colon by g, only interreduced (`reduced_basis`).
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
    buchberger_raw,
    exact_quotient,
    krull_dimension,
    reduced_basis,
)
from .orders import DEGREVLEX, AuxBlockOrder
from .poly import Monomial, Polynomial, RingSpec, as_q


# Each basis -> the session's one basis of its value and order; None
# outside `basis_memo`.
_BASES = ContextVar("hkspread_bases", default=None)


@contextmanager
def basis_memo():
    """Share bases between the ideals of one session."""
    token = _BASES.set({})
    try:
        yield
    finally:
        _BASES.reset(token)


def _interned(gb: GroebnerBasis) -> GroebnerBasis:
    memo = _BASES.get()
    return gb if memo is None else memo.setdefault(gb, gb)


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
                p = self.ring.characteristic
                while q > 1:
                    # the level's memo keeps the session's one basis of its
                    # value, not the equal copy that frobenius() built
                    level = gb._frobenius = _interned(gb.frobenius())
                    gb, q = level, q // p
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


def _intersect_ambient(ring: RingSpec, gens_a, gens_b):
    """The reduced DEGREVLEX GB of (gens_a) ∩ (gens_b) in the ambient
    polynomial ring, sorted by lead: the t-free part of the reduced GB of
    t·A + (1−t)·B under the order eliminating t (elimination theorem)."""
    ext = _aux_ring(ring)
    t = ext.gen(0)
    one_minus_t = ext.one - t
    lifted = [t * ext.adopt(f) for f in gens_a]
    lifted += [one_minus_t * ext.adopt(g) for g in gens_b]
    G = buchberger_raw(lifted, AuxBlockOrder(DEGREVLEX), ring=ext)
    return [Polynomial._trusted(ring, {Monomial(m[1:]): c for m, c in f.terms.items()})
            for f in G.polys if all(m[0] == 0 for m in f.terms)]


def _with_basis(ring: RingSpec, gens, reduced: bool) -> Ideal:
    """Ideal(ring, gens) whose DEGREVLEX GB is read off gens, a GB of the
    ideal they generate with the relations (`reduced_basis`): the one that
    Buchberger on gens plus the relations would return."""
    ideal = Ideal(ring, tuple(gens))
    ideal._gb[DEGREVLEX] = reduced_basis(ideal.gens, ring, reduced)
    return ideal


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = {r : rJ ⊆ I}, intersecting single-generator colons.

    In a quotient ring the computation runs on ambient preimages: the
    relations are appended to I (they vanish in R) before dividing by the
    single generator, which happens in the ambient polynomial ring.  The
    quotients h/g of the GB of (I + relations) ∩ (g) are a GB of
    (I + relations) : g, as LT(g·f) = LT(g)·LT(f); it contains the
    relations, so interreducing them gives its reduced GB in R.
    """
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    ring = I.ring
    if not J.gens:
        return Ideal(ring, (ring.one,))
    ambient_i = list(I.gens) + list(ring.relations)
    parts = [[exact_quotient(h, g) for h in _intersect_ambient(ring, ambient_i, [g])]
             for g in J.gens]
    if len(parts) == 1:
        return _with_basis(ring, parts[0], reduced=False)
    result = Ideal(ring, tuple(parts[0]))
    for part in parts[1:]:
        result = ideal_intersection(result, Ideal(ring, tuple(part)))
    return result


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J, with the relations appended to both sides: the ambient
    intersection then contains them, so its reduced GB is the result's."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    ring = I.ring
    gens = _intersect_ambient(ring,
                              list(I.gens) + list(ring.relations),
                              list(J.gens) + list(ring.relations))
    return _with_basis(ring, gens, reduced=True)


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
