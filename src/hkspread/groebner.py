"""Buchberger's algorithm, reduced Groebner bases, normal forms, and the
combinatorial consequences used everywhere else: membership, Krull
dimension and sparse Hilbert-series numerators of leading-term ideals
(standard-monomial enumeration is kept as an oracle for tests).  The
numerators count standard monomials by degree, so every length is read
off them; they measure I itself, not only its leading-term ideal, when
the GB's order is degree-compatible, as DEGREVLEX is.

Quotient rings are handled by appending the ring's relations to every
generator list (see `buchberger`), so all computation happens in the
ambient polynomial ring.

The normal form (`_reduce_full`) pops terms largest first from a heap
keyed by the order's `reverse_key`, so each term is keyed once and each
step costs O(log T) rather than a scan of all T terms.  Buchberger keeps
every basis element monic beside its leading monomial and its reducer
entry (lead, tail), builds S-polynomials from the two tails and reads a
new element's lead off the first term of its remainder, so no lead is
recomputed.  Pairs are pruned by the Gebauer-Moeller update once, when an
element joins the basis, and elements whose tails no later lead can
reduce are skipped by the interreduction (see `buchberger_raw`).

The guard is spent once per reduction step, so a step budget counts
reductions, not terms, pairs or heap operations: the reductions of the
S-polynomials of the pairs that survive the criteria, then those of the
interreduction.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import product

from .errors import AlgebraError, InfiniteLengthError, ResourceLimitError, RingMismatchError
from .orders import DEGREVLEX
from .poly import Monomial, Polynomial


@dataclass(frozen=True)
class GuardConfig:
    """Resource budget: exceeding it raises, never returns a wrong answer."""

    max_steps: int = 500_000
    max_basis: int = 1_000
    max_exponent: int = 100_000


# Per thread and per asyncio task: a guard set in one context is not seen
# by code running in another.
_GUARD = ContextVar("hkspread_guard", default=GuardConfig())


def active_guard() -> GuardConfig:
    return _GUARD.get()


@contextmanager
def use_guard(guard: GuardConfig):
    token = _GUARD.set(guard)
    try:
        yield guard
    finally:
        _GUARD.reset(token)


class _Budget:
    __slots__ = ("guard", "steps", "layer")

    def __init__(self, guard: GuardConfig, layer: str = "reduction"):
        self.guard = guard
        self.steps = 0
        self.layer = layer

    def spend(self, n: int = 1):
        self.steps += n
        if self.steps > self.guard.max_steps:
            raise ResourceLimitError(
                f"{self.layer} step budget exceeded ({self.guard.max_steps})")

    def check_poly(self, f: Polynomial):
        if f.max_exponent() > self.guard.max_exponent:
            raise ResourceLimitError(
                f"monomial exponent exceeds cap ({self.guard.max_exponent})")


def _reduce_full(terms: dict, reducers, order, p: int, budget: _Budget) -> dict:
    """Full normal form of the term map `terms` (consumed; zero
    coefficients allowed) against monic reducers [(lm, tail), ...], where
    tail lists the (monomial, coefficient) terms below lm.  Terms are
    popped largest first from a heap on `order.reverse_key`, each keyed once
    when it first appears; a reduction step cancels the popped lead exactly,
    so only the reducer's tail is added.  The first reducer in list order
    whose lead divides is used, one guard step each.  The remainder comes
    back largest term first."""
    rkey = order.reverse_key
    heap = [(rkey(m), m) for m in terms]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    remainder = {}
    while heap:
        lm = pop(heap)[1]
        c = terms.pop(lm)
        if not c:
            continue
        for glm, tail in reducers:
            if glm.divides(lm):
                budget.spend()
                u = lm.quotient(glm)
                for m2, c2 in tail:
                    m = m2.mul(u)
                    old = terms.get(m)
                    if old is None:
                        terms[m] = -c * c2 % p
                        push(heap, (rkey(m), m))
                    else:
                        terms[m] = (old - c * c2) % p
                break
        else:
            remainder[lm] = c
    return remainder


def _reducer(f: Polynomial, lm: Monomial):
    """The (lead, tail) pair `_reduce_full` takes for a monic f."""
    return lm, [(m, c) for m, c in f.terms.items() if m != lm]


class GroebnerBasis:
    """Reduced basis: monic, interreduced, canonical for (ideal, order)."""

    __slots__ = ("ring", "order", "polys", "leading", "_reducers")

    def __init__(self, ring, order, polys, leading):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)
        self.leading = tuple(leading)
        # built by the first `reduce`; two threads may both build it, to
        # equal lists
        self._reducers = None

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def is_zero(self) -> bool:
        return not self.polys

    def is_unit(self) -> bool:
        return any(m.degree() == 0 for m in self.leading)

    def reduce(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial from a different ring")
        if not self.polys:
            return f
        if self._reducers is None:
            self._reducers = [_reducer(g, lm)
                              for g, lm in zip(self.polys, self.leading)]
        return Polynomial(self.ring, _reduce_full(
            dict(f.terms), self._reducers, self.order, self.ring.field.p,
            _Budget(active_guard())))

    def contains(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return (self.ring == other.ring
                and tuple(f.terms_key() for f in self.polys)
                == tuple(f.terms_key() for f in other.polys))

    def __hash__(self):
        return hash(tuple(f.terms_key() for f in self.polys))

    def __repr__(self):
        return "GroebnerBasis{" + ", ".join(str(f) for f in self.polys) + "}"


def _s_terms(ri, rj, lcm: Monomial, p: int) -> dict:
    """Terms of S(f, g) = (lcm/lm_f)·f − (lcm/lm_g)·g for monic f and g given
    as reducers (lead, tail); the leads cancel, so only the tails enter.
    Zero coefficients may be left in (`_reduce_full` skips them)."""
    u = lcm.quotient(ri[0])
    terms = {m.mul(u): c for m, c in ri[1]}
    u = lcm.quotient(rj[0])
    for m, c in rj[1]:
        m = m.mul(u)
        terms[m] = (terms.get(m, 0) - c) % p
    return terms


def _interreduce(basis, lead, reducers, order, p, budget, fresh):
    """Reduced basis from a monic GB with its leads and reducers: sort by
    lead, keep the elements whose lead no kept smaller (or equal, earlier)
    lead divides, then reduce each against the kept elements with smaller
    leads, the only ones that can divide a term below its own lead.

    Elements from index `fresh` on were appended by the run, each a full
    normal form modulo every element before it, so only a kept lead
    appended later can divide one of their tail terms; a generator's tail
    is tested against every smaller kept lead.  The normal form is computed
    only when such a lead divides a tail term.  An element skipped would
    take no reduction step, so the steps are those of reducing them all.

    Leads survive the reduction, so the result stays sorted by lead;
    returns (polys, leads)."""
    keys = [order.key(lm) for lm in lead]
    minimal = []
    for i in sorted(range(len(basis)), key=keys.__getitem__):
        if not any(lead[j].divides(lead[i]) for j in minimal):
            minimal.append(i)
    polys = []
    for idx, i in enumerate(minimal):
        f = basis[i]
        smaller = minimal[:idx]
        divisors = [lead[j] for j in smaller if j > i or i < fresh]
        if any(d.divides(m) for m, _ in reducers[i][1] for d in divisors):
            f = Polynomial(f.ring, _reduce_full(
                dict(f.terms), [reducers[j] for j in smaller], order, p, budget))
        polys.append(f)
    return polys, [lead[i] for i in minimal]


def buchberger_raw(gens, order=None, *, ring=None, guard=None) -> GroebnerBasis:
    """Reduced GB of exactly the given generators (relations NOT appended).

    Every basis element is kept monic, beside its lead and its reducer
    entry, so no lead is recomputed; a new element's lead is the first term
    of its remainder.

    Pairs go through the Gebauer-Moeller update (Gebauer-Moeller, JSC 6,
    1988) once, when an element h joins the basis (the generators join one
    by one first):
    - a queued pair (i, j) is dropped when lm(h) divides its lcm and that
      lcm differs from lcm(i, h) and from lcm(j, h) (criterion B);
    - of the new pairs (i, h), with i over the active elements, those whose
      lcm has a proper divisor among the new lcms are dropped (criterion
      M); of several with the same lcm only the one with the smallest i
      stays, and none if one of them is coprime (criterion F); coprime
      pairs are dropped (product criterion);
    - an element whose lead lm(h) divides leaves the active set.
    Pairs are reduced smallest lcm first (`order.key`, then (i, j)), each
    S-polynomial against every element in the order they joined.

    The step budget counts the reduction steps of the pairs that survive
    these criteria, plus those of the final interreduction."""
    order = order or DEGREVLEX
    gens = list(gens)
    if ring is None:
        if not gens:
            raise AlgebraError("cannot infer the ring from an empty generator list")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators from different rings")
    budget = _Budget(guard or active_guard())
    field = ring.field
    p = field.p

    basis = []
    lead = []
    reducers = []
    active = []
    heap = []   # (key(lcm), i, j, lcm) of the queued pairs, i < j

    def append(f, lm):
        t = len(basis)
        basis.append(f)
        lead.append(lm)
        reducers.append(_reducer(f, lm))
        # criterion B on the queued pairs; the pairs it drops leave the heap
        lcms = [lm.lcm(m) for m in lead]
        kept = [e for e in heap if not (
            lm.divides(e[3]) and lcms[e[1]] != e[3] and lcms[e[2]] != e[3])]
        if len(kept) != len(heap):
            heap[:] = kept
            heapq.heapify(heap)
        # criteria M and F and the product criterion on the new pairs, by
        # degree of the lcm (a proper divisor has a smaller degree), the
        # coprime pairs of a degree first: each pair need only be tested
        # against the lcms kept before it
        new = sorted((lcms[i].degree(), not lead[i].is_coprime(lm), i)
                     for i in active)
        minimal = []
        for _, useful, i in new:
            lcm = lcms[i]
            if any(m.divides(lcm) for m in minimal):
                continue
            minimal.append(lcm)
            if useful:
                heapq.heappush(heap, (order.key(lcm), i, t, lcm))
        active[:] = [i for i in active if not lm.divides(lead[i])]
        active.append(t)

    for g in gens:
        if g.is_zero():
            continue
        budget.check_poly(g)
        lm = g.leading_monomial(order)
        lc = g.terms[lm]
        append(g if lc == 1 else g.scale(field.inv(lc)), lm)
    fresh = len(basis)

    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        nf = _reduce_full(_s_terms(reducers[i], reducers[j], lcm, p),
                          reducers, order, p, budget)
        if not nf:
            continue
        lm = next(iter(nf))
        lc = nf[lm]
        f = Polynomial(ring, nf)
        budget.check_poly(f)
        if lc != 1:
            f = f.scale(field.inv(lc))
        if len(basis) + 1 > budget.guard.max_basis:
            raise ResourceLimitError(
                f"basis size budget exceeded ({budget.guard.max_basis})")
        append(f, lm)

    polys, leading = _interreduce(basis, lead, reducers, order, p, budget,
                                  fresh)
    return GroebnerBasis(ring, order, polys, leading)


def buchberger(gens, order=None, *, ring=None, guard=None) -> GroebnerBasis:
    """Reduced GB of (gens) + (ring relations); all downstream work in R."""
    gens = list(gens)
    if ring is None:
        if not gens:
            raise AlgebraError("cannot infer the ring from an empty generator list")
        ring = gens[0].ring
    return buchberger_raw(list(gens) + list(ring.relations),
                          order, ring=ring, guard=guard)


def _as_gb(obj, order=None) -> GroebnerBasis:
    if isinstance(obj, GroebnerBasis):
        return obj
    return obj.groebner_basis(order)


def normal_form(f: Polynomial, G) -> Polynomial:
    return _as_gb(G).reduce(f)


def is_member(f: Polynomial, I) -> bool:
    return _as_gb(I).contains(f)


def krull_dimension(I, order=None) -> int:
    """Dimension of R/I from the leading-term ideal: size of the largest
    variable subset meeting no leading-term support.  Unit ideal: -1."""
    G = _as_gb(I, order)
    n = G.ring.nvars
    supports = []
    for m in G.leading:
        s = frozenset(i for i, e in enumerate(m) if e)
        if not s:
            return -1
        supports.append(s)
    best = -1
    for mask in range(1 << n):
        subset = {i for i in range(n) if mask >> i & 1}
        if len(subset) <= best:
            continue
        if not any(s <= subset for s in supports):
            best = len(subset)
    return best


def standard_monomials(I, order=None):
    """Iterator over monomials outside the leading-term ideal, one guard step
    per point of the exponent box (per variable, the smallest pure power
    among the leading terms).  Raises InfiniteLengthError when their count
    is infinite.  Lengths read `hilbert_numerator` instead; this walk is
    the oracle it is tested against."""
    G = _as_gb(I, order)
    lts = G.leading
    if any(m.degree() == 0 for m in lts):
        return iter(())
    bounds = []
    for i in range(G.ring.nvars):
        pure = [m[i] for m in lts
                if all(e == 0 for k, e in enumerate(m) if k != i)]
        if not pure:
            raise InfiniteLengthError(
                f"no pure power of {G.ring.variables[i]} in the leading-term ideal")
        bounds.append(min(pure))
    budget = _Budget(active_guard(), "standard-monomial enumeration")
    return _staircase(bounds, lts, budget)


def _staircase(bounds, lts, budget):
    for exps in product(*[range(b) for b in bounds]):
        budget.spend()
        mono = Monomial(exps)
        if not any(lt.divides(mono) for lt in lts):
            yield mono


def hilbert_numerator(I) -> dict:
    """K(t) as {degree: coefficient}, zero coefficients left out, where
    K(t)/(1−t)^n is the generating function by degree of the standard
    monomials of I's DEGREVLEX GB (n variables).  The unit ideal gives {}
    and no leading terms give {0: 1}.  The dict has one entry per term, so
    its size follows the leading terms, not their degrees."""
    return _numerator(_as_gb(I).leading)


def _numerator(lts) -> dict:
    """K for the monomial ideal spanned by the exponent vectors `lts`
    (Bayer-Stillman, JSC 14, 1992).  Sliced on the last variable:
    K(L) = 1 + Σ_c t^c·(K(L_c) − K(L_prev)), with c over the distinct last
    exponents, L_c the generators with last exponent <= c (that variable
    dropped) and L_prev the slice before (none at the first cut).

    Closed forms end the recursion.  One variable: 1 − t^b, b the smallest
    exponent.  Two variables: the corners (a_i, b_i) of the staircase, a
    rising and b falling, give K = 1 − Σ t^(a_i+b_i) + Σ t^(a_(i+1)+b_i)."""
    if not lts:
        return {0: 1}
    if any(not any(m) for m in lts):
        return {}
    n = len(lts[0])
    if n == 1:
        return {0: 1, min(m[0] for m in lts): -1}
    K = {0: 1}
    if n == 2:
        corners = []
        for a, b in sorted(lts):
            if not corners or b < corners[-1][1]:
                corners.append((a, b))
        for a, b in corners:
            K[a + b] = K.get(a + b, 0) - 1
        for (_, b), (a, _) in zip(corners, corners[1:]):
            K[a + b] = K.get(a + b, 0) + 1
    else:
        prev = {0: 1}
        for c in sorted({m[-1] for m in lts}):
            cur = _numerator(list({m[:-1] for m in lts if m[-1] <= c}))
            for d, v in cur.items():
                K[c + d] = K.get(c + d, 0) + v
            for d, v in prev.items():
                K[c + d] = K.get(c + d, 0) - v
            prev = cur
    return {d: v for d, v in K.items() if v}
