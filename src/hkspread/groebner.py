"""Buchberger's algorithm, reduced Groebner bases, normal forms, and the
combinatorial consequences used everywhere else: membership and sparse
Hilbert-series numerators of leading-term ideals, with the Krull
dimension read off them (standard-monomial enumeration is kept as an
oracle for tests).  The
numerators count standard monomials by degree, so every length is read
off them; they measure I itself, not only its leading-term ideal, when
the GB's order is degree-compatible, as DEGREVLEX is.

Quotient rings are handled by appending the ring's relations to every
generator list (see `buchberger`), so all computation happens in the
ambient polynomial ring.

Buchberger, normal forms, S-polynomials and the interreduction run on
packed monomials (`orders.Packing`; Bachmann-Schoenemann, ISSAC 1998):
each exponent vector is one int, W bits per variable under guard bits,
with minus the order's rank on top, all linear in the exponents.  A
product is one addition, a larger monomial a smaller int, divisibility
one subtraction tested on the guard bits.  A product that would reach a
guard bit raises `Overflow`; the run is redone twice as wide.

The guard is spent once per reduction step, so a step budget counts
reductions, not terms, pairs or heap operations: the reductions of the
S-polynomials of the pairs that survive the criteria, then those of the
interreduction.  The packing does not change which steps are taken.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import product
from math import comb
from typing import NamedTuple

from .errors import AlgebraError, InfiniteLengthError, ResourceLimitError, RingMismatchError
from .orders import DEGREVLEX, Overflow, packing_for
from .poly import Monomial, Polynomial


class GuardConfig(NamedTuple):
    """Resource budget: exceeding it raises, never returns a wrong answer."""

    max_steps: int = 500_000
    max_basis: int = 1_000
    max_exponent: int = 100_000


# The budget in force when no guard is set; its fields are the defaults
# that the runner and the command line fall back to.
DEFAULT_GUARD = GuardConfig()

# Per thread and per asyncio task: a guard set in one context is not seen
# by code running in another.
_GUARD = ContextVar("hkspread_guard", default=DEFAULT_GUARD)


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

    def check_exponent(self, e: int):
        if e > self.guard.max_exponent:
            raise ResourceLimitError(
                f"monomial exponent exceeds cap ({self.guard.max_exponent})")


def _widened(order, n, e, run, width=0):
    """run(packing) with headroom for exponents up to e, at least `width`
    wide; on overflow, run again twice as wide, with a fresh step budget."""
    width = max(width, (2 * n * e).bit_length() + 1)
    while True:
        try:
            return run(packing_for(order, n, width))
        except Overflow:
            width *= 2


def _reduce_full(terms: dict, reducers, packing, p: int, spend,
                 quotient=None) -> dict:
    """Full normal form of the packed term map `terms` (consumed; zero
    coefficients allowed) against reducer entries, largest term first: a
    step cancels that term with the first reducer in list order whose lead
    divides it, calling `spend` once, and adds the reducer's tail.
    `quotient`, if given, collects each step's (multiplier, coefficient).
    Returns the remainder, largest term first."""
    g = packing.guard
    heap = list(terms)
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, terms.get
    remainder = {}
    while heap:
        lm = pop(heap)
        c = terms.pop(lm)
        if not c:
            continue
        t = lm | g
        for glm, top, tail in reducers:
            if (t - glm) & g == g:
                spend()
                u = lm - glm
                if (top + u) & g:
                    raise Overflow
                if quotient is not None:
                    quotient.append((u, c))
                c = p - c
                for m, c2 in tail:
                    m += u
                    old = get(m)
                    if old is None:
                        terms[m] = c * c2 % p
                        push(heap, m)
                    else:
                        terms[m] = (old + c * c2) % p
                break
        else:
            remainder[lm] = c
    return remainder


class GroebnerBasis:
    """Reduced basis: monic, interreduced, canonical for (ideal, order)."""

    __slots__ = ("ring", "order", "polys", "leading", "_packed")

    def __init__(self, ring, order, polys, leading, packed):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)
        self.leading = tuple(leading)
        self._packed = packed   # (packing, reducer entries), see `reduce`

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

        def run(packing):
            packed = self._packed
            if packed[0] is not packing:   # two threads may both rebuild it
                packed = self._packed = (packing, [
                    packing.reducer(packing.terms(g), packing.pack(lm))
                    for g, lm in zip(self.polys, self.leading)])
            return packing.polynomial(self.ring, _reduce_full(
                packing.terms(f), packed[1], packing, self.ring.field.p,
                _Budget(active_guard()).spend).items())

        return _widened(self.order, self.ring.nvars, f.max_exponent(), run,
                        self._packed[0].width)

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


def exact_quotient(h: Polynomial, g: Polynomial) -> Polynomial:
    """h/g in the ambient polynomial ring, in one pass: the steps of h's
    normal form against g alone are the quotient's terms.  Unmetered, as
    exact division always was; AlgebraError when g does not divide h."""
    ring, e = h.ring, max(h.max_exponent(), g.max_exponent())
    inv = ring.field.inv(g.terms[g.leading_monomial(DEGREVLEX)])

    def run(packing):
        monic, quotient = packing.terms(g.scale(inv)), []
        if _reduce_full(packing.terms(h), [packing.reducer(monic, min(monic))],
                        packing, ring.field.p, lambda: None, quotient):
            raise AlgebraError("exact division failed")
        return packing.polynomial(ring, [(u, c * inv) for u, c in quotient])

    return _widened(DEGREVLEX, ring.nvars, e, run)


def _s_terms(ri, rj, lcm: int, packing, p: int) -> dict:
    """Terms of S(f, g) = (lcm/lm_f)·f − (lcm/lm_g)·g for monic reducer
    entries: the leads cancel, so only the tails enter (zero coefficients
    may be left in; `_reduce_full` skips them)."""
    g, u, v = packing.guard, lcm - ri[0], lcm - rj[0]
    if (ri[1] + u) & g or (rj[1] + v) & g:
        raise Overflow
    terms = {m + u: c for m, c in ri[2]}
    for m, c in rj[2]:
        m += v
        terms[m] = (terms.get(m, 0) - c) % p
    return terms


def _interreduce(reducers, packing, p, spend, fresh):
    """Reducer entries of the reduced basis, sorted by lead, from a monic
    GB's: keep the elements whose lead no kept smaller (or equal, earlier)
    lead divides, then reduce each against the kept elements with smaller
    leads, the only ones that can divide a term below its own lead.
    Elements from index `fresh` on were appended by the run, each a full
    normal form modulo every element before it, so only a kept lead
    appended later can divide one of their tail terms; a generator's tail
    is tested against every smaller kept lead.  Only an element with a
    tail term so divisible is reduced; the others would take no step."""
    g, lead = packing.guard, [r[0] for r in reducers]
    minimal = []
    for i in sorted(range(len(lead)), key=lead.__getitem__, reverse=True):
        if not any(((lead[i] | g) - lead[j]) & g == g for j in minimal):
            minimal.append(i)
    kept = []
    for idx, i in enumerate(minimal):
        lm, _, tail = entry = reducers[i]
        smaller = minimal[:idx]
        divisors = [lead[j] for j in smaller if j > i or i < fresh]
        if any(((m | g) - d) & g == g for m, _ in tail for d in divisors):
            entry = packing.reducer(_reduce_full(
                dict([(lm, 1)] + tail), [reducers[j] for j in smaller],
                packing, p, spend), lm)
        kept.append(entry)
    return kept


def buchberger_raw(gens, order=None, *, ring=None) -> GroebnerBasis:
    """Reduced GB of exactly the given generators (relations NOT appended).

    Every basis element is kept monic as a packed reducer entry; the
    exponent cap is checked on every generator and every new element.
    Pairs go through the Gebauer-Moeller update (JSC 6, 1988) once, when an
    element h joins the basis (the generators join one by one first):
    - a queued pair (i, j) is dropped when lm(h) divides its lcm and that
      lcm differs from lcm(i, h) and from lcm(j, h) (criterion B);
    - of the new pairs (i, h), i over the active elements, those whose lcm
      has a proper divisor among the new lcms are dropped (criterion M);
      of equal lcms only the smallest i stays, none if one is coprime
      (criterion F); coprime pairs are dropped (product criterion);
    - an element whose lead lm(h) divides leaves the active set.
    Pairs are reduced smallest lcm first (then by (i, j)), each against
    every element in the order they joined.  The step budget counts the
    reduction steps of the surviving pairs and of the interreduction."""
    order = order or DEGREVLEX
    gens = list(gens)
    ring = ring or _ring_of(gens)
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators from different rings")
    guard = active_guard()
    gens = [g for g in gens if not g.is_zero()]
    e = max((g.max_exponent() for g in gens), default=0)
    _Budget(guard).check_exponent(e)
    return _widened(order, ring.nvars, e, lambda packing: _buchberger(
        gens, order, ring, packing, _Budget(guard)))


def _buchberger(gens, order, ring, packing, budget) -> GroebnerBasis:
    field, p, g = ring.field, ring.field.p, packing.guard
    reducers, lead, active = [], [], []
    heap = []   # (−lcm, i, j, lcm exponents) of the queued pairs, i < j

    def append(entry):
        lm, t, lcm = entry[0], len(lead), packing.lcm
        reducers.append(entry)
        lead.append(lm)
        # criterion B on the queued pairs; the pairs it drops leave the heap
        kept = [e for e in heap if not (
            ((e[3] | g) - lm) & g == g and lcm(lm, lead[e[1]]) != e[3]
            and lcm(lm, lead[e[2]]) != e[3])]
        if len(kept) != len(heap):
            heap[:] = kept
            heapq.heapify(heap)
        # criteria M and F and the product criterion on the new pairs, by
        # packed lcm exponents (a proper divisor is a smaller int), coprime
        # pairs of an lcm first: test each against the lcms kept before it
        new = sorted((d, d != (lead[i] + lm) & packing.low, i)
                     for i in active for d in [lcm(lm, lead[i])])
        minimal = []
        for d, useful, i in new:
            if any(((d | g) - m) & g == g for m in minimal):
                continue
            minimal.append(d)
            if useful:
                heapq.heappush(heap, (-packing.pack(packing.monomial(d)), i, t, d))
        active[:] = [i for i in active if ((lead[i] | g) - lm) & g != g]
        active.append(t)

    def monic_entry(terms, lm):
        inv = field.inv(terms[lm])
        return packing.reducer(terms if inv == 1 else {
            x: c * inv % p for x, c in terms.items()}, lm)

    for f in gens:
        terms = packing.terms(f)
        append(monic_entry(terms, min(terms)))
    fresh = len(lead)

    while heap:
        key, i, j, _ = heapq.heappop(heap)
        nf = _reduce_full(_s_terms(reducers[i], reducers[j], -key, packing, p),
                          reducers, packing, p, budget.spend)
        if nf:
            entry = monic_entry(nf, next(iter(nf)))
            if packing.field > budget.guard.max_exponent:
                budget.check_exponent(max(packing.monomial(entry[1])))
            if len(lead) + 1 > budget.guard.max_basis:
                raise ResourceLimitError(
                    f"basis size budget exceeded ({budget.guard.max_basis})")
            append(entry)

    entries = _interreduce(reducers, packing, p, budget.spend, fresh)
    return GroebnerBasis(
        ring, order, [packing.polynomial(ring, [(e[0], 1)] + e[2]) for e in entries],
        [packing.monomial(e[0]) for e in entries], (packing, entries))


def buchberger(gens, order=None, *, ring=None) -> GroebnerBasis:
    """Reduced GB of (gens) + (ring relations); all downstream work in R."""
    gens = list(gens)
    ring = ring or _ring_of(gens)
    return buchberger_raw(gens + list(ring.relations), order, ring=ring)


def _ring_of(gens):
    if not gens:
        raise AlgebraError("cannot infer the ring from an empty generator list")
    return gens[0].ring


def _as_gb(obj, order=None) -> GroebnerBasis:
    if isinstance(obj, GroebnerBasis):
        return obj
    return obj.groebner_basis(order)


def normal_form(f: Polynomial, G) -> Polynomial:
    return _as_gb(G).reduce(f)


def is_member(f: Polynomial, I) -> bool:
    return _as_gb(I).contains(f)


def krull_dimension(I) -> int:
    """Dimension of R/I, the order of the pole of K(t)/(1−t)^n at t = 1
    for K the Hilbert numerator of I's leading terms: n minus the number
    of leading Taylor coefficients of K at 1 that vanish.  The unit ideal
    (K = 0) gives -1."""
    G = _as_gb(I)
    n = G.ring.nvars
    K = _numerator(G.leading)
    if not K:
        return -1
    return n - next(k for k, a in enumerate(taylor_at_one(K, n)) if a)


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


def taylor_at_one(K: dict, n: int) -> list:
    """The Taylor coefficients a_k = K^(k)(1)/k! = Σ_j c_j·C(j, k) at t = 1,
    k = 0..n, of K = {degree j: coefficient c_j}: (1−t)^k divides K iff
    a_0..a_(k−1) vanish.  The cost is O(terms · n), whatever the degrees."""
    return [sum(c * comb(j, k) for j, c in K.items()) for k in range(n + 1)]


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
