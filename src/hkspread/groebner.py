"""The Groebner kernel: Buchberger's algorithm on exactly the generators
it is given (`buchberger_raw`), reduced Groebner bases with their normal
forms and membership (`GroebnerBasis.reduce`/`contains`), and what is
read off a basis: the sparse Hilbert-series numerator of its leading
terms (`GroebnerBasis.numerator`), the Krull dimension, and the standard
monomials (kept as an oracle for tests).  The numerators count standard
monomials by degree, so every length is read off them; they measure the
ideal itself, not only its leading-term ideal, when the GB's order is
degree-compatible, as DEGREVLEX is.

Everything here works in the ambient polynomial ring on polynomials and
bases; nothing takes an ideal or a session.  `Ideal.groebner_basis`
(ideals.py) appends the ring's relations to the generators, and each
ring computes its relation basis once (`RingSpec.relation_basis`).

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
interreduction.  The packing does not change which steps are taken, and
the attempts redone wider spend from one budget.

No basis is computed twice.  `reduced_basis` turns polynomials that are
already a GB (an elimination's t-free part, the quotients of a colon) into
the reduced GB without a pair phase.  Each GroebnerBasis memoises its
Hilbert numerator (`numerator`), read by every length and dimension, and
the basis of the ideal's p-th bracket power (`frobenius`), so a chain of
Frobenius powers lives on the basis it starts from.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import product
from math import comb
from operator import mul
from typing import NamedTuple

from .errors import AlgebraError, InfiniteLengthError, ResourceLimitError, RingMismatchError
from .orders import DEGREVLEX, Overflow, packing_for
from .poly import Monomial, Polynomial


class GuardConfig(NamedTuple):
    """Resource budget: exceeding it raises, never returns a wrong answer."""

    max_steps: int = 500_000
    max_exponent: int = 100_000


# The largest basis Buchberger may build, whatever the guard.
_MAX_BASIS = 1_000

# Per thread and per asyncio task: a guard set in one context is not seen
# by code running in another.  Outside any `use_guard`, GuardConfig().
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
    """`steps` counts the current attempt; `limit` is what the guard's
    max_steps leaves it after the attempts before (`restart`)."""

    __slots__ = ("guard", "steps", "layer", "limit")

    def __init__(self, guard: GuardConfig, layer: str = "reduction"):
        self.guard = guard
        self.steps = 0
        self.layer = layer
        self.limit = guard.max_steps

    def spend(self, n: int = 1):
        self.steps += n
        if self.steps > self.limit:
            raise ResourceLimitError(
                f"{self.layer} step budget exceeded ({self.guard.max_steps})")

    def restart(self):
        """Start an attempt redone wider: the steps spent stay spent."""
        self.limit -= self.steps
        self.steps = 0

    def check_exponent(self, e: int):
        if e > self.guard.max_exponent:
            raise ResourceLimitError(
                f"monomial exponent exceeds cap ({self.guard.max_exponent})")


def _widened(order, n, e, run, width=0):
    """run(packing) with headroom for exponents up to e, at least `width`
    wide; on overflow, run again twice as wide.  A metered `run` restarts
    one budget (`_Budget.restart`), so the guard bounds all attempts."""
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

    __slots__ = ("ring", "order", "polys", "leading", "_packed", "_hilbert",
                 "_frobenius", "_hash")

    def __init__(self, ring, order, polys, leading, packed):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)
        self.leading = tuple(leading)
        self._packed = packed   # (packing, reducer entries), see `reduce`
        self._hilbert = None   # the memo of `numerator`
        self._frobenius = None   # the memo of `frobenius`, or its interned copy
        self._hash = None

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def is_zero(self) -> bool:
        return not self.polys

    def is_unit(self) -> bool:
        return any(m.degree() == 0 for m in self.leading)

    def numerator(self) -> dict:
        """K(t) as {degree: coefficient}, zero coefficients left out, where
        K(t)/(1−t)^n is the generating function by degree of the standard
        monomials (n variables).  The unit ideal gives {} and no leading
        terms give {0: 1}.  One entry per term, so its size follows the
        leading terms, not their degrees.  Computed once; the dict is
        shared, so callers read it and never change it."""
        K = self._hilbert
        if K is None:
            K = self._hilbert = _numerator(self.leading)
        return K

    def frobenius(self) -> "GroebnerBasis":
        """The reduced DEGREVLEX GB of the ideal's p-th bracket power,
        computed once by Buchberger from this basis raised to the p-th power
        and reduced modulo the ring's relation basis, plus the relations:
        exact in characteristic p, as (g + h)^p = g^p + h^p and the
        relation ideal holds the p-th powers of its elements."""
        if self._frobenius is None:
            ring = self.ring
            relations = ring.relation_basis()
            self._frobenius = buchberger_raw([relations.reduce(
                g.qth_power(ring.field.p)) for g in self.polys]
                + list(ring.relations), ring=ring)
        return self._frobenius

    def reduce(self, f: Polynomial) -> Polynomial:
        nf = self._remainder(f)
        return f if nf is None else nf[0].polynomial(self.ring, nf[1].items())

    def contains(self, f: Polynomial) -> bool:
        nf = self._remainder(f)
        return f.is_zero() if nf is None else not nf[1]

    def _remainder(self, f):
        """(packing, f's packed normal form), or None for the zero ideal."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial from a different ring")
        if not self.polys:
            return None
        budget = _Budget(active_guard())

        def run(packing):
            budget.restart()
            packed = self._packed
            if packed[0] is not packing:   # two threads may both rebuild it
                packed = self._packed = (packing, [
                    packing.reducer(packing.terms(g), packing.pack(lm))
                    for g, lm in zip(self.polys, self.leading)])
            return packing, _reduce_full(packing.terms(f), packed[1], packing,
                                         self.ring.field.p, budget.spend)

        return _widened(self.order, self.ring.nvars, f.max_exponent(), run,
                        self._packed[0].width)

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return (self.ring == other.ring and self.order == other.order
                and tuple(f.terms_key() for f in self.polys)
                == tuple(f.terms_key() for f in other.polys))

    def __hash__(self):   # memoised: a chain walk interns every level again
        if self._hash is None:
            self._hash = hash((self.order,
                               tuple(f.terms_key() for f in self.polys)))
        return self._hash

    def __repr__(self):
        return "GroebnerBasis{" + ", ".join(str(f) for f in self.polys) + "}"


def exact_quotient(h: Polynomial, g: Polynomial) -> Polynomial:
    """h/g in the ambient polynomial ring, in one pass: the steps of h's
    normal form against g alone are the quotient's terms, one guard step
    each.  AlgebraError when g does not divide h."""
    ring, p, e = h.ring, h.ring.field.p, max(h.max_exponent(), g.max_exponent())
    inv = ring.field.inv(g.terms[g.leading_monomial(DEGREVLEX)])
    budget = _Budget(active_guard(), "exact division")

    def run(packing):
        budget.restart()
        monic, quotient = packing.terms(g.scale(inv)), []
        if _reduce_full(packing.terms(h), [packing.reducer(monic, min(monic))],
                        packing, p, budget.spend, quotient):
            raise AlgebraError("exact division failed")
        return packing.polynomial(ring, [(u, c * inv % p) for u, c in quotient])

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
        x = lead[i] | g
        for j in minimal:
            if (x - lead[j]) & g == g:
                break
        else:
            minimal.append(i)
    kept = []
    for idx, i in enumerate(minimal):
        lm, top, tail = entry = reducers[i]
        smaller, t = minimal[:idx], top | g
        # a lead that divides a tail term divides top, the terms' maxima
        divisors = [d for j in smaller if j > i or i < fresh
                    for d in [lead[j]] if (t - d) & g == g]
        if divisors and any(((m | g) - d) & g == g
                            for m, _ in tail for d in divisors):
            entry = packing.reducer(_reduce_full(
                dict([(lm, 1)] + tail), [reducers[j] for j in smaller],
                packing, p, spend), lm)
        kept.append(entry)
    return kept


def buchberger_raw(gens, order=None, *, ring) -> GroebnerBasis:
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
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators from different rings")
    budget = _Budget(active_guard())
    gens = [g for g in gens if not g.is_zero()]
    e = max((g.max_exponent() for g in gens), default=0)
    budget.check_exponent(e)

    def run(packing):
        budget.restart()
        return _buchberger(gens, order, ring, packing, budget)

    return _widened(order, ring.nvars, e, run)


def _buchberger(gens, order, ring, packing, budget) -> GroebnerBasis:
    p, g, low = ring.field.p, packing.guard, packing.low
    coeffs, shifts, field = packing.coeffs, packing.shifts, packing.field
    reducers, lead, active = [], [], []
    heap = []   # (−lcm, i, j, lcm exponents) of the queued pairs, i < j

    def append(entry):
        lm, t = entry[0], len(lead)
        reducers.append(entry)
        lead.append(lm)
        lcms = packing.lcms(lm, lead)
        # criterion B on the queued pairs; the pairs it drops leave the heap
        kept = [e for e in heap if not (
            ((e[3] | g) - lm) & g == g and lcms[e[1]] != e[3]
            and lcms[e[2]] != e[3])]
        if len(kept) != len(heap):
            heap[:] = kept
            heapq.heapify(heap)
        # criteria M and F and the product criterion on the new pairs, by
        # packed lcm exponents (a proper divisor is a smaller int), coprime
        # pairs of an lcm first: test each against the lcms kept before it
        minimal = []
        for d, useful, i in sorted([(lcms[i], lcms[i] != (lead[i] + lm) & low, i)
                                    for i in active]):
            x = d | g
            for m in minimal:
                if (x - m) & g == g:
                    break
            else:
                minimal.append(d)
                if useful:   # the key is the lcm packed with its rank
                    heapq.heappush(heap, (-sum(map(mul, coeffs, [
                        d >> s & field for s in shifts])), i, t, d))
        active[:] = [i for i in active if ((lead[i] | g) - lm) & g != g]
        active.append(t)

    for f in gens:
        terms = packing.terms(f)
        append(_monic_entry(terms, min(terms), packing, p))
    fresh = len(lead)

    while heap:
        key, i, j, _ = heapq.heappop(heap)
        nf = _reduce_full(_s_terms(reducers[i], reducers[j], -key, packing, p),
                          reducers, packing, p, budget.spend)
        if nf:
            entry = _monic_entry(nf, next(iter(nf)), packing, p)
            if packing.field > budget.guard.max_exponent:
                budget.check_exponent(max(packing.monomial(entry[1])))
            if len(lead) + 1 > _MAX_BASIS:
                raise ResourceLimitError(
                    f"basis size budget exceeded ({_MAX_BASIS})")
            append(entry)

    return _basis(ring, order, packing,
                  _interreduce(reducers, packing, p, budget.spend, fresh))


def _monic_entry(terms, lm, packing, p):
    """The monic reducer entry of the packed term map `terms`, lead `lm`."""
    inv = pow(terms[lm], -1, p)
    return packing.reducer(terms if inv == 1 else {
        x: c * inv % p for x, c in terms.items()}, lm)


def _basis(ring, order, packing, entries, polys=None) -> GroebnerBasis:
    """The GroebnerBasis of reduced reducer entries sorted by lead; its
    polynomials are built from them unless given."""
    if polys is None:
        polys = [packing.polynomial(ring, [(e[0], 1)] + e[2]) for e in entries]
    return GroebnerBasis(ring, order, polys,
                         [packing.monomial(e[0]) for e in entries],
                         (packing, entries))


def reduced_basis(polys, ring, reduced=False) -> GroebnerBasis:
    """The reduced DEGREVLEX GB of the ideal generated by `polys`, which
    already are a DEGREVLEX GB of it: made monic and interreduced, with no
    pair phase.  `reduced` polys already are the reduced GB, sorted by
    lead, and are kept as they are.  Metered like Buchberger."""
    budget, p = _Budget(active_guard()), ring.field.p
    e = max((f.max_exponent() for f in polys), default=0)

    def run(packing):
        budget.restart()
        entries = []
        for f in polys:
            terms = packing.terms(f)
            entries.append(_monic_entry(terms, min(terms), packing, p))
        if reduced:
            return _basis(ring, DEGREVLEX, packing, entries, polys)
        return _basis(ring, DEGREVLEX, packing, _interreduce(
            entries, packing, p, budget.spend, len(entries)))

    return _widened(DEGREVLEX, ring.nvars, e, run)


def krull_dimension(G: GroebnerBasis) -> int:
    """Dimension of the quotient by G's ideal, the order of the pole of
    K(t)/(1−t)^n at t = 1 for K = G.numerator(): n minus the number of
    leading Taylor coefficients of K at 1 that vanish.  The unit ideal
    (K = 0) gives -1."""
    n = G.ring.nvars
    K = G.numerator()
    if not K:
        return -1
    return n - next(k for k, a in enumerate(taylor_at_one(K, n)) if a)


def standard_monomials(G: GroebnerBasis):
    """Iterator over monomials outside G's leading-term ideal, one guard
    step per point of the exponent box (per variable, the smallest pure
    power among the leading terms).  Raises InfiniteLengthError when their
    count is infinite.  Lengths read `GroebnerBasis.numerator` instead;
    this walk is the oracle it is tested against."""
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
