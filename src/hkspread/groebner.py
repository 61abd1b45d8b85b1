"""The Groebner kernel: Buchberger's algorithm on exactly the generators
it is given (`buchberger_raw`), reduced Groebner bases with their normal
forms and membership (`GroebnerBasis.reduce`, `contains`, and
`contains_basis` for a whole basis), and what is read off a basis: the
sparse Hilbert-series numerator of its leading terms
(`GroebnerBasis.numerator`), the Krull dimension, and the standard
monomials (kept as an oracle for tests).  The numerators count standard
monomials by degree, so every length is read off them; they measure the
ideal itself, not only its leading-term ideal, when the GB's order is
degree-compatible, as DEGREVLEX is.

Everything here works in the ambient polynomial ring on polynomials and
bases; nothing takes an ideal.  `Ideal.groebner_basis`
(ideals.py) appends the ring's relations to the generators, and each
ring computes its relation basis once (`RingSpec.relation_basis`).

Buchberger, normal forms, S-polynomials and the interreduction run on
packed monomials (`orders.Packing`; Bachmann-Schoenemann, ISSAC 1998):
each exponent vector is one int, W bits per variable under guard bits,
with minus the order's rank on top, all linear in the exponents.  A
product is one addition, a larger monomial a smaller int, divisibility
one subtraction tested on the guard bits.  A product that would reach a
guard bit raises `Overflow`; the run is redone twice as wide, but not
past the width the step budget can fill.  A basis is its packed entries,
in the packing it was built in, and no call rewrites them: a call that
needs a wider packing moves a copy.

Each kernel call starts in `_widened`, with one budget for all its
attempts.  The guard is spent once per reduction step, so a step budget
counts reductions, not terms, pairs or heap operations: the reductions of
the S-polynomials of the pairs that survive the criteria, then those of
the interreduction.  The packing does not change which steps are taken,
and an attempt redone wider leaves the steps of the ones before spent.  A
call that reduces several elements (a containment, a level's p-th
powers) meters each one on a budget of its own.

No basis is computed twice.  `reduced_basis` turns polynomials that are
already a GB (an elimination's t-free part, the quotients of a colon) into
the reduced GB without a pair phase.  Each GroebnerBasis memoises its
Hilbert numerator (`numerator`), read by every length and dimension, and
the basis of the ideal's p-th bracket power (`frobenius`), so a chain of
Frobenius powers lives on the basis it starts from.  In a session
(`basis_memo`, a ContextVar like the guard) a chain level or an ideal's
basis is interned by value and order once, when it is built.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import product
from math import comb
from operator import le, mul

from .errors import AlgebraError, InfiniteLengthError, ResourceLimitError, RingMismatchError
from .orders import DEGREVLEX, Overflow, packing_for
from .poly import Polynomial


class GuardConfig(namedtuple("GuardConfig", "max_steps max_exponent",
                             defaults=(500_000, 100_000))):
    """Resource budget: exceeding it raises, never returns a wrong answer."""

    __slots__ = ()


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
    """`steps` counts what one computation has spent, against the guard's
    max_steps; `layer` names it in the error."""

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
                f"{self.layer} exponent exceeds cap "
                f"({self.guard.max_exponent})")


def _widened(order, n, e, run, layer="reduction", width=0):
    """The one entry of every kernel call: run(packing, budget) with
    headroom for exponents up to e, at least `width` wide; on overflow, run
    again twice as wide.  The call has one budget of the active guard,
    named `layer`, and every attempt spends from it, so the guard's
    max_steps bounds the steps of all attempts together.

    Every exponent that enters the call is below 2^width or the guard's
    max_exponent, and a reduction step adds at most one such exponent to a
    term, so a field of `limit` bits holds every term the step budget lets
    the call build: an overflow at that width raises ResourceLimitError."""
    guard = active_guard()
    budget = _Budget(guard, layer)
    width = max(width, (2 * n * e).bit_length() + 1)
    limit = ((guard.max_steps + 2)
             * max(1 << width, guard.max_exponent)).bit_length()
    while True:
        try:
            return run(packing_for(order, n, width), budget)
        except Overflow:
            if width >= limit:
                raise ResourceLimitError(
                    f"{layer} overflowed a {width}-bit packing, wider than "
                    f"the step budget ({guard.max_steps}) can fill") from None
            width *= 2


def _terms(packed, new, q=1) -> list:
    """The term maps of the entries of packed = (packing, entries), packed
    by `new` with every exponent times q (the packing is linear in them)."""
    old, entries = packed
    return [{(x if old is new else new.pack(old.monomial(x))) * q: c
             for x, c in [(lm, 1)] + tail} for lm, _, tail in entries]


def _moved(packed, new) -> list:
    """The entries of `packed`, packed by `new` of the same order."""
    return packed[1] if packed[0] is new else [
        new.reducer(t, min(t)) for t in _terms(packed, new)]


def _max_exponent(packed) -> int:
    """The largest exponent of `packed`'s entries, read off their tops."""
    return max((max(packed[0].monomial(e[1])) for e in packed[1]), default=0)


def _entries(polys, packing, p: int) -> list:
    """The monic reducer entries of nonzero polynomials, each led by its
    largest term under the packing's order."""
    return [_monic_entry(terms, min(terms), packing, p)
            for terms in map(packing.terms, polys)]


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


# Each basis -> the session's one basis equal to it; None outside a session.
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


class GroebnerBasis:
    """Reduced basis: monic, interreduced, canonical for (ideal, order),
    held as reducer entries sorted by lead in the packing it was built in;
    `polys` and `leading` (exponent tuples) are views."""

    __slots__ = ("ring", "order", "_packed", "_hilbert", "_frobenius")

    def __init__(self, ring, order, packed):
        self.ring = ring
        self.order = order
        self._packed = packed   # (packing, reducer entries)
        self._hilbert = None   # the memo of `numerator`
        self._frobenius = None   # the memo of `frobenius`

    @property
    def polys(self) -> tuple:
        packing, entries = self._packed
        return tuple(packing.polynomial(self.ring, [(e[0], 1)] + e[2])
                     for e in entries)

    @property
    def leading(self) -> tuple:
        packing, entries = self._packed
        return tuple(packing.monomial(e[0]) for e in entries)

    def __len__(self):
        return len(self._packed[1])

    def is_zero(self) -> bool:
        return not self._packed[1]

    def is_unit(self) -> bool:
        return any(not e[0] for e in self._packed[1])   # 1 packs to 0

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
        computed once by Buchberger from the relations and this basis raised
        to the p-th power (packed monomials times p, fields sized before: a
        carry would pass the guard bits unseen) and reduced modulo the
        relation basis.  Exact in characteristic p, as (g + h)^p = g^p + h^p,
        c^p = c, and the relation ideal holds the p-th powers of its elements.
        In a session the level is interned when it is built."""
        if self._frobenius is None:
            ring, p, packed = self.ring, self.ring.characteristic, self._packed
            packing, forms = ring.relation_basis()._normal_forms(
                lambda packing: _terms(packed, packing, p),
                p * _max_exponent(packed))
            gens = [_monic_entry(nf, next(iter(nf)), packing, p) for nf in forms
                    if nf] + _entries(ring.relations, packing, p)
            self._frobenius = _interned(_widened(
                DEGREVLEX, ring.nvars, _max_exponent((packing, gens)),
                lambda wide, budget: _buchberger(_moved((packing, gens), wide),
                                                 DEGREVLEX, ring, wide, budget)))
        return self._frobenius

    def reduce(self, f: Polynomial) -> Polynomial:
        packing, [nf] = self._remainder(f)
        return packing.polynomial(self.ring, nf.items())

    def contains(self, f: Polynomial) -> bool:
        return not self._remainder(f)[1][0]

    def contains_basis(self, other: "GroebnerBasis") -> bool:
        """Whether the ideal holds every element of `other`, a basis of the
        same ring: one kernel call, which stops at the first non-member."""
        if other.ring != self.ring:
            raise RingMismatchError("basis from a different ring")
        return not any(self._normal_forms(
            lambda packing: _terms(other._packed, packing),
            _max_exponent(other._packed), stop=True)[1])

    def _remainder(self, f):
        if f.ring != self.ring:
            raise RingMismatchError("polynomial from a different ring")
        return self._normal_forms(lambda packing: [packing.terms(f)],
                                  f.max_exponent())

    def _normal_forms(self, items, e, stop=False):
        """One kernel call: (packing, the normal forms of the term maps
        items(packing), exponents up to e), each on a budget of its own;
        with `stop`, none after the first nonzero one; self keeps its packing."""
        p = self.ring.characteristic

        def run(packing, budget):
            reducers, forms = _moved(self._packed, packing), []
            for terms in items(packing):
                if forms:   # each form is reduced on a budget of its own
                    budget.steps = 0
                forms.append(_reduce_full(terms, reducers, packing, p,
                                          budget.spend))
                if stop and forms[-1]:
                    break
            return packing, forms

        return _widened(self.order, self.ring.nvars, e, run,
                        width=self._packed[0].width)

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        (a, x), (b, y) = self._packed, other._packed
        return self.ring == other.ring and self.order == other.order and (
            self.polys == other.polys if a is not b else
            [(e[0], dict(e[2])) for e in x] == [(e[0], dict(e[2])) for e in y])

    def __hash__(self):
        packing, entries = self._packed
        return hash((self.order, tuple(
            (packing.monomial(e[0]), len(e[2])) for e in entries)))

    def __repr__(self):
        return "GroebnerBasis{" + ", ".join(str(f) for f in self.polys) + "}"


def exact_quotient(h: Polynomial, g: Polynomial) -> Polynomial:
    """h/g in the ambient polynomial ring, in one pass: the steps of h's
    normal form against g alone are the quotient's terms, one guard step
    each.  AlgebraError when g does not divide h."""
    if g.is_zero():
        raise AlgebraError("zero polynomial has no leading term")
    ring, p = h.ring, h.ring.characteristic
    e = max(h.max_exponent(), g.max_exponent())

    def run(packing, budget):
        divisor, quotient = packing.terms(g), []
        lead = min(divisor)
        inv = pow(divisor[lead], -1, p)
        if _reduce_full(packing.terms(h), [_monic_entry(divisor, lead, packing, p)],
                        packing, p, budget.spend, quotient):
            raise AlgebraError("exact division failed")
        return packing.polynomial(ring, [(u, c * inv % p) for u, c in quotient])

    return _widened(DEGREVLEX, ring.nvars, e, run, "exact division")


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
    gens = [g for g in gens if not g.is_zero()]
    e = max((g.max_exponent() for g in gens), default=0)

    return _widened(order, ring.nvars, e, lambda packing, budget: _buchberger(
        _entries(gens, packing, ring.characteristic), order, ring, packing, budget))


def _buchberger(entries, order, ring, packing, budget) -> GroebnerBasis:
    p, g, low = ring.characteristic, packing.guard, packing.low
    coeffs, shifts, field = packing.coeffs, packing.shifts, packing.field
    capped = field > budget.guard.max_exponent   # else every exponent fits
    if capped:
        budget.check_exponent(_max_exponent((packing, entries)))
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

    for entry in entries:
        append(entry)
    fresh = len(lead)

    while heap:
        key, i, j, _ = heapq.heappop(heap)
        nf = _reduce_full(_s_terms(reducers[i], reducers[j], -key, packing, p),
                          reducers, packing, p, budget.spend)
        if nf:
            entry = _monic_entry(nf, next(iter(nf)), packing, p)
            if capped:
                budget.check_exponent(max(packing.monomial(entry[1])))
            if len(lead) + 1 > _MAX_BASIS:
                raise ResourceLimitError(
                    f"{budget.layer} basis size budget exceeded "
                    f"({_MAX_BASIS})")
            append(entry)

    return GroebnerBasis(ring, order, (packing, _interreduce(
        reducers, packing, p, budget.spend, fresh)))


def _monic_entry(terms, lm, packing, p):
    """The monic reducer entry of the packed term map `terms`, lead `lm`."""
    inv = pow(terms[lm], -1, p)
    return packing.reducer(terms if inv == 1 else {
        x: c * inv % p for x, c in terms.items()}, lm)


def reduced_basis(polys, ring) -> GroebnerBasis:
    """The reduced DEGREVLEX GB of the ideal generated by `polys`, which
    already are a DEGREVLEX GB of it: made monic and interreduced, with no
    pair phase.  Metered like Buchberger."""
    p = ring.characteristic
    e = max((f.max_exponent() for f in polys), default=0)

    def run(packing, budget):
        entries = _entries(polys, packing, p)
        return GroebnerBasis(ring, DEGREVLEX, (packing, _interreduce(
            entries, packing, p, budget.spend, len(entries))))

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
    """Iterator over the exponent tuples outside G's leading-term ideal, one
    guard step per point of the exponent box (per variable, the smallest
    pure power among the leading terms).  Raises InfiniteLengthError when
    their count is infinite.  Lengths read `GroebnerBasis.numerator`
    instead; this walk is the oracle it is tested against."""
    lts = G.leading
    if any(sum(m) == 0 for m in lts):
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
        if not any(all(map(le, lt, exps)) for lt in lts):
            yield exps


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
