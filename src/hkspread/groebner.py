"""Buchberger's algorithm, reduced Groebner bases, normal forms, and the
combinatorial consequences used everywhere else: membership, Krull
dimension, standard-monomial counting (enumeration is kept as an oracle
for tests) and Hilbert-series numerators of leading-term ideals.  The
numerators count standard monomials by degree; they measure I itself,
not only its leading-term ideal, when the GB's order is
degree-compatible, as DEGREVLEX is.

Quotient rings are handled by appending the ring's relations to every
generator list (see `buchberger`), so all computation happens in the
ambient polynomial ring.
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


def _reduce_full(f: Polynomial, reducers, order, budget: _Budget) -> Polynomial:
    """Full normal form of f against reducers [(poly, lm, 1/lc), ...]."""
    terms = dict(f.terms)
    p = f.ring.field.p
    remainder = {}
    while terms:
        lm = max(terms, key=order.key)
        c = terms[lm]
        for g, glm, glc_inv in reducers:
            if glm.divides(lm):
                budget.spend()
                fac_mono = lm.quotient(glm)
                fac_c = (c * glc_inv) % p
                for m2, c2 in g.terms.items():
                    m = m2.mul(fac_mono)
                    v = (terms.get(m, 0) - fac_c * c2) % p
                    if v:
                        terms[m] = v
                    else:
                        terms.pop(m, None)
                break
        else:
            remainder[lm] = c
            del terms[lm]
    return Polynomial(f.ring, remainder)


def _prep(polys, order):
    reducers = []
    for g in polys:
        lm = g.leading_monomial(order)
        reducers.append((g, lm, g.ring.field.inv(g.terms[lm])))
    return reducers


def s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    lmf = f.leading_monomial(order)
    lmg = g.leading_monomial(order)
    lcm = lmf.lcm(lmg)
    field = f.ring.field
    sf = f.term_mul(lcm.quotient(lmf), field.inv(f.terms[lmf]))
    sg = g.term_mul(lcm.quotient(lmg), field.inv(g.terms[lmg]))
    return sf - sg


class GroebnerBasis:
    """Reduced basis: monic, interreduced, canonical for (ideal, order)."""

    __slots__ = ("ring", "order", "polys", "leading")

    def __init__(self, ring, order, polys):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)
        self.leading = tuple(f.leading_monomial(order) for f in self.polys)

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
        return _reduce_full(f, _prep(self.polys, self.order),
                            self.order, _Budget(active_guard()))

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


def _interreduce(basis, order, ring, budget) -> tuple:
    if not basis:
        return ()
    items = sorted(basis, key=lambda f: order.key(f.leading_monomial(order)))
    minimal = []
    for f in items:
        lm = f.leading_monomial(order)
        if not any(g.leading_monomial(order).divides(lm) for g in minimal):
            minimal.append(f)
    prepped = _prep(minimal, order)
    reduced = []
    for idx, f in enumerate(minimal):
        others = prepped[:idx] + prepped[idx + 1:]
        nf = _reduce_full(f, others, order, budget) if others else f
        reduced.append(nf.monic(order))
    reduced.sort(key=lambda f: order.key(f.leading_monomial(order)))
    return tuple(reduced)


def buchberger_raw(gens, order=None, *, ring=None, guard=None) -> GroebnerBasis:
    """Reduced GB of exactly the given generators (relations NOT appended)."""
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

    basis = []
    lead = []
    reducers = []
    for g in gens:
        if g.is_zero():
            continue
        budget.check_poly(g)
        f = g.monic(order)
        basis.append(f)
        lead.append(f.leading_monomial(order))
        reducers.append((f, lead[-1], 1))

    heap = []
    done = set()

    def push_pair(i, j):
        if lead[i].is_coprime(lead[j]):
            done.add((i, j))
            return
        lcm = lead[i].lcm(lead[j])
        heapq.heappush(heap, (order.key(lcm), i, j))

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)

    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) in done:
            continue
        lcm = lead[i].lcm(lead[j])
        done.add((i, j))
        chained = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if lead[k].divides(lcm):
                ik = (i, k) if i < k else (k, i)
                jk = (j, k) if j < k else (k, j)
                if ik in done and jk in done:
                    chained = True
                    break
        if chained:
            continue
        s = s_polynomial(basis[i], basis[j], order)
        nf = _reduce_full(s, reducers, order, budget)
        if nf.is_zero():
            continue
        budget.check_poly(nf)
        nf = nf.monic(order)
        t = len(basis)
        if t + 1 > budget.guard.max_basis:
            raise ResourceLimitError(
                f"basis size budget exceeded ({budget.guard.max_basis})")
        basis.append(nf)
        lead.append(nf.leading_monomial(order))
        reducers.append((nf, lead[-1], 1))
        for i2 in range(t):
            push_pair(i2, t)

    return GroebnerBasis(ring, order, _interreduce(basis, order, ring, budget))


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


def _staircase_bounds(I, order):
    """Leading terms of I's GB and, per variable, the smallest pure power
    among them; None for the unit ideal.  Raises InfiniteLengthError when a
    variable has no pure power, i.e. the colength is infinite."""
    G = _as_gb(I, order)
    lts = G.leading
    if any(m.degree() == 0 for m in lts):
        return None
    bounds = []
    for i in range(G.ring.nvars):
        pure = [m[i] for m in lts
                if all(e == 0 for k, e in enumerate(m) if k != i)]
        if not pure:
            raise InfiniteLengthError(
                f"no pure power of {G.ring.variables[i]} in the leading-term ideal")
        bounds.append(min(pure))
    return lts, bounds


def standard_monomials(I, order=None):
    """Iterator over monomials outside the leading-term ideal, one guard step
    per point of the exponent box.  Raises InfiniteLengthError when their
    count is infinite.  Lengths use `count_standard_monomials`; this walk is
    the oracle it is tested against."""
    staircase = _staircase_bounds(I, order)
    if staircase is None:
        return iter(())
    lts, bounds = staircase
    budget = _Budget(active_guard(), "standard-monomial enumeration")
    return _staircase(bounds, lts, budget)


def _staircase(bounds, lts, budget):
    for exps in product(*[range(b) for b in bounds]):
        budget.spend()
        mono = Monomial(exps)
        if not any(lt.divides(mono) for lt in lts):
            yield mono


def count_standard_monomials(I, order=None) -> int:
    """The colength: the number of monomials outside the leading-term ideal,
    counted without visiting them.  Raises InfiniteLengthError when it is
    infinite."""
    staircase = _staircase_bounds(I, order)
    if staircase is None:
        return 0
    return _count_staircase(staircase[0])


def _count_staircase(lts) -> int:
    """Monomials outside the finite-colength monomial ideal spanned by the
    exponent vectors `lts`.  Between consecutive last exponents lo < hi of
    the generators, the slice at each height is the staircase of the
    generators with last exponent <= lo, one variable fewer; the slice at
    the largest last exponent is empty.  (Bayer-Stillman, JSC 14, 1992.)"""
    if len(lts[0]) == 1:
        return min(m[0] for m in lts)
    cuts = sorted({m[-1] for m in lts})
    total = 0
    for lo, hi in zip(cuts, cuts[1:]):
        total += (hi - lo) * _count_staircase(
            list({m[:-1] for m in lts if m[-1] <= lo}))
    return total


def hilbert_numerator(I) -> list:
    """Coefficients of K(t), where K(t)/(1−t)^n is the generating function
    by degree of the standard monomials of I's DEGREVLEX GB (n variables).
    The unit ideal gives [0] and no leading terms give [1]."""
    return _numerator(_as_gb(I).leading)


def _numerator(lts) -> list:
    """K for the monomial ideal spanned by the exponent vectors `lts`,
    sliced on the last variable as in `_count_staircase`:
    K(L) = 1 + Σ_c t^c·(K(L_c) − K(L_prev)), with c over the distinct last
    exponents, L_c the generators with last exponent <= c (that variable
    dropped) and L_prev the slice before (none at the first cut)."""
    if not lts:
        return [1]
    if any(not any(m) for m in lts):
        return [0]
    if len(lts[0]) == 1:
        return [1] + [0] * (min(m[0] for m in lts) - 1) + [-1]
    total = [1]
    prev = [1]
    for c in sorted({m[-1] for m in lts}):
        cur = _numerator(list({m[:-1] for m in lts if m[-1] <= c}))
        total += [0] * (c + max(len(cur), len(prev)) - len(total))
        for k, v in enumerate(cur):
            total[c + k] += v
        for k, v in enumerate(prev):
            total[c + k] -= v
        prev = cur
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return total
