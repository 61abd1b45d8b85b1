"""Buchberger, reduced bases, normal forms, dimension, standard monomials."""

import heapq
import random
import threading
from itertools import product

import pytest

from hkspread import (
    DEGLEX,
    DEGREVLEX,
    INFINITE,
    LEX,
    GuardConfig,
    Ideal,
    InfiniteLengthError,
    Monomial,
    ResourceLimitError,
    RingSpec,
    buchberger,
    hilbert_numerator,
    is_member,
    krull_dimension,
    length_quotient,
    normal_form,
    order_by_name,
    standard_monomials,
    use_guard,
)
from hkspread import groebner
from hkspread.groebner import _Budget, _reduce_full, _reducer, _s_terms, active_guard
from hkspread.lengths import _length
from hkspread.orders import AuxBlockOrder
from hkspread.poly import Polynomial
from tests.test_poly import _random_poly

ORDERS = [DEGREVLEX, LEX, DEGLEX]


def _strs(gb):
    return [str(f) for f in gb.polys]


def test_gb_drops_redundant_generator():
    R = RingSpec(7, ("x", "y", "z"))
    x, y, z = R.gens()
    gb = buchberger([x, x * y - z**2], ring=R)
    assert _strs(gb) == ["x", "z^2"]


def test_gb_of_monomial_ideal_is_minimal_generators():
    R = RingSpec(5, ("x", "y"))
    x, y = R.gens()
    gb = buchberger([x**2, y**3, x**2 * y, x**4], ring=R)
    assert _strs(gb) == ["x^2", "y^3"]


def test_gb_empty_and_unit():
    R = RingSpec(2, ("x", "y"))
    gb = buchberger([], ring=R)
    assert gb.polys == ()
    assert gb.is_zero()
    gb = buchberger([R.one + R.gen(0) * 0], ring=R)
    assert gb.is_unit()
    assert _strs(gb) == ["1"]


def test_normal_form_examples():
    R = RingSpec(5, ("x", "y"))
    x, y = R.gens()
    G = buchberger([x], ring=R)
    assert normal_form(y**2 + x, G) == y**2
    G2 = buchberger([x**2 - y], ring=R)
    assert normal_form(x**3, G2) == x * y


@pytest.mark.parametrize("order", ORDERS)
def test_normal_form_idempotent(order):
    rng = random.Random(7)
    R = RingSpec(3, ("x", "y", "z"))
    G = buchberger([R.poly("x^2 + y*z"), R.poly("y^3")], order, ring=R)
    for _ in range(20):
        f = _random_poly(rng, R, nterms=5, max_exp=4)
        r = normal_form(f, G)
        assert normal_form(r, G) == r


def test_membership():
    R = RingSpec(2, ("x", "y"))
    x, y = R.gens()
    I = buchberger([x**2 + x * y, y**2], ring=R)
    assert is_member(x**4, I)
    assert not is_member(x, I)
    # ideal closure under addition and multiplication
    f, g = x**2 + x * y, y**2
    assert is_member(f + g, I)
    assert is_member(f * (x + y**3), I)


def test_reduced_basis_unique_under_permutation():
    rng = random.Random(42)
    R = RingSpec(3, ("x", "y", "z"))
    gens = [R.poly("x^2 + y*z"), R.poly("y^2 + x*z"), R.poly("z^3")]
    reference = buchberger(gens, ring=R)
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, ring=R) == reference


@pytest.mark.parametrize("order", ORDERS)
def test_gb_is_monic_and_sorted(order):
    R = RingSpec(5, ("x", "y"))
    gens = [R.poly("2*x^2 + y"), R.poly("3*y^3")]
    gb = buchberger(gens, order, ring=R)
    for f in gb.polys:
        assert f.leading_coefficient(order) == 1
    keys = [order.key(f.leading_monomial(order)) for f in gb.polys]
    assert keys == sorted(keys)


def test_order_kinds_disagree_where_expected():
    R = RingSpec(7, ("x", "y", "z"))
    f = R.poly("x + y^2")
    assert f.leading_monomial(LEX) == Monomial((1, 0, 0))
    assert f.leading_monomial(DEGLEX) == Monomial((0, 2, 0))
    g = R.poly("x^2*z + x*y^2")  # same degree: degrevlex vs deglex differ
    assert g.leading_monomial(DEGLEX) == Monomial((2, 0, 1))
    assert g.leading_monomial(DEGREVLEX) == Monomial((1, 2, 0))
    assert order_by_name("lex").kind == "lex"
    with pytest.raises(Exception):
        order_by_name("grlex")


def test_krull_dimension():
    R = RingSpec(2, ("x", "y", "z"))
    x, y, z = R.gens()
    assert krull_dimension(R.ideal()) == 3
    assert krull_dimension(R.ideal(x)) == 2
    assert krull_dimension(R.ideal(x, y)) == 1
    assert krull_dimension(R.ideal(x, y, z)) == 0
    assert krull_dimension(R.ideal(1)) == -1
    assert krull_dimension(R.ideal("x^2 + y*z")) == 2  # hypersurface


def test_standard_monomials_exact_set():
    R = RingSpec(2, ("x", "y"))
    sm = set(standard_monomials(R.ideal("x^2", "y^3")))
    assert sm == {Monomial((a, b)) for a in range(2) for b in range(3)}
    assert set(standard_monomials(R.ideal("x", "y"))) == {Monomial((0, 0))}
    assert list(standard_monomials(R.ideal(1))) == []
    assert length_quotient(R.ideal(1)) == 0


def test_standard_monomials_binomial_count():
    R = RingSpec(2, ("x", "y"))
    assert len(list(standard_monomials(R.ideal("x^2 + y", "y^3")))) == 6


def test_standard_monomials_infinite():
    R = RingSpec(2, ("x", "y"))
    with pytest.raises(InfiniteLengthError):
        standard_monomials(R.ideal("x"))
    assert not length_quotient(R.ideal("x")).is_finite


@pytest.mark.parametrize("order", ORDERS)
def test_standard_monomial_count_order_invariant(order):
    R = RingSpec(3, ("x", "y"))
    I = R.ideal("x^2 + y^2", "x*y^2", "y^4")
    assert len(list(standard_monomials(I, order))) == len(
        list(standard_monomials(I)))


def _enumerated(I, order=None):
    return len(list(standard_monomials(I, order)))


def test_count_matches_enumeration_on_random_staircases():
    rng = random.Random(2024)
    names = ("x", "y", "z", "w")
    for trial in range(600):
        R = RingSpec(2, names[:trial % 4 + 1])
        n = R.nvars
        exps = [tuple(rng.randrange(1, 6) if k == i else 0 for k in range(n))
                for i in range(n)]
        exps += [tuple(rng.randrange(4) for _ in range(n))
                 for _ in range(rng.randrange(5))]
        I = Ideal(R, tuple(R.monomial(e) for e in exps))
        assert length_quotient(I) == _enumerated(I)


@pytest.mark.parametrize("p, relation", [(3, "x^2 + y*z"),
                                         (2, "x^3 + y^3 + z^3")])
def test_count_matches_enumeration_in_quotient_rings(p, relation):
    """A colength does not depend on the order that enumerates it."""
    rng = random.Random(p * 31)
    Q = RingSpec(p, ("x", "y", "z")).quotient(relation)
    for _ in range(25):
        gens = [Q.poly(f"{v}^{rng.randrange(1, 6)}") for v in Q.variables]
        gens += [_random_poly(rng, Q, nterms=3, max_exp=3)
                 for _ in range(rng.randrange(3))]
        I = Ideal(Q, tuple(gens))
        for order in ORDERS:
            assert length_quotient(I) == _enumerated(I, order)


def test_enumeration_is_guarded_and_counting_is_not():
    R = RingSpec(2, ("x", "y"))
    I = R.ideal("x^5", "y^5")
    with use_guard(GuardConfig(max_steps=10)):
        with pytest.raises(ResourceLimitError,
                           match="standard-monomial enumeration"):
            list(standard_monomials(I))
        assert length_quotient(I) == 25


def test_quotient_ring_relations_join_every_basis():
    Q = RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z")
    gb = Q.ideal("x^3", "y^3", "z^3").groebner_basis()
    assert _strs(gb) == ["x^2 + y*z", "z^3", "x*y*z", "y^3", "y^2*z^2"]


def test_resource_guard_trips():
    R = RingSpec(7, ("x", "y", "z"))
    gens = [R.poly("x^2 + y*z"), R.poly("y^2 + x*z"), R.poly("z^2 + x*y")]
    with use_guard(GuardConfig(max_steps=2)):
        with pytest.raises(ResourceLimitError):
            buchberger(gens, ring=R)
    with use_guard(GuardConfig(max_exponent=5)):
        with pytest.raises(ResourceLimitError):
            R.ideal("x^2").bracket_power(49)
    # same inputs succeed once the guard is back to default
    assert len(buchberger(gens, ring=R)) == 6
    R.ideal("x^2").bracket_power(49)


def test_guard_set_in_one_thread_is_not_seen_in_another():
    inside = threading.Event()
    release = threading.Event()
    seen = []

    def hold_small_guard():
        with use_guard(GuardConfig(max_steps=2)):
            seen.append(active_guard().max_steps)
            inside.set()
            release.wait(10)

    worker = threading.Thread(target=hold_small_guard)
    worker.start()
    try:
        assert inside.wait(10)
        assert active_guard() == GuardConfig()
    finally:
        release.set()
        worker.join(10)
    assert not worker.is_alive()
    assert seen == [2]


def test_gb_reduce_matches_normal_form():
    R = RingSpec(5, ("x", "y"))
    G = buchberger([R.poly("x^2 - y"), R.poly("y^3")], ring=R)
    f = R.poly("x^7 + x^2*y + 3")
    assert G.reduce(f) == normal_form(f, G)
    assert G.contains(f - G.reduce(f))


def _degree_counts(I):
    counts = {}
    for m in standard_monomials(I):
        counts[m.degree()] = counts.get(m.degree(), 0) + 1
    return [counts.get(k, 0) for k in range(max(counts) + 1)]


def _series(numerator, n, length):
    """The first `length` coefficients of numerator/(1 − t)^n."""
    coeffs = [numerator.get(k, 0) for k in range(length)]
    for _ in range(n):
        for k in range(1, length):
            coeffs[k] += coeffs[k - 1]
    return coeffs[:length]


@pytest.mark.parametrize("p, relation", [(2, None), (3, "x^2 + y*z"),
                                         (2, "x^3 + y^3 + z^3")])
def test_hilbert_numerator_matches_enumeration(p, relation):
    """For finite colength, K/(1−t)^n counts the standard monomials by degree."""
    rng = random.Random(p * 53 + (relation is None))
    R = RingSpec(p, ("x", "y", "z"))
    if relation:
        R = R.quotient(relation)
    for _ in range(20):
        gens = [R.poly(f"{v}^{rng.randrange(1, 6)}") for v in R.variables]
        gens += [_random_poly(rng, R, nterms=3, max_exp=3)
                 for _ in range(rng.randrange(3))]
        I = Ideal(R, tuple(gens))
        if I.is_unit():
            continue
        counts = _degree_counts(I)
        length = len(counts) + 3  # past the top degree the series is 0
        assert _series(hilbert_numerator(I), R.nvars, length) == (
            counts + [0] * 3)


def test_hilbert_numerator_unit_and_zero_ideals():
    R = RingSpec(2, ("x", "y"))
    assert hilbert_numerator(R.ideal(1)) == {}
    assert hilbert_numerator(Ideal(R, ())) == {0: 1}
    assert hilbert_numerator(R.ideal("x^2", "y^3")) == {0: 1, 2: -1, 3: -1, 5: 1}
    assert hilbert_numerator(R.ideal("x")) == {0: 1, 1: -1}


# -- the sparse numerator and the length formula against the oracles they
# replaced ------------------------------------------------------------------
#
# `_dense_numerator` is the numerator as a coefficient list (index = degree)
# and `_count_staircase` the recursive colength count, both from before every
# length was read off the sparse numerator by `lengths._length`.


def _dense_numerator(lts):
    if not lts:
        return [1]
    if any(not any(m) for m in lts):
        return [0]
    if len(lts[0]) == 1:
        return [1] + [0] * (min(m[0] for m in lts) - 1) + [-1]
    total = [1]
    prev = [1]
    for c in sorted({m[-1] for m in lts}):
        cur = _dense_numerator(list({m[:-1] for m in lts if m[-1] <= c}))
        total += [0] * (c + max(len(cur), len(prev)) - len(total))
        for k, v in enumerate(cur):
            total[c + k] += v
        for k, v in enumerate(prev):
            total[c + k] -= v
        prev = cur
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return total


def _count_staircase(lts):
    """Monomials outside a finite-colength monomial ideal: between
    consecutive last exponents lo < hi, each slice is the staircase of the
    generators with last exponent <= lo, one variable fewer."""
    if len(lts[0]) == 1:
        return min(m[0] for m in lts)
    cuts = sorted({m[-1] for m in lts})
    total = 0
    for lo, hi in zip(cuts, cuts[1:]):
        total += (hi - lo) * _count_staircase(
            list({m[:-1] for m in lts if m[-1] <= lo}))
    return total


def _finite_colength(lts, n):
    """Every variable has a pure power (the unit counts for all of them)."""
    return all(any(all(e == 0 for k, e in enumerate(m) if k != i) for m in lts)
               for i in range(n))


def _random_exponent_sets(seed, trials):
    """(n, exponent vectors) in 1-4 variables: pure powers of most
    variables, random mixed terms, repeats and multiples of earlier terms
    (non-minimal generators), now and then the unit or no term at all."""
    rng = random.Random(seed)
    for trial in range(trials):
        n = trial % 4 + 1
        lts = [tuple(rng.randrange(1, 7) if k == i else 0 for k in range(n))
               for i in range(n) if rng.random() < 0.85]
        lts += [tuple(rng.randrange(5) for _ in range(n))
                for _ in range(rng.randrange(6))]
        lts += [tuple(e + rng.randrange(2) for e in m)
                for m in rng.sample(lts, min(len(lts), 2))]
        if rng.random() < 0.05:
            lts.append((0,) * n)
        if rng.random() < 0.05:
            lts = []
        rng.shuffle(lts)
        yield n, lts


def test_sparse_numerator_matches_dense_oracle():
    kinds = set()
    for n, lts in _random_exponent_sets(7, 800):
        dense = _dense_numerator(lts)
        assert groebner._numerator(lts) == {
            d: c for d, c in enumerate(dense) if c}
        kinds.add("empty" if not lts else "unit" if dense == [0]
                  else "repeat" if len(set(lts)) < len(lts) else n)
    assert kinds == {1, 2, 3, 4, "empty", "unit", "repeat"}


def test_length_formula_matches_staircase_count():
    finite = infinite = 0
    for n, lts in _random_exponent_sets(11, 800):
        lam = _length(groebner._numerator(lts), n)
        if lts and _finite_colength(lts, n):
            assert lam == _count_staircase(lts)
            finite += 1
        else:
            assert lam == INFINITE
            infinite += 1
    assert finite > 500 and infinite > 100


def test_length_matches_staircase_count_on_bracket_powers_of_the_quadric():
    """GB(m^[3^e]) up to e = 12, far past what enumeration can visit."""
    Q = RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z")
    m = Q.ideal("x", "y", "z")
    with use_guard(GuardConfig(max_exponent=10**7)):
        for e in range(13):
            mq = m.bracket_power(3 ** e)
            assert length_quotient(mq) == _count_staircase(
                mq.groebner_basis().leading)


# -- the heap-driven kernel against the normal form it replaced --------------
#
# `_seed_reduce_full` and `_seed_s_polynomial` are the reduction and the
# S-polynomial from before the heap kernel: the largest term is found by
# re-keying every term at every step, and S-polynomials are built with two
# multiplications and a subtraction.  `_seed_buchberger` is the Buchberger
# loop around them, with the chain criterion from before the
# Gebauer-Moeller update; the reduced bases must equal its bases.
# `_gm_buchberger` is the textbook Gebauer-Moeller loop on plain lists around
# the same kernel: the guard must count the same steps as it does.

KERNEL_ORDERS = [DEGREVLEX, LEX, DEGLEX, AuxBlockOrder(DEGREVLEX)]


def _seed_reduce_full(f, reducers, order, budget):
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


def _seed_prep(polys, order):
    return [(g, g.leading_monomial(order), g.ring.field.inv(
        g.leading_coefficient(order))) for g in polys]


def _seed_s_polynomial(f, g, order):
    lmf = f.leading_monomial(order)
    lmg = g.leading_monomial(order)
    lcm = lmf.lcm(lmg)
    R, field = f.ring, f.ring.field
    sf = f * R.monomial(lcm.quotient(lmf), field.inv(f.terms[lmf]))
    sg = g * R.monomial(lcm.quotient(lmg), field.inv(g.terms[lmg]))
    return sf - sg


def _seed_buchberger(gens, order, budget):
    """Reduced GB (as term keys) by the seed's loop: product and chain
    criteria, smallest lcm first, then the seed's interreduction."""
    basis = [g.monic(order) for g in gens if not g.is_zero()]
    lead = [f.leading_monomial(order) for f in basis]
    heap, done = [], set()

    def push_pair(i, j):
        if lead[i].is_coprime(lead[j]):
            done.add((i, j))
        else:
            heapq.heappush(heap, (order.key(lead[i].lcm(lead[j])), i, j))

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)
    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) in done:
            continue
        lcm = lead[i].lcm(lead[j])
        done.add((i, j))
        if any(k not in (i, j) and lead[k].divides(lcm)
               and (min(i, k), max(i, k)) in done
               and (min(j, k), max(j, k)) in done
               for k in range(len(basis))):
            continue
        nf = _seed_reduce_full(_seed_s_polynomial(basis[i], basis[j], order),
                               _seed_prep(basis, order), order, budget)
        if nf.is_zero():
            continue
        basis.append(nf.monic(order))
        lead.append(nf.leading_monomial(order))
        for i2 in range(len(basis) - 1):
            push_pair(i2, len(basis) - 1)
    return _seed_interreduce(basis, order, budget)


def _seed_interreduce(basis, order, budget):
    """Term keys of the reduced basis: the minimal elements by lead, each
    reduced against all the others."""
    items = sorted(basis, key=lambda f: order.key(f.leading_monomial(order)))
    minimal = []
    for f in items:
        if not any(g.leading_monomial(order).divides(f.leading_monomial(order))
                   for g in minimal):
            minimal.append(f)
    prepped = _seed_prep(minimal, order)
    reduced = []
    for idx, f in enumerate(minimal):
        others = prepped[:idx] + prepped[idx + 1:]
        reduced.append(_seed_reduce_full(f, others, order, budget)
                       if others else f)
    return [f.terms_key() for f in reduced]


def _gm_update(G, B, h, lead):
    """Gebauer-Moeller UPDATE (procedure UPDATE in Becker-Weispfenning,
    Groebner Bases, 1993) on indices: G the active elements, B the pairs (i, j) with i < j, h the new
    element.  C is popped from its end, so of the new pairs with one lcm
    the pair with the oldest element stays."""
    def lcm(i, j):
        return lead[i].lcm(lead[j])

    C = [(g, h) for g in G]
    D = []
    while C:
        g1, _ = C.pop()
        if lead[g1].is_coprime(lead[h]) or not any(
                lcm(g2, h).divides(lcm(g1, h)) for g2, _ in C + D):
            D.append((g1, h))
    E = [(g, h) for g, _ in D if not lead[g].is_coprime(lead[h])]
    B = [(i, j) for i, j in B
         if not lead[h].divides(lcm(i, j))
         or lcm(i, h) == lcm(i, j) or lcm(j, h) == lcm(i, j)]
    return [g for g in G if not lead[h].divides(lead[g])] + [h], B + E


def _gm_buchberger(gens, order, budget):
    """Reduced GB (as term keys) by the textbook Gebauer-Moeller loop: the
    generators enter one by one through UPDATE, the pair with the smallest
    (lcm, i, j) is reduced next against every element in the order they
    came, and each nonzero remainder enters through UPDATE."""
    basis = [g.monic(order) for g in gens if not g.is_zero()]
    lead = [f.leading_monomial(order) for f in basis]
    G, B = [], []
    for h in range(len(basis)):
        G, B = _gm_update(G, B, h, lead)
    while B:
        i, j = min(B, key=lambda ij: (order.key(lead[ij[0]].lcm(lead[ij[1]])),
                                      ij))
        B.remove((i, j))
        nf = _seed_reduce_full(_seed_s_polynomial(basis[i], basis[j], order),
                               _seed_prep(basis, order), order, budget)
        if nf.is_zero():
            continue
        basis.append(nf.monic(order))
        lead.append(nf.leading_monomial(order))
        G, B = _gm_update(G, B, len(basis) - 1, lead)
    return _seed_interreduce(basis, order, budget)


def _nonzero_poly(rng, R, nterms, max_exp):
    f = R.zero
    while f.is_zero():
        f = _random_poly(rng, R, nterms=nterms, max_exp=max_exp)
    return f


def _kernel_case_id(value):
    return getattr(value, "name", value)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("order", KERNEL_ORDERS, ids=_kernel_case_id)
def test_heap_kernel_matches_seed_normal_form(order, p):
    rng = random.Random(1000 * p + KERNEL_ORDERS.index(order))
    R = RingSpec(p, ("t", "x", "y", "z"))
    for _ in range(40):
        gens = [_nonzero_poly(rng, R, rng.randrange(1, 5), 3).monic(order)
                for _ in range(rng.randrange(1, 5))]
        f = _random_poly(rng, R, nterms=6, max_exp=4)
        seed_budget = _Budget(GuardConfig())
        expected = _seed_reduce_full(f, _seed_prep(gens, order), order,
                                     seed_budget)
        budget = _Budget(GuardConfig())
        reducers = [_reducer(g, g.leading_monomial(order)) for g in gens]
        got = _reduce_full(dict(f.terms), reducers, order, p, budget)
        assert Polynomial(R, got) == expected
        assert budget.steps == seed_budget.steps
        # largest term first: the remainder's first term is its lead
        if got:
            assert next(iter(got)) == expected.leading_monomial(order)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("order", KERNEL_ORDERS, ids=_kernel_case_id)
def test_s_terms_match_seed_s_polynomial(order, p):
    rng = random.Random(2000 * p + KERNEL_ORDERS.index(order))
    R = RingSpec(p, ("t", "x", "y", "z"))
    for _ in range(60):
        f, g = (_nonzero_poly(rng, R, rng.randrange(1, 6), 3).monic(order)
                for _ in range(2))
        lf, lg = f.leading_monomial(order), g.leading_monomial(order)
        got = _s_terms(_reducer(f, lf), _reducer(g, lg), lf.lcm(lg), p)
        assert Polynomial(R, got) == _seed_s_polynomial(f, g, order)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("order", KERNEL_ORDERS, ids=_kernel_case_id)
def test_buchberger_matches_seed_basis_and_steps(order, p, monkeypatch):
    steps = []
    spend = _Budget.spend

    def counting(self, n=1):
        steps.append(n)
        spend(self, n)

    rng = random.Random(3000 * p + KERNEL_ORDERS.index(order))
    R = RingSpec(p, ("t", "x", "y"))
    total = 0
    for _ in range(12):
        gens = [_nonzero_poly(rng, R, rng.randrange(2, 5), 2)
                for _ in range(rng.randrange(2, 5))]
        expected = _seed_buchberger(gens, order, _Budget(GuardConfig()))
        gm_budget = _Budget(GuardConfig())
        assert _gm_buchberger(gens, order, gm_budget) == expected
        steps.clear()
        with monkeypatch.context() as patch:
            patch.setattr(groebner._Budget, "spend", counting)
            gb = groebner.buchberger_raw(gens, order, ring=R)
        assert [f.terms_key() for f in gb.polys] == expected
        assert sum(steps) == gm_budget.steps
        assert list(gb.leading) == [f.leading_monomial(order) for f in gb.polys]
        total += gm_budget.steps
    assert total >= 10  # the random ideals did make Buchberger work


def _interreduce_all(basis, lead, reducers, order, p, budget):
    """`_interreduce` without the skip: every kept element is reduced
    against all the other kept ones."""
    minimal = []
    for i in sorted(range(len(basis)), key=lambda i: order.key(lead[i])):
        if not any(lead[j].divides(lead[i]) for j in minimal):
            minimal.append(i)
    polys = []
    for i in minimal:
        others = [reducers[j] for j in minimal if j != i]
        polys.append(Polynomial(basis[i].ring, _reduce_full(
            dict(basis[i].terms), others, order, p, budget)))
    return polys, [lead[i] for i in minimal]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("order", KERNEL_ORDERS, ids=_kernel_case_id)
def test_gebauer_moeller_kernel_on_larger_ideals(order, p, monkeypatch):
    """2 to 6 binomials and trinomials in 4 variables, 16 ideals whose
    textbook run takes at most 250 steps: the reduced basis and its leads
    equal the seed loop's, the steps the textbook loop's, and the
    interreduction that skips elements with no reducible tail term returns
    what reducing every element returns, in as many steps."""
    interreduce = groebner._interreduce
    reduce_full = groebner._reduce_full
    seen = {"normal_forms": 0, "skipped": 0, "reduced": 0, "steps": 0}

    def checked(basis, lead, reducers, order, p, budget, fresh):
        before = budget.steps
        seen["normal_forms"] = 0
        polys, leads = interreduce(basis, lead, reducers, order, p, budget,
                                   fresh)
        reference = _Budget(GuardConfig())
        ref_polys, ref_leads = _interreduce_all(basis, lead, reducers, order,
                                                p, reference)
        assert polys == ref_polys and leads == ref_leads
        assert budget.steps - before == reference.steps
        seen["reduced"] += seen["normal_forms"]
        seen["skipped"] += len(polys) - seen["normal_forms"]
        seen["steps"] = budget.steps
        return polys, leads

    def counted(*args):
        seen["normal_forms"] += 1
        return reduce_full(*args)

    rng = random.Random(5000 * p + KERNEL_ORDERS.index(order))
    R = RingSpec(p, ("t", "x", "y", "z"))
    total = cases = 0
    while cases < 16:
        gens = [_nonzero_poly(rng, R, rng.randrange(2, 4), 2)
                for _ in range(rng.randrange(2, 7))]
        gm_budget = _Budget(GuardConfig(max_steps=250))
        try:  # the oracles re-key every term at every step: keep them small
            gm = _gm_buchberger(gens, order, gm_budget)
        except ResourceLimitError:
            continue
        cases += 1
        expected = _seed_buchberger(gens, order, _Budget(GuardConfig()))
        assert gm == expected
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_interreduce", checked)
            patch.setattr(groebner, "_reduce_full", counted)
            gb = groebner.buchberger_raw(gens, order, ring=R)
        assert [f.terms_key() for f in gb.polys] == expected
        assert list(gb.leading) == [f.leading_monomial(order) for f in gb.polys]
        assert seen["steps"] == gm_budget.steps
        total += gm_budget.steps
    assert total >= 30  # the random ideals did make Buchberger work
    assert seen["skipped"] and seen["reduced"]


@pytest.mark.parametrize("order", KERNEL_ORDERS, ids=_kernel_case_id)
def test_reverse_key_orders_monomials_opposite_to_key(order):
    rng = random.Random(4000 + KERNEL_ORDERS.index(order))
    monos = {Monomial(rng.randrange(4) for _ in range(4)) for _ in range(300)}
    monos |= {Monomial(m) for m in product(range(3), repeat=4)}
    monos = list(monos)
    for a in monos[:120]:
        for b in monos:
            ka, kb = order.key(a), order.key(b)
            ra, rb = order.reverse_key(a), order.reverse_key(b)
            assert (ka < kb) == (ra > rb)
            assert (ka == kb) == (ra == rb) == (a == b)
    assert (sorted(monos, key=order.reverse_key)
            == sorted(monos, key=order.key, reverse=True))


def test_gb_step_budget_is_pinned():
    """What --max-gb-steps N means: the basis below takes exactly 60 steps
    (the reductions of the pairs that survive the Gebauer-Moeller criteria,
    plus interreduction), as in the textbook loop."""
    R = RingSpec(2, ("x", "y", "z")).quotient("x^3 + y^3 + z^3")
    x, y, z = R.gens()
    gens = [x**16 + y**16, z**16]
    budget = _Budget(GuardConfig())
    _gm_buchberger(gens + list(R.relations), DEGREVLEX, budget)
    assert budget.steps == 60
    assert len(buchberger(gens, ring=R, guard=GuardConfig(max_steps=60))) == 10
    with pytest.raises(ResourceLimitError,
                       match=r"^reduction step budget exceeded \(59\)$"):
        buchberger(gens, ring=R, guard=GuardConfig(max_steps=59))
