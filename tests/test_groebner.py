"""Buchberger, reduced bases, normal forms, dimension, standard monomials."""

import heapq
import random
import threading
from itertools import product
from operator import add, le, mul, sub

import pytest

from hkspread import (
    DEGLEX,
    DEGREVLEX,
    INFINITE,
    LEX,
    GuardConfig,
    Ideal,
    InfiniteLengthError,
    ResourceLimitError,
    RingSpec,
    ideal_colon,
    krull_dimension,
    length_quotient,
    order_by_name,
    standard_monomials,
    use_guard,
)
from hkspread import groebner
from hkspread.groebner import _Budget, _reduce_full, _s_terms, active_guard
from hkspread.lengths import _length
from hkspread.orders import AuxBlockOrder, Overflow, Packing, weight_vector
from hkspread.poly import Polynomial
from tests.test_poly import _random_poly

ORDERS = [DEGREVLEX, LEX, DEGLEX]


def _strs(gb):
    return [str(f) for f in gb.polys]


def _standard(I, order=None):
    return standard_monomials(I.groebner_basis(order))


def _enumerated(I, order=None):
    return len(list(_standard(I, order)))


def test_gb_drops_redundant_generator():
    R = RingSpec(7, ("x", "y", "z"))
    x, y, z = R.gens()
    gb = R.ideal(x, x * y - z**2).groebner_basis()
    assert _strs(gb) == ["x", "z^2"]


def test_gb_of_monomial_ideal_is_minimal_generators():
    R = RingSpec(5, ("x", "y"))
    x, y = R.gens()
    gb = R.ideal(x**2, y**3, x**2 * y, x**4).groebner_basis()
    assert _strs(gb) == ["x^2", "y^3"]


def test_gb_empty_and_unit():
    R = RingSpec(2, ("x", "y"))
    gb = R.ideal().groebner_basis()
    assert gb.polys == ()
    assert gb.is_zero()
    gb = R.ideal(R.one + R.gen(0) * 0).groebner_basis()
    assert gb.is_unit()
    assert _strs(gb) == ["1"]


def test_normal_form_examples():
    R = RingSpec(5, ("x", "y"))
    x, y = R.gens()
    G = R.ideal(x).groebner_basis()
    assert G.reduce(y**2 + x) == y**2
    G2 = R.ideal(x**2 - y).groebner_basis()
    assert G2.reduce(x**3) == x * y


@pytest.mark.parametrize("order", ORDERS)
def test_normal_form_idempotent(order):
    rng = random.Random(7)
    R = RingSpec(3, ("x", "y", "z"))
    G = R.ideal("x^2 + y*z", "y^3").groebner_basis(order)
    for _ in range(20):
        f = _random_poly(rng, R, nterms=5, max_exp=4)
        r = G.reduce(f)
        assert G.reduce(r) == r


def test_membership():
    R = RingSpec(2, ("x", "y"))
    x, y = R.gens()
    I = R.ideal(x**2 + x * y, y**2)
    assert x**4 in I
    assert x not in I
    assert I.groebner_basis().contains(x**4)
    assert not I.groebner_basis().contains(x)
    # ideal closure under addition and multiplication
    f, g = x**2 + x * y, y**2
    assert f + g in I
    assert f * (x + y**3) in I


def test_reduced_basis_unique_under_permutation():
    rng = random.Random(42)
    R = RingSpec(3, ("x", "y", "z"))
    gens = [R.poly("x^2 + y*z"), R.poly("y^2 + x*z"), R.poly("z^3")]
    reference = R.ideal(*gens).groebner_basis()
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert R.ideal(*shuffled).groebner_basis() == reference


@pytest.mark.parametrize("order", ORDERS)
def test_gb_is_monic_and_sorted(order):
    R = RingSpec(5, ("x", "y"))
    gens = [R.poly("2*x^2 + y"), R.poly("3*y^3")]
    gb = R.ideal(*gens).groebner_basis(order)
    for f in gb.polys:
        assert f.leading_coefficient(order) == 1
    keys = [order.key(f.leading_monomial(order)) for f in gb.polys]
    assert keys == sorted(keys)


def test_order_kinds_disagree_where_expected():
    R = RingSpec(7, ("x", "y", "z"))
    f = R.poly("x + y^2")
    assert f.leading_monomial(LEX) == (1, 0, 0)
    assert f.leading_monomial(DEGLEX) == (0, 2, 0)
    g = R.poly("x^2*z + x*y^2")  # same degree: degrevlex vs deglex differ
    assert g.leading_monomial(DEGLEX) == (2, 0, 1)
    assert g.leading_monomial(DEGREVLEX) == (1, 2, 0)
    assert order_by_name("lex").name == "lex"
    with pytest.raises(Exception):
        order_by_name("grlex")


def test_basis_equality_includes_the_order():
    """x^2 + y^3 is its own reduced GB under LEX and under DEGREVLEX, with
    leads x^2 and y^3: the two bases differ, and so do their hashes."""
    R = RingSpec(3, ("x", "y"))
    lex, drl = (R.ideal("x^2 + y^3").groebner_basis(order)
                for order in (LEX, DEGREVLEX))
    assert lex.polys == drl.polys
    assert lex.leading == ((2, 0),)
    assert drl.leading == ((0, 3),)
    assert lex != drl
    assert hash(lex) != hash(drl)


def test_krull_dimension():
    R = RingSpec(2, ("x", "y", "z"))
    x, y, z = R.gens()
    dims = [(R.ideal(), 3), (R.ideal(x), 2), (R.ideal(x, y), 1),
            (R.ideal(x, y, z), 0), (R.ideal(1), -1),
            (R.ideal("x^2 + y*z"), 2)]   # the last is a hypersurface
    for I, dim in dims:
        assert krull_dimension(I.groebner_basis()) == dim
        assert I.dimension() == dim


def test_standard_monomials_exact_set():
    R = RingSpec(2, ("x", "y"))
    sm = set(_standard(R.ideal("x^2", "y^3")))
    assert sm == {(a, b) for a in range(2) for b in range(3)}
    assert set(_standard(R.ideal("x", "y"))) == {(0, 0)}
    assert list(_standard(R.ideal(1))) == []
    assert length_quotient(R.ideal(1)) == 0


def test_exponent_vectors_are_plain_tuples():
    """Keys from the parser, arithmetic, Frobenius powers, adoption, scaling,
    normal forms, bases and colons, and the exponents read off a basis or
    a packing, are all plain tuples."""
    R = RingSpec(3, ("x", "y", "z"))
    f, g = R.poly("x^2*y + 2*z + 1"), R.poly("y*z - x")
    I = R.ideal("x^2", "y^2", "z^2", f)
    gb = I.groebner_basis()
    polys = [f, g, f * g + f - g, -f, f**4, f.qth_power(9), f.scale(2),
             f.monic(LEX), R.adjoin_variables(("w",)).adopt(f),
             gb.reduce(f * g), *gb.polys,
             *ideal_colon(R.ideal("x*y", "z^2"), R.ideal("x")).gens]
    packing = Packing(DEGREVLEX, 3, 4)
    keys = [k for h in polys for k in h.terms] + list(gb.leading)
    keys += list(standard_monomials(gb))
    keys += [packing.monomial(packing.pack(m)) for m in f.terms]
    assert len(keys) > 40
    assert {type(k) for k in keys} == {tuple}


def test_standard_monomials_binomial_count():
    R = RingSpec(2, ("x", "y"))
    assert _enumerated(R.ideal("x^2 + y", "y^3")) == 6


def test_standard_monomials_infinite():
    R = RingSpec(2, ("x", "y"))
    with pytest.raises(InfiniteLengthError):
        _standard(R.ideal("x"))
    assert not length_quotient(R.ideal("x")).is_finite


@pytest.mark.parametrize("order", ORDERS)
def test_standard_monomial_count_order_invariant(order):
    R = RingSpec(3, ("x", "y"))
    I = R.ideal("x^2 + y^2", "x*y^2", "y^4")
    assert _enumerated(I, order) == _enumerated(I)


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
            list(_standard(I))
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
            R.ideal(*gens).groebner_basis()
    with use_guard(GuardConfig(max_exponent=5)):
        with pytest.raises(ResourceLimitError):
            R.ideal("x^2").bracket_power(49)
    # same inputs succeed once the guard is back to default
    assert len(R.ideal(*gens).groebner_basis()) == 6
    R.ideal("x^2").bracket_power(49)


def test_guard_defaults_and_immutability():
    assert GuardConfig()._fields == ("max_steps", "max_exponent")
    assert GuardConfig() == (500_000, 100_000)
    assert active_guard() == GuardConfig()
    with use_guard(GuardConfig(max_steps=5)) as set_guard:
        assert active_guard() is set_guard
    assert active_guard() == GuardConfig()
    assert groebner._MAX_BASIS == 1_000   # a fixed cap, not a budget
    guard = GuardConfig(max_steps=5)
    with pytest.raises(AttributeError):
        guard.max_steps = 6
    assert guard.max_steps == 5


def test_exact_division_spends_from_the_step_budget():
    """Each quotient term is one reduction step of h against g, so the
    division's work, which grows with q in the colon diagnostics, is
    metered like every other reduction."""
    R = RingSpec(3, ("x", "y", "z"))
    f = R.poly("x^3 + x*y*z - y^2*z + 2*z^3 + x^2*y - y*z^2")
    g = R.poly("x + y")
    assert len(f.terms) == 6
    assert groebner.exact_quotient(g * f, g) == f
    with use_guard(GuardConfig(max_steps=6)):
        assert groebner.exact_quotient(g * f, g) == f
    with use_guard(GuardConfig(max_steps=2)), pytest.raises(
            ResourceLimitError,
            match=r"^exact division step budget exceeded \(2\)$"):
        groebner.exact_quotient(g * f, g)


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
    G = R.ideal("x^2 - y", "y^3").groebner_basis()
    f = R.poly("x^7 + x^2*y + 3")
    # x^7 = x·(x^2)^3 -> x·y^3 -> 0 and x^2·y -> y^2
    assert G.reduce(f) == R.poly("y^2 + 3")
    assert G.contains(f - G.reduce(f))
    assert not G.contains(f)


def _degree_counts(I):
    counts = {}
    for m in _standard(I):
        counts[sum(m)] = counts.get(sum(m), 0) + 1
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
        assert _series(I.groebner_basis().numerator(), R.nvars, length) == (
            counts + [0] * 3)


def test_hilbert_numerator_unit_and_zero_ideals():
    R = RingSpec(2, ("x", "y"))
    def numerator(I):
        return I.groebner_basis().numerator()

    assert numerator(R.ideal(1)) == {}
    assert numerator(Ideal(R, ())) == {0: 1}
    assert numerator(R.ideal("x^2", "y^3")) == {0: 1, 2: -1, 3: -1, 5: 1}
    assert numerator(R.ideal("x")) == {0: 1, 1: -1}


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


def _subset_dimension(lts, n):
    """The dimension of k[x_1..x_n]/(monomials lts): the size of the
    largest set of variables that contains the support of no monomial,
    found by trying every subset; the unit gives -1."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lts]
    if frozenset() in supports:
        return -1
    best = -1
    for mask in range(1 << n):
        subset = {i for i in range(n) if mask >> i & 1}
        if len(subset) > best and not any(s <= subset for s in supports):
            best = len(subset)
    return best


def _random_exponent_sets(seed, trials, max_vars=4):
    """(n, exponent vectors) in 1..max_vars variables: pure powers of most
    variables, random mixed terms, repeats and multiples of earlier terms
    (non-minimal generators), now and then the unit or no term at all."""
    rng = random.Random(seed)
    for trial in range(trials):
        n = trial % max_vars + 1
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


def test_dimension_from_numerator_matches_subset_search():
    """Monomial ideals in 1-5 variables, of every dimension from -1 (the
    unit) to 5 (no generator): the pole order read off the numerator
    equals the largest subset of variables meeting no support."""
    dims = set()
    for n, lts in _random_exponent_sets(13, 400, max_vars=5):
        R = RingSpec(2, tuple(f"x{i}" for i in range(n)))
        ideal = R.ideal(*[R.monomial(m) for m in lts])
        dim = _subset_dimension(lts, n)
        assert krull_dimension(ideal.groebner_basis()) == dim
        dims.add(dim)
    assert dims == set(range(-1, 6))


@pytest.mark.parametrize("p, variables, relation, dim", [
    (2, "x y", "x*y", 1),
    (3, "x y z", "x^2 + y*z", 2),
    (2, "x y z w", "x*y + z*w", 3),
])
def test_dimension_of_quotient_rings(p, variables, relation, dim):
    R = RingSpec(p, tuple(variables.split())).quotient(relation)
    lts = list(R.ideal().groebner_basis().leading)
    assert krull_dimension(R.relation_basis()) == dim
    assert R.ideal().dimension() == _subset_dimension(lts, R.nvars) == dim
    assert R.dimension == dim


def test_length_matches_staircase_count_on_bracket_powers_of_the_quadric():
    """GB(m^[3^e]) up to e = 12, far past what enumeration can visit."""
    Q = RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z")
    m = Q.ideal("x", "y", "z")
    with use_guard(GuardConfig(max_exponent=10**7)):
        for e in range(13):
            mq = m.bracket_power(3 ** e)
            assert length_quotient(mq) == _count_staircase(
                mq.groebner_basis().leading)


# -- the packed kernel against the kernels it replaced ------------------------
#
# `_seed_reduce_full` and `_seed_s_polynomial` are the reduction and the
# S-polynomial from before the heap kernel: the largest term is found by
# re-keying every term at every step, and S-polynomials are built with two
# multiplications and a subtraction.  `_seed_buchberger` is the Buchberger
# loop around them, with the chain criterion from before the
# Gebauer-Moeller update; the reduced bases must equal its bases.
# `_gm_buchberger` is the textbook Gebauer-Moeller loop on plain lists around
# the same kernel: the guard must count the same steps as it does.  They
# do their arithmetic on exponent tuples with the functions below.

KERNEL_ORDERS = [DEGREVLEX, LEX, DEGLEX, AuxBlockOrder(DEGREVLEX)]


def _mul(a, b):
    return tuple(map(add, a, b))


def _divides(a, b):
    return all(map(le, a, b))


def _quotient(a, b):
    """a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _is_coprime(a, b):
    return not any(map(mul, a, b))


def _seed_reduce_full(f, reducers, order, budget):
    """Full normal form of f against reducers [(poly, lm, 1/lc), ...]."""
    terms = dict(f.terms)
    p = f.ring.characteristic
    remainder = {}
    while terms:
        lm = max(terms, key=order.key)
        c = terms[lm]
        for g, glm, glc_inv in reducers:
            if _divides(glm, lm):
                budget.spend()
                fac_mono = _quotient(lm, glm)
                fac_c = (c * glc_inv) % p
                for m2, c2 in g.terms.items():
                    m = _mul(m2, fac_mono)
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
    return [(g, g.leading_monomial(order), pow(
        g.leading_coefficient(order), -1, g.ring.characteristic)) for g in polys]


def _seed_s_polynomial(f, g, order):
    lmf = f.leading_monomial(order)
    lmg = g.leading_monomial(order)
    lcm = _lcm(lmf, lmg)
    R, p = f.ring, f.ring.characteristic
    sf = f * R.monomial(_quotient(lcm, lmf), pow(f.terms[lmf], -1, p))
    sg = g * R.monomial(_quotient(lcm, lmg), pow(g.terms[lmg], -1, p))
    return sf - sg


def _seed_buchberger(gens, order, budget):
    """Reduced GB (as term keys) by the seed's loop: product and chain
    criteria, smallest lcm first, then the seed's interreduction."""
    basis = [g.monic(order) for g in gens if not g.is_zero()]
    lead = [f.leading_monomial(order) for f in basis]
    heap, done = [], set()

    def push_pair(i, j):
        if _is_coprime(lead[i], lead[j]):
            done.add((i, j))
        else:
            heapq.heappush(heap, (order.key(_lcm(lead[i], lead[j])), i, j))

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)
    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) in done:
            continue
        lcm = _lcm(lead[i], lead[j])
        done.add((i, j))
        if any(k not in (i, j) and _divides(lead[k], lcm)
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
        if not any(_divides(g.leading_monomial(order), f.leading_monomial(order))
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
        return _lcm(lead[i], lead[j])

    C = [(g, h) for g in G]
    D = []
    while C:
        g1, _ = C.pop()
        if _is_coprime(lead[g1], lead[h]) or not any(
                _divides(lcm(g2, h), lcm(g1, h)) for g2, _ in C + D):
            D.append((g1, h))
    E = [(g, h) for g, _ in D if not _is_coprime(lead[g], lead[h])]
    B = [(i, j) for i, j in B
         if not _divides(lead[h], lcm(i, j))
         or lcm(i, h) == lcm(i, j) or lcm(j, h) == lcm(i, j)]
    return [g for g in G if not _divides(lead[h], lead[g])] + [h], B + E


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
        i, j = min(B, key=lambda ij: (order.key(_lcm(lead[ij[0]], lead[ij[1]])),
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


def _packed(order, n, e, run):
    """(packing, run(packing)) through the kernel's widening loop."""
    return groebner._widened(order, n, e,
                             lambda packing, budget: (packing, run(packing)))


def _entry(packing, f, order):
    return packing.reducer(packing.terms(f), packing.pack(f.leading_monomial(order)))


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

        def run(packing):
            budget.steps = 0
            return _reduce_full(packing.terms(f),
                                [_entry(packing, g, order) for g in gens],
                                packing, p, budget.spend)

        e = max(g.max_exponent() for g in gens + [f])
        packing, got = _packed(order, 4, e, run)
        assert packing.polynomial(R, got.items()) == expected
        assert budget.steps == seed_budget.steps
        # largest term first: the remainder's first term is its lead
        if got:
            assert packing.monomial(next(iter(got))) == expected.leading_monomial(order)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("order", KERNEL_ORDERS, ids=_kernel_case_id)
def test_s_terms_match_seed_s_polynomial(order, p):
    rng = random.Random(2000 * p + KERNEL_ORDERS.index(order))
    R = RingSpec(p, ("t", "x", "y", "z"))
    for _ in range(60):
        f, g = (_nonzero_poly(rng, R, rng.randrange(1, 6), 3).monic(order)
                for _ in range(2))
        lf, lg = f.leading_monomial(order), g.leading_monomial(order)
        expected = _seed_s_polynomial(f, g, order)

        def run(packing):
            ef, eg = _entry(packing, f, order), _entry(packing, g, order)
            lcm = packing.pack(_lcm(lf, lg))
            assert packing.lcms(ef[0], [eg[0], ef[0]]) == [
                lcm & packing.low, ef[0] & packing.low]
            return _s_terms(ef, eg, lcm, packing, p)

        e = max(f.max_exponent(), g.max_exponent())
        packing, got = _packed(order, 4, e, run)
        assert packing.polynomial(R, got.items()) == expected


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


def _interreduce_all(reducers, order, packing, p, spend):
    """`_interreduce` without the skip: every kept element is reduced
    against all the other kept ones; leads compared as tuples."""
    lead = [packing.monomial(r[0]) for r in reducers]
    minimal = []
    for i in sorted(range(len(lead)), key=lambda i: order.key(lead[i])):
        if not any(_divides(lead[j], lead[i]) for j in minimal):
            minimal.append(i)
    return [_reduce_full(dict([(reducers[i][0], 1)] + reducers[i][2]),
                         [reducers[j] for j in minimal if j != i],
                         packing, p, spend) for i in minimal]


def _as_polys(R, packing, entries):
    return [packing.polynomial(R, [(e[0], 1)] + e[2]) for e in entries]


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

    def checked(reducers, packing, p, spend, fresh):
        budget = spend.__self__
        before = budget.steps
        seen["normal_forms"] = 0
        entries = interreduce(reducers, packing, p, spend, fresh)
        reference = _Budget(GuardConfig())
        ref = _interreduce_all(reducers, order, packing, p, reference.spend)
        assert _as_polys(R, packing, entries) == [
            packing.polynomial(R, nf.items()) for nf in ref]
        assert [e[0] for e in entries] == [next(iter(nf)) for nf in ref]
        assert budget.steps - before == reference.steps
        seen["reduced"] += seen["normal_forms"]
        seen["skipped"] += len(entries) - seen["normal_forms"]
        seen["steps"] = budget.steps
        return entries

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


def test_s_terms_overflow_on_either_side():
    """In 2-bit fields (exponents up to 3), S(xz + z, y + z^3) under LEX
    needs x·y·z^4 on the second side only: either argument order raises,
    and 3-bit fields give the seed S-polynomial."""
    R = RingSpec(3, ("x", "y", "z"))
    f, g = R.poly("x*z + z"), R.poly("y + z^3")
    lcm = (1, 1, 1)
    narrow, wide = Packing(LEX, 3, 2), Packing(LEX, 3, 3)
    for a, b in ((f, g), (g, f)):
        with pytest.raises(Overflow):
            _s_terms(_entry(narrow, a, LEX), _entry(narrow, b, LEX),
                     narrow.pack(lcm), narrow, 3)
        got = _s_terms(_entry(wide, a, LEX), _entry(wide, b, LEX),
                       wide.pack(lcm), wide, 3)
        assert wide.polynomial(R, got.items()) == _seed_s_polynomial(a, b, LEX)


@pytest.mark.parametrize("order, gens", [
    (AuxBlockOrder(DEGREVLEX), ["t^16 + y", "t - x^16"]),
    (LEX, ["2*t^3*x^3 + 2*x^2", "2*t^4*y^4 + t^2*x^2*y^2",
           "t^4*x^5*y^4 + t^4*y^3"]),
], ids=["eliminate-t", "lex"])
def test_intermediate_exponents_past_the_packed_width(order, gens, monkeypatch):
    """Eliminating t with t − x^16 carries x^16 up to x^256 while reducing
    t^16 + y, past the fields that the generators' exponents call for (the
    lex ideal overflows as well): the run overflows once, is redone twice
    as wide, and returns the oracles' basis and steps.  Both attempts
    spend from one budget, so the steps of the first stay spent.  Under a
    cap below 256 the new element x^256 + y is refused instead."""
    R = RingSpec(3, ("t", "x", "y"))
    gens = [R.poly(g) for g in gens]
    widths, starts = [], []
    packing = groebner.packing_for

    def recording(order, n, width):   # called once per attempt
        widths.append(width)
        starts.append(len(steps))
        return packing(order, n, width)

    budget = _Budget(GuardConfig())
    expected = _gm_buchberger(gens, order, budget)
    assert expected == _seed_buchberger(gens, order, _Budget(GuardConfig()))
    steps = []
    spend = _Budget.spend

    def counting(self, n=1):
        steps.append(self)
        spend(self, n)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "packing_for", recording)
        patch.setattr(_Budget, "spend", counting)
        gb = groebner.buchberger_raw(gens, order, ring=R)
    assert len(widths) == 2 and widths[1] == 2 * widths[0]
    assert [f.terms_key() for f in gb.polys] == expected
    used = steps[-1]
    assert len(steps) - starts[-1] == budget.steps   # the last attempt's
    assert set(steps) == {used} and used.steps == len(steps) > budget.steps
    if order != LEX:
        assert str(gb.polys[0]) == "x^256 + y"
        with use_guard(GuardConfig(max_exponent=255)), pytest.raises(
                ResourceLimitError,
                match=r"^reduction exponent exceeds cap \(255\)$"):
            groebner.buchberger_raw(gens, order, ring=R)


def test_basis_size_cap_names_its_layer(monkeypatch):
    """The basis of (x^2 + y, xy) has a third element, y^2, which passes a
    cap of two: the error names the layer, as the step budget's does."""
    R = RingSpec(3, ("x", "y"))
    gens = R.ideal("x^2 + y", "x*y").gens
    assert len(groebner.buchberger_raw(gens, ring=R).polys) == 3
    monkeypatch.setattr(groebner, "_MAX_BASIS", 2)
    with pytest.raises(ResourceLimitError,
                       match=r"^reduction basis size budget exceeded \(2\)$"):
        groebner.buchberger_raw(gens, ring=R)


def test_kernel_started_without_headroom_matches_the_oracles(monkeypatch):
    """Every packed computation starts as narrow as its inputs allow, with
    no headroom, so many products overflow and are redone wider: bases and
    steps of Buchberger, normal forms of `GroebnerBasis.reduce` and exact
    quotients still equal the oracles' in all four orders."""
    widened = groebner._widened
    runs = {"calls": 0, "attempts": 0}
    last = {}   # the budget of the last attempt and its steps before it

    def narrow(order, n, e, run, layer="reduction", width=0):
        def counted(packing, budget):
            runs["attempts"] += 1
            last.update(budget=budget, before=budget.steps)
            return run(packing, budget)
        runs["calls"] += 1
        return widened(order, n, 0, counted, layer, max(width, e.bit_length()))

    monkeypatch.setattr(groebner, "_widened", narrow)
    rng = random.Random(6000)
    cases = 0
    while cases < 24:
        order = KERNEL_ORDERS[cases % 4]
        R = RingSpec((2, 3, 5)[cases % 3], ("t", "x", "y"))
        gens = [_nonzero_poly(rng, R, rng.randrange(2, 4), 3)
                for _ in range(rng.randrange(2, 4))]
        gm_budget = _Budget(GuardConfig(max_steps=250))
        try:
            expected = _gm_buchberger(gens, order, gm_budget)
        except ResourceLimitError:
            continue
        cases += 1
        gb = groebner.buchberger_raw(gens, order, ring=R)
        assert last["budget"].steps - last["before"] == gm_budget.steps
        assert [f.terms_key() for f in gb.polys] == expected
        assert list(gb.leading) == [f.leading_monomial(order) for f in gb.polys]
        f = _random_poly(rng, R, nterms=5, max_exp=5)
        assert gb.reduce(f) == _seed_reduce_full(
            f, _seed_prep(gb.polys, order), order, _Budget(GuardConfig()))
        assert groebner.exact_quotient(f * gens[0], gens[0]) == f
    assert runs["attempts"] - runs["calls"] >= 10   # runs redone wider


def _interreduce_tail_first(reducers, packing, p, spend, fresh):
    """`_interreduce` as it was before it tested each element's `top`:
    every tail term against every smaller kept lead."""
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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_top_first_interreduce_matches_tail_first_rule(p, monkeypatch):
    """On the bases of random Buchberger runs in every kernel order and of
    random colons (whose quotients are interreduced with no pair phase),
    testing `top` first keeps the same entries and takes the same steps
    as testing every tail term."""
    interreduce = groebner._interreduce
    seen = {"calls": 0, "reduced": 0}

    def checked(reducers, packing, p, spend, fresh):
        budget = spend.__self__
        before = budget.steps
        entries = interreduce(reducers, packing, p, spend, fresh)
        reference = _Budget(GuardConfig())
        assert entries == _interreduce_tail_first(
            reducers, packing, p, reference.spend, fresh)
        assert budget.steps - before == reference.steps
        seen["calls"] += 1
        seen["reduced"] += reference.steps > 0
        return entries

    monkeypatch.setattr(groebner, "_interreduce", checked)
    rng = random.Random(7000 + p)
    R = RingSpec(p, ("t", "x", "y", "z"))
    Q = RingSpec(p, ("x", "y", "z")).quotient("x*y + z^2")
    for case in range(24):
        gens = [_nonzero_poly(rng, R, rng.randrange(2, 4), 2)
                for _ in range(rng.randrange(2, 5))]
        with use_guard(GuardConfig(max_steps=400)):
            try:
                groebner.buchberger_raw(gens, KERNEL_ORDERS[case % 4], ring=R)
                ideal_colon(
                    Q.ideal(*[_nonzero_poly(rng, Q, 3, 2) for _ in range(2)]),
                    Q.ideal(_nonzero_poly(rng, Q, 2, 1)))
            except ResourceLimitError:
                continue
    assert seen["calls"] >= 40 and seen["reduced"] >= 5


def _budget_entry(name):
    """(call, layer, steps of its last attempt): a fresh kernel call through
    the entry `name`, whose first attempt overflows when started with no
    headroom, except an exact division's, which never overflows at a width
    that holds its operands (a quotient's exponents are at most theirs).
    Fresh, as a basis keeps the widest packing its normal forms took."""
    R = RingSpec(3, ("z", "w", "x", "y"))
    z, w, x, y = R.gens()   # x - y leads with x
    T = RingSpec(3, ("t", "x", "y"))
    gens, order = [T.poly("t^16 + y"), T.poly("t - x^16")], AuxBlockOrder(DEGREVLEX)
    oracle = _Budget(GuardConfig())
    _gm_buchberger(gens, order, oracle)
    return {
        "buchberger": (lambda: groebner.buchberger_raw(gens, order, ring=T),
                       "reduction", oracle.steps),
        # x^15·y^15 -> ... -> y^30, past 4-bit fields
        "reduce": (lambda: groebner.buchberger_raw([x - y], ring=R).reduce(
            x**15 * y**15), "reduction", 15),
        "exact_quotient": (lambda: groebner.exact_quotient(x**8 - y**8, x - y),
                           "exact division", 8),
        # the tail x^8·y^8 reduces to y^16, past 4-bit fields
        "reduced_basis": (lambda: groebner.reduced_basis(
            [x - y, z**8 * w**8 - x**8 * y**8], R), "reduction", 8),
    }[name]


@pytest.mark.parametrize("name", ["buchberger", "reduce", "exact_quotient",
                                  "reduced_basis"])
def test_step_budget_spans_the_widened_reruns(name, monkeypatch):
    """Started with no headroom, each kernel entry but exact division
    overflows and is redone wider; every attempt spends from the call's
    one budget, so a cap of the summed steps suffices and one step less
    raises with the entry's layer name, although the last attempt alone
    takes fewer.  A budget of --max-gb-steps N bounds the whole of one
    kernel call, whatever its reruns."""
    widened = groebner._widened
    calls = []   # per kernel call, (budget, steps before) per attempt

    def narrow(order, n, e, run, layer="reduction", width=0):
        attempts = []
        calls.append(attempts)

        def counted(packing, budget):
            attempts.append((budget, budget.steps))
            return run(packing, budget)
        return widened(order, n, 0, counted, layer, max(width, e.bit_length()))

    monkeypatch.setattr(groebner, "_widened", narrow)
    call, layer, last_steps = _budget_entry(name)
    result = call()
    attempts = calls[-1]
    budget, before = attempts[-1]
    total = budget.steps
    assert budget.layer == layer and total - before == last_steps
    assert {b for b, _ in attempts} == {budget}
    if name == "exact_quotient":
        assert len(attempts) == 1
    else:
        assert len(attempts) >= 2 and total > last_steps
    with use_guard(GuardConfig(max_steps=total)):
        assert call() == result
    with use_guard(GuardConfig(max_steps=total - 1)), pytest.raises(
            ResourceLimitError,
            match=rf"^{layer} step budget exceeded \({total - 1}\)$"):
        call()


def test_widening_stops_at_the_width_the_step_budget_can_fill():
    """A run that overflows at every width is not widened forever: past
    ((max_steps + 2)·max(2^w0, max_exponent)).bit_length() bits, 36 under
    the default guard, the call raises with its layer and step budget."""
    widths = []

    def run(packing, budget):
        widths.append(packing.width)
        raise Overflow

    with pytest.raises(ResourceLimitError,
                       match=r"^colon overflowed a 48-bit packing, wider than "
                             r"the step budget \(500000\) can fill$"):
        groebner._widened(DEGREVLEX, 1, 8, run, "colon")
    assert widths == [6, 12, 24, 48]
    widths.clear()
    with use_guard(GuardConfig(max_steps=10**9, max_exponent=10**9)), \
            pytest.raises(ResourceLimitError):
        groebner._widened(DEGREVLEX, 3, 8, run)
    assert widths == [7, 14, 28, 56, 112]   # limit 60 bits


# The textbook sort keys, which the orders' matrices replaced: the oracle
# for `order.key`, which (like `Packing` and `weight_vector`) reads rows.

def _lex_key(exps):
    return tuple(exps)


def _deglex_key(exps):
    return (sum(exps), tuple(exps))


def _degrevlex_key(exps):
    return (sum(exps), tuple([-e for e in reversed(exps)]))


def _block_key(inner):
    return lambda exps: (exps[0], inner(exps[1:]))


TEXTBOOK_KEYS = {"lex": _lex_key, "deglex": _deglex_key,
                 "degrevlex": _degrevlex_key,
                 "eliminate-first+degrevlex": _block_key(_degrevlex_key)}


@pytest.mark.parametrize("order", KERNEL_ORDERS, ids=_kernel_case_id)
def test_order_key_sorts_like_textbook_key(order):
    """Random exponents up to 10^6 in 1-5 variables, each with copies of
    the same degree (a unit moved between two variables, the exponents
    permuted): the matrix key sorts them as the textbook key does."""
    rng = random.Random(5000 + KERNEL_ORDERS.index(order))
    for n in range(1, 6):
        monos = set()
        for _ in range(200):
            m = [rng.randrange(10**6 + 1) for _ in range(n)]
            monos.add(tuple(m))
            i, j = rng.randrange(n), rng.randrange(n)
            if m[i]:
                m[i] -= 1
                m[j] += 1
                monos.add(tuple(m))
            rng.shuffle(m)
            monos.add(tuple(m))
        monos |= set(product(range(3), repeat=n))
        assert (sorted(monos, key=order.key)
                == sorted(monos, key=TEXTBOOK_KEYS[order.name]))


@pytest.mark.parametrize("order", KERNEL_ORDERS, ids=_kernel_case_id)
def test_packed_key_orders_monomials_like_key(order):
    """At each width, the packed int sorts exponent vectors exactly like
    `order.key` (largest monomial = smallest int), and so does the
    weight vector; the guard-bit divisibility, lcm and quotient agree
    with the tuples, and a product overflows iff an exponent passes 2^W."""
    rng = random.Random(4000 + KERNEL_ORDERS.index(order))
    for width in (2, 5, 13):
        top = (1 << width) - 1
        monos = {tuple(rng.randrange(top + 1) for _ in range(4))
                 for _ in range(300)}
        monos |= set(product((0, 1, top), repeat=4))
        monos = list(monos)
        packing = Packing(order, 4, width)
        weights = weight_vector(order, 4, 4 << width)
        by_key = sorted(monos, key=order.key)
        assert sorted(monos, key=lambda m: -packing.pack(m)) == by_key
        assert sorted(monos, key=lambda m: sum(map(mul, weights, m))) == by_key
        assert [packing.monomial(packing.pack(m)) for m in monos] == monos
        g = packing.guard
        for a in monos[:60]:
            pa = packing.pack(a)
            lcms = packing.lcms(pa, [packing.pack(b) for b in monos[:60]])
            assert [packing.monomial(m) for m in lcms] == [
                _lcm(a, b) for b in monos[:60]]
            for b in monos[:60]:
                pb = packing.pack(b)
                assert (((pb | g) - pa) & g == g) == _divides(a, b)
                if _divides(a, b):
                    assert pb - pa == packing.pack(_quotient(b, a))
                if max(_mul(a, b)) > top:
                    assert (pa + pb) & g
                else:
                    assert not (pa + pb) & g
                    assert pa + pb == packing.pack(_mul(a, b))


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
    with use_guard(GuardConfig(max_steps=60)):
        assert len(R.ideal(*gens).groebner_basis()) == 10
    with use_guard(GuardConfig(max_steps=59)), pytest.raises(
            ResourceLimitError,
            match=r"^reduction step budget exceeded \(59\)$"):
        R.ideal(*gens).groebner_basis()
