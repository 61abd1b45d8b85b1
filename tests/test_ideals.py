"""Ideal algebra: sums, products, bracket powers, colons, intersections."""

import random
from functools import reduce

import pytest

from hkspread import (
    DEGREVLEX,
    LEX,
    AlgebraError,
    GuardConfig,
    HomogeneityError,
    Ideal,
    PreconditionError,
    ResourceLimitError,
    RingMismatchError,
    RingSpec,
    ideal_colon,
    ideal_intersection,
    length_quotient,
    maximal_ideal,
    min_gens,
    use_guard,
)

from hkspread import groebner
from hkspread.groebner import (
    GroebnerBasis,
    basis_memo,
    buchberger_raw,
    exact_quotient,
    reduced_basis,
)
from hkspread.poly import Polynomial
from tests.test_groebner import _divides, _quotient
from tests.test_poly import _random_poly


def _r2():
    return RingSpec(2, ("x", "y"))


def test_sum_and_product():
    R = _r2()
    x, y = R.gens()
    m = maximal_ideal(R)
    assert R.ideal(x**2) + R.ideal(y) == R.ideal(x**2, y)
    assert m * R.ideal(x**2, y**2) == m * m * m
    assert m + R.ideal() == m
    assert R.ideal() * m == R.ideal()


def test_equality_is_by_groebner_basis():
    R = _r2()
    x, y = R.gens()
    assert R.ideal(x, y) == R.ideal(x + y, y)
    assert R.ideal(x, y) != R.ideal(x)
    assert R.ideal(x, x**2, x * y) == R.ideal(x)


def test_bracket_power_examples():
    R = _r2()
    x, y = R.gens()
    I = R.ideal(x + y, y)
    assert I.bracket_power(2) == R.ideal(x**2, y**2)
    assert I.bracket_power(1) == I
    assert R.ideal(x**2, y**3).bracket_power(4) == R.ideal(x**8, y**12)


def test_bracket_power_generating_set_independent():
    rng = random.Random(99)
    R = RingSpec(3, ("x", "y"))
    x, y = R.gens()
    base = [x**2 + y**2, x * y, y**3]
    I = R.ideal(*base)
    # redundant generators must not change I^[q]
    J = R.ideal(*(base + [base[0] * x + base[2], base[1] * (1 + y)]))
    for q in (3, 9):
        assert I.bracket_power(q) == J.bracket_power(q)


def test_bracket_power_distributes_over_sum_and_product():
    R = RingSpec(3, ("x", "y"))
    x, y = R.gens()
    I = R.ideal(x**2 + y**2, y**3)
    J = R.ideal(x * y, y**2)
    q = 9
    assert (I + J).bracket_power(q) == I.bracket_power(q) + J.bracket_power(q)
    assert (I * J).bracket_power(q) == I.bracket_power(q) * J.bracket_power(q)


def test_colon_examples():
    R = _r2()
    x, y = R.gens()
    m = maximal_ideal(R)
    assert ideal_colon(R.ideal(x**2 * y), R.ideal(y)) == R.ideal(x**2)
    assert ideal_colon(R.ideal(x), R.ideal(x)) == R.ideal(1)
    assert ideal_colon(m * m * m, R.ideal(x**2)) == R.ideal(x, y)
    assert ideal_colon(R.ideal(x**8, y**8),
                       R.ideal((x * y) ** 4)) == R.ideal(x**4, y**4)
    # zero generators are dropped at construction: colon by (0) is the
    # unit ideal, never a division error
    assert ideal_colon(R.ideal(x), R.ideal()) == R.ideal(1)
    assert ideal_colon(R.ideal(x), Ideal(R, (R.zero,))) == R.ideal(1)


def _monomial_colon_oracle(ring, gens, divisors):
    """(gens) : (divisors) for monomial ideals via per-generator division."""
    def colon_single(u):
        out = []
        for g in gens:
            gcd = tuple(min(a, b) for a, b in zip(g, u))
            out.append(ring.monomial(_quotient(g, gcd)))
        return Ideal(ring, tuple(out))

    result = colon_single(divisors[0])
    for u in divisors[1:]:
        result = ideal_intersection(result, colon_single(u))
    return result


@pytest.mark.parametrize("seed", range(8))
def test_colon_matches_monomial_oracle(seed):
    rng = random.Random(2000 + seed)
    R = _r2()
    gens = [(rng.randrange(5), rng.randrange(5)) for _ in range(3)]
    divisors = [(rng.randrange(3), rng.randrange(3)) for _ in range(2)]
    I = Ideal(R, tuple(R.monomial(g) for g in gens))
    J = Ideal(R, tuple(R.monomial(u) for u in divisors))
    assert ideal_colon(I, J) == _monomial_colon_oracle(R, gens, divisors)


def test_intersection_examples():
    R = _r2()
    x, y = R.gens()
    assert ideal_intersection(R.ideal(x), R.ideal(y)) == R.ideal(x * y)
    I = R.ideal(x**2, y)
    assert ideal_intersection(I, I) == I
    assert ideal_intersection(I, R.ideal(x)) == R.ideal(x**2, x * y)


def test_colon_and_intersection_in_quotient_ring():
    Q = RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z")
    x, y, z = Q.gens()
    # x*x = -y*z lies in (y), so x belongs to ((y) : x) in the quotient
    col = ideal_colon(Q.ideal(y), Q.ideal(x))
    assert x in col
    assert col == Q.ideal(x, y)
    # (0) : x in F_2[x,y]/(x*y) is (y)
    Q2 = RingSpec(2, ("x", "y")).quotient("x*y")
    x2, y2 = Q2.gens()
    assert ideal_colon(Q2.ideal(), Q2.ideal(x2)) == Q2.ideal(y2)
    assert ideal_intersection(Q2.ideal(x2), Q2.ideal(y2)) == Q2.ideal()


def test_colon_undoes_product():
    rng = random.Random(31)
    R = RingSpec(5, ("x", "y"))
    from tests.test_poly import _random_poly

    for _ in range(10):
        g = _random_poly(rng, R, nterms=2, max_exp=2)
        if g.is_zero():
            continue
        I = R.ideal("x^3", "x*y", "y^4")
        prod = Ideal(R, tuple(f * g for f in I.gens))
        assert ideal_colon(prod, R.ideal(g)) == I


def _random_homogeneous(rng, ring, degree, nterms):
    terms = {}
    for _ in range(nterms):
        exps = [0] * ring.nvars
        for _ in range(degree):
            exps[rng.randrange(ring.nvars)] += 1
        terms[tuple(exps)] = rng.randrange(1, ring.characteristic)
    return Polynomial(ring, terms)


def _random_gens(rng, ring, count, homogeneous):
    gens = []
    while len(gens) < count:
        f = (_random_homogeneous(rng, ring, rng.randrange(1, 4), rng.randrange(1, 4))
             if homogeneous else
             _random_poly(rng, ring, nterms=rng.randrange(1, 4), max_exp=2))
        if not f.is_zero():
            gens.append(f)
    return gens


_SEEDED_RINGS = [RingSpec(p, names).quotient(rel) for p in (2, 3, 5)
                 for names, rel in ((("x", "y"), "x^2 + x*y"),
                                    (("x", "y", "z"), "x*y + z^2"),
                                    (("x", "y", "z", "w"), "x*y + z*w"))]


@pytest.mark.parametrize("ring", _SEEDED_RINGS, ids=str)
def test_colon_and_intersection_bases_equal_buchberger(ring):
    """The DEGREVLEX GBs that colons and intersections read off their
    elimination (no pair phase) are what Buchberger returns on the
    result's generators plus the relations, on random homogeneous and
    inhomogeneous ideals; they reduce and test membership alike."""
    rng = random.Random(1300 + 10 * ring.characteristic + ring.nvars)
    cases = 0
    for case in range(16):
        homogeneous = case % 2 == 0
        I = Ideal(ring, tuple(_random_gens(rng, ring, rng.randrange(1, 4), homogeneous)))
        J = Ideal(ring, tuple(_random_gens(rng, ring, rng.randrange(1, 3), homogeneous)))
        try:
            with use_guard(GuardConfig(max_steps=3000)):
                results = [ideal_colon(I, J), ideal_intersection(I, J)]
        except ResourceLimitError:
            continue
        cases += 1
        f = _random_poly(rng, ring, nterms=4, max_exp=3)
        for result in results:
            seeded = result._gb[DEGREVLEX]
            expected = Ideal(ring, result.gens).groebner_basis()
            assert seeded == expected
            assert seeded.leading == expected.leading
            assert seeded.reduce(f) == expected.reduce(f)
            assert all(seeded.contains(g) for g in expected.polys)
    assert cases >= 10


def test_membership_and_containment():
    R = _r2()
    x, y = R.gens()
    I = R.ideal(x**2, y**3)
    assert x**2 + y**3 in I
    assert x**2 * y in I
    assert y**2 not in I
    assert I.contains_ideal(R.ideal(x**4, x**2 * y**3))
    assert not I.contains_ideal(maximal_ideal(R))


def test_ideal_predicates():
    R = _r2()
    x, y = R.gens()
    assert R.ideal().is_zero()
    assert R.ideal(1).is_unit()
    assert R.ideal(x).dimension() == 1


def test_min_gens():
    R = _r2()
    x, y = R.gens()
    m = maximal_ideal(R)
    assert min_gens(m) == 2
    assert min_gens(m * m) == 3
    assert min_gens(R.ideal(x**2, y**3)) == 2
    assert min_gens(R.ideal(x**4, x**3 * y, x * y**3, y**4)) == 4
    # redundant generators do not inflate the count
    assert min_gens(R.ideal(x, y, x + y, x * y)) == 2
    with pytest.raises(PreconditionError):
        min_gens(R.ideal(1))
    with pytest.raises(HomogeneityError):
        min_gens(R.ideal(x**2 + y))


def test_ring_mismatch_checks():
    R = _r2()
    S = RingSpec(3, ("x", "y"))
    with pytest.raises(RingMismatchError):
        maximal_ideal(R) + maximal_ideal(S)
    with pytest.raises(RingMismatchError):
        ideal_colon(maximal_ideal(R), maximal_ideal(S))


def test_extended_to_polynomial_extension():
    R = _r2()
    x, y = R.gens()
    S = R.adjoin_variables(("z",))
    aS = R.ideal(x**2, y**3).extended_to(S)
    assert aS.ring is S
    assert S.poly("x^2") in aS
    assert S.poly("z") not in aS


# -- Frobenius chains against the direct path ----------------------------------


def _direct(I, q):
    """I^[q] as bracket powers were built before chains: every generator
    raised to the q-th power, the GB left to Buchberger."""
    return Ideal(I.ring, tuple(g.qth_power(q) for g in I.gens))


_CHAIN_RINGS = [
    RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z"),
    RingSpec(2, ("x", "y", "z")).quotient("x^3 + y^3 + z^3"),
    RingSpec(3, ("x", "y", "z")),
    RingSpec(5, ("x", "y")),
]
_CHAIN_IDS = ["quadric", "cubic", "F3xyz", "F5xy"]


def _random_ideal(rng, ring):
    """A proper nonzero ideal on one to three generators, each a random
    polynomial times a random variable, so homogeneous or not; on about a
    third of the draws pure powers of every variable join them, so that
    the colength is finite."""
    while True:
        gens = [_random_poly(rng, ring, nterms=rng.randrange(1, 4), max_exp=2)
                * rng.choice(ring.gens()) for _ in range(rng.randrange(1, 4))]
        if rng.randrange(3) == 0:
            gens += [ring.poly(f"{v}^{rng.randrange(2, 4)}")
                     for v in ring.variables]
        I = Ideal(ring, tuple(gens))
        if I.gens and not I.is_unit():
            return I


@pytest.mark.parametrize("ring", _CHAIN_RINGS, ids=_CHAIN_IDS)
def test_chain_levels_match_direct_path(ring):
    """Reduced GBs of every level q <= p^3 on 10 seeded random ideals, built
    upwards from q = 1, and straight to the top on a fresh copy; each
    bracket power keeps the direct generators."""
    rng = random.Random(ring.characteristic * 7 + ring.nvars)
    p = ring.characteristic
    for _ in range(10):
        I = _random_ideal(rng, ring)
        for e in range(4):
            q = p ** e
            direct = _direct(I, q)
            want = direct.groebner_basis()
            power = I.bracket_power(q)
            assert power.gens == direct.gens, (I, q)
            assert power.groebner_basis() == want, (I, q)
        top = Ideal(ring, I.gens).bracket_power(p ** 3)
        assert top.groebner_basis() == want, I
        # a level's bracket power reads a later level of the same chain
        top = I.bracket_power(p).bracket_power(p * p)
        assert top.gens == _direct(I, p ** 3).gens
        assert top.groebner_basis() is I.bracket_power(p ** 3).groebner_basis()


@pytest.mark.parametrize("ring", _CHAIN_RINGS[2:], ids=_CHAIN_IDS[2:])
def test_relation_free_levels_are_frobenius_images(ring):
    """Without relations GB(I^[q]) = GB(I)^[q]: each level's GB, leading
    terms included, is the base's raised to the q-th power."""
    rng = random.Random(ring.characteristic + 5)
    p = ring.characteristic
    for _ in range(10):
        I = _random_ideal(rng, ring)
        gb = I.groebner_basis()
        for e in range(1, 4):
            q = p ** e
            level = I.bracket_power(q).groebner_basis()
            assert level.polys == tuple(g.qth_power(q) for g in gb.polys), I
            assert level.leading == tuple(tuple(q * e for e in m) for m in gb.leading)


@pytest.mark.parametrize("ring", _CHAIN_RINGS[:3], ids=_CHAIN_IDS[:3])
def test_driver_products_match_old_products(ring):
    """The drivers take a^[q]·J^[q·q0] as (a·J^[q0])^[q]; over S = R[w] the
    corollary takes mS^[q]·I^[q·q0]S and (mS, w)^[q]·I^[q·q0]S likewise.
    Both sides have one reduced GB, on 4 seeded random J and a."""
    rng = random.Random(ring.characteristic * 3 + len(ring.relations))
    p = ring.characteristic
    m = maximal_ideal(ring)
    S = ring.adjoin_variables(("w",))
    mS = m.extended_to(S)
    mw = Ideal(S, mS.gens + (S.gen(ring.nvars),))
    for trial in range(4):
        J = _random_ideal(rng, ring)
        a = m if trial % 2 else m * m + _random_ideal(rng, ring)
        for q0 in (1, p):
            JS = J.bracket_power(q0).extended_to(S)
            for q in (1, p, p * p):
                old = _direct(a, q) * _direct(J, q * q0)
                new = (a * J.bracket_power(q0)).bracket_power(q)
                assert new.groebner_basis() == old.groebner_basis(), (J, a, q0, q)
                old_js = _direct(J, q * q0).extended_to(S)
                for b in (mS, mw):
                    old = _direct(b, q) * old_js
                    new = (b * JS).bracket_power(q)
                    assert new.groebner_basis() == old.groebner_basis(), (J, b, q)


def test_level_bracket_power_keeps_the_direct_exponent_cap():
    """The cap is checked on the generators raised to the q-th power, and a
    level's generators are its base's raised to the q0-th power, so
    (J^[3])^[27] trips where J^[81] does."""
    R = RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z")
    J = R.ideal("x + y", "z")
    with use_guard(GuardConfig(max_exponent=80)):
        level = J.bracket_power(3)
        assert max(g.max_exponent() for g in level.gens) == 3
        assert level.bracket_power(9).gens == J.bracket_power(27).gens
        for big in (level.bracket_power, lambda q: J.bracket_power(3 * q)):
            with pytest.raises(ResourceLimitError,
                               match=r"bracket power exponent exceeds cap \(80\)"):
                big(27)


def test_level_basis_past_the_cap_raises():
    """GB(x^2, xy + z^2) in F_2[x,y,z] contains z^4, so GB(I^[q]) contains
    z^(4q) while the generators stop at 2q: at a cap in [2q, 4q) the direct
    path raised inside Buchberger, and so does every chain level."""
    R = RingSpec(2, ("x", "y", "z"))
    for q, cap in ((2, 4), (2, 7), (8, 16), (8, 31), (2 ** 15, 100_000)):
        with use_guard(GuardConfig(max_exponent=cap)):
            I = R.ideal("x^2", "x*y + z^2")
            power = I.bracket_power(q)  # the generators pass the cap
            for gb in (lambda: power.groebner_basis(),
                       lambda: _direct(I, q).groebner_basis()):
                with pytest.raises(ResourceLimitError,
                                   match=rf"reduction exponent exceeds cap \({cap}\)"):
                    gb()


@pytest.mark.parametrize("ring", _CHAIN_RINGS, ids=_CHAIN_IDS)
def test_chain_levels_keep_their_basis_under_the_cap(ring):
    """No level's basis slips past the cap: with the cap one below the
    largest exponent among the leading terms of GB(I^[q]), the chain
    raises, as the direct path does (6 seeded random ideals, q <= p^2)."""
    rng = random.Random(ring.characteristic * 13 + ring.nvars)
    p = ring.characteristic
    for _ in range(6):
        I = _random_ideal(rng, ring)
        for q in (p, p * p):
            top = max(max(m) for m in
                      _direct(I, q).groebner_basis().leading)
            with use_guard(GuardConfig(max_exponent=top - 1)):
                for build in (lambda: Ideal(ring, I.gens).bracket_power(q),
                              lambda: _direct(I, q)):
                    with pytest.raises(ResourceLimitError):
                        build().groebner_basis()


def test_driver_products_trip_the_cap_where_old_products_did():
    """(a·J^[q0])^[q] keeps the generators of a^[q]·J^[q·q0], so both fail
    first at the same cap: here x·(x + y)^q0 gives (1 + q0)·q."""
    R = RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z")
    m = maximal_ideal(R)
    for q0 in (1, 3):
        for q in (1, 3, 9):
            edge = (1 + q0) * q
            for cap in (edge - 1, edge):
                with use_guard(GuardConfig(max_exponent=cap)):
                    J = R.ideal("x + y", "z")
                    outcomes = []
                    for build in (
                            lambda: (m * J.bracket_power(q0)).bracket_power(q),
                            lambda: _direct(m, q) * _direct(J, q * q0)):
                        try:
                            build().groebner_basis()
                            outcomes.append(True)
                        except ResourceLimitError:
                            outcomes.append(False)
                    assert outcomes == [cap == edge] * 2, (q0, q, cap)


def _seed_exact_divide(h, g):
    """Exact division before the packed kernel: one leading term at a time,
    each step a whole new remainder `r − fac·g`."""
    order = DEGREVLEX
    glm = g.leading_monomial(order)
    glc_inv = pow(g.terms[glm], -1, h.ring.characteristic)
    r = h
    quot = h.ring.zero
    while not r.is_zero():
        lm = r.leading_monomial(order)
        if not _divides(glm, lm):
            raise AlgebraError("exact division failed")
        fac = h.ring.monomial(_quotient(lm, glm), r.terms[lm] * glc_inv)
        quot = quot + fac
        r = r - fac * g
    return quot


@pytest.mark.parametrize("ring", _CHAIN_RINGS[:2], ids=_CHAIN_IDS[:2])
def test_exact_quotient_matches_seed_division(ring):
    """Random products g·h, of up to 24 terms, in the quadric and the
    cubic (ambient arithmetic, as in colons): the one-pass quotient is h,
    as the seed division's is; g·h plus one term outside (g) fails in
    both."""
    rng = random.Random(900 + ring.characteristic)
    x = ring.gen(0)
    failures = 0
    for _ in range(40):
        g = h = ring.zero
        while g.is_zero() or h.is_zero():
            g = _random_poly(rng, ring, nterms=rng.randrange(1, 5), max_exp=3)
            h = _random_poly(rng, ring, nterms=rng.randrange(1, 7), max_exp=4)
        assert exact_quotient(g * h, g) == h == _seed_exact_divide(g * h, g)
        assert exact_quotient(ring.zero, g) == ring.zero
        extra = x ** (g.degree() + h.degree() + 1)
        if g.degree() > 0 and not _divisible(extra, g):
            failures += 1
            for divide in (exact_quotient, _seed_exact_divide):
                with pytest.raises(AlgebraError, match="exact division failed"):
                    divide(g * h + extra, g)
    assert failures >= 10


def _divisible(f, g):
    try:
        _seed_exact_divide(f, g)
        return True
    except AlgebraError:
        return False


@pytest.mark.parametrize("p,names", [(5, ("x", "y", "z")), (7, ("x", "y"))])
def test_exact_quotient_by_a_divisor_that_is_not_monic(p, names):
    """The quotient's coefficients carry the inverse of g's leading
    coefficient, which the kernel reads off g's packed terms: (c·g)·h
    divided by c·g is h for every c ≠ 0, 1, and dividing by zero fails."""
    ring = RingSpec(p, names)
    rng = random.Random(40 + p)
    for _ in range(20):
        g = h = ring.zero
        while g.is_zero() or h.is_zero():
            g = _random_poly(rng, ring, nterms=rng.randrange(1, 4), max_exp=3)
            h = _random_poly(rng, ring, nterms=rng.randrange(1, 6), max_exp=3)
        g = g.monic(DEGREVLEX).scale(rng.randrange(2, p))
        assert g.leading_coefficient(DEGREVLEX) != 1
        assert exact_quotient(g * h, g) == h == _seed_exact_divide(g * h, g)
    with pytest.raises(AlgebraError):
        exact_quotient(h, ring.zero)


def _colon_by_intersecting(I, J):
    """I : J as colons by several generators were built before: the colon
    by each generator, those ideals intersected pairwise."""
    return reduce(ideal_intersection,
                  [ideal_colon(I, Ideal(I.ring, (g,))) for g in J.gens])


@pytest.mark.parametrize("ring", [_CHAIN_RINGS[i] for i in (0, 1, 3)],
                         ids=[_CHAIN_IDS[i] for i in (0, 1, 3)])
def test_colon_by_several_generators_matches_intersected_colons(ring):
    """Seeded random I and J on one to three generators: the colon that
    intersects the quotient lists in the ambient ring has the DEGREVLEX
    and LEX bases of the intersection of the single-generator colons."""
    rng = random.Random(4100 + ring.characteristic + ring.nvars)
    several = 0
    for case in range(16):
        homogeneous = case % 2 == 0
        I, J = (Ideal(ring, tuple(_random_gens(rng, ring, rng.randrange(1, 4),
                                               homogeneous))) for _ in "IJ")
        try:
            with use_guard(GuardConfig(max_steps=3000)):
                colon, expected = ideal_colon(I, J), _colon_by_intersecting(I, J)
                bases = [(colon.groebner_basis(order), expected.groebner_basis(order))
                         for order in (DEGREVLEX, LEX)]
        except ResourceLimitError:
            continue
        for got, want in bases:
            assert got == want and got.leading == want.leading
        several += len(J.gens) > 1
    assert several >= 5


@pytest.mark.parametrize("count", [2, 3])
def test_colon_builds_one_basis_whatever_the_generators(count, monkeypatch):
    """(x+y, z)^[4] : J on the char-2 cubic, J = (x, y)^[4] or m^[4]: the
    quotient lists are intersected in the ambient ring and only the last
    result becomes a reduced basis, one `reduced_basis` call."""
    import hkspread.ideals as ideals
    R = _CHAIN_RINGS[1]
    I = R.ideal("x + y", "z").bracket_power(4)
    J = Ideal(R, R.gens()[:count]).bracket_power(4)
    calls = []

    def spy(polys, ring):
        calls.append(len(polys))
        return reduced_basis(polys, ring)

    monkeypatch.setattr(ideals, "reduced_basis", spy)
    colon = ideal_colon(I, J)
    assert len(calls) == 1
    monkeypatch.undo()
    assert colon.groebner_basis() == _colon_by_intersecting(I, J).groebner_basis()


@pytest.mark.parametrize("ring", _CHAIN_RINGS[:3], ids=_CHAIN_IDS[:3])
def test_basis_memo_changes_no_basis_numerator_or_length(ring):
    """Seeded random ideals, a copy of each with its generators shuffled and
    scaled, their bracket powers I^[p] and I^[p^2] (also as (I^[p])^[p]),
    a sum and a colon: under DEGREVLEX and LEX, every basis, its numerator
    and the colength are the same inside a session's memo as outside one,
    and inside it the copy finds the original's basis."""
    p = ring.characteristic

    def observe():
        rng = random.Random(7100 + 10 * p + len(ring.relations))
        rows, shared = [], 0
        for _ in range(6):
            I = _random_ideal(rng, ring)
            gens = [rng.randrange(1, p) * g for g in I.gens]
            rng.shuffle(gens)
            copy = Ideal(ring, tuple(gens))
            J = Ideal(ring, (_random_poly(rng, ring, nterms=2, max_exp=2),))
            ideals = [I, copy, I.bracket_power(p), I.bracket_power(p * p),
                      copy.bracket_power(p).bracket_power(p)]
            if not J.is_zero():
                ideals += [I + J, ideal_colon(I, J)]
            for ideal in ideals:
                for order in (DEGREVLEX, LEX):
                    gb = ideal.groebner_basis(order)
                    rows.append((order.name, gb.polys, gb.leading, gb.numerator()))
                rows.append(length_quotient(ideal))
            shared += all(copy.groebner_basis(order) is I.groebner_basis(order)
                          for order in (DEGREVLEX, LEX))
        return rows, shared

    with basis_memo():
        inside, shared_inside = observe()
    outside, shared_outside = observe()
    assert inside == outside
    assert (shared_inside, shared_outside) == (6, 0)


# -- packed Frobenius levels and containment against the polynomial paths -----


def _polynomial_level(G):
    """The construction that `GroebnerBasis.frobenius` replaced, kept as its
    oracle: Buchberger on G's elements raised to the p-th power as
    polynomials and reduced modulo the relation basis, plus the relations."""
    ring = G.ring
    relations = ring.relation_basis()
    return buchberger_raw([relations.reduce(g.qth_power(ring.characteristic))
                           for g in G.polys] + list(ring.relations), ring=ring)


def _contains_by_element(I, J):
    """The per-element loop that `Ideal.contains_ideal` replaced, kept as its
    oracle: one normal form, and one kernel call, per element of J's GB."""
    gb = I.groebner_basis()
    return all(gb.contains(g) for g in J.groebner_basis().polys)


def _metered(monkeypatch):
    """Counts every guard step: 'total' over all budgets, and 'peak', the
    most that one budget held at once, so the least max_steps that runs."""
    seen = {"total": 0, "peak": 0}
    spend = groebner._Budget.spend

    def counted(self, n=1):
        seen["total"] += n
        spend(self, n)
        seen["peak"] = max(seen["peak"], self.steps)

    monkeypatch.setattr(groebner._Budget, "spend", counted)

    def run(build):
        seen["total"] = seen["peak"] = 0
        return build(), seen["total"], seen["peak"]
    return run


_LEVEL_RINGS = [
    RingSpec(2, ("x", "y", "z")).quotient("x^3 + y^3 + z^3"),
    RingSpec(2, ("x", "y")).quotient("x^2 + x*y"),
    RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z"),
    RingSpec(3, ("x", "y", "z", "w")).quotient("x*y + z*w"),
    RingSpec(5, ("x", "y", "z")).quotient("x*y + z^2"),
    RingSpec(5, ("x", "y", "z")).quotient("x^4 + y^4 + z^4"),
    RingSpec(3, ("x", "y", "z", "w")).quotient("x*y - z*w", "x*z - y^2"),
    RingSpec(2, ("x", "y", "z")),
    RingSpec(5, ("x", "y")),
    RingSpec(7, ("x",)),
    RingSpec(11, ("x", "y")),
]
_LEVEL_IDS = ["F2cubic", "F2xy", "F3quadric", "F3xyzw", "F5quadric",
              "F5quartic", "F3twisted", "F2xyz", "F5xy", "F7x", "F11xy"]


@pytest.mark.parametrize("ring", _LEVEL_RINGS, ids=_LEVEL_IDS)
def test_frobenius_levels_match_the_polynomial_construction(ring, monkeypatch):
    """Three levels of the chains of the zero ideal and 8 seeded random
    ideals: each packed level is the oracle's basis, takes the same guard
    steps and needs the same max_steps, trips one step below it with the
    same message, and the chains cross into wider packings.  The zero
    ideal's next level is the relation basis; without relations a level is
    exactly {g^p}, as Frobenius is flat there.  With p large against the
    number of variables (F_7[x], F_11[x,y]), fields sized for the
    exponents before they are scaled by p would overflow unseen."""
    rng = random.Random(4200 + 10 * ring.characteristic + ring.nvars)
    p = ring.characteristic
    metered = _metered(monkeypatch)
    relations = ring.relation_basis()
    assert Ideal(ring).groebner_basis().frobenius() == relations
    widths = set()
    for I in [Ideal(ring)] + [_random_ideal(rng, ring) for _ in range(8)]:
        G = I.groebner_basis()
        for _ in range(3):
            fresh = GroebnerBasis(ring, DEGREVLEX, G._packed)
            level, steps, peak = metered(fresh.frobenius)
            want, want_steps, want_peak = metered(lambda: _polynomial_level(G))
            assert level == want and level.polys == want.polys, (I, G)
            assert level.leading == want.leading
            assert (steps, peak) == (want_steps, want_peak), (I, G)
            if not ring.relations:
                assert level.polys == tuple(g.qth_power(p) for g in G.polys)
            if peak:
                with use_guard(GuardConfig(max_steps=peak - 1)):
                    for build in (GroebnerBasis(ring, DEGREVLEX, G._packed).frobenius,
                                  lambda: _polynomial_level(G)):
                        with pytest.raises(ResourceLimitError, match=(
                                rf"^reduction step budget exceeded \({peak - 1}\)$")):
                            build()
            widths.add(level._packed[0].width)
            G = level
    assert len(widths) >= 3


@pytest.mark.parametrize("ring", _CHAIN_RINGS, ids=_CHAIN_IDS)
def test_contains_ideal_matches_the_per_element_loop(ring, monkeypatch):
    """On seeded random pairs, sums, products, bracket powers (a wider
    packing) and the zero and unit ideals, packed containment gives the
    answer of the per-element loop, with the same guard steps: it stops at
    the first element outside, as the loop did."""
    rng = random.Random(4400 + 10 * ring.characteristic + ring.nvars)
    p = ring.characteristic
    metered = _metered(monkeypatch)
    zero, unit = Ideal(ring), Ideal(ring, (ring.one,))
    answers, widths = set(), set()
    for _ in range(6):
        I, J = _random_ideal(rng, ring), _random_ideal(rng, ring)
        for a, b in [(I, J), (J, I), (I + J, I), (I, I * J), (I, I.bracket_power(p)),
                     (I.bracket_power(p), I), (I.bracket_power(p * p), J.bracket_power(p)),
                     (zero, I), (I, zero), (unit, I), (I, unit), (zero, zero)]:
            widths.add(a.groebner_basis()._packed[0] is b.groebner_basis()._packed[0])
            got = metered(lambda: a.contains_ideal(b))
            assert got == metered(lambda: _contains_by_element(a, b)), (a, b)
            answers.add(got[0])
    assert answers == {True, False} and widths == {True, False}


def test_budget_limited_containment_fails_like_the_loop(monkeypatch):
    """Each element of the contained basis is reduced on a budget of its
    own: the largest one's steps suffice, one less raises the same
    reduction error as the per-element loop."""
    R = RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z")
    I, J = R.ideal("x + y", "z"), R.ideal("x^2 + y^2", "z^3")
    I.groebner_basis(), J.bracket_power(3).groebner_basis()
    metered = _metered(monkeypatch)
    inside, _, peak = metered(lambda: I.contains_ideal(J.bracket_power(3)))
    assert inside and peak >= 2
    for contains in (lambda: I.contains_ideal(J.bracket_power(3)),
                     lambda: _contains_by_element(I, J.bracket_power(3))):
        with use_guard(GuardConfig(max_steps=peak)):
            assert contains()
        with use_guard(GuardConfig(max_steps=peak - 1)), pytest.raises(
                ResourceLimitError,
                match=rf"^reduction step budget exceeded \({peak - 1}\)$"):
            contains()


def test_equal_bases_at_different_widths_are_one_value():
    """Equal bases can sit in different packings, one built wider than the
    other: they compare and hash equal, a session interns them as one, and
    bases that share leading terms and tail lengths but not values stay
    apart at either width."""
    R = RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z")
    gens = (R.poly("x + y"), R.poly("z"))
    narrow = buchberger_raw(gens + R.relations, ring=R)
    packing = groebner.packing_for(DEGREVLEX, R.nvars, 2 * narrow._packed[0].width)
    wide = GroebnerBasis(R, DEGREVLEX, (packing, groebner._moved(narrow._packed, packing)))
    assert wide._packed[0].width > narrow._packed[0].width
    with basis_memo():
        assert groebner._interned(wide) is wide
        assert Ideal(R, (2 * gens[1], gens[0])).groebner_basis() is wide
    assert wide == narrow and narrow == wide
    assert hash(narrow) == hash(wide)
    other = Ideal(R, (R.poly("x + 2*y"), gens[1])).groebner_basis()
    assert hash(other) == hash(narrow)   # same leads, same tail lengths
    assert other != narrow and other != wide and wide != other
    # one packing, the tails in another order: a generator that is already
    # reduced keeps its terms in the order they were written
    S = RingSpec(3, ("x", "y", "z"))
    a, b = (Ideal(S, (S.poly(f),)).groebner_basis()
            for f in ("x^2 + y^2 + z^2", "z^2 + y^2 + x^2"))
    assert a._packed[0] is b._packed[0] and a._packed[1] != b._packed[1]
    assert a == b and hash(a) == hash(b)
