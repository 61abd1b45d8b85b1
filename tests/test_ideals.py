"""Ideal algebra: sums, products, bracket powers, colons, intersections."""

import random

import pytest

from hkspread import (
    GuardConfig,
    HomogeneityError,
    Ideal,
    Monomial,
    PreconditionError,
    ResourceLimitError,
    RingMismatchError,
    RingSpec,
    buchberger,
    ideal_colon,
    ideal_intersection,
    maximal_ideal,
    min_gens,
    use_guard,
)

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


def test_colon_method_matches_function():
    R = _r2()
    x, y = R.gens()
    assert R.ideal(x**2 * y).colon(R.ideal(y)) == R.ideal(x**2)


def _monomial_colon_oracle(ring, gens, divisors):
    """(gens) : (divisors) for monomial ideals via per-generator division."""
    def colon_single(u):
        out = []
        for g in gens:
            gcd = Monomial(min(a, b) for a, b in zip(g, u))
            out.append(ring.monomial(g.quotient(gcd)))
        return Ideal(ring, tuple(out))

    result = colon_single(divisors[0])
    for u in divisors[1:]:
        result = ideal_intersection(result, colon_single(u))
    return result


@pytest.mark.parametrize("seed", range(8))
def test_colon_matches_monomial_oracle(seed):
    rng = random.Random(2000 + seed)
    R = _r2()
    gens = [Monomial((rng.randrange(5), rng.randrange(5))) for _ in range(3)]
    divisors = [Monomial((rng.randrange(3), rng.randrange(3))) for _ in range(2)]
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
    assert I.intersection(R.ideal(x)) == R.ideal(x**2, x * y)


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
    assert R.ideal(x).is_proper()
    assert R.ideal(x, y).is_zero_dimensional()
    assert not R.ideal(x).is_zero_dimensional()
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
            want = buchberger(direct.gens, ring=ring)
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
            assert level.leading == tuple(m.scaled(q) for m in gb.leading)


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
                       lambda: buchberger(_direct(I, q).gens, ring=R)):
                with pytest.raises(ResourceLimitError,
                                   match=rf"monomial exponent exceeds cap \({cap}\)"):
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
                      buchberger(_direct(I, q).gens, ring=ring).leading)
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
