"""Ideal algebra: sums, products, bracket powers, colons, intersections."""

import random

import pytest

from hkspread import (
    HomogeneityError,
    Ideal,
    Monomial,
    PreconditionError,
    RingMismatchError,
    RingSpec,
    ideal_colon,
    ideal_intersection,
    maximal_ideal,
    min_gens,
)


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
