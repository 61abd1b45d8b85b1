"""Prime-field and sparse-polynomial arithmetic."""

import random

import pytest

from hkspread import (
    AlgebraError,
    FrobeniusPowerError,
    HomogeneityError,
    Monomial,
    NotPrimeError,
    PrimeField,
    RingMismatchError,
    RingSpec,
)
from hkspread.poly import as_q

PRIMES = [2, 3, 5, 7, 11, 31, 97]


@pytest.mark.parametrize("p", PRIMES)
def test_field_inverses_exhaustive(p):
    F = PrimeField(p)
    for a in range(1, p):
        assert a * F.inv(a) % p == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    """F_p as the program computes in it: the constants of a ring."""
    R = RingSpec(p, ("x",))
    F = [R.constant(a) for a in range(p)]
    for a in range(p):
        for b in range(p):
            assert F[a] + F[b] == F[b] + F[a] == (a + b) % p
            assert F[a] * F[b] == F[b] * F[a] == a * b % p
            assert F[a] - F[b] == F[a] + (-F[b]) == (a - b) % p
            for c in range(p):
                assert F[a] * (F[b] + F[c]) == F[a] * F[b] + F[a] * F[c]


@pytest.mark.parametrize("n", [0, 1, 4, 6, 9, 15, 21, 100])
def test_not_prime_rejected(n):
    with pytest.raises(NotPrimeError):
        PrimeField(n)
    with pytest.raises(NotPrimeError):
        RingSpec(n, ("x",))


def test_ring_spec_validation():
    with pytest.raises(AlgebraError):
        RingSpec(2, ())
    with pytest.raises(AlgebraError):
        RingSpec(2, ("x", "x"))
    with pytest.raises(AlgebraError):
        RingSpec(2, ("2bad",))
    with pytest.raises(AlgebraError):
        RingSpec(2, ("lambda",))


def test_quotient_relation_must_be_homogeneous():
    R = RingSpec(2, ("x", "y"))
    x, y = R.gens()
    with pytest.raises(HomogeneityError):
        R.quotient(x**2 + y)
    Q = R.quotient(x**2 + x * y)
    assert len(Q.relations) == 1
    assert Q.dimension == 1


def _random_poly(rng, ring, nterms=4, max_exp=3):
    terms = {}
    for _ in range(nterms):
        mono = Monomial(rng.randrange(max_exp + 1) for _ in range(ring.nvars))
        terms[mono] = rng.randrange(ring.characteristic)
    from hkspread.poly import Polynomial
    return Polynomial(ring, terms)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_ring_axioms_random(p):
    rng = random.Random(1234 + p)
    R = RingSpec(p, ("x", "y", "z"))
    for _ in range(25):
        f = _random_poly(rng, R)
        g = _random_poly(rng, R)
        h = _random_poly(rng, R)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + R.zero == f
        assert f * R.one == f
        assert f - f == R.zero
        assert f * R.zero == R.zero


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_qth_power_is_repeated_multiplication(p, e):
    rng = random.Random(10 * p + e)
    R = RingSpec(p, ("x", "y"))
    q = p**e
    for _ in range(10):
        f = _random_poly(rng, R, nterms=3, max_exp=2)
        assert f.qth_power(q) == f**q


def test_freshman_dream_examples():
    R = RingSpec(2, ("x", "y"))
    x, y = R.gens()
    assert str((x**2 + y) ** 4) == "x^8 + y^4"
    assert (x + 1) ** 2 == x**2 + 1

    R5 = RingSpec(5, ("x", "y"))
    x5, y5 = R5.gens()
    assert (x5 + y5) * (x5 - y5) == x5**2 + 4 * y5**2


def test_qth_power_validates_q():
    R = RingSpec(3, ("x",))
    (x,) = R.gens()
    with pytest.raises(FrobeniusPowerError):
        x.qth_power(2)
    with pytest.raises(FrobeniusPowerError):
        x.qth_power(6)
    assert x.qth_power(9) == x**9
    with pytest.raises(FrobeniusPowerError):
        x.qth_power(0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_as_q_accepts_exactly_the_powers_of_p(p):
    R = RingSpec(p, ("x",))
    powers = {p ** e for e in range(12)}
    for q in range(-3, p ** 4 + 2):
        if q in powers:
            assert as_q(R, q) == q
        else:
            with pytest.raises(FrobeniusPowerError, match=f"^{q} is not a "
                               f"power of {p}$"):
                as_q(R, q)
    assert as_q(R, p ** 40) == p ** 40
    for bad in (p ** 40 + 1, float(p), True, "1", None):
        with pytest.raises(FrobeniusPowerError):
            as_q(R, bad)


def test_ring_mismatch_raises():
    R = RingSpec(2, ("x", "y"))
    S = RingSpec(3, ("x", "y"))
    with pytest.raises(RingMismatchError):
        R.gen(0) + S.gen(0)
    with pytest.raises(RingMismatchError):
        S.adopt(R.gen(0))


def test_adopt_rebinds_by_name():
    R = RingSpec(2, ("x", "y"))
    S = RingSpec(2, ("y", "z", "x"))
    x, y = R.gens()
    f = S.adopt(x * y**2 + x)
    assert f == S.gen(2) * S.gen(0) ** 2 + S.gen(2)
    with pytest.raises(RingMismatchError):
        RingSpec(2, ("z",)).adopt(x)


def test_adjoin_variables():
    R = RingSpec(2, ("x", "y"))
    S = R.adjoin_variables(("z",))
    assert S.variables == ("x", "y", "z")
    assert S.dimension == 3
    with pytest.raises(AlgebraError):
        R.adjoin_variables(("x",))


def test_string_rendering():
    R = RingSpec(5, ("x", "y"))
    x, y = R.gens()
    assert str(R.zero) == "0"
    assert str(R.one) == "1"
    assert str(3 * x**2 * y + 2 * y + 4) == "3*x^2*y + 2*y + 4"
    assert str(x * y - y) == "x*y + 4*y"


def test_poly_string_parsing_round_trip():
    R = RingSpec(7, ("x", "y", "z"))
    for text in ("x^2*y + 3*z", "x + y + z", "6*x^3 + 5", "0"):
        f = R.poly(text)
        assert R.poly(str(f)) == f


def test_monomial_helpers():
    a = Monomial((2, 1))
    b = Monomial((1, 3))
    assert a.mul(b) == Monomial((3, 4))
    assert a.lcm(b) == Monomial((2, 3))
    assert not a.divides(b)
    assert a.divides(Monomial((2, 2)))
    assert Monomial((2, 2)).quotient(a) == Monomial((0, 1))
    assert a.scaled(3) == Monomial((6, 3))
    assert Monomial((2, 0)).is_coprime(Monomial((0, 5)))
    assert not a.is_coprime(b)
    assert Monomial((1, 2)).degree() == 3


def test_degree_and_homogeneity():
    R = RingSpec(3, ("x", "y"))
    x, y = R.gens()
    assert (x**2 + y).degree() == 2
    assert not (x**2 + y).is_homogeneous()
    assert (x**2 + x * y).is_homogeneous()
    assert R.zero.degree() == -1
