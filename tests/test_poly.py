"""Prime-field and sparse-polynomial arithmetic."""

import random

import pytest

from hkspread import (
    AlgebraError,
    FrobeniusPowerError,
    HomogeneityError,
    Ideal,
    NotPrimeError,
    RingMismatchError,
    RingSpec,
    UnitRelationError,
)
from hkspread import groebner
from hkspread.poly import PRIME_LIMIT, Polynomial, as_q, is_prime
from hkspread.script import parse_script

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
    with pytest.raises(NotPrimeError,
                       match=f"^characteristic must be prime, got {n}$"):
        RingSpec(n, ("x",))


def test_characteristic_is_the_int_given():
    """The ring keeps its characteristic as a plain int attribute, and a
    characteristic past the exact primality test is refused with the
    test's own message."""
    R = RingSpec(5, ("x",))
    assert type(R.characteristic) is int and R.characteristic == 5
    with pytest.raises(NotPrimeError, match=(
            f"^characteristic {PRIME_LIMIT} is too large: the primality test "
            f"is exact only below {PRIME_LIMIT}$")):
        RingSpec(PRIME_LIMIT, ("x",))


def _prime_by_trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _prime_by_trial_division(n)]


def test_is_prime_on_large_and_pseudoprime_inputs():
    assert is_prime(2**61 - 1)
    assert is_prime(10**14 + 31)
    # 151·751·28351 is a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    assert not is_prime(1_000_003 * (2**61 - 1))
    assert is_prime(PRIME_LIMIT - 168)   # the largest prime it decides
    # the limit, 1287836182261·2575672364521, is a strong pseudoprime to
    # every base the test uses
    with pytest.raises(NotPrimeError, match="too large"):
        is_prime(PRIME_LIMIT)
    with pytest.raises(NotPrimeError, match="too large"):
        RingSpec(2**89 - 1, ("x",))


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


def test_quotient_relation_must_not_be_a_nonzero_constant():
    """A unit relation would make the zero ring, of dimension -1."""
    R = RingSpec(3, ("x", "y"))
    for rel in ("1", "2", "-1"):
        with pytest.raises(UnitRelationError, match="nonzero constant"):
            R.quotient(rel)
    with pytest.raises(UnitRelationError):
        RingSpec(3, ("x", "y"), (R.constant(2),))
    # 3 is zero in F_3, and a zero relation is dropped
    assert R.quotient("3").relations == ()


def test_rings_are_equal_by_value_and_hash_alike():
    rings = [parse_script("char 3; vars x y z; quotient x^2 + y*z").ring
             for _ in range(2)]
    R, S = rings
    assert R is not S and R == S and hash(R) == hash(S)
    assert {R: "quadric"}[S] == "quadric" and len(set(rings)) == 1
    free = RingSpec(3, ("x", "y", "z"))
    assert free != R and R != free and free not in {R: "quadric"}


def test_adjoined_variables_get_unused_names():
    R = RingSpec(2, ("t", "t_", "z1"))
    assert R.unused_names(["t", "z1", "z2"]) == ("t__", "z1_", "z2")
    assert R.unused_names(["z", "z"]) == ("z", "z_")


def _random_poly(rng, ring, nterms=4, max_exp=3):
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randrange(max_exp + 1) for _ in range(ring.nvars))
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


def _power_by_squaring(f, n):
    """f^n by binary powering, as `Polynomial.__pow__` computed it before
    it read the base-p digits of n."""
    result, base = f.ring.one, f
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_power_by_base_p_digits_matches_squaring(p, monkeypatch):
    """f^n from the base-p digits of n equals binary powering for n up to
    40 (and x·y at n = p^2 − 1), checks each product before taking it,
    and takes O(log n) of them whatever p."""
    rng = random.Random(700 + p)
    R = RingSpec(p, ("x", "y", "z"))
    multiply = Polynomial.__mul__
    for n in list(range(41)) + [p * p - 1]:
        f = (_random_poly(rng, R, nterms=rng.randrange(1, 4), max_exp=2)
             if n <= 40 else R.poly("x*y"))
        expected = _power_by_squaring(f, n)
        checked, taken = [], []

        def counted(a, b):
            taken.append((a, b))
            return multiply(a, b)

        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "__mul__", counted)
            got = f.power(n, lambda a, b: checked.append((a, b)))
        assert got == expected == f**n
        assert checked == taken
        assert len(taken) <= 3 * max(n, 1).bit_length()
    with pytest.raises(AlgebraError, match="negative polynomial power"):
        R.gen(0) ** -1


def test_power_of_one_term_is_one_exponent_multiplication(monkeypatch):
    """A one-term base skips the base-p digits: no Frobenius power and no
    product, however long the exponent."""
    from hkspread import poly

    R = RingSpec(5, ("x", "y"))
    f = R.poly("2*x^3*y")
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Polynomial, "qth_power",
                        counted("qth_power", Polynomial.qth_power))
    monkeypatch.setattr(poly, "_product", counted("_product", poly._product))
    n = 10**50 + 7
    assert f.power(n).terms == {(3 * n, n): pow(2, n, 5)}
    assert f.power(0) == R.one
    assert calls == []


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


@pytest.mark.parametrize("exps, coeff, message", [
    ((-1, 0), 1, r"exponents must be ints >= 0, got \(-1, 0\)"),
    ((1.5, 0), 1, "exponents must be ints >= 0"),
    (("1", 0), 1, "exponents must be ints >= 0"),
    ((1, 0, 0), 1, "exponent vector has wrong length"),
    ((1, 0), 1.5, "coefficients must be ints, got 1.5"),
    ((1, 0), "1", "coefficients must be ints, got '1'"),
], ids=["negative", "float", "str", "length", "float-coeff", "str-coeff"])
def test_invalid_terms_raise_at_construction(exps, coeff, message):
    """Every exponent vector and coefficient from outside is checked once,
    in the constructor that `RingSpec.monomial` builds through."""
    R = RingSpec(3, ("x", "y"))
    with pytest.raises(AlgebraError, match=message):
        Polynomial(R, {exps: coeff})
    with pytest.raises(AlgebraError, match=message):
        R.monomial(exps, coeff)


def test_negative_exponent_fails_before_the_kernel(monkeypatch):
    """x·y^-1 is refused where it is built, before a membership test can
    take it to the kernel: a negative field would overflow every packing,
    however wide."""
    calls = []
    monkeypatch.setattr(groebner, "_widened", lambda *args, **kw: calls.append(args))
    R = RingSpec(3, ("x", "y"))
    with pytest.raises(AlgebraError, match="exponents must be ints >= 0"):
        R.monomial((1, -1)) in Ideal(R, R.gens())
    assert calls == []


def test_degree_and_homogeneity():
    R = RingSpec(3, ("x", "y"))
    x, y = R.gens()
    assert (x**2 + y).degree() == 2
    assert not (x**2 + y).is_homogeneous()
    assert (x**2 + x * y).is_homogeneous()
    assert R.zero.degree() == -1
