"""Lengths, Hilbert-Kunz functions, and multiplicity estimation."""

import random
from fractions import Fraction

import pytest

from hkspread import (
    INFINITE,
    ContainmentError,
    GuardConfig,
    Ideal,
    InfiniteLengthError,
    LengthValue,
    Polynomial,
    PreconditionError,
    RingSpec,
    ehk_estimate,
    hk_function,
    ideal_colon,
    ideal_intersection,
    length_quotient,
    length_subquotient,
    maximal_ideal,
    min_gens,
    use_guard,
)
from hkspread import Evidence, groebner, lengths
from hkspread.lengths import _fit_leading
from tests.test_ideals import _random_gens
from tests.test_poly import _random_poly


def _r2():
    return RingSpec(2, ("x", "y"))


def _a1():
    return RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z")


def test_length_value_semantics():
    R = _r2()
    lam = length_quotient(R.ideal("x^2", "y^3"))
    assert lam == 6
    assert int(lam) == 6
    assert lam.is_finite
    inf = length_quotient(R.ideal("x"))
    assert inf == INFINITE
    assert not inf.is_finite
    assert inf != 6
    assert not lam != 6 and lam != 7
    with pytest.raises(InfiniteLengthError):
        int(inf)


def test_length_value_hashes_like_the_int_it_equals():
    assert LengthValue(5) == 5 and hash(LengthValue(5)) == hash(5)
    assert LengthValue(5) in {5}
    assert 5 in {LengthValue(5)}
    assert {LengthValue(5): "a"}[5] == "a"
    assert len({LengthValue(5), 5, LengthValue(6)}) == 2
    assert INFINITE in {LengthValue(None)} and INFINITE not in {None}


def test_estimates_refuse_assignment():
    est = ehk_estimate(_r2().ideal("x", "y"), e_max=1)
    with pytest.raises(AttributeError):
        est.value = Fraction(2)
    with pytest.raises(AttributeError):
        est.samples[0].colength = 0


def test_length_quotient_examples():
    R = _r2()
    assert length_quotient(R.ideal("x", "y")) == 1
    assert length_quotient(R.ideal(1)) == 0
    assert length_quotient(R.ideal("x^2 + y", "y^3")) == 6  # binomial, same staircase size
    Q = _a1()
    assert length_quotient(maximal_ideal(Q)) == 1
    assert length_quotient(Q.ideal("x^3", "y^3", "z^3")) == 13


def test_length_subquotient_examples():
    R = _r2()
    m = maximal_ideal(R)
    assert length_subquotient(m, m * m) == 2
    assert length_subquotient(m, m) == 0
    I4 = m.bracket_power(4)
    assert length_subquotient(I4, m * I4) == 2
    assert length_subquotient(I4, I4 * I4) == 32
    with pytest.raises(ContainmentError):
        length_subquotient(m * m, m)


def test_length_subquotient_infinite_component():
    R = _r2()
    x, y = R.gens()
    assert length_subquotient(R.ideal(x), R.ideal(x**2)) == INFINITE


def test_length_subquotient_generator_order_invariant():
    rng = random.Random(17)
    R = _r2()
    x, y = R.gens()
    M = Ideal(R, (x**3, x * y, y**2))
    N = maximal_ideal(R) * M
    reference = length_subquotient(M, N)
    gens = list(M.gens)
    for _ in range(5):
        rng.shuffle(gens)
        assert length_subquotient(Ideal(R, tuple(gens)), N) == reference


def test_length_subquotient_matches_quotient_difference():
    """λ(M/N) = λ(R/N) − λ(R/M) whenever both quotients are finite."""
    rng = random.Random(23)
    R = _r2()
    for _ in range(10):
        exps = sorted(rng.sample(range(1, 6), 2))
        M = R.ideal(f"x^{exps[0]}", f"y^{exps[0]}")
        N = M.bracket_power(2)
        lam = length_subquotient(M, N)
        assert lam == int(length_quotient(N)) - int(length_quotient(M))


def _filtration_length(M: Ideal, N: Ideal) -> LengthValue:
    """Oracle: λ(M/N) by the colon filtration over M's generators.

    With M = N + (g_1, ..., g_s), the value is
    Σ_j λ(R / ((N + (g_1..g_{j-1})) : g_j)); generator-order independent.
    """
    ring = M.ring
    total = 0
    prefix = list(N.gens)
    for g in M.gens:
        col = ideal_colon(Ideal(ring, tuple(prefix)), Ideal(ring, (g,)))
        lam = length_quotient(col)
        if not lam.is_finite:
            return INFINITE
        total += lam.value
        prefix.append(g)
    return LengthValue(total)


@pytest.mark.parametrize("ring", [_a1(), RingSpec(2, ("x", "y", "z"))],
                         ids=["quadric", "relation-free"])
def test_difference_path_matches_filtration(ring):
    """Random N ⊆ M with λ(R/M) finite: the numerators give the filtration."""
    rng = random.Random(ring.characteristic * 7 + len(ring.relations))
    finite = 0
    for trial in range(8):
        gens = [ring.poly(f"{v}^{rng.randrange(1, 4)}") for v in ring.variables]
        gens += [_random_poly(rng, ring, nterms=2, max_exp=2)
                 for _ in range(rng.randrange(2))]
        M = Ideal(ring, tuple(gens))
        assert length_quotient(M).is_finite
        ngens = [rng.choice(M.gens) * _random_poly(rng, ring, nterms=2, max_exp=2)
                 for _ in range(rng.randrange(1, 4))]
        if trial % 2 == 0:
            K = ring.ideal(*(f"{v}^{rng.randrange(1, 3)}" for v in ring.variables))
            ngens += (M * K).gens
        N = Ideal(ring, tuple(ngens))
        lam = length_subquotient(M, N)
        assert lam == _filtration_length(M, N)
        finite += lam.is_finite
    assert 0 < finite < 8  # both finite and infinite λ(R/N) occurred


def test_difference_path_with_infinite_colength_submodule():
    R = RingSpec(2, ("x", "y"))
    M = maximal_ideal(R)
    N = R.ideal("x^2", "x*y")
    assert not length_quotient(N).is_finite
    assert length_subquotient(M, N) == INFINITE
    assert _filtration_length(M, N) == INFINITE


def _random_form(rng, ring, degree, nterms=2):
    """A homogeneous polynomial of the given degree (possibly zero)."""
    terms = {}
    for _ in range(nterms):
        cuts = sorted(rng.randrange(degree + 1) for _ in range(ring.nvars - 1))
        exps = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
        terms[tuple(exps)] = rng.randrange(1, ring.characteristic)
    return Polynomial(ring, terms)


_SUBQUOTIENT_RINGS = [
    _a1(),
    RingSpec(2, ("x", "y", "z")).quotient("x^3 + y^3 + z^3"),
    RingSpec(2, ("x", "y", "z")),
    RingSpec(5, ("x", "y")),
]


@pytest.mark.parametrize("ring", _SUBQUOTIENT_RINGS,
                         ids=["quadric", "cubic", "F2xyz", "F5xy"])
def test_numerator_path_matches_filtration_on_random_pairs(ring):
    """40 random N ⊆ M per ring, most M of infinite colength, generators
    homogeneous on even trials and inhomogeneous on odd ones."""
    rng = random.Random(ring.characteristic * 11 + ring.nvars
                        + 3 * len(ring.relations))
    finite = infinite = infinite_m = 0
    for trial in range(40):
        if trial % 2 == 0:
            def poly():
                return _random_form(rng, ring, rng.randrange(1, 3))
        else:
            def poly():
                return _random_poly(rng, ring, nterms=2, max_exp=2)
        gens = [poly() for _ in range(rng.randrange(1, 3))]
        if trial % 5 == 0:
            gens += [ring.poly(f"{v}^{rng.randrange(1, 4)}")
                     for v in ring.variables]
        M = Ideal(ring, tuple(gens))
        if not M.gens or M.is_unit():
            M = Ideal(ring, ring.gens()[:1])
        infinite_m += not length_quotient(M).is_finite
        ngens = [rng.choice(M.gens) * poly() for _ in range(rng.randrange(1, 3))]
        if trial % 4 < 2:
            K = ring.ideal(*(f"{v}^{rng.randrange(1, 3)}" for v in ring.variables))
            ngens += (M * K).gens
        N = Ideal(ring, tuple(ngens))
        lam = length_subquotient(M, N)
        assert lam == _filtration_length(M, N), (M, N)
        finite += lam.is_finite
        infinite += not lam.is_finite
    assert finite and infinite
    assert infinite_m > 20


@pytest.mark.parametrize("q", [1, 2, 4])
def test_corollary_pairs_have_length_zero(q):
    """(m^[q]I^[q]S + (z^q) ∩ I^[q]S) / (m,z)^[q]I^[q]S = 0 over the cubic,
    S = R[w] with the new variable in the role of z, I = (x+y, z)."""
    R = RingSpec(2, ("x", "y", "z")).quotient("x^3 + y^3 + z^3")
    S = R.adjoin_variables(("w",))
    w = S.gen(R.nvars)
    IqS = R.ideal("x + y", "z").bracket_power(q).extended_to(S)
    mS = maximal_ideal(R).extended_to(S)
    M = (mS.bracket_power(q) * IqS
         + ideal_intersection(Ideal(S, (w.qth_power(q),)), IqS))
    N = Ideal(S, mS.gens + (w,)).bracket_power(q) * IqS
    assert length_subquotient(M, N) == 0


def test_hk_function_monomial():
    R = _r2()
    samples = hk_function(R.ideal("x^2", "y^3"), 3)
    assert [s.colength for s in samples] == [6, 24, 96, 384]
    assert all(s.normalized == 6 for s in samples)
    assert [s.q for s in samples] == [1, 2, 4, 8]


def test_hk_function_quadric_counts():
    samples = hk_function(maximal_ideal(_a1()), 3)
    assert [s.colength for s in samples] == [1, 13, 121, 1093]
    # colengths increase and normalized ratios approach 3/2 from below
    ratios = [s.normalized for s in samples]
    assert ratios == sorted(ratios)
    assert all(r < Fraction(3, 2) for r in ratios)


def test_quadric_hk_table():
    """λ(R/m^[q]) = (3q² − 1)/2 on F_3[x,y,z]/(x^2 + yz), q = 1..3^7."""
    samples = hk_function(maximal_ideal(_a1()), 7)
    assert [s.colength for s in samples] == [
        (3 * 3 ** (2 * e) - 1) // 2 for e in range(8)]


def test_fermat_cubic_hk_table():
    """λ(R/m^[q]) = 9q²/4 on F_2[x,y,z]/(x^3 + y^3 + z^3) from q = 4 on."""
    cubic = RingSpec(2, ("x", "y", "z")).quotient("x^3 + y^3 + z^3")
    samples = hk_function(maximal_ideal(cubic), 8)
    assert [s.colength for s in samples] == [1, 8] + [
        9 * 4 ** e // 4 for e in range(2, 9)]


def test_fermat_quartic_hk_table():
    """The case Buchberger bounds: F_5[x,y,z]/(x^4 + y^4 + z^4) under the
    default guard, λ(R/m^[q]) = 76q²/25 from q = 25 on."""
    quartic = RingSpec(5, ("x", "y", "z")).quotient("x^4 + y^4 + z^4")
    samples = hk_function(maximal_ideal(quartic), 4)
    assert [s.colength for s in samples] == [1, 75, 1900, 47500, 1187500]


@pytest.mark.parametrize("p,names,relation,e_max,colength", [
    (3, "xyz", "x^5 + y^5 + z^5", 7,
     lambda e, q: Fraction(15, 4) * q * q - Fraction(19, 4) + 2 * (-1) ** e),
    (2, "xyzw", "x*y + z*w", 6, lambda e, q: Fraction(4 * q ** 3 - q, 3)),
    (3, "xyzw", "x*y + z*w", 4, lambda e, q: Fraction(4 * q ** 3 - q, 3)),
    # Han-Monsky: e_HK = 28/9 in characteristic 3, 3 in characteristic 7
    (3, "xyz", "x^4 + y^4 + z^4", 6,
     lambda e, q: [1, 27][e] if e < 2 else Fraction(28 * q * q, 9)),
    (7, "xyz", "x^4 + y^4 + z^4", 4, lambda e, q: 3 * q * q - 2),
], ids=["quintic3", "xy+zw/2", "xy+zw/3", "quartic3", "quartic7"])
def test_hk_tables_in_three_and_four_variables(p, names, relation, e_max,
                                                colength):
    """Exact λ(R/m^[q]), q = p^e, against closed forms: a Fermat quintic,
    the four-variable quadric xy + zw, whose e_HK is 4/3, and Fermat
    quartics at two primes."""
    R = RingSpec(p, tuple(names)).quotient(relation)
    samples = hk_function(maximal_ideal(R), e_max)
    assert [s.colength for s in samples] == [
        colength(e, p ** e) for e in range(e_max + 1)]


def test_large_q_hk_tables_within_a_small_step_budget():
    """Frobenius chains keep every reduction small at q = p^13: the direct
    path spent 1,195,723 steps in one Buchberger run on m^[3^13] in the
    quadric.  The exponent cap is raised, the step budget lowered."""
    cubic = RingSpec(2, ("x", "y", "z")).quotient("x^3 + y^3 + z^3")
    with use_guard(GuardConfig(max_steps=1_000, max_exponent=10 ** 7)):
        quadric = hk_function(maximal_ideal(_a1()), 13)
        fermat = hk_function(maximal_ideal(cubic), 13)
    assert [s.colength for s in quadric] == [
        (3 * 3 ** (2 * e) - 1) // 2 for e in range(14)]
    assert [s.colength for s in fermat] == [1, 8] + [
        9 * 4 ** e // 4 for e in range(2, 14)]


def test_numerator_of_bracket_powers_stays_sparse():
    """K of m^[3^e] in the quadric has degree above q but the same number
    of terms from e = 2 to e = 12, so no length costs O(q)."""
    m = maximal_ideal(_a1())
    sizes = set()
    with use_guard(GuardConfig(max_exponent=10 ** 7)):
        for e in range(2, 13):
            K = m.bracket_power(3 ** e).groebner_basis().numerator()
            assert max(K) > 3 ** e
            sizes.add(len(K))
    assert sizes == {6}


def test_hk_function_rejects_infinite():
    R = _r2()
    with pytest.raises(InfiniteLengthError):
        hk_function(R.ideal("x"), 2)


def test_ehk_exact_paths():
    R = _r2()
    est = ehk_estimate(maximal_ideal(R))
    assert est.value == 1 and est.evidence.kind == "proven"
    est = ehk_estimate(R.ideal("x^2", "x*y", "y^2"))
    assert est.value == 3 and est.evidence.kind == "proven"
    est = ehk_estimate(R.ideal("x^2 + y", "y^3"))
    assert est.value == 6 and est.evidence.kind == "proven"
    assert est.evidence.checks == ()


def test_ehk_exact_agrees_with_fit_on_regular_rings():
    R = _r2()
    I = R.ideal("x^2 + y", "y^3")
    fit = ehk_estimate(I, e_max=2, method="fit")
    assert fit.value == 6
    assert fit.evidence.kind == "sampled"
    assert all(r == 0 for r in fit.evidence.checks)
    assert [s.colength for s in fit.samples] == [6, 24, 96]


def test_ehk_quadric_fit_and_last():
    m = maximal_ideal(_a1())
    fit = ehk_estimate(m, e_max=3, method="fit")
    assert fit.value == Fraction(1213, 807)
    assert abs(fit.value - Fraction(3, 2)) < Fraction(1, 10)
    last = ehk_estimate(m, e_max=3, method="last")
    assert last.value == Fraction(1093, 729)
    assert last.evidence.checks == (Fraction(1093, 729) - Fraction(121, 81),)


def test_ehk_on_a_relation_free_ring_is_proven():
    """The Frobenius of F_2[x,y] is flat (Kunz), so λ(R/a^[q]) = q²·λ(R/a)
    and e_HK(a) = λ(R/a) with nothing sampled."""
    est = ehk_estimate(_r2().ideal("x^2 + y", "y^3"))
    assert est.evidence == Evidence("proven", lengths._BY_FLAT, ())


def test_ehk_fit_evidence_is_its_residuals():
    """The quadric's estimate, by default or by method=fit, is sampled, and
    its checks are the residuals of the fit it took its lead from."""
    m = maximal_ideal(_a1())
    for method in ("auto", "fit"):
        est = ehk_estimate(m, e_max=3, method=method)
        lead, residuals = _fit_leading(
            {s.q: s.colength for s in est.samples}, 2)
        assert est.value == lead
        assert est.evidence == Evidence("sampled", lengths._BY_FIT, residuals)
        assert any(residuals)


def test_ehk_last_evidence_is_the_last_difference():
    m = maximal_ideal(_a1())
    est = ehk_estimate(m, e_max=3, method="last")
    r = [s.normalized for s in est.samples]
    assert est.evidence == Evidence("sampled", lengths._BY_LAST,
                                    (abs(r[3] - r[2]),))


def _fraction_fit(lengths, d):
    """The least-squares fit as formed in Fractions: the slow path that
    the integer normal equations of `_fit_leading` replace."""
    cols = [(Fraction(q) ** d, Fraction(q) ** (d - 1)) for q in lengths]
    ys = [Fraction(v) for v in lengths.values()]
    a11 = sum(c[0] * c[0] for c in cols)
    a12 = sum(c[0] * c[1] for c in cols)
    a22 = sum(c[1] * c[1] for c in cols)
    b1 = sum(c[0] * y for c, y in zip(cols, ys))
    b2 = sum(c[1] * y for c, y in zip(cols, ys))
    det = a11 * a22 - a12 * a12
    lead = (b1 * a22 - b2 * a12) / det
    second = (a11 * b2 - a12 * b1) / det
    residuals = tuple(lead * c[0] + second * c[1] - y for c, y in zip(cols, ys))
    return lead, residuals


@pytest.mark.parametrize("p", [2, 3, 5])
def test_integer_fit_matches_the_fraction_fit(p):
    """Random samples {q: length} on q = 1..p^(n-1), d = 0..4 (d = 0 is a
    zero-dimensional quotient ring, where the column q^(d-1) is 1/q)."""
    rng = random.Random(900 + p)
    for _ in range(60):
        d = rng.randrange(5)
        n = rng.randrange(2, 7)
        lengths = {p ** e: rng.randrange(10 ** rng.randrange(1, 8))
                   for e in range(n)}
        fit = _fit_leading(lengths, d)
        assert fit == _fraction_fit(lengths, d), (lengths, d)
        assert all(type(v) is Fraction for v in (fit[0], *fit[1]))


def test_ehk_method_validation():
    m = maximal_ideal(_a1())
    with pytest.raises(PreconditionError):
        ehk_estimate(m, method="exact")
    with pytest.raises(PreconditionError):
        ehk_estimate(m, method="bogus")
    # the name of a rule is not an input
    with pytest.raises(PreconditionError, match="unknown estimation method"):
        ehk_estimate(m, method="linear-fit")
    with pytest.raises(PreconditionError):
        ehk_estimate(m, e_max=0, method="fit")
    # last-sample with e_max=0 degenerates to the single sample, no check
    est = ehk_estimate(m, e_max=0, method="last")
    assert est.value == 1 and est.evidence.checks == ()


@pytest.mark.parametrize("p", [2, 3])
def test_frobenius_flatness_on_regular_rings(p):
    """λ(R/I^[p]) = p^2 λ(R/I) for zero-dimensional I in two variables."""
    rng = random.Random(p * 100)
    R = RingSpec(p, ("x", "y"))
    x, y = R.gens()
    for _ in range(10):
        a, b = rng.randrange(1, 4), rng.randrange(1, 4)
        gens = [x**a, y**b]
        if rng.random() < 0.5:
            gens.append(x ** rng.randrange(1, 3) * y ** rng.randrange(1, 3)
                        + (y ** rng.randrange(1, 4) if rng.random() < 0.5 else 0))
        I = Ideal(R, tuple(gens))
        lam = int(length_quotient(I))
        assert length_quotient(I.bracket_power(p)) == p * p * lam


def test_ehk_infinite_colength():
    R = _r2()
    with pytest.raises(InfiniteLengthError):
        ehk_estimate(R.ideal("x"))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_numerator_memo_is_the_numerator_and_is_never_changed(p):
    """Each GB computes its Hilbert numerator once: the memo equals
    `_numerator` of its leads, and it is the same dict, with the same
    entries, after length_subquotient, the dimensions and min_gens have
    read it (from both ideals of the subquotient)."""
    rng = random.Random(4400 + p)
    R = RingSpec(p, ("x", "y", "z")).quotient("x*y + z^2")
    m = maximal_ideal(R)
    for _ in range(12):
        I = Ideal(R, tuple(_random_gens(rng, R, rng.randrange(1, 4), True)))
        if I.is_unit():
            continue
        mI = m * I
        memos = []
        for ideal in (I, mI):
            G = ideal.groebner_basis()
            K = G.numerator()
            assert K == groebner._numerator(G.leading)
            assert ideal.groebner_basis().numerator() is K is G.numerator()
            memos.append((ideal, G, K, dict(K)))
        length_subquotient(I, mI)
        I.dimension()
        mI.dimension()
        min_gens(I)
        for ideal, G, K, before in memos:
            assert ideal.groebner_basis() is G
            assert G.numerator() is K and K == before
