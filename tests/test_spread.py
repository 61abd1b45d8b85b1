"""Star-spread estimators, colon-criterion diagnostics, identity checkers."""

from fractions import Fraction

import pytest

from hkspread import (
    GuardConfig,
    Ideal,
    PreconditionError,
    RingSpec,
    check_base_change,
    check_corollary_vanishing,
    check_lemma33_additivity,
    check_product_identity,
    check_self_product,
    colon_criterion_diagnostic,
    maximal_ideal,
    star_independence_diagnostic,
    star_spread_estimate,
    star_spread_hk_difference,
    use_guard,
)


def _r2():
    return RingSpec(2, ("x", "y"))


def _a1():
    return RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z")


# -- spread estimators --------------------------------------------------------


@pytest.mark.parametrize("gens,mu", [
    (("x", "y"), 2),
    (("x^2", "x*y", "y^2"), 3),
    (("x^2", "y^3"), 2),
    (("x",), 1),
])
def test_spread_regular_ratios_are_the_generator_count(gens, mu):
    R = _r2()
    rep = star_spread_estimate(R.ideal(*gens), maximal_ideal(R))
    assert rep.estimate == mu
    assert rep.stabilized
    assert rep.rounding_distance == 0
    assert rep.q0_schedule == (0,)
    assert [c.ratio for c in rep.cells] == [Fraction(mu)] * 4
    assert [c.q for c in rep.cells] == [1, 2, 4, 8]


def test_spread_on_the_quadric_at_large_q():
    """Cells λ(J^[q]/m^[q]J^[q]) = 3q² − 1 for J = (x+y, z) up to q = 3^12;
    each length costs O(numerator terms), not O(q)."""
    Q = _a1()
    with use_guard(GuardConfig(max_exponent=10 ** 7)):
        rep = star_spread_estimate(Q.ideal("x + y", "z"), maximal_ideal(Q),
                                   e_max=12)
    assert rep.estimate == 2
    assert [c.q for c in rep.cells] == [3 ** e for e in range(13)]
    assert [c.length for c in rep.cells] == [3 * c.q ** 2 - 1 for c in rep.cells]


def test_spread_three_variables():
    R = RingSpec(2, ("x", "y", "z"))
    rep = star_spread_estimate(maximal_ideal(R))
    assert rep.estimate == 3
    assert all(c.ratio == 3 for c in rep.cells)


def test_spread_cell_bookkeeping():
    R = _r2()
    rep = star_spread_estimate(R.ideal("x^2", "y^3"))
    assert rep.method == "subquotient"
    assert rep.dimension == 2
    assert rep.ehk_a == 1
    assert [c.length for c in rep.cells] == [2, 8, 32, 128]
    for c in rep.cells:
        assert c.ratio == Fraction(c.length, c.q**2 * 1)


def test_spread_rejects_unit_ideal():
    R = _r2()
    with pytest.raises(PreconditionError):
        star_spread_estimate(R.ideal(1))
    with pytest.raises(PreconditionError):
        star_spread_estimate(maximal_ideal(R), R.ideal("x"))  # a not m-primary


def test_spread_hk_difference_values():
    R = _r2()
    rep = star_spread_hk_difference(R.ideal("x^2", "y^3"))
    assert rep.method == "hk-difference"
    assert rep.value == 2
    assert rep.estimate == 2
    assert rep.stabilized
    assert dict(rep.components) == {"ehk_aJ": 8, "ehk_J": 6, "ehk_a": 1}
    with pytest.raises(PreconditionError):
        star_spread_hk_difference(R.ideal("x"))  # needs finite colength


@pytest.mark.parametrize("gens", [("x", "y"), ("x^2", "x*y", "y^2"),
                                  ("x^2", "y^3")])
def test_spread_estimators_agree(gens):
    R = _r2()
    sub = star_spread_estimate(R.ideal(*gens), maximal_ideal(R))
    diff = star_spread_hk_difference(R.ideal(*gens), maximal_ideal(R))
    assert sub.estimate == diff.estimate


def test_spread_quadric_escalates_q0_and_finds_three():
    """On F_3[x,y,z]/(x^2+yz) the maximal ideal has e_HK = 3/2 < 2, so no
    2-generated (parameter) ideal can be a *-reduction; the spread is 3."""
    rep = star_spread_estimate(maximal_ideal(_a1()), e_max=2)
    assert rep.q0_schedule == (0, 1)  # q0 = 1 failed to stabilize, 3 worked
    assert rep.estimate == 3
    assert rep.stabilized
    assert len(rep.cells) == 6


def test_spread_report_q0_exponent_start():
    R = _r2()
    rep = star_spread_estimate(R.ideal("x^2", "y^3"), q0_exponent=1)
    assert rep.q0_schedule == (1,)
    assert rep.estimate == 2
    assert [c.q0 for c in rep.cells] == [2, 2, 2, 2]


# -- colon criterion ----------------------------------------------------------


def test_colon_criterion_consistent_case():
    R = _r2()
    x, y = R.gens()
    rep = colon_criterion_diagnostic(R.ideal(y), x)
    assert rep.verdict == "consistent"
    assert [r.q for r in rep.rows] == [2, 4, 8]
    assert all(r.least_q0 == 1 and not r.unit_colon for r in rep.rows)
    assert "proves nothing" in rep.caveat


def test_colon_criterion_detects_membership():
    R = _r2()
    x, y = R.gens()
    rep = colon_criterion_diagnostic(R.ideal(x), x + x * y)
    # (x + xy)^q is a multiple of x^q, so every colon is the unit ideal
    assert rep.verdict == "dependent"
    assert all(r.unit_colon for r in rep.rows)
    assert colon_criterion_diagnostic(R.ideal(x), R.zero).verdict == "dependent"


def test_colon_criterion_e_max_zero():
    R = _r2()
    x, y = R.gens()
    with pytest.raises(PreconditionError, match="colon survey needs e_max >= 1"):
        colon_criterion_diagnostic(R.ideal(y), x, e_max=0)
    # a zero candidate needs no survey
    rep = colon_criterion_diagnostic(R.ideal(y), R.zero, e_max=0)
    assert rep.verdict == "dependent"


def test_independence_diagnostic():
    R = _r2()
    x, y = R.gens()
    assert star_independence_diagnostic((x, y)).verdict == "consistent"
    assert star_independence_diagnostic((x**2, x * y, y**2)).verdict == "consistent"
    rep = star_independence_diagnostic((x, x + x * y))
    assert rep.verdict == "dependent"
    with pytest.raises(PreconditionError):
        star_independence_diagnostic((x,))


# -- product and self-product identities --------------------------------------


def test_product_identity_regular_pairs_exact():
    R = _r2()
    m = maximal_ideal(R)
    for gens, ell in ((("x", "y"), 2), (("x^2", "y^2"), 2), (("x^2", "y^3"), 2)):
        rep = check_product_identity(m, R.ideal(*gens), ell, [1, 2, 3])
        assert rep.exact and rep.passed
        assert all(r.residual == 0 for r in rep.rows)
        labels = [r.label for r in rep.rows]
        assert "product[q=2]" in labels
        assert "difference[q=2,q'=4]" in labels
        assert "scaled-difference[q=4,q'=8]" in labels


def test_product_identity_single_q_values():
    R = _r2()
    rep = check_product_identity(R.ideal("x^2", "y^2"), maximal_ideal(R), 2, [1])
    row = rep.rows[0]
    assert (row.lhs, row.rhs) == (12, 12)  # 2·4 + 4·1 = e_HK(I·m^[2])


def test_product_identity_small_q_boundary():
    """With the roles I = (x^2,y^3), J = m the identity is asymptotic only:
    it fails at q = 2 (16 vs 14) and holds from q = 4 on."""
    R = _r2()
    I = R.ideal("x^2", "y^3")
    rep = check_product_identity(I, maximal_ideal(R), 2, [1])
    assert not rep.passed
    assert (rep.rows[0].lhs, rep.rows[0].rhs) == (16, 14)
    rep = check_product_identity(I, maximal_ideal(R), 2, [2, 3])
    assert rep.passed
    assert [(r.lhs, r.rhs) for r in rep.rows
            if r.label.startswith("product")] == [(28, 28), (76, 76)]


def test_product_identity_precondition():
    R = _r2()
    with pytest.raises(PreconditionError):
        check_product_identity(R.ideal("x"), maximal_ideal(R), 1, [1])


def test_self_product_values():
    R = _r2()
    rep = check_self_product(maximal_ideal(R), [1, 2])
    assert rep.passed and rep.exact
    assert [(r.lhs, r.rhs) for r in rep.rows] == [(6, 6), (18, 18)]
    assert rep.notes == ("spread estimate 2",)

    rep = check_self_product(R.ideal("x^2", "y^3"), [1])
    assert rep.rows[0].lhs == 36

    R3 = RingSpec(3, ("x", "y"))
    rep = check_self_product(maximal_ideal(R3), [1])
    assert rep.rows[0].lhs == 11


# -- additivity, base change, vanishing ---------------------------------------


@pytest.mark.parametrize("igens", [("x",), ("x^2",)])
def test_lemma33_additivity_exact(igens):
    R = _r2()
    y = R.gens()[1]
    rep = check_lemma33_additivity(R.ideal(*igens), y)
    assert rep.exact and rep.passed
    assert [r.label for r in rep.rows] == [
        "additivity[q=1]", "additivity[q=2]", "additivity[q=4]",
        "additivity[q=8]"]
    assert all(r.residual == 0 for r in rep.rows)


def test_lemma33_rejects_bad_z():
    R = _r2()
    x, y = R.gens()
    with pytest.raises(PreconditionError):
        check_lemma33_additivity(maximal_ideal(R), R.zero)
    # x is a zerodivisor modulo (x^2): (x^2):x = (x) is not inside (x^2)
    with pytest.raises(PreconditionError):
        check_lemma33_additivity(R.ideal(x**2), x)


def test_base_change_part_a_and_b():
    R = _r2()
    rep = check_base_change(R, R.ideal("x^2", "y^3"), 1, [1, 2])
    assert rep.exact and rep.passed
    by_label = {r.label: r for r in rep.rows}
    assert by_label["factorization[q=2]"].lhs == 48
    assert by_label["factorization[q=4]"].lhs == 384
    assert by_label["extension-multiplicity"].lhs == 6
    rep = check_base_change(R, maximal_ideal(R), 1, [0])
    # q=1 row degenerates to λ(S/(aS, z)) = λ(R/a)
    assert rep.rows[0].lhs == rep.rows[0].rhs == 1


def test_base_change_two_new_variables():
    R = _r2()
    rep = check_base_change(R, maximal_ideal(R), 2, [1, 2])
    assert rep.passed
    assert [r.lhs for r in rep.rows[:-1]] == [16, 256]  # (q^2)·λ(R/m^[q])


def test_base_change_factorization_exact_on_quadric():
    Q = _a1()
    rep = check_base_change(Q, maximal_ideal(Q), 1, [1])
    fact = [r for r in rep.rows if r.label.startswith("factorization")][0]
    assert fact.lhs == fact.rhs == 39  # 3·13, exact; the extension is free
    assert not rep.exact  # part (b) compares estimates with tolerance
    assert rep.passed


@pytest.mark.parametrize("igens", [("x",), ("x", "y"), ()])
def test_corollary_vanishing(igens):
    R = _r2()
    rep = check_corollary_vanishing(R, Ideal(R, tuple(R.poly(g) for g in igens)))
    assert rep.exact and rep.passed
    assert all(r.lhs == 0 and r.rhs == 0 for r in rep.rows)
    assert [r.label for r in rep.rows] == [
        "vanishing[q=1]", "vanishing[q=2]", "vanishing[q=4]", "vanishing[q=8]"]


def test_corollary_vanishing_with_q0():
    R = _r2()
    rep = check_corollary_vanishing(R, R.ideal("x", "y"), q0_exponent=1,
                                    e_max=2)
    assert rep.passed
    assert len(rep.rows) == 3
