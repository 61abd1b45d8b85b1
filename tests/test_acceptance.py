"""Acceptance suite: one numbered criterion per test, one PASS/FAIL line each.

Each test prints its verdict line through ``capsys.disabled()`` so the lines
appear in the live pytest output, then re-raises on failure.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from hkspread import (
    Ideal,
    RingSpec,
    ScriptError,
    check_base_change,
    check_corollary_vanishing,
    check_lemma33_additivity,
    check_product_identity,
    check_self_product,
    ehk_estimate,
    hk_function,
    ideal_colon,
    length_quotient,
    maximal_ideal,
    normal_form,
    parse_script,
    report_json,
    run_script,
    star_spread_estimate,
    star_spread_hk_difference,
)
from hkspread.runner import error_document

from tests.test_poly import _random_poly

GOLDEN = Path(__file__).parent / "golden"


def _report(capsys, number, text, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {text}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {number}: {text}")


def _r2():
    return RingSpec(2, ("x", "y"))


def _c1():
    R2 = _r2()
    R3 = RingSpec(2, ("x", "y", "z"))
    cases = [
        (R2.ideal("x", "y"), 2),
        (R2.ideal("x^2", "x*y", "y^2"), 3),
        (R2.ideal("x^2", "y^3"), 2),
        (R2.ideal("x"), 1),
        (R3.ideal("x", "y", "z"), 3),
    ]
    for J, mu in cases:
        rep = star_spread_estimate(J, maximal_ideal(J.ring),
                                   q0_exponent=0, e_max=3)
        assert rep.q0_schedule == (0,)
        assert [c.e for c in rep.cells] == [0, 1, 2, 3]
        assert all(c.ratio == mu for c in rep.cells), (J, mu)
        assert rep.estimate == mu and rep.stabilized
        assert rep.rounding_distance == 0


def test_criterion_01_regular_spread(capsys):
    _report(capsys, 1,
            "spread ratios on a regular ring equal the minimal generator count",
            _c1)


def _c2():
    R2 = _r2()
    R3 = RingSpec(2, ("x", "y", "z"))
    primaries = [
        R2.ideal("x", "y"),
        R2.ideal("x^2", "x*y", "y^2"),
        R2.ideal("x^2", "y^3"),
        R3.ideal("x", "y", "z"),
    ]
    for J in primaries:
        sub = star_spread_estimate(J, maximal_ideal(J.ring),
                                   q0_exponent=0, e_max=3)
        diff = star_spread_hk_difference(J)
        assert diff.value == sub.estimate, J


def test_criterion_02_hk_difference_agreement(capsys):
    _report(capsys, 2,
            "HK-difference spread matches the subquotient spread",
            _c2)


def _self_product_colength_oracle(q):
    """Count staircase points under (x^(q+1), x*y^q, x^q*y, y^(q+1))."""
    count = 0
    for a in range(q + 1):
        for b in range(q + 1):
            if (a >= 1 and b >= q) or (a >= q and b >= 1):
                continue
            count += 1
    return count


def _c3():
    R = _r2()
    m = maximal_ideal(R)
    for e in (1, 2, 3):
        q = 2 ** e
        oracle = _self_product_colength_oracle(q)
        assert oracle == (q + 1) ** 2 - (2 * q - 1) == q * q + 2
        est = ehk_estimate(m * m.bracket_power(q))
        assert est.value == oracle
    rep = check_self_product(m, [1, 2, 3])
    assert rep.exact and rep.passed
    rows = {r.label: r for r in rep.rows}
    for e in (1, 2, 3):
        q = 2 ** e
        row = rows[f"self-product[q={q}]"]
        assert row.lhs == row.rhs == q * q + 2 and row.residual == 0
    assert "spread estimate 2" in rep.notes


def test_criterion_03_self_product(capsys):
    _report(capsys, 3,
            "e_HK(m*m^[q]) equals q^2 + 2 and the self-product identity holds",
            _c3)


def _c4():
    R = _r2()
    m = maximal_ideal(R)
    cases = [
        (m, 1),
        (R.ideal("x^2", "y^2"), 4),
        (R.ideal("x^2", "y^3"), 6),
    ]
    for J, ehk_j in cases:
        rep = check_product_identity(m, J, 2, [1, 2, 3])
        assert rep.exact and rep.passed, J
        assert all(r.residual == 0 for r in rep.rows)
        rows = {r.label: r for r in rep.rows}
        for label in ("difference[q=2,q'=4]", "difference[q=4,q'=8]",
                      "scaled-difference[q=2,q'=4]",
                      "scaled-difference[q=4,q'=8]"):
            assert label in rows, label
        for e in (1, 2, 3):
            q = 2 ** e
            assert rows[f"product[q={q}]"].lhs == 2 + q * q * ehk_j


def test_criterion_04_product_identity(capsys):
    _report(capsys, 4,
            "product identity and its q-difference forms are exact",
            _c4)


def _c5():
    R = _r2()
    y = R.gen(1)
    for gens in (("x",), ("x^2",)):
        rep = check_lemma33_additivity(R.ideal(*gens), y)
        assert rep.exact and rep.passed, gens
        rows = {r.label: r for r in rep.rows}
        for q in (2, 4, 8):
            row = rows[f"additivity[q={q}]"]
            assert row.residual == 0 and row.lhs == row.rhs


def test_criterion_05_additivity(capsys):
    _report(capsys, 5,
            "additivity identity under adjoining a regular element",
            _c5)


def _c6():
    R = _r2()
    for a in (maximal_ideal(R), R.ideal("x^2", "y^3")):
        rep = check_base_change(R, a, 1, [1, 2])
        assert rep.exact and rep.passed, a
        rows = {r.label: r for r in rep.rows}
        for q in (2, 4):
            row = rows[f"factorization[q={q}]"]
            assert row.residual == 0
            assert row.lhs == q * int(length_quotient(a.bracket_power(q)))
        ext = rows["extension-multiplicity"]
        assert ext.residual == 0 and ext.lhs == ext.rhs


def test_criterion_06_base_change(capsys):
    _report(capsys, 6,
            "base-change factorization and extension multiplicity are exact",
            _c6)


def _c7():
    R = _r2()
    for gens in (("x",), ("x", "y"), ()):
        I = Ideal(R, tuple(R.poly(g) for g in gens))
        rep = check_corollary_vanishing(R, I, e_max=2)
        assert rep.exact and rep.passed, gens
        labels = [r.label for r in rep.rows]
        assert "vanishing[q=2]" in labels and "vanishing[q=4]" in labels
        assert all(r.lhs == 0 and r.rhs == 0 for r in rep.rows)


def test_criterion_07_vanishing(capsys):
    _report(capsys, 7,
            "boundary subquotient length vanishes at every sampled q",
            _c7)


def _c8():
    rng = random.Random(20260823)
    checked = 0
    for p in (2, 3):
        R = RingSpec(p, ("x", "y"))
        x, y = R.gens()
        for i in range(10):
            gens = [x ** rng.randint(1, 4), y ** rng.randint(1, 4)]
            for _ in range(rng.randint(1, 2)):
                term = x ** rng.randint(0, 3) * y ** rng.randint(0, 3)
                if i % 2:
                    other = x ** rng.randint(0, 3) * y ** rng.randint(0, 3)
                    term = term + other.scale(rng.randrange(1, p))
                gens.append(term)
            I = Ideal(R, tuple(gens))
            lam = int(length_quotient(I))
            assert int(length_quotient(I.bracket_power(p))) == p * p * lam, I
            checked += 1
    assert checked == 20


def test_criterion_08_frobenius_flatness(capsys):
    _report(capsys, 8,
            "colength of the p-th Frobenius power is p^2 times the colength",
            _c8)


def _quadric_standard_monomials(q):
    """Count residues of R/(x,y,z)^[q] for R = F_3[x,y,z]/(x^2 + y*z).

    R is free of rank 2 over F_3[y,z] with basis {1, x}; the two module
    components are cut out by (y^q, z^q, (yz)^((q+1)/2)) and
    (y^q, z^q, (yz)^((q-1)/2)), counted as plain lattice points.
    """
    total = 0
    for cut in ((q + 1) // 2, (q - 1) // 2):
        for a in range(q):
            for b in range(q):
                if a < cut or b < cut:
                    total += 1
    return total


def _c9():
    start = time.monotonic()
    qs = [3, 9, 27]
    counts = [_quadric_standard_monomials(q) for q in qs]
    s4 = sum(Fraction(q) ** 4 for q in qs)
    s3 = sum(Fraction(q) ** 3 for q in qs)
    s2 = sum(Fraction(q) ** 2 for q in qs)
    t2 = sum(Fraction(c * q * q) for c, q in zip(counts, qs))
    t1 = sum(Fraction(c * q) for c, q in zip(counts, qs))
    det = s4 * s2 - s3 * s3
    leading = (t2 * s2 - t1 * s3) / det
    assert abs(leading - Fraction(3, 2)) < Fraction(1, 10)

    R = RingSpec(3, ("x", "y", "z")).quotient("x^2 + y*z")
    m = maximal_ideal(R)
    samples = hk_function(m, 3)
    assert [s.colength for s in samples[1:]] == counts
    est = ehk_estimate(m, 3, "fit")
    assert abs(est.value - Fraction(3, 2)) < Fraction(1, 10)
    assert time.monotonic() - start < 30


def test_criterion_09_hypersurface_ehk(capsys):
    _report(capsys, 9,
            "hypersurface e_HK fit within 0.1 of 3/2 against a lattice oracle",
            _c9)


def _c10():
    rng = random.Random(9)
    for n in range(50):
        p = (2, 3)[n % 2]
        R = RingSpec(p, ("x", "y"))
        x, y = R.gens()
        gens = [x ** rng.randint(1, 3), y ** rng.randint(1, 3)]
        for _ in range(rng.randint(1, 2)):
            f = _random_poly(rng, R, rng.randint(1, 3), 3)
            if not f.is_zero():
                gens.append(f)
        I = Ideal(R, tuple(gens))
        basis = I.groebner_basis()
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert Ideal(R, tuple(shuffled)).groebner_basis() == basis

        f = _random_poly(rng, R, 3, 4)
        reduced = normal_form(f, basis)
        assert normal_form(reduced, basis) == reduced

        g = _random_poly(rng, R, 2, 3)
        if g.is_zero():
            g = x + y
        G = Ideal(R, (g,))
        total = int(length_quotient(I))
        plus = int(length_quotient(I + G))
        link = int(length_quotient(ideal_colon(I, G)))
        assert total == plus + link, (I, g)


def test_criterion_10_substrate_properties(capsys):
    _report(capsys, 10,
            "reduced-basis uniqueness, normal-form idempotence, colon additivity",
            _c10)


def _c11():
    for name in ("minimal", "prime_error", "quadric", "session"):
        text = (GOLDEN / f"{name}.hks").read_text()
        try:
            script = parse_script(text)
        except ScriptError as exc:
            produced = json.dumps(error_document(exc), indent=2)
        else:
            produced = report_json(run_script(script), include_timing=False)
        assert produced + "\n" == (GOLDEN / f"{name}.json").read_text(), name


def test_criterion_11_golden_reports(capsys):
    _report(capsys, 11,
            "session reports are byte-identical to the stored goldens",
            _c11)
