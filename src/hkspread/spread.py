"""Finite-q star-spread estimation and the exact identities it rests on.

Two estimators target ℓ*(J): the subquotient form
    λ(J^[q·q0] / a^[q] J^[q·q0]) / (q^d · e_HK(a))
sampled along e with q0 escalation, and the Hilbert-Kunz difference form
    (e_HK(a·J^[q0]) − e_HK(J^[q0])) / e_HK(a)
for finite-colength J.  The identity checkers verify the product,
self-product, additivity, base-change, and vanishing relations that the
estimators' convergence depends on.

Tight closure itself is never computed: the independence diagnostics are
necessary-condition checks built on colon containments, and every report
carries that caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .ideals import Ideal, ideal_colon, maximal_ideal
from .lengths import ehk_estimate, length_quotient, length_subquotient
from .poly import Polynomial, RingSpec

CAVEAT = ("finite-q evidence only: a pass is consistent with "
          "star-independence but proves nothing; a unit colon proves "
          "dependence")

DEFAULT_TOLERANCE = Fraction(1, 20)


def _nearest_int(r: Fraction) -> int:
    return int((r + Fraction(1, 2)).__floor__())


@dataclass(frozen=True)
class SpreadCell:
    q0: int
    e: int
    q: int
    length: int
    ratio: Fraction


@dataclass(frozen=True)
class SpreadReport:
    method: str
    J: Ideal
    a: Ideal
    dimension: int
    ehk_a: Fraction
    cells: tuple
    q0_schedule: tuple
    estimate: int | None
    stabilized: bool
    rounding_distance: Fraction | None
    value: Fraction | None = None
    components: tuple = ()


@dataclass(frozen=True)
class IdentityRow:
    label: str
    lhs: Fraction
    rhs: Fraction
    residual: Fraction
    passed: bool


@dataclass(frozen=True)
class IdentityReport:
    name: str
    exact: bool
    tolerance: Fraction | None
    rows: tuple
    passed: bool
    notes: tuple = ()


@dataclass(frozen=True)
class ColonRow:
    e: int
    q: int
    unit_colon: bool
    least_q0: int | None
    contained: bool


@dataclass(frozen=True)
class ColonCriterionReport:
    candidate: Polynomial
    rows: tuple
    verdict: str
    caveat: str = CAVEAT


@dataclass(frozen=True)
class IndependenceReport:
    generators: tuple
    reports: tuple
    verdict: str
    caveat: str = CAVEAT


def _require_finite_colength(I: Ideal, what: str):
    if not length_quotient(I).is_finite:
        raise PreconditionError(f"{what} must have finite colength")


def _stabilize(ratios):
    """First consecutive pair rounding to one integer, both within 1/4."""
    for i in range(len(ratios) - 1):
        n1 = _nearest_int(ratios[i])
        n2 = _nearest_int(ratios[i + 1])
        d1 = abs(ratios[i] - n1)
        d2 = abs(ratios[i + 1] - n2)
        if n1 == n2 and d1 < Fraction(1, 4) and d2 < Fraction(1, 4):
            return n1, True, max(d1, d2)
    return None, False, None


def star_spread_estimate(J: Ideal, a: Ideal | None = None,
                         q0_exponent: int = 0, e_max: int = 3,
                         q0_cap_exponent: int = 3) -> SpreadReport:
    """Estimate ℓ*(J) from subquotient lengths along e = 0..e_max.

    When the rounded ratio fails to stabilize, the q0 exponent doubles
    (starting at 1 from 0) up to the cap and the table is recomputed.
    """
    ring = J.ring
    if J.is_unit():
        raise PreconditionError("spread needs a proper ideal")
    if ring.relations and e_max < 1:
        raise PreconditionError(
            "the normalizing e_HK(a) on a quotient ring needs e_max >= 1")
    if a is None:
        a = maximal_ideal(ring)
    _require_finite_colength(a, "the normalizing ideal a")
    p = ring.characteristic
    d = ring.dimension
    ehk_a = ehk_estimate(a, e_max=e_max).value

    cells = []
    schedule = []
    cur = q0_exponent
    estimate = None
    stabilized = False
    distance = None
    while True:
        schedule.append(cur)
        q0 = p ** cur
        Jq0 = J.bracket_power(q0)
        aJq0 = a * Jq0  # N = a^[q]·J^[q·q0] = (a·J^[q0])^[q]
        round_ratios = []
        for e in range(e_max + 1):
            q = p ** e
            M = Jq0.bracket_power(q)
            N = aJq0.bracket_power(q)
            lam = length_subquotient(M, N)
            ratio = Fraction(int(lam)) / (Fraction(q) ** d * ehk_a)
            cells.append(SpreadCell(q0, e, q, int(lam), ratio))
            round_ratios.append(ratio)
        estimate, stabilized, distance = _stabilize(round_ratios)
        if stabilized or cur >= q0_cap_exponent:
            break
        cur = 1 if cur == 0 else min(2 * cur, q0_cap_exponent)
    return SpreadReport(method="subquotient", J=J, a=a, dimension=d,
                        ehk_a=ehk_a, cells=tuple(cells),
                        q0_schedule=tuple(schedule), estimate=estimate,
                        stabilized=stabilized, rounding_distance=distance)


def star_spread_hk_difference(J: Ideal, a: Ideal | None = None,
                              q0_exponent: int = 0,
                              e_max: int = 3) -> SpreadReport:
    """(e_HK(a·J^[q0]) − e_HK(J^[q0])) / e_HK(a), for finite-colength J."""
    ring = J.ring
    if ring.relations and e_max < 1:
        raise PreconditionError(
            "the e_HK estimates of a, J^[q0] and a·J^[q0] on a quotient ring "
            "need e_max >= 1")
    _require_finite_colength(J, "J")
    if a is None:
        a = maximal_ideal(ring)
    _require_finite_colength(a, "the normalizing ideal a")
    q0 = ring.characteristic ** q0_exponent
    Jq0 = J.bracket_power(q0)
    e_a = ehk_estimate(a, e_max=e_max).value
    e_j = ehk_estimate(Jq0, e_max=e_max).value
    e_aj = ehk_estimate(a * Jq0, e_max=e_max).value
    value = (e_aj - e_j) / e_a
    nearest = _nearest_int(value)
    dist = abs(value - nearest)
    good = dist < Fraction(1, 4)
    return SpreadReport(method="hk-difference", J=J, a=a,
                        dimension=ring.dimension, ehk_a=e_a, cells=(),
                        q0_schedule=(q0_exponent,),
                        estimate=nearest if good else None, stabilized=good,
                        rounding_distance=dist if good else None,
                        value=value,
                        components=(("ehk_aJ", e_aj), ("ehk_J", e_j),
                                    ("ehk_a", e_a)))


# -- colon-criterion diagnostics ---------------------------------------------


def colon_criterion_diagnostic(I: Ideal, x: Polynomial,
                               q0_exponent: int = 2,
                               e_max: int = 3) -> ColonCriterionReport:
    """Containment survey of (I^[q] : x^q) in m^[q/q0] for q = p..p^e_max.

    A unit colon at any q certifies x^q ∈ I^[q] (dependence); otherwise the
    least working q0 per q is recorded, or the row is inconclusive.
    """
    ring = I.ring
    if x.is_zero():
        return ColonCriterionReport(candidate=x, rows=(), verdict="dependent")
    if e_max < 1:
        raise PreconditionError("the colon survey needs e_max >= 1")
    p = ring.characteristic
    m = maximal_ideal(ring)
    rows = []
    for e in range(1, e_max + 1):
        q = p ** e
        col = ideal_colon(I.bracket_power(q), Ideal(ring, (x.qth_power(q),)))
        if col.is_unit():
            rows.append(ColonRow(e, q, True, None, False))
            continue
        col_gens = col.groebner_basis().polys
        least = None
        for ep in range(0, min(q0_exponent, e) + 1):
            target = m.bracket_power(p ** (e - ep)).groebner_basis()
            if all(target.contains(g) for g in col_gens):
                least = p ** ep
                break
        rows.append(ColonRow(e, q, False, least, least is not None))
    if any(r.unit_colon for r in rows):
        verdict = "dependent"
    elif all(r.contained for r in rows):
        verdict = "consistent"
    else:
        verdict = "inconclusive"
    return ColonCriterionReport(candidate=x, rows=tuple(rows), verdict=verdict)


def star_independence_diagnostic(gens, q0_exponent: int = 2,
                                 e_max: int = 3) -> IndependenceReport:
    """Each generator against the ideal of the others, via the colon survey."""
    gens = tuple(gens)
    if len(gens) < 2:
        raise PreconditionError("independence needs at least two generators")
    ring = gens[0].ring
    reports = []
    for i, f in enumerate(gens):
        others = Ideal(ring, gens[:i] + gens[i + 1:])
        reports.append(colon_criterion_diagnostic(others, f, q0_exponent, e_max))
    if any(r.verdict == "dependent" for r in reports):
        verdict = "dependent"
    elif all(r.verdict == "consistent" for r in reports):
        verdict = "consistent"
    else:
        verdict = "inconclusive"
    return IndependenceReport(generators=gens, reports=tuple(reports),
                              verdict=verdict)


# -- identity checkers --------------------------------------------------------


def _identity_rows(pairs, exact, tolerance):
    rows = []
    for label, lhs, rhs in pairs:
        residual = rhs - lhs
        ok = residual == 0 if exact else abs(residual) <= tolerance
        rows.append(IdentityRow(label, lhs, rhs, residual, ok))
    return tuple(rows)


def _finish(name, ring, pairs, tolerance, notes=()):
    exact = not ring.relations
    tol = None if exact else (tolerance or DEFAULT_TOLERANCE)
    rows = _identity_rows(pairs, exact, tol)
    return IdentityReport(name=name, exact=exact, tolerance=tol, rows=rows,
                          passed=all(r.passed for r in rows), notes=tuple(notes))


def check_product_identity(I: Ideal, J: Ideal, ell: int, e_list,
                           e_max: int = 3,
                           tolerance: Fraction | None = None) -> IdentityReport:
    """ℓ·e_HK(I) + q^d·e_HK(J) = e_HK(I·J^[q]), plus the q-difference forms.

    ell is the caller's value for ℓ*(J) (e.g. a spread estimate).  For each
    q = p^e the product form is checked; consecutive q < q' additionally
    check (q'^d − q^d)·e_HK(J) = e_HK(IJ^[q']) − e_HK(IJ^[q]) and
    (q'^d − q^d)·ℓ·e_HK(I) = q'^d·e_HK(IJ^[q]) − q^d·e_HK(IJ^[q']).
    """
    ring = I.ring
    _require_finite_colength(I, "I")
    _require_finite_colength(J, "J")
    p = ring.characteristic
    d = ring.dimension
    e_i = ehk_estimate(I, e_max=e_max).value
    e_j = ehk_estimate(J, e_max=e_max).value
    qs = [p ** e for e in e_list]
    prod = {q: ehk_estimate(I * J.bracket_power(q), e_max=e_max).value
            for q in qs}
    pairs = []
    for q in qs:
        pairs.append((f"product[q={q}]",
                      ell * e_i + Fraction(q) ** d * e_j, prod[q]))
    for q, qp in zip(qs, qs[1:]):
        qd, qpd = Fraction(q) ** d, Fraction(qp) ** d
        pairs.append((f"difference[q={q},q'={qp}]",
                      (qpd - qd) * e_j, prod[qp] - prod[q]))
        pairs.append((f"scaled-difference[q={q},q'={qp}]",
                      (qpd - qd) * ell * e_i, qpd * prod[q] - qd * prod[qp]))
    return _finish("product", ring, pairs, tolerance)


def check_self_product(J: Ideal, e_list, q0_exponent: int = 0,
                       e_max: int = 3,
                       tolerance: Fraction | None = None) -> IdentityReport:
    """e_HK(J·J^[q]) = (ℓ*(J) + q^d)·e_HK(J), with ℓ* from the estimator."""
    ring = J.ring
    _require_finite_colength(J, "J")
    spread = star_spread_estimate(J, None, q0_exponent, e_max)
    if spread.estimate is None:
        raise PreconditionError("spread estimate did not stabilize")
    ell = spread.estimate
    p = ring.characteristic
    d = ring.dimension
    e_j = ehk_estimate(J, e_max=e_max).value
    pairs = []
    for e in e_list:
        q = p ** e
        lhs = ehk_estimate(J * J.bracket_power(q), e_max=e_max).value
        rhs = (ell + Fraction(q) ** d) * e_j
        pairs.append((f"self-product[q={q}]", lhs, rhs))
    return _finish("self-product", ring, pairs, tolerance,
                   notes=(f"spread estimate {ell}",))


def check_lemma33_additivity(I: Ideal, z: Polynomial, a: Ideal | None = None,
                             q0_exponent: int = 0, e_max: int = 3,
                             tolerance: Fraction | None = None) -> IdentityReport:
    """Adjoining a nonzerodivisor adds e_HK(a) to the normalized subquotient:

        λ((I,z)^[qq0] / a^[q](I,z)^[qq0]) / q^d
            = e_HK(a) + λ(I^[qq0] / a^[q] I^[qq0]) / q^d
    """
    ring = I.ring
    if z.is_zero():
        raise PreconditionError("z must be nonzero")
    gb_i = I.groebner_basis()
    col = ideal_colon(I, Ideal(ring, (z,)))
    if not all(gb_i.contains(g) for g in col.gens):
        raise PreconditionError("z is a zerodivisor modulo the ideal")
    if a is None:
        a = maximal_ideal(ring)
    _require_finite_colength(a, "the normalizing ideal a")
    p = ring.characteristic
    d = ring.dimension
    q0 = p ** q0_exponent
    ehk_a = ehk_estimate(a, e_max=e_max).value
    Iz = Ideal(ring, I.gens + (z,))
    # a^[q]·K^[q·q0] = (a·K^[q0])^[q] for K = (I, z) and K = I
    a_iz = a * Iz.bracket_power(q0)
    a_i = a * I.bracket_power(q0)
    pairs = []
    for e in range(e_max + 1):
        q = p ** e
        qq0 = q * q0
        big = Iz.bracket_power(qq0)
        small = I.bracket_power(qq0)
        lhs = Fraction(int(length_subquotient(big, a_iz.bracket_power(q))),
                       q ** d)
        rhs = ehk_a + Fraction(
            int(length_subquotient(small, a_i.bracket_power(q))), q ** d)
        pairs.append((f"additivity[q={q}]", lhs, rhs))
    return _finish("lemma33-additivity", ring, pairs, tolerance)


def _fresh_names(ring: RingSpec, s: int):
    names = []
    used = set(ring.variables)
    for i in range(1, s + 1):
        name = "z" if s == 1 else f"z{i}"
        while name in used:
            name += "_"
        used.add(name)
        names.append(name)
    return tuple(names)


def check_base_change(R: RingSpec, a: Ideal, s: int, e_list,
                      e_max: int = 3,
                      tolerance: Fraction | None = None) -> IdentityReport:
    """Extending to S = R[z_1..z_s]: (a) λ_S(S/(a^[q]S, z^[q])) factors as
    λ_S(S/(mS, z^[q]))·λ_R(R/a^[q]); (b) e_HK(aS + (z)) = e_HK(a)."""
    if s < 1:
        raise PreconditionError("need at least one new variable")
    _require_finite_colength(a, "a")
    S = R.adjoin_variables(_fresh_names(R, s))
    n0 = R.nvars
    zs = tuple(S.gen(n0 + i) for i in range(s))
    aS = a.extended_to(S)
    mS = maximal_ideal(R).extended_to(S)
    p = R.characteristic
    pairs = []
    for e in e_list:
        q = p ** e
        zq = tuple(z.qth_power(q) for z in zs)
        lhs = int(length_quotient(Ideal(S, aS.bracket_power(q).gens + zq)))
        lam_box = int(length_quotient(Ideal(S, mS.gens + zq)))
        lam_a = int(length_quotient(a.bracket_power(q)))
        pairs.append((f"factorization[q={q}]",
                      Fraction(lhs), Fraction(lam_box * lam_a)))
    e_ext = ehk_estimate(Ideal(S, aS.gens + zs), e_max=e_max).value
    e_base = ehk_estimate(a, e_max=e_max).value
    # part (a) is an exact integer identity even over quotient rings (the
    # extension is free); only part (b) goes through estimated e_HK values
    exact = not R.relations
    tol = None if exact else (tolerance or DEFAULT_TOLERANCE)
    rows = _identity_rows(pairs, True, None)
    rows += _identity_rows([("extension-multiplicity", e_ext, e_base)],
                           exact, tol)
    return IdentityReport(name="base-change", exact=exact, tolerance=tol,
                          rows=rows, passed=all(r.passed for r in rows))


def check_corollary_vanishing(R: RingSpec, I: Ideal, q0_exponent: int = 0,
                              e_max: int = 3) -> IdentityReport:
    """With S = R[z] and z regular on S/I^[qq0]S, the quotient

        (m^[q] I^[qq0] S + (z^q) ∩ I^[qq0] S) / (mS, z)^[q] I^[qq0] S

    has length exactly 0 at every sampled q."""
    if I.is_unit():
        raise PreconditionError("vanishing check needs a proper ideal")
    S = R.adjoin_variables(_fresh_names(R, 1))
    z = S.gen(R.nvars)
    mS = maximal_ideal(R).extended_to(S)
    mz = Ideal(S, mS.gens + (z,))
    p = R.characteristic
    q0 = p ** q0_exponent
    # mS^[q]·I^[q·q0]S = (mS·I^[q0]S)^[q], and the same for (mS, z)
    Iq0S = I.bracket_power(q0).extended_to(S)
    m_i = mS * Iq0S
    mz_i = mz * Iq0S
    pairs = []
    for e in range(e_max + 1):
        q = p ** e
        IqS = I.bracket_power(q * q0).extended_to(S)
        zq = Ideal(S, (z.qth_power(q),))
        numerator = m_i.bracket_power(q) + zq.intersection(IqS)
        denominator = mz_i.bracket_power(q)
        lam = length_subquotient(numerator, denominator)
        pairs.append((f"vanishing[q={q}]", Fraction(int(lam)), Fraction(0)))
    rows = _identity_rows(pairs, True, None)
    return IdentityReport(name="corollary-vanishing", exact=True,
                          tolerance=None, rows=rows,
                          passed=all(r.passed for r in rows))
