"""Finite-q star-spread estimation and the exact identities it rests on.

Both estimators of ℓ*(J) read one subquotient level, the lengths
    λ(J^[q·q0] / a^[q] J^[q·q0])   at q = p^e, e = 0..e_max,
normalized by q^d · e_HK(a).  `spread` rounds the ratios, escalating q0
through the values 1, p, p², p³ until they settle; `spread_hk` takes the
limit of the level at one q0.  The identity checkers verify the product,
self-product, additivity, base-change, and vanishing relations that the
estimators' convergence depends on.  Every function here takes Frobenius
powers as the values q and q0 themselves, never as exponents.

Tight closure itself is never computed: the independence diagnostics are
necessary-condition checks built on colon containments, and every report
carries that caveat.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import PreconditionError
from .ideals import Ideal, ideal_colon, ideal_intersection, maximal_ideal
from .lengths import (_fit_leading, _levels, ehk_estimate, length_quotient,
                      length_subquotient)
from .poly import Polynomial, RingSpec, as_q

CAVEAT = ("finite-q evidence only: a pass is consistent with "
          "star-independence but proves nothing; a unit colon proves "
          "dependence")

DEFAULT_TOLERANCE = Fraction(1, 20)
Q0_CAP_EXPONENT = 3


def _rounded(r: Fraction):
    """(n, |r − n|) for the integer n nearest r, or None when that distance
    is 1/4 or more: the one rounding rule of both estimators."""
    n = (r + Fraction(1, 2)).__floor__()
    distance = abs(r - n)
    return (n, distance) if distance < Fraction(1, 4) else None


class SpreadCell(NamedTuple):
    q0: int
    e: int
    q: int
    length: int
    ratio: Fraction


class SpreadReport(NamedTuple):
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


class IdentityRow(NamedTuple):
    label: str
    lhs: Fraction
    rhs: Fraction
    residual: Fraction
    passed: bool


class IdentityReport(NamedTuple):
    name: str
    exact: bool
    tolerance: Fraction | None
    rows: tuple
    passed: bool
    notes: tuple = ()


class ColonRow(NamedTuple):
    e: int
    q: int
    unit_colon: bool
    least_q0: int | None
    contained: bool


class ColonCriterionReport(NamedTuple):
    candidate: Polynomial
    rows: tuple
    verdict: str
    caveat: str = CAVEAT


class IndependenceReport(NamedTuple):
    generators: tuple
    reports: tuple
    verdict: str
    caveat: str = CAVEAT


def _require_proper(I: Ideal, what: str):
    if I.is_unit():
        raise PreconditionError(f"{what} needs a proper ideal")


def _require_finite_colength(I: Ideal, what: str):
    if not length_quotient(I).is_finite:
        raise PreconditionError(f"{what} must have finite colength")


def _q_values(ring: RingSpec, q) -> list:
    """The list q of powers of p, refused empty: it would pass on no rows."""
    qs = [as_q(ring, v) for v in q]
    if not qs:
        raise PreconditionError("the identity needs at least one q")
    return qs


def _normalizer(ring: RingSpec, a: Ideal | None, e_max: int):
    """(a, e_HK(a)) for the normalizing ideal a, the maximal ideal when
    None, after checking that a is proper (the unit ideal has e_HK = 0,
    which every estimate divides by) and has finite colength."""
    if ring.relations and e_max < 1:
        raise PreconditionError(
            "the normalizing e_HK(a) on a quotient ring needs e_max >= 1")
    if a is None:
        a = maximal_ideal(ring)
    if a.is_unit():
        raise PreconditionError("the normalizing ideal a must be proper")
    _require_finite_colength(a, "the normalizing ideal a")
    return a, ehk_estimate(a, e_max=e_max).value


def _stabilize(ratios):
    """First consecutive pair rounding to one integer, both within 1/4."""
    for r1, r2 in zip(ratios, ratios[1:]):
        a, b = _rounded(r1), _rounded(r2)
        if a and b and a[0] == b[0]:
            return a[0], True, max(a[1], b[1])
    return None, False, None


def _spread_lengths(K: Ideal, a: Ideal, q0: int, e_max: int) -> dict:
    """{q: λ(K^[q·q0] / a^[q]·K^[q·q0])} for q = p^e, e = 0..e_max, with
    the denominator built as (a·K^[q0])^[q]."""
    Kq0 = K.bracket_power(q0)
    aKq0 = a * Kq0
    return {q: int(length_subquotient(Kq0.bracket_power(q),
                                      aKq0.bracket_power(q)))
            for q in _levels(K.ring, e_max)}


def star_spread_estimate(J: Ideal, a: Ideal | None = None, q0: int = 1,
                         e_max: int = 3) -> SpreadReport:
    """Estimate ℓ*(J) from subquotient lengths at q = p^e, e = 0..e_max.

    When the rounded ratio fails to stabilize, q0 moves one level up, to
    min(q0·p, p^Q0_CAP_EXPONENT), and the table is recomputed there; a
    level at or past the cap is the last.
    """
    ring = J.ring
    q0 = as_q(ring, q0)
    _require_proper(J, "spread")
    a, ehk_a = _normalizer(ring, a, e_max)
    if e_max < 1:
        raise PreconditionError(
            "each q0 level compares the cells e = 0 and e = 1, so spread "
            "needs e_max >= 1")
    p = ring.characteristic
    d = ring.dimension
    cap = p ** Q0_CAP_EXPONENT

    cells = []
    schedule = []
    while True:
        schedule.append(q0)
        round_ratios = []
        for e, (q, lam) in enumerate(_spread_lengths(J, a, q0, e_max).items()):
            ratio = Fraction(lam) / (Fraction(q) ** d * ehk_a)
            cells.append(SpreadCell(q0, e, q, lam, ratio))
            round_ratios.append(ratio)
        estimate, stabilized, distance = _stabilize(round_ratios)
        if stabilized or q0 >= cap:
            break
        q0 = min(q0 * p, cap)
    return SpreadReport(method="subquotient", J=J, a=a, dimension=d,
                        ehk_a=ehk_a, cells=tuple(cells),
                        q0_schedule=tuple(schedule), estimate=estimate,
                        stabilized=stabilized, rounding_distance=distance)


def star_spread_hk_difference(J: Ideal, a: Ideal | None = None,
                              q0: int = 1, e_max: int = 3) -> SpreadReport:
    """(e_HK(a·J^[q0]) − e_HK(J^[q0])) / e_HK(a) for finite-colength J,
    from the spread cells at q0, each λ(R/(a·J^[q0])^[q]) − λ(R/J^[q·q0]):
    their fitted lead (the fit of `ehk_estimate`, linear in the lengths)
    on a quotient ring, the q = 1 cell on a relation-free ring."""
    ring = J.ring
    q0 = as_q(ring, q0)
    _require_proper(J, "spread_hk")
    _require_finite_colength(J, "J")
    a, e_a = _normalizer(ring, a, e_max)
    flat = not ring.relations  # the Frobenius is flat: cell(q) = q^d·cell(1)
    cells = _spread_lengths(J, a, q0, 0 if flat else e_max)
    lead = cells[1] if flat else _fit_leading(cells, ring.dimension)[0]
    value = lead / e_a
    rounded = _rounded(value)
    estimate, distance = rounded or (None, None)
    return SpreadReport(method="hk-difference", J=J, a=a,
                        dimension=ring.dimension, ehk_a=e_a, cells=(),
                        q0_schedule=(q0,),
                        estimate=estimate, stabilized=rounded is not None,
                        rounding_distance=distance, value=value)


# -- colon-criterion diagnostics ---------------------------------------------


def _verdict(dependent: bool, consistent: bool) -> str:
    if dependent:
        return "dependent"
    return "consistent" if consistent else "inconclusive"


def colon_criterion_diagnostic(I: Ideal, x: Polynomial, q0: int | None = None,
                               e_max: int = 3) -> ColonCriterionReport:
    """Containment survey of (I^[q] : x^q) in m^[q/q0'] for q = p..p^e_max,
    trying q0' = 1, p, p², .. up to min(q0, q); q0 defaults to p².

    A unit colon at any q certifies x^q ∈ I^[q] (dependence); otherwise the
    least working q0' per q is recorded, or the row is inconclusive.
    """
    ring = I.ring
    p = ring.characteristic
    q0 = p * p if q0 is None else as_q(ring, q0)
    if x.is_zero():
        return ColonCriterionReport(candidate=x, rows=(), verdict="dependent")
    if e_max < 1:
        raise PreconditionError("the colon survey needs e_max >= 1")
    m = maximal_ideal(ring)
    levels = _levels(ring, e_max)
    rows = []
    for e, q in enumerate(levels[1:], 1):
        col = ideal_colon(I.bracket_power(q), Ideal(ring, (x.qth_power(q),)))
        if col.is_unit():
            rows.append(ColonRow(e, q, True, None, False))
            continue
        least = next((s for s in levels[:e + 1] if s <= q0
                      and m.bracket_power(q // s).contains_ideal(col)), None)
        rows.append(ColonRow(e, q, False, least, least is not None))
    verdict = _verdict(any(r.unit_colon for r in rows),
                       all(r.contained for r in rows))
    return ColonCriterionReport(candidate=x, rows=tuple(rows), verdict=verdict)


def star_independence_diagnostic(gens, q0: int | None = None,
                                 e_max: int = 3) -> IndependenceReport:
    """Each generator against the ideal of the others, via the colon survey."""
    gens = tuple(gens)
    if len(gens) < 2:
        raise PreconditionError("independence needs at least two generators")
    ring = gens[0].ring
    reports = []
    for i, f in enumerate(gens):
        others = Ideal(ring, gens[:i] + gens[i + 1:])
        reports.append(colon_criterion_diagnostic(others, f, q0, e_max))
    verdict = _verdict(any(r.verdict == "dependent" for r in reports),
                       all(r.verdict == "consistent" for r in reports))
    return IndependenceReport(generators=gens, reports=tuple(reports),
                              verdict=verdict)


# -- identity checkers --------------------------------------------------------


def _identity_rows(pairs, bound):
    return tuple(IdentityRow(label, lhs, rhs, rhs - lhs, abs(rhs - lhs) <= bound)
                 for label, lhs, rhs in pairs)


def _finish(name, exact, pairs, exact_pairs=(), notes=()):
    """The report on `exact_pairs`, whose sides must be equal, then on
    `pairs`, equal too when `exact` and within DEFAULT_TOLERANCE if not."""
    tol = None if exact else DEFAULT_TOLERANCE
    rows = _identity_rows(exact_pairs, 0) + _identity_rows(pairs, tol or 0)
    return IdentityReport(name=name, exact=exact, tolerance=tol, rows=rows,
                          passed=all(r.passed for r in rows), notes=tuple(notes))


def check_product_identity(I: Ideal, J: Ideal, ell: int, q,
                           e_max: int = 3) -> IdentityReport:
    """ℓ·e_HK(I) + q^d·e_HK(J) = e_HK(I·J^[q]), plus the q-difference forms.

    ell is the caller's value for ℓ*(J) (e.g. a spread estimate).  For each
    value in the list q the product form is checked; consecutive q < q' additionally
    check (q'^d − q^d)·e_HK(J) = e_HK(IJ^[q']) − e_HK(IJ^[q]) and
    (q'^d − q^d)·ℓ·e_HK(I) = q'^d·e_HK(IJ^[q]) − q^d·e_HK(IJ^[q']).
    """
    ring = I.ring
    qs = _q_values(ring, q)
    _require_finite_colength(I, "I")
    _require_finite_colength(J, "J")
    _require_proper(J, "product identity")
    d = ring.dimension
    e_i = ehk_estimate(I, e_max=e_max).value
    e_j = ehk_estimate(J, e_max=e_max).value
    prod = {q: ehk_estimate(I * J.bracket_power(q), e_max=e_max).value
            for q in qs}
    pairs = [(f"product[q={q}]", ell * e_i + Fraction(q) ** d * e_j, prod[q])
             for q in qs]
    for q, qp in zip(qs, qs[1:]):
        qd, qpd = Fraction(q) ** d, Fraction(qp) ** d
        pairs.append((f"difference[q={q},q'={qp}]",
                      (qpd - qd) * e_j, prod[qp] - prod[q]))
        pairs.append((f"scaled-difference[q={q},q'={qp}]",
                      (qpd - qd) * ell * e_i, qpd * prod[q] - qd * prod[qp]))
    return _finish("product", not ring.relations, pairs)


def check_self_product(J: Ideal, q, q0: int = 1,
                       e_max: int = 3) -> IdentityReport:
    """e_HK(J·J^[q]) = (ℓ*(J) + q^d)·e_HK(J) for each value in the list q,
    with ℓ* from the estimator."""
    ring = J.ring
    qs = _q_values(ring, q)
    _require_finite_colength(J, "J")
    spread = star_spread_estimate(J, None, q0, e_max)
    if spread.estimate is None:
        raise PreconditionError("spread estimate did not stabilize")
    ell = spread.estimate
    d = ring.dimension
    e_j = ehk_estimate(J, e_max=e_max).value
    pairs = [(f"self-product[q={q}]",
              ehk_estimate(J * J.bracket_power(q), e_max=e_max).value,
              (ell + Fraction(q) ** d) * e_j) for q in qs]
    return _finish("self-product", not ring.relations, pairs,
                   notes=(f"spread estimate {ell}",))


def check_lemma33_additivity(I: Ideal, z: Polynomial, a: Ideal | None = None,
                             q0: int = 1, e_max: int = 3) -> IdentityReport:
    """Adjoining a nonzerodivisor z of the maximal ideal adds e_HK(a) to
    the normalized subquotient:

        λ((I,z)^[qq0] / a^[q](I,z)^[qq0]) / q^d
            = e_HK(a) + λ(I^[qq0] / a^[q] I^[qq0]) / q^d
    """
    ring = I.ring
    q0 = as_q(ring, q0)
    _require_proper(I, "additivity check")
    if z.is_zero():
        raise PreconditionError("z must be nonzero")
    if z not in maximal_ideal(ring):
        raise PreconditionError("z must lie in the maximal ideal")
    if not I.contains_ideal(ideal_colon(I, Ideal(ring, (z,)))):
        raise PreconditionError("z is a zerodivisor modulo the ideal")
    a, ehk_a = _normalizer(ring, a, e_max)
    d = ring.dimension
    big = _spread_lengths(Ideal(ring, I.gens + (z,)), a, q0, e_max)
    small = _spread_lengths(I, a, q0, e_max)
    pairs = [(f"additivity[q={q}]", Fraction(big[q], q ** d),
              ehk_a + Fraction(small[q], q ** d)) for q in big]
    return _finish("lemma33-additivity", not ring.relations, pairs)


def check_base_change(a: Ideal, s: int, q, e_max: int = 3) -> IdentityReport:
    """Extending the ring R of a to S = R[z_1..z_s]: (a) λ_S(S/(a^[q]S, z^[q]))
    factors as λ_S(S/(mS, z^[q]))·λ_R(R/a^[q]) for each value in the list q;
    (b) e_HK(aS + (z)) = e_HK(a)."""
    R = a.ring
    qs = _q_values(R, q)
    if s < 1:
        raise PreconditionError("need at least one new variable")
    _require_finite_colength(a, "a")
    S = R.adjoin_variables(R.unused_names(
        ["z"] if s == 1 else [f"z{i}" for i in range(1, s + 1)]))
    zs = S.gens()[R.nvars:]
    # (aS, z)^[q] = (a^[q]S, z^[q]): one Frobenius chain serves (a) and (b)
    az = Ideal(S, a.extended_to(S).gens + zs)
    mS = maximal_ideal(R).extended_to(S)
    pairs = []
    for q in qs:
        zq = tuple(z.qth_power(q) for z in zs)
        lhs = int(length_quotient(az.bracket_power(q)))
        lam_box = int(length_quotient(Ideal(S, mS.gens + zq)))
        lam_a = int(length_quotient(a.bracket_power(q)))
        pairs.append((f"factorization[q={q}]",
                      Fraction(lhs), Fraction(lam_box * lam_a)))
    e_ext = ehk_estimate(az, e_max=e_max).value
    e_base = ehk_estimate(a, e_max=e_max).value
    # part (a) is an exact integer identity even over quotient rings (the
    # extension is free); only part (b) goes through estimated e_HK values
    return _finish("base-change", not R.relations,
                   [("extension-multiplicity", e_ext, e_base)],
                   exact_pairs=pairs)


def check_corollary_vanishing(I: Ideal, q0: int = 1,
                              e_max: int = 3) -> IdentityReport:
    """With R the ring of I, S = R[z] and z regular on S/I^[qq0]S, the
    quotient

        (m^[q] I^[qq0] S + (z^q) ∩ I^[qq0] S) / (mS, z)^[q] I^[qq0] S

    has length exactly 0 at every sampled q."""
    R = I.ring
    q0 = as_q(R, q0)
    _require_proper(I, "vanishing check")
    S = R.adjoin_variables(R.unused_names(["z"]))
    z = S.gen(R.nvars)
    mS = maximal_ideal(R).extended_to(S)
    mz = Ideal(S, mS.gens + (z,))
    # mS^[q]·I^[q·q0]S = (mS·I^[q0]S)^[q], and the same for (mS, z)
    Iq0S = I.bracket_power(q0).extended_to(S)
    m_i = mS * Iq0S
    mz_i = mz * Iq0S
    pairs = []
    for q in _levels(R, e_max):
        IqS = I.bracket_power(q * q0).extended_to(S)
        zq = Ideal(S, (z.qth_power(q),))
        numerator = m_i.bracket_power(q) + ideal_intersection(zq, IqS)
        lam = length_subquotient(numerator, mz_i.bracket_power(q))
        pairs.append((f"vanishing[q={q}]", Fraction(int(lam)), Fraction(0)))
    return _finish("corollary-vanishing", True, pairs)
