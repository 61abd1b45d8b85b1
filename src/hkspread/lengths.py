"""Lengths read off sparse Hilbert-series numerators: colengths λ(R/I)
and subquotient lengths λ(M/N) by one formula (no colon is computed,
no monomial is visited), Hilbert-Kunz functions, and multiplicity
estimation with exact rational arithmetic.  Every numerator is the memo
`I.groebner_basis().numerator()` of a DEGREVLEX GB: the order is
degree-compatible, which is what makes the numerators give lengths for
inhomogeneous ideals too."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .errors import ContainmentError, InfiniteLengthError, PreconditionError
from .groebner import taylor_at_one
from .ideals import Ideal


class LengthValue(NamedTuple):
    """A module length: a nonnegative integer or the typed infinite value."""

    value: int | None

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __eq__(self, other):
        if isinstance(other, LengthValue):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __ne__(self, other):  # tuple's own __ne__ would ignore __eq__
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self.value)   # equal to its int, so hashed like it

    def __int__(self):
        if self.value is None:
            raise InfiniteLengthError("length is infinite")
        return self.value

    def __repr__(self):
        return f"LengthValue({'inf' if self.value is None else self.value})"


INFINITE = LengthValue(None)


def _length(D: dict, n: int) -> LengthValue:
    """Σ of the coefficients of D/(1−t)^n, D = {degree: coefficient}, or
    INFINITE when D/(1−t)^n is not a polynomial.

    Read off the Taylor coefficients a_k of D at t = 1 (`taylor_at_one`):
    (1−t)^n divides D iff a_k = 0 for every k < n, and then
    D = (1−t)^n·H with H(1) = (−1)^n·a_n."""
    a = taylor_at_one(D, n)
    if any(a[:n]):
        return INFINITE
    return LengthValue((-1) ** n * a[n])


def length_quotient(I: Ideal) -> LengthValue:
    """λ(R/I): the number of standard monomials, K_I/(1−t)^n at t = 1, or
    the infinite value."""
    return _length(I.groebner_basis().numerator(), I.ring.nvars)


def length_subquotient(M: Ideal, N: Ideal) -> LengthValue:
    """λ(M/N) for N ⊆ M, read off the Hilbert-series numerators K_N, K_M
    of the two leading-term ideals (Bayer-Stillman, JSC 14, 1992).

    The GBs are DEGREVLEX, a degree-compatible order, so for any ideal I,
    homogeneous or not, the standard monomials of degree <= d are a basis
    of R_{<=d} / (I ∩ R_{<=d}), with generating function K_I/(1−t)^n.  The
    subquotients (M ∩ R_{<=d}) / (N ∩ R_{<=d}) increase to M/N, so λ(M/N)
    is the sum of the coefficients of (K_N − K_M)/(1−t)^n: finite when it
    is a polynomial, infinite when it is not.
    """
    if not M.contains_ideal(N):
        raise ContainmentError("second ideal is not contained in the first")
    diff = Counter(N.groebner_basis().numerator())
    diff.subtract(M.groebner_basis().numerator())
    return _length(diff, M.ring.nvars)


class HKSample(NamedTuple):
    e: int
    q: int
    colength: int
    normalized: Fraction


class HKEstimate(NamedTuple):
    value: Fraction
    method: str
    samples: tuple
    residuals: tuple | None = None
    error_bound: Fraction | None = None
    secondary: Fraction | None = None
    ratio_trend: str | None = None


def hk_function(a: Ideal, e_max: int) -> list:
    """Samples of λ(R/a^[p^e]) for e = 0..e_max with normalized ratios."""
    if e_max < 0:
        raise PreconditionError("e_max must be nonnegative")
    ring = a.ring
    p = ring.characteristic
    d = ring.dimension
    samples = []
    for e in range(e_max + 1):
        q = p ** e
        lam = length_quotient(a.bracket_power(q))
        if not lam.is_finite:
            raise InfiniteLengthError(
                "Hilbert-Kunz function needs an ideal of finite colength")
        samples.append(HKSample(e, q, lam.value, Fraction(lam.value, q ** d)))
    return samples


def _ratio_trend(samples) -> str | None:
    if len(samples) < 2:
        return None
    diffs = [b.normalized - a.normalized for a, b in zip(samples, samples[1:])]
    if all(df == 0 for df in diffs):
        return "constant"
    if all(df >= 0 for df in diffs):
        return "non-decreasing"
    if all(df <= 0 for df in diffs):
        return "non-increasing"
    return "mixed"


def _fit_leading(lengths: dict, d):
    """Exact least squares of length ~ A·q^d + B·q^(d-1) over the samples
    {q: length}; the lead A is linear in the lengths.  The normal equations
    are formed in integers, with the column q^(d-1) scaled by the lcm of
    the q so that it is integral on d = 0 too: that leaves A and the
    residuals alone and divides B by the scale."""
    scale = math.lcm(*lengths)
    cols = [(q ** d, q ** d * scale // q) for q in lengths]
    ys = list(lengths.values())
    a11 = sum(c1 * c1 for c1, _ in cols)
    a12 = sum(c1 * c2 for c1, c2 in cols)
    a22 = sum(c2 * c2 for _, c2 in cols)
    b1 = sum(c1 * y for (c1, _), y in zip(cols, ys))
    b2 = sum(c2 * y for (_, c2), y in zip(cols, ys))
    det = a11 * a22 - a12 * a12
    if det == 0:
        raise PreconditionError("degenerate fit: need at least two distinct q")
    lead = Fraction(b1 * a22 - b2 * a12, det)
    second = Fraction(a11 * b2 - a12 * b1, det)
    residuals = tuple(lead * c1 + second * c2 - y
                      for (c1, c2), y in zip(cols, ys))
    return lead, second * scale, residuals


def ehk_estimate(a: Ideal, e_max: int = 3, method: str = "auto") -> HKEstimate:
    """Hilbert-Kunz multiplicity of a finite-colength ideal.

    Exact shortcuts: a monomial ideal in a relation-free ring has
    e_HK = λ(R/a) (staircases dilate exactly), and in fact any
    finite-colength ideal of a relation-free ring does (the Frobenius is
    flat, so λ(R/a^[q]) = q^d λ(R/a)).  `method` is auto, fit or last:
    auto takes that exact value on a relation-free ring and fits
    elsewhere; fit and last sample e = 0..e_max and extrapolate.  The
    estimate names the rule it used (monomial-exact, regular-exact,
    linear-fit or last-sample).
    """
    if method not in ("auto", "fit", "last"):
        raise PreconditionError(f"unknown estimation method {method!r}")
    ring = a.ring
    if method == "auto" and not ring.relations:
        lam = length_quotient(a)
        if not lam.is_finite:
            raise InfiniteLengthError("multiplicity needs finite colength")
        monomial = all(g.is_monomial() for g in a.gens)
        sample = HKSample(0, 1, lam.value, Fraction(lam.value))
        return HKEstimate(value=Fraction(lam.value),
                          method="monomial-exact" if monomial else "regular-exact",
                          samples=(sample,),
                          error_bound=Fraction(0))
    if method == "auto":
        method = "fit"

    if method == "fit" and e_max < 1:
        raise PreconditionError("fit methods need e_max >= 1")
    samples = tuple(hk_function(a, e_max))
    trend = _ratio_trend(samples)
    if method == "last":
        bound = None
        if len(samples) >= 2:
            bound = abs(samples[-1].normalized - samples[-2].normalized)
        return HKEstimate(value=samples[-1].normalized, method="last-sample",
                          samples=samples, error_bound=bound, ratio_trend=trend)
    lead, second, residuals = _fit_leading(
        {s.q: s.colength for s in samples}, ring.dimension)
    return HKEstimate(value=lead, method="linear-fit", samples=samples,
                      residuals=residuals, secondary=second, ratio_trend=trend)
