"""Lengths read off sparse Hilbert-series numerators: colengths λ(R/I)
and subquotient lengths λ(M/N) by one formula (no colon is computed,
no monomial is visited), Hilbert-Kunz functions, and multiplicity
estimation with exact rational arithmetic.  Every length rests on
DEGREVLEX GBs: the order is degree-compatible, which is what makes the
numerators give lengths for inhomogeneous ideals too."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import ContainmentError, InfiniteLengthError, PreconditionError
from .groebner import hilbert_numerator
from .ideals import Ideal


@dataclass(frozen=True, eq=False)
class LengthValue:
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

    def __hash__(self):
        return hash(("LengthValue", self.value))

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

    Read off the Taylor coefficients of D at t = 1,
    a_k = D^(k)(1)/k! = Σ_j c_j·C(j, k): (1−t)^n divides D iff a_k = 0 for
    every k < n, and then D = (1−t)^n·H with H(1) = (−1)^n·a_n.  The cost
    is O(terms · n), whatever the degrees."""
    a = [sum(c * comb(j, k) for j, c in D.items()) for k in range(n + 1)]
    if any(a[:n]):
        return INFINITE
    return LengthValue((-1) ** n * a[n])


def length_quotient(I: Ideal) -> LengthValue:
    """λ(R/I): the number of standard monomials, K_I/(1−t)^n at t = 1, or
    the infinite value."""
    return _length(hilbert_numerator(I), I.ring.nvars)


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
    diff = Counter(hilbert_numerator(N))
    diff.subtract(hilbert_numerator(M))
    return _length(diff, M.ring.nvars)


@dataclass(frozen=True)
class HKSample:
    e: int
    q: int
    colength: int
    normalized: Fraction


@dataclass(frozen=True)
class HKEstimate:
    value: Fraction
    method: str
    samples: tuple
    residuals: tuple | None = None
    error_bound: Fraction | None = None
    secondary: Fraction | None = None
    ratio_trend: str | None = None

    @property
    def value_float(self) -> float:
        return float(self.value)


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


def _fit_leading(samples, d):
    """Exact least squares of colength ~ A·q^d + B·q^(d-1)."""
    cols = [(Fraction(s.q) ** d, Fraction(s.q) ** (d - 1)) for s in samples]
    ys = [Fraction(s.colength) for s in samples]
    a11 = sum(c[0] * c[0] for c in cols)
    a12 = sum(c[0] * c[1] for c in cols)
    a22 = sum(c[1] * c[1] for c in cols)
    b1 = sum(c[0] * y for c, y in zip(cols, ys))
    b2 = sum(c[1] * y for c, y in zip(cols, ys))
    det = a11 * a22 - a12 * a12
    if det == 0:
        raise PreconditionError("degenerate fit: need at least two distinct q")
    lead = (b1 * a22 - b2 * a12) / det
    second = (a11 * b2 - a12 * b1) / det
    residuals = tuple(lead * c[0] + second * c[1] - y for c, y in zip(cols, ys))
    return lead, second, residuals


def ehk_estimate(a: Ideal, e_max: int = 3, method: str = "auto") -> HKEstimate:
    """Hilbert-Kunz multiplicity of a finite-colength ideal.

    Exact shortcuts: a monomial ideal in a relation-free ring has
    e_HK = λ(R/a) (staircases dilate exactly), and in fact any
    finite-colength ideal of a relation-free ring does (the Frobenius is
    flat, so λ(R/a^[q]) = q^d λ(R/a)).  Rings with relations are sampled
    along e = 0..e_max and extrapolated.  `method` is auto, exact, fit or
    last; the estimate names the rule it used (monomial-exact,
    regular-exact, linear-fit or last-sample).
    """
    if method not in ("auto", "exact", "fit", "last"):
        raise PreconditionError(f"unknown estimation method {method!r}")
    ring = a.ring
    relation_free = not ring.relations
    monomial = relation_free and all(g.is_monomial() for g in a.gens)

    if method == "exact" and not relation_free:
        raise PreconditionError(
            "exact method requires a relation-free ring; use fit or last")
    if method == "auto":
        method = "exact" if relation_free else "fit"

    if method == "exact":
        lam = length_quotient(a)
        if not lam.is_finite:
            raise InfiniteLengthError("multiplicity needs finite colength")
        sample = HKSample(0, 1, lam.value, Fraction(lam.value))
        return HKEstimate(value=Fraction(lam.value),
                          method="monomial-exact" if monomial else "regular-exact",
                          samples=(sample,),
                          error_bound=Fraction(0))

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
    lead, second, residuals = _fit_leading(samples, ring.dimension)
    return HKEstimate(value=lead, method="linear-fit", samples=samples,
                      residuals=residuals, secondary=second, ratio_trend=trend)
