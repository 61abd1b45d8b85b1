"""Lengths read off sparse Hilbert-series numerators: colengths λ(R/I)
and subquotient lengths λ(M/N) by one formula (no colon is computed,
no monomial is visited), Hilbert-Kunz functions, and multiplicity
estimation with exact rational arithmetic.  Every numerator is the memo
`I.groebner_basis().numerator()` of a DEGREVLEX GB: the order is
degree-compatible, which is what makes the numerators give lengths for
inhomogeneous ideals too."""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import ContainmentError, InfiniteLengthError, PreconditionError
from .groebner import taylor_at_one
from .ideals import Ideal


class LengthValue(namedtuple("LengthValue", "value")):
    """A module length: a nonnegative integer or the typed infinite value."""

    __slots__ = ()

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


HKSample = namedtuple("HKSample", "e q colength normalized")


class Evidence(namedtuple("Evidence", "kind by checks", defaults=((),))):
    """How a value is known: `kind` is "exact" (computed), "proven" (by a
    theorem from computed values) or "sampled" (read off finite q); `by`
    names the rule, and `checks` are the rationals that rule read."""

    __slots__ = ()


# the rules an e_HK estimate rests on, each written once
_BY_FLAT = "flat Frobenius (Kunz): e_HK(a) = λ(R/a)"
_BY_FIT = "least-squares lead of λ(R/a^[q]) ≈ A·q^d + B·q^(d−1)"
_BY_LAST = "last normalized sample"


HKEstimate = namedtuple("HKEstimate", "value samples evidence")


def _levels(ring, e_max: int) -> list:
    """q = p^e for e = 0..e_max, the levels every sampler reads, refused
    empty: a check would pass on no rows, an estimate have no sample."""
    if e_max < 0:
        raise PreconditionError("sampling the levels needs e_max >= 0")
    return [ring.characteristic ** e for e in range(e_max + 1)]


def hk_function(a: Ideal, e_max: int) -> list:
    """Samples of λ(R/a^[p^e]) for e = 0..e_max with normalized ratios."""
    levels = _levels(a.ring, e_max)
    d = a.ring.dimension
    samples = []
    for e, q in enumerate(levels):
        lam = length_quotient(a.bracket_power(q))
        if not lam.is_finite:
            raise InfiniteLengthError(
                "Hilbert-Kunz function needs an ideal of finite colength")
        samples.append(HKSample(e, q, lam.value, Fraction(lam.value, q ** d)))
    return samples


def _fit_leading(lengths: dict, d):
    """Exact least squares of length ~ A·q^d + B·q^(d-1) over the samples
    {q: length}: (A, residuals), A linear in the lengths.  The normal
    equations are formed in integers, with the column q^(d-1) scaled by the
    lcm of the q so that it is integral on d = 0 too: that leaves A and the
    residuals alone."""
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
    return lead, residuals


def ehk_estimate(a: Ideal, e_max: int = 3, method: str = "auto") -> HKEstimate:
    """Hilbert-Kunz multiplicity of a finite-colength ideal.

    On a relation-free ring the Frobenius is flat (Kunz), so
    λ(R/a^[q]) = q^d λ(R/a) and e_HK = λ(R/a) is proven.  `method` is
    auto, fit or last: auto takes that proven value on a relation-free ring
    and fits elsewhere; fit and last sample e = 0..e_max and extrapolate,
    and their evidence is sampled.
    """
    if method not in ("auto", "fit", "last"):
        raise PreconditionError(f"unknown estimation method {method!r}")
    ring = a.ring
    if method == "auto" and not ring.relations:
        lam = length_quotient(a)
        if not lam.is_finite:
            raise InfiniteLengthError("multiplicity needs finite colength")
        sample = HKSample(0, 1, lam.value, Fraction(lam.value))
        return HKEstimate(Fraction(lam.value), (sample,),
                          Evidence("proven", _BY_FLAT))
    if method != "last" and e_max < 1:
        raise PreconditionError("fit methods need e_max >= 1" if method == "fit"
                                else "e_HK on a quotient ring needs e_max >= 1")
    samples = tuple(hk_function(a, e_max))
    if method == "last":
        last = samples[-1].normalized
        checks = tuple(abs(last - s.normalized) for s in samples[-2:-1])
        return HKEstimate(last, samples, Evidence("sampled", _BY_LAST, checks))
    lead, residuals = _fit_leading(
        {s.q: s.colength for s in samples}, ring.dimension)
    return HKEstimate(lead, samples, Evidence("sampled", _BY_FIT, residuals))
