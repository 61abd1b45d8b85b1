"""Monomial orders: degrevlex (default), lex, deglex, plus the internal
block order used for one-variable elimination."""

from __future__ import annotations

from .errors import AlgebraError


class MonomialOrder:
    """Total multiplicative well-order on exponent vectors.

    Comparison goes through sort keys: bigger key = bigger monomial.
    """

    __slots__ = ("kind",)

    KINDS = ("degrevlex", "lex", "deglex")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise AlgebraError(f"unknown monomial order {kind!r}")
        self.kind = kind

    def key(self, exps):
        if self.kind == "lex":
            return tuple(exps)
        total = sum(exps)
        if self.kind == "deglex":
            return (total, tuple(exps))
        # degrevlex: higher = smaller reversed-negated tail
        return (total, tuple(-exps[i] for i in range(len(exps) - 1, -1, -1)))

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.kind == self.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"MonomialOrder({self.kind!r})"

    @property
    def name(self) -> str:
        return self.kind


class AuxBlockOrder:
    """Eliminates variable 0: compares its exponent first, then the rest
    under an inner order.  Used only for the intersection construction."""

    __slots__ = ("inner",)

    def __init__(self, inner: MonomialOrder):
        self.inner = inner

    def key(self, exps):
        return (exps[0], self.inner.key(exps[1:]))

    def __eq__(self, other):
        return isinstance(other, AuxBlockOrder) and other.inner == self.inner

    def __hash__(self):
        return hash(("aux", self.inner))

    @property
    def name(self) -> str:
        return f"eliminate-first+{self.inner.name}"


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")
DEGLEX = MonomialOrder("deglex")

_BY_NAME = {"degrevlex": DEGREVLEX, "lex": LEX, "deglex": DEGLEX}


def order_by_name(name: str) -> MonomialOrder:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise AlgebraError(f"unknown monomial order {name!r}")
