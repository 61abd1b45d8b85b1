"""Monomial orders: degrevlex (default), lex, deglex, plus the internal
block order used for one-variable elimination."""

from __future__ import annotations

from .errors import AlgebraError


def _lex_key(exps):
    return tuple(exps)


def _lex_reverse_key(exps):
    return tuple([-e for e in exps])


def _deglex_key(exps):
    return (sum(exps), tuple(exps))


def _deglex_reverse_key(exps):
    return (-sum(exps), tuple([-e for e in exps]))


def _degrevlex_key(exps):
    # higher = smaller reversed-negated tail
    return (sum(exps), tuple([-e for e in reversed(exps)]))


def _degrevlex_reverse_key(exps):
    return (-sum(exps), exps[::-1])


_KEYS = {
    "lex": (_lex_key, _lex_reverse_key),
    "deglex": (_deglex_key, _deglex_reverse_key),
    "degrevlex": (_degrevlex_key, _degrevlex_reverse_key),
}


class MonomialOrder:
    """Total multiplicative well-order on exponent vectors.

    Comparison goes through sort keys: bigger key = bigger monomial.
    `reverse_key` sorts the other way round (bigger monomial = smaller
    key), so a min-heap on it pops the largest monomial first.
    """

    __slots__ = ("kind", "key", "reverse_key")

    KINDS = ("degrevlex", "lex", "deglex")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise AlgebraError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.key, self.reverse_key = _KEYS[kind]

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

    def reverse_key(self, exps):
        return (-exps[0], self.inner.reverse_key(exps[1:]))

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
