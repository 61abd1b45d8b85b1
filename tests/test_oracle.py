"""Colengths of monomial boxes on hypersurfaces, against an oracle that
needs no Gröbner basis.

For R = S/(f) with f homogeneous and a box b,

    λ(R/(x_1^b_1, …, x_n^b_n)) = Π b_i − rank(f· on S/(x^b)),

the rank taken over F_p on the standard monomials of S/(x^b).  Multiplying
by f raises degrees by deg f, so the rank is a sum over source degrees.
"""

import random
from collections import defaultdict
from itertools import product
from math import prod

import pytest

from hkspread import (
    Polynomial,
    RingSpec,
    hk_function,
    length_quotient,
    maximal_ideal,
)


def _rank(rows, p):
    """Rank over F_p of sparse rows ({column: coefficient})."""
    pivots = {}  # column -> row with that column as its largest, scaled to 1
    for row in rows:
        row = dict(row)
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {k: v * inv % p for k, v in row.items()}
                break
            c = row[col]
            for k, v in pivot.items():
                r = (row.get(k, 0) - c * v) % p
                if r:
                    row[k] = r
                else:
                    row.pop(k, None)
    return len(pivots)


def box_colength(f: Polynomial, box) -> int:
    """λ(S/(f, x^box)) for a homogeneous f, by linear algebra alone."""
    p = f.ring.characteristic
    by_degree = defaultdict(list)
    for e in product(*(range(b) for b in box)):
        by_degree[sum(e)].append(e)
    rank = 0
    for monos in by_degree.values():
        rows = []
        for e in monos:
            row = {}
            for m, c in f.terms.items():
                t = tuple(a + b for a, b in zip(e, m))
                if all(a < b for a, b in zip(t, box)):
                    row[t] = c
            rows.append(row)
        rank += _rank(rows, p)
    return prod(box) - rank


# (p, variables, f, e_max, λ(R/m^[p^e]) for e = 0..e_max)
HYPERSURFACES = [
    (3, "x y z", "x^2 + y*z", 3, [1, 13, 121, 1093]),
    (2, "x y z", "x^3 + y^3 + z^3", 4, [1, 8, 36, 144, 576]),
    (3, "x y z", "x^5 + y^5 + z^5", 3, [1, 27, 301, 2727]),
    (5, "x y z", "x^4 + y^4 + z^4", 2, [1, 75, 1900]),
    (2, "x y z w", "x*y + z*w", 3, [1, 10, 84, 680]),
]


@pytest.mark.parametrize("p, names, f, e_max, table", HYPERSURFACES,
                         ids=[h[2] for h in HYPERSURFACES])
def test_hk_function_matches_the_oracle(p, names, f, e_max, table):
    S = RingSpec(p, names.split())
    R = S.quotient(f)
    got = [s.colength for s in hk_function(maximal_ideal(R), e_max)]
    oracle = [box_colength(S.poly(f), (p ** e,) * S.nvars)
              for e in range(e_max + 1)]
    assert got == oracle == table


def _random_form(rng, ring):
    """A homogeneous form of degree 2-4 with 2-6 distinct terms."""
    n = ring.nvars
    degree = rng.randint(2, 4)
    terms = {}
    for _ in range(rng.randint(2, 6)):
        cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
        exps = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
        terms[tuple(exps)] = rng.randrange(1, ring.characteristic)
    return Polynomial(ring, terms)


def test_box_colengths_match_the_oracle():
    rng = random.Random(20240607)
    for _ in range(120):
        n = rng.randint(2, 4)
        S = RingSpec(rng.choice([2, 3, 5]), [f"x{i}" for i in range(n)])
        f = _random_form(rng, S)
        top = 5 if n == 4 else 8
        box = [rng.randint(1, top) for _ in range(n)]
        R = S.quotient(f)
        J = R.ideal(*(R.monomial([b if j == i else 0 for j in range(n)])
                      for i, b in enumerate(box)))
        assert length_quotient(J) == box_colength(f, box), (f, box)
