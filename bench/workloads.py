"""Benchmark workloads: session scripts made from a seed, and the exact
checks their reports must pass.

Each workload is one `hkspread run` script.  The seed shuffles the
generator order inside every `ideal` binding and scales each generator by
a unit of F_p; every ideal stays the same, so every checked value is
invariant.  Variables are never relabelled: that would move leading terms
(and the enumeration box) and make seeds incomparable.

Only values that do not depend on the HK estimator are pinned, so that a
change to the fit may move `ehk_abs_err` and `identity_pass_frac` without
counting as a failure.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

SMALL_E_MAX = 2

QUADRIC = ("char 3", "vars x y z", "quotient x^2 + y*z")
CUBIC = ("char 2", "vars x y z", "quotient x^3 + y^3 + z^3")


def _frac(d) -> Fraction:
    return Fraction(d["num"], d["den"])


def _quadric_colength(q: int) -> int:
    """λ(R/m^[q]) for R = F_3[x,y,z]/(x^2+yz), an A1 singularity."""
    return (3 * q * q - 1) // 2


def _powers(p: int, e_max: int):
    return [p ** e for e in range(e_max + 1)]


# -- checkers: (data, e_max) -> None if the report is right, else a reason --


def _check_ehk_quadric_m(data, e_max):
    got = [(s["q"], s["colength"]) for s in data["samples"]]
    want = [(q, _quadric_colength(q)) for q in _powers(3, e_max)]
    if got != want:
        return f"colengths {got} != {want}"
    return None


def _check_spread_quadric(data, e_max):
    if data["estimate"] != 2:
        return f"estimate {data['estimate']} != 2"
    got = [(c["q0"], c["q"], c["length"]) for c in data["cells"]]
    want = [(1, q, 3 * q * q - 1) for q in _powers(3, e_max)]
    if got != want:
        return f"cells {got} != {want}"
    return None


def _check_spread_hk_quadric(data, e_max):
    if data["estimate"] != 2:
        return f"estimate {data['estimate']} != 2"
    return None


def _rows(data, prefix):
    return [r for r in data["rows"] if r["label"].startswith(prefix)]


def _check_basechange_quadric_s1(data, e_max):
    # λ_S(S/(m^[q]S, z^q)) = q·λ_R(R/m^[q]) exactly: S = R[z] is free over R.
    rows = _rows(data, "factorization")
    if [r["label"] for r in rows] != ["factorization[q=3]", "factorization[q=9]"]:
        return f"factorization rows {[r['label'] for r in rows]}"
    for r, q in zip(rows, (3, 9)):
        if _frac(r["residual"]) != 0 or _frac(r["lhs"]) != q * _quadric_colength(q):
            return f"{r['label']}: lhs {r['lhs']} residual {r['residual']}"
    return None


def _check_corollary(data, e_max):
    labels = [r["label"] for r in data["rows"]]
    want = [f"vanishing[q={q}]" for q in _powers(2, e_max)]
    if labels != want:
        return f"rows {labels} != {want}"
    for r in data["rows"]:
        if _frac(r["residual"]) != 0:
            return f"{r['label']}: residual {r['residual']}"
    return None


# λ((P,z)^[q] / m^[q](P,z)^[q]) / q^d for P = (x), z = y in the Fermat cubic,
# as the seed code computes it; this side of the identity is estimator-free.
_LEMMA33_LHS = {1: Fraction(2), 2: Fraction(4), 4: Fraction(9, 2),
                8: Fraction(9, 2), 16: Fraction(9, 2)}


def _check_lemma33_cubic(data, e_max):
    got = [(r["label"], _frac(r["lhs"])) for r in data["rows"]]
    want = [(f"additivity[q={q}]", _LEMMA33_LHS[q]) for q in _powers(2, e_max)]
    if got != want:
        return f"lhs {got} != {want}"
    return None


def _check_independent(data, e_max):
    verdicts = [data["verdict"]] + [g["verdict"] for g in data["generators"]]
    if any(v != "consistent" for v in verdicts):
        return f"verdicts {verdicts}"
    return None


@dataclass(frozen=True)
class Command:
    text: str
    kind: str
    check: object = None  # checker, or None when only status ok is required


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    header: tuple
    ideals: tuple  # (name, generator texts)
    commands: tuple
    ehk_target: Fraction  # e_HK of the maximal ideal, for ehk_abs_err

    @property
    def characteristic(self) -> int:
        return int(self.header[0].split()[1])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="hk_quadric",
        why="one ehk at q=729: standard-monomial enumeration, no GB or memo work",
        header=QUADRIC,
        ideals=(("m", ("x", "y", "z")),),
        commands=(Command("ehk m e_max=6 method=fit", "ehk", _check_ehk_quadric_m),),
        ehk_target=Fraction(3, 2)),
    Workload(
        name="colon_cubic",
        why="Buchberger inside colon/intersection by elimination; little counting",
        header=CUBIC,
        ideals=(("m", ("x", "y", "z")), ("K", ("x + y", "z")), ("P", ("x",))),
        commands=(
            Command("identity corollary K e_max=4", "identity", _check_corollary),
            Command("identity lemma33 P z=y e_max=4", "identity",
                    _check_lemma33_cubic),
            Command("independent m e_max=5", "independent", _check_independent)),
        ehk_target=Fraction(9, 4)),
    Workload(
        name="session_quadric",
        why="every driver: many mid-size counts, subquotients, repeated e_HK",
        header=QUADRIC,
        ideals=(("m", ("x", "y", "z")), ("J", ("x + y", "z"))),
        commands=(
            Command("ehk m e_max=5", "ehk", _check_ehk_quadric_m),
            Command("spread J a=m e_max=4", "spread", _check_spread_quadric),
            Command("spread_hk J e_max=4", "spread_hk", _check_spread_hk_quadric),
            Command("identity self m q=3,9 e_max=3", "identity"),
            Command("identity product m J ell=2 q=3,9 e_max=3", "identity"),
            Command("identity basechange m s=1 q=3,9 e_max=3", "identity",
                    _check_basechange_quadric_s1)),
        ehk_target=Fraction(3, 2)),
)}


def e_max_of(text: str) -> int:
    return int(re.search(r"e_max=(\d+)", text).group(1))


def shrink(text: str) -> str:
    """The same command with e_max capped at SMALL_E_MAX (self-test size)."""
    return re.sub(r"e_max=(\d+)",
                  lambda m: f"e_max={min(int(m.group(1)), SMALL_E_MAX)}", text)


def commands(w: Workload, small: bool = False) -> list:
    return [shrink(c.text) if small else c.text for c in w.commands]


def script_text(w: Workload, seed: int, small: bool = False,
                header_only: bool = False) -> str:
    rng = random.Random(f"{w.name}/{seed}")
    p = w.characteristic
    lines = list(w.header)
    for name, gens in w.ideals:
        gens = list(gens)
        rng.shuffle(gens)
        scaled = []
        for g in gens:
            c = rng.randrange(1, p)
            scaled.append(g if c == 1 else f"{c}*({g})")
        lines.append(f"ideal {name} = " + ", ".join(scaled))
    if not header_only:
        lines.extend(commands(w, small))
    return "\n".join(lines) + "\n"


@dataclass
class Outcome:
    """What the checks found in one report."""
    attempted: int
    failed: int
    reasons: list
    identity_rows: int = 0
    identity_passed: int = 0
    ehk_abs_err: float = 0.0


def evaluate(w: Workload, doc, small: bool = False) -> Outcome:
    """Check one parsed JSON report; `doc` None means the run itself failed."""
    texts = commands(w, small)
    n = len(texts)
    if not isinstance(doc, dict) or not isinstance(doc.get("results"), list):
        return Outcome(n, n, ["no report"])
    results = doc["results"]
    if len(results) != n:
        return Outcome(n, n, [f"{len(results)} results for {n} commands"])
    out = Outcome(n, 0, [])
    errors = []
    for cmd, text, res in zip(w.commands, texts, results):
        reason = None
        if res.get("command") != text:
            reason = f"result echoes {res.get('command')!r}"
        elif res.get("status") != "ok":
            reason = f"status {res.get('status')}: {res.get('error')}"
        elif res.get("kind") != cmd.kind:
            reason = f"kind {res.get('kind')} != {cmd.kind}"
        elif cmd.check is not None:
            reason = cmd.check(res["data"], e_max_of(text))
        if reason is not None:
            out.failed += 1
            out.reasons.append(f"{text}: {reason}")
            continue
        data = res["data"]
        if cmd.kind == "identity":
            out.identity_rows += len(data["rows"])
            out.identity_passed += sum(1 for r in data["rows"] if r["pass"])
        if cmd.kind == "ehk" and data["ideal"] == "m":
            errors.append(abs(_frac(data["value"]) - w.ehk_target))
    out.ehk_abs_err = float(max(errors, default=0))
    return out
