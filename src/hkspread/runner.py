"""Execute parsed session scripts and emit machine-readable reports.

Reports are deterministic for fixed input and config: timing lives in a
separate top-level field so byte comparisons can exclude it.  Exact
rationals serialize as {"num": .., "den": ..}.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .errors import AlgebraError
from .groebner import GuardConfig, use_guard
from .ideals import chain_memo, ideal_colon
from .lengths import ehk_estimate, length_quotient
from .orders import order_by_name
from .poly import FrobeniusExponent
from .script import (
    VERBS,
    ColonCommand,
    EhkCommand,
    GbCommand,
    IdentityBasechangeCommand,
    IdentityCorollaryCommand,
    IdentityLemma33Command,
    IdentityProductCommand,
    IdentitySelfCommand,
    IndependentCommand,
    LengthCommand,
    SessionScript,
    SpreadCommand,
    SpreadHkCommand,
    format_command,
)
from .spread import (
    check_base_change,
    check_corollary_vanishing,
    check_lemma33_additivity,
    check_product_identity,
    check_self_product,
    star_independence_diagnostic,
    star_spread_estimate,
    star_spread_hk_difference,
)

SCHEMA_VERSION = 1
DEFAULT_E_MAX = 3


@dataclass(frozen=True)
class RunConfig:
    order: str = "degrevlex"
    max_gb_steps: int = GuardConfig.max_steps
    max_exponent: int = GuardConfig.max_exponent
    format: str = "json"


@dataclass
class CommandResult:
    command: str
    kind: str
    status: str
    data: dict | None = None
    error: dict | None = None


@dataclass
class Report:
    config: RunConfig
    ring: object
    bindings: tuple
    results: list = field(default_factory=list)
    ok: bool = True
    total_seconds: float = 0.0
    per_command_seconds: list = field(default_factory=list)


def _frac(x: Fraction | None):
    if x is None:
        return None
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def _length_dict(lam):
    return {"finite": lam.is_finite, "value": lam.value}


def _sample_dict(s):
    return {"e": s.e, "q": s.q, "colength": s.colength,
            "normalized": _frac(s.normalized)}


def _estimate_dict(name, est, dimension):
    return {
        "ideal": name,
        "method": est.method,
        "value": _frac(est.value),
        "value_float": float(est.value),
        "dimension": dimension,
        "samples": [_sample_dict(s) for s in est.samples],
        "residuals": None if est.residuals is None
        else [_frac(r) for r in est.residuals],
        "error_bound": _frac(est.error_bound),
        "secondary": _frac(est.secondary),
        "ratio_trend": est.ratio_trend,
    }


def _spread_dict(rep, j_name, a_name):
    p = rep.J.ring.characteristic
    data = {
        "ideal": j_name,
        "a": a_name,
        "method": rep.method,
        "dimension": rep.dimension,
        "ehk_a": _frac(rep.ehk_a),
        "q0_schedule": [p ** e for e in rep.q0_schedule],
        "cells": [{"q0": c.q0, "e": c.e, "q": c.q, "length": c.length,
                   "ratio": _frac(c.ratio)} for c in rep.cells],
        "estimate": rep.estimate,
        "stabilized": rep.stabilized,
        "rounding_distance": _frac(rep.rounding_distance),
    }
    if rep.method == "hk-difference":
        data["value"] = _frac(rep.value)
        data["components"] = {k: _frac(v) for k, v in rep.components}
    return data


def _identity_dict(rep):
    return {
        "name": rep.name,
        "exact": rep.exact,
        "tolerance": _frac(rep.tolerance),
        "pass": rep.passed,
        "rows": [{"label": r.label, "lhs": _frac(r.lhs), "rhs": _frac(r.rhs),
                  "residual": _frac(r.residual), "pass": r.passed}
                 for r in rep.rows],
        "notes": list(rep.notes),
    }


def _colon_rows(rep):
    return [{"e": r.e, "q": r.q, "unit_colon": r.unit_colon,
             "least_q0": r.least_q0, "contained": r.contained}
            for r in rep.rows]


def _independence_dict(rep, name):
    return {
        "ideal": name,
        "verdict": rep.verdict,
        "caveat": rep.caveat,
        "generators": [{"generator": str(g), "verdict": sub.verdict,
                        "rows": _colon_rows(sub)}
                       for g, sub in zip(rep.generators, rep.reports)],
    }


def _basis(gb):
    return [str(f) for f in gb.polys]


class _Session:
    def __init__(self, script: SessionScript, config: RunConfig):
        self.ring = script.ring
        self.order = order_by_name(config.order)
        self.ideals = script.ideals()
        self.p = self.ring.characteristic

    def a_or_none(self, name):
        return None if name is None else self.ideals[name]

    def q0_exponent(self, q0_value):
        q0 = 1 if q0_value is None else q0_value
        return FrobeniusExponent.from_q(self.p, q0).e

    def e_list(self, q_values):
        return [FrobeniusExponent.from_q(self.p, q).e for q in q_values]


def _e_max(cmd) -> int:
    return DEFAULT_E_MAX if cmd.e_max is None else cmd.e_max


# command class -> f(session, command) giving the report data.  The entries
# look the layer functions up as module globals when they run, so a layer
# rebound on this module after import is the one that gets called.
_DATA = {
    GbCommand: lambda s, c: {
        "ideal": c.name, "order": s.order.name,
        "basis": _basis(s.ideals[c.name].groebner_basis(s.order))},
    LengthCommand: lambda s, c: {
        "ideal": c.name, **_length_dict(length_quotient(s.ideals[c.name]))},
    ColonCommand: lambda s, c: {
        "left": c.left, "right": c.right,
        "basis": _basis(ideal_colon(s.ideals[c.left], s.ideals[c.right])
                        .groebner_basis(s.order))},
    EhkCommand: lambda s, c: _estimate_dict(
        c.name, ehk_estimate(s.ideals[c.name], _e_max(c), c.method or "auto"),
        s.ring.dimension),
    SpreadCommand: lambda s, c: _spread_dict(
        star_spread_estimate(s.ideals[c.name], s.a_or_none(c.a),
                             s.q0_exponent(c.q0), _e_max(c)),
        c.name, c.a or "m"),
    SpreadHkCommand: lambda s, c: _spread_dict(
        star_spread_hk_difference(s.ideals[c.name], s.a_or_none(c.a),
                                  s.q0_exponent(c.q0), _e_max(c)),
        c.name, c.a or "m"),
    IdentityProductCommand: lambda s, c: _identity_dict(
        check_product_identity(s.ideals[c.left], s.ideals[c.right], c.ell,
                               s.e_list(c.q), _e_max(c))),
    IdentitySelfCommand: lambda s, c: _identity_dict(
        check_self_product(s.ideals[c.name], s.e_list(c.q),
                           s.q0_exponent(c.q0), _e_max(c))),
    IdentityLemma33Command: lambda s, c: _identity_dict(
        check_lemma33_additivity(s.ideals[c.name], c.z, s.a_or_none(c.a),
                                 s.q0_exponent(c.q0), _e_max(c))),
    IdentityBasechangeCommand: lambda s, c: _identity_dict(
        check_base_change(s.ring, s.ideals[c.name], c.s, s.e_list(c.q),
                          _e_max(c))),
    IdentityCorollaryCommand: lambda s, c: _identity_dict(
        check_corollary_vanishing(s.ring, s.ideals[c.name],
                                  s.q0_exponent(c.q0), _e_max(c))),
    IndependentCommand: lambda s, c: _independence_dict(
        star_independence_diagnostic(
            s.ideals[c.name].gens,
            2 if c.q0 is None else s.q0_exponent(c.q0), _e_max(c)),
        c.name),
}


def run_script(script: SessionScript, config: RunConfig | None = None) -> Report:
    """Run every command; one failure does not abort later commands."""
    config = config or RunConfig()
    guard = GuardConfig(max_steps=config.max_gb_steps,
                        max_exponent=config.max_exponent)
    report = Report(config=config, ring=script.ring, bindings=script.bindings)
    start = time.perf_counter()
    with use_guard(guard), chain_memo():
        session = _Session(script, config)
        for cmd in script.commands:
            echo = format_command(cmd)
            t0 = time.perf_counter()
            try:
                kind = VERBS[type(cmd)].split()[0]  # first word of the verb
                data = _DATA[type(cmd)](session, cmd)
                result = CommandResult(echo, kind, "ok", data=data)
                if kind == "identity" and not data["pass"]:
                    report.ok = False
            except AlgebraError as exc:
                result = CommandResult(
                    echo, "error", "error",
                    error={"type": type(exc).__name__, "message": str(exc)})
                report.ok = False
            report.per_command_seconds.append(time.perf_counter() - t0)
            report.results.append(result)
    report.total_seconds = time.perf_counter() - start
    return report


def report_document(report: Report, include_timing: bool = True) -> dict:
    ring = report.ring
    doc = {
        "tool": "hkspread",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "config": {
            "order": report.config.order,
            "max_gb_steps": report.config.max_gb_steps,
            "max_exponent": report.config.max_exponent,
            "format": report.config.format,
        },
        "ring": {
            "characteristic": ring.characteristic,
            "variables": list(ring.variables),
            "relations": [str(r) for r in ring.relations],
            "dimension": ring.dimension,
        },
        "bindings": [{"name": name, "generators": [str(g) for g in gens]}
                     for name, gens in report.bindings],
        "ok": report.ok,
        "results": [
            {"command": r.command, "kind": r.kind, "status": r.status,
             **({"data": r.data} if r.data is not None else {}),
             **({"error": r.error} if r.error is not None else {})}
            for r in report.results
        ],
    }
    if include_timing:
        doc["timing"] = {
            "total_seconds": report.total_seconds,
            "per_command_seconds": report.per_command_seconds,
        }
    return doc


def error_document(exc) -> dict:
    err = {"type": type(exc).__name__, "message": str(exc)}
    if hasattr(exc, "line"):
        err.update({"message": exc.message, "line": exc.line,
                    "column": exc.column})
    return {"tool": "hkspread", "version": __version__,
            "schema": SCHEMA_VERSION, "ok": False, "error": err}


def report_json(report: Report, include_timing: bool = True) -> str:
    return json.dumps(report_document(report, include_timing), indent=2)


def _csv_basis(data):
    for i, g in enumerate(data["basis"]):
        yield ["basis", i, "", "", "", g, "", "", ""]


def _csv_length(data):
    yield ["length", "", "", "", "",
           "inf" if not data["finite"] else data["value"], "", "", ""]


def _csv_ehk(data):
    v = data["value"]
    yield ["estimate", data["method"], "", "", "", data["value_float"],
           v["num"], v["den"], ""]
    for s in data["samples"]:
        nm = s["normalized"]
        yield ["sample", "", "", s["e"], s["q"], s["colength"],
               nm["num"], nm["den"], ""]


def _csv_spread(data):
    yield ["estimate", "", "", "", "",
           "" if data["estimate"] is None else data["estimate"],
           "", "", data["stabilized"]]
    for c in data["cells"]:
        r = c["ratio"]
        yield ["cell", "", c["q0"], c["e"], c["q"], c["length"],
               r["num"], r["den"], ""]


def _csv_identity(data):
    for row in data["rows"]:
        res = row["residual"]
        yield ["row", row["label"], "", "", "", "",
               res["num"], res["den"], row["pass"]]


def _csv_independent(data):
    for gen in data["generators"]:
        for row in gen["rows"]:
            yield [gen["generator"], gen["verdict"], row["least_q0"] or "",
                   row["e"], row["q"], row["unit_colon"], "", "",
                   row["contained"]]


# report kind -> f(data) yielding its CSV rows, each without the leading
# command column
_CSV_ROWS = {
    "gb": _csv_basis,
    "length": _csv_length,
    "colon": _csv_basis,
    "ehk": _csv_ehk,
    "spread": _csv_spread,
    "spread_hk": _csv_spread,
    "identity": _csv_identity,
    "independent": _csv_independent,
}


def report_csv(report: Report) -> str:
    """Flatten table-bearing results; scalar results get a single row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["command", "section", "label", "q0", "e", "q",
                     "value", "num", "den", "pass"])
    for result in report.results:
        echo = result.command
        if result.status != "ok":
            writer.writerow([echo, "error", result.error["type"], "", "", "",
                             result.error["message"], "", "", ""])
            continue
        for row in _CSV_ROWS[result.kind](result.data):
            writer.writerow([echo] + row)
    return out.getvalue()
