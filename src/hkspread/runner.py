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
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .errors import AlgebraError
from .groebner import GuardConfig, active_guard, use_guard
from .ideals import basis_memo, ideal_colon
from .lengths import ehk_estimate, length_quotient
from .orders import order_by_name
from .script import SessionScript, format_command
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


class RunConfig(NamedTuple):
    """How a run prints; its budgets are the caller's guard (`use_guard`)."""

    order: str = "degrevlex"
    format: str = "json"


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


def _spread_dict(rep, cmd):
    data = {
        "ideal": cmd.names[0],
        "a": dict(cmd.options).get("a", "m"),
        "method": rep.method,
        "dimension": rep.dimension,
        "ehk_a": _frac(rep.ehk_a),
        "q0_schedule": list(rep.q0_schedule),
        "cells": [{"q0": c.q0, "e": c.e, "q": c.q, "length": c.length,
                   "ratio": _frac(c.ratio)} for c in rep.cells],
        "estimate": rep.estimate,
        "stabilized": rep.stabilized,
        "rounding_distance": _frac(rep.rounding_distance),
    }
    if rep.method == "hk-difference":
        data["value"] = _frac(rep.value)
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

    def options(self, cmd) -> dict:
        """The options the command sets, as keyword arguments of its layer
        function (an option left out takes that function's default), with
        `a` bound to its ideal."""
        opts = dict(cmd.options)
        if "a" in opts:
            opts["a"] = self.ideals[opts["a"]]
        return opts


# verb -> f(session, command, *its leading ideals) giving the report data.
# The entries look the layer functions up as module globals when they run,
# so a layer rebound on this module after import is the one that gets called.
_DATA = {
    "gb": lambda s, c, J: {
        "ideal": c.names[0], "order": s.order.name,
        "basis": _basis(J.groebner_basis(s.order))},
    "length": lambda s, c, J: {
        "ideal": c.names[0], **_length_dict(length_quotient(J))},
    "colon": lambda s, c, I, J: {
        "left": c.names[0], "right": c.names[1],
        "basis": _basis(ideal_colon(I, J).groebner_basis(s.order))},
    "ehk": lambda s, c, J: _estimate_dict(
        c.names[0], ehk_estimate(J, **s.options(c)), s.ring.dimension),
    "spread": lambda s, c, J: _spread_dict(
        star_spread_estimate(J, **s.options(c)), c),
    "spread_hk": lambda s, c, J: _spread_dict(
        star_spread_hk_difference(J, **s.options(c)), c),
    "identity product": lambda s, c, I, J: _identity_dict(
        check_product_identity(I, J, **s.options(c))),
    "identity self": lambda s, c, J: _identity_dict(
        check_self_product(J, **s.options(c))),
    "identity lemma33": lambda s, c, J: _identity_dict(
        check_lemma33_additivity(J, **s.options(c))),
    "identity basechange": lambda s, c, J: _identity_dict(
        check_base_change(s.ring, J, **s.options(c))),
    "identity corollary": lambda s, c, J: _identity_dict(
        check_corollary_vanishing(s.ring, J, **s.options(c))),
    "independent": lambda s, c, J: _independence_dict(
        star_independence_diagnostic(J.gens, **s.options(c)), c.names[0]),
}


def run_script(script: SessionScript, config: RunConfig | None = None) -> dict:
    """Run every command, under the active guard, into the report document:
    each result is appended as its command finishes, and one failure does
    not abort later commands.  The ring's dimension and the timing are
    filled in after the timed loop, the dimension under the default guard,
    as its relation basis is the ring's and not the run's."""
    config = config or RunConfig()
    guard = active_guard()
    ring = script.ring
    doc = {
        "tool": "hkspread",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "config": {"order": config.order, "max_gb_steps": guard.max_steps,
                   "max_exponent": guard.max_exponent,
                   "format": config.format},
        "ring": {
            "characteristic": ring.characteristic,
            "variables": list(ring.variables),
            "relations": [str(r) for r in ring.relations],
        },
        "bindings": [{"name": name, "generators": [str(g) for g in gens]}
                     for name, gens in script.bindings],
        "ok": True,
        "results": [],
    }
    seconds = []
    start = time.perf_counter()
    with basis_memo():
        session = _Session(script, config)
        for cmd in script.commands:
            result = {"command": format_command(cmd)}
            t0 = time.perf_counter()
            try:
                kind = cmd.verb.split()[0]
                data = _DATA[cmd.verb](session, cmd, *(
                    session.ideals[name] for name in cmd.names))
                result.update(kind=kind, status="ok", data=data)
                if kind == "identity" and not data["pass"]:
                    doc["ok"] = False
            except AlgebraError as exc:
                result.update(kind="error", status="error", error={
                    "type": type(exc).__name__, "message": str(exc)})
                doc["ok"] = False
            seconds.append(time.perf_counter() - t0)
            doc["results"].append(result)
    total = time.perf_counter() - start
    with use_guard(GuardConfig()):
        doc["ring"]["dimension"] = ring.dimension
    doc["timing"] = {"total_seconds": total, "per_command_seconds": seconds}
    return doc


def error_document(exc) -> dict:
    err = {"type": type(exc).__name__, "message": str(exc)}
    if hasattr(exc, "line"):
        err.update({"message": exc.message, "line": exc.line,
                    "column": exc.column})
    return {"tool": "hkspread", "version": __version__,
            "schema": SCHEMA_VERSION, "ok": False, "error": err}


def report_json(doc: dict, include_timing: bool = True) -> str:
    if not include_timing:
        doc = {key: value for key, value in doc.items() if key != "timing"}
    return json.dumps(doc, indent=2)


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


def report_csv(doc: dict) -> str:
    """Flatten table-bearing results; scalar results get a single row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["command", "section", "label", "q0", "e", "q",
                     "value", "num", "den", "pass"])
    for result in doc["results"]:
        echo = result["command"]
        if result["status"] != "ok":
            error = result["error"]
            writer.writerow([echo, "error", error["type"], "", "", "",
                             error["message"], "", "", ""])
            continue
        for row in _CSV_ROWS[result["kind"]](result["data"]):
            writer.writerow([echo] + row)
    return out.getvalue()
