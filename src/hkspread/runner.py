"""Execute parsed session scripts and emit machine-readable reports.

Reports are deterministic for fixed input and config: timing lives in a
separate top-level field so byte comparisons can exclude it.  Exact
rationals serialize as {"num": .., "den": ..}.  An estimate, identity or
independence result says how it is known in "evidence".
"""

from __future__ import annotations

import io
import json
import time
from fractions import Fraction

from . import __version__
from .errors import AlgebraError, ScriptError
from .groebner import active_guard, basis_memo
from .ideals import ideal_colon
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


def _evidence(ev):
    return {"kind": ev.kind, "by": ev.by,
            "checks": [_frac(c) for c in ev.checks]}


def _estimate_dict(name, est, dimension):
    return {
        "ideal": name,
        "value": _frac(est.value),
        "value_float": float(est.value),
        "dimension": dimension,
        "samples": [_sample_dict(s) for s in est.samples],
        "evidence": _evidence(est.evidence),
    }


def _spread_dict(rep, cmd):
    data = {
        "ideal": cmd.names[0],
        "a": dict(cmd.options).get("a"),
        "dimension": rep.dimension,
        "ehk_a": _frac(rep.ehk_a),
        "q0_schedule": list(rep.q0_schedule),
        "cells": [{"q0": c.q0, "e": c.e, "q": c.q, "length": c.length,
                   "ratio": _frac(c.ratio)} for c in rep.cells],
        "estimate": rep.estimate,
    }
    if rep.value is not None:
        data["value"] = _frac(rep.value)
    data["evidence"] = _evidence(rep.evidence)
    return data


def _identity_dict(rep):
    return {
        "name": rep.name,
        "pass": rep.passed,
        "rows": [{"label": r.label, "lhs": _frac(r.lhs), "rhs": _frac(r.rhs),
                  "residual": _frac(r.residual), "pass": r.passed}
                 for r in rep.rows],
        "notes": list(rep.notes),
        "evidence": _evidence(rep.evidence),
    }


def _colon_rows(rep):
    return [{"e": r.e, "q": r.q, "unit_colon": r.unit_colon,
             "least_q0": r.least_q0, "contained": r.contained}
            for r in rep.rows]


def _independence_dict(rep, name):
    return {
        "ideal": name,
        "verdict": rep.verdict,
        "generators": [{"generator": str(g), "verdict": sub.verdict,
                        "rows": _colon_rows(sub)}
                       for g, sub in zip(rep.generators, rep.reports)],
        "evidence": _evidence(rep.evidence),
    }


def _basis(gb):
    return [str(f) for f in gb.polys]


# verb -> f(command, order, *its leading ideals, **its options) giving the
# report data; an option left out takes the layer function's default.  The
# entries look the layer functions up as module globals when they run, so a
# layer rebound on this module after import is the one that gets called.
_DATA = {
    "gb": lambda c, order, J: {
        "ideal": c.names[0], "order": order.name,
        "basis": _basis(J.groebner_basis(order))},
    "length": lambda c, order, J: {
        "ideal": c.names[0], **_length_dict(length_quotient(J))},
    "colon": lambda c, order, I, J: {
        "left": c.names[0], "right": c.names[1],
        "basis": _basis(ideal_colon(I, J).groebner_basis(order))},
    "ehk": lambda c, order, J, **o: _estimate_dict(
        c.names[0], ehk_estimate(J, **o), J.ring.dimension),
    "spread": lambda c, order, J, **o: _spread_dict(
        star_spread_estimate(J, **o), c),
    "spread_hk": lambda c, order, J, **o: _spread_dict(
        star_spread_hk_difference(J, **o), c),
    "identity product": lambda c, order, I, J, **o: _identity_dict(
        check_product_identity(I, J, **o)),
    "identity self": lambda c, order, J, **o: _identity_dict(
        check_self_product(J, **o)),
    "identity lemma33": lambda c, order, J, **o: _identity_dict(
        check_lemma33_additivity(J, **o)),
    "identity basechange": lambda c, order, J, **o: _identity_dict(
        check_base_change(J, **o)),
    "identity corollary": lambda c, order, J, **o: _identity_dict(
        check_corollary_vanishing(J, **o)),
    "independent": lambda c, order, J, **o: _independence_dict(
        star_independence_diagnostic(J.gens, **o), c.names[0]),
}


def run_script(script: SessionScript, order: str = "degrevlex") -> dict:
    """Run every command, under the active guard, into the report document:
    each result is appended as its command finishes, and one failure does
    not abort later commands.  `order` names the monomial order of the
    printed bases.  A command's ideals and its `a=` option are bound from
    the script's bindings, and its ring is theirs.  The ring's dimension
    and the timing are filled in after the timed loop, the dimension under
    the same guard: when that guard cannot afford the relation basis, the
    dimension is null and the run is not ok.  The config's `format` is
    always "json": only `report_json` prints the config, as `report_csv`
    prints the results alone."""
    guard = active_guard()
    ring = script.ring
    doc = {
        "tool": "hkspread",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "config": {"order": order, "max_gb_steps": guard.max_steps,
                   "max_exponent": guard.max_exponent, "format": "json"},
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
    monomial_order = order_by_name(order)
    ideals = script.ideals()
    seconds = []
    start = time.perf_counter()
    with basis_memo():
        for cmd in script.commands:
            result = {"command": format_command(cmd)}
            t0 = time.perf_counter()
            try:
                kind = cmd.verb.split()[0]
                opts = dict(cmd.options)
                if "a" in opts:
                    opts["a"] = ideals[opts["a"]]
                data = _DATA[cmd.verb](
                    cmd, monomial_order, *(ideals[name] for name in cmd.names),
                    **opts)
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
    try:
        doc["ring"]["dimension"] = ring.dimension
    except AlgebraError:
        doc["ring"]["dimension"] = None
        doc["ok"] = False
    doc["timing"] = {"total_seconds": total, "per_command_seconds": seconds}
    return doc


def error_document(exc: ScriptError) -> dict:
    """The document a parse error prints in place of a report."""
    return {"tool": "hkspread", "version": __version__,
            "schema": SCHEMA_VERSION, "ok": False,
            "error": {"type": type(exc).__name__, "message": exc.message,
                      "line": exc.line, "column": exc.column}}


def report_json(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def _csv_basis(data):
    for i, g in enumerate(data["basis"]):
        yield ["basis", i, "", "", "", g, "", "", ""]


def _csv_length(data):
    yield ["length", "", "", "", "",
           "inf" if not data["finite"] else data["value"], "", "", ""]


def _csv_ehk(data):
    v = data["value"]
    yield ["estimate", data["evidence"]["kind"], "", "", "",
           data["value_float"], v["num"], v["den"], ""]
    for s in data["samples"]:
        nm = s["normalized"]
        yield ["sample", "", "", s["e"], s["q"], s["colength"],
               nm["num"], nm["den"], ""]


def _csv_spread(data):
    yield ["estimate", data["evidence"]["kind"], "", "", "",
           "" if data["estimate"] is None else data["estimate"], "", "", ""]
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
    import csv  # here, so a JSON run never loads it

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
