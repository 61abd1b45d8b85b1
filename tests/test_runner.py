"""The report document, its JSON and CSV forms, and the command line."""

import gc
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import hkspread
from hkspread import (
    DEGREVLEX,
    LEX,
    GuardConfig,
    Ideal,
    RingSpec,
    ScriptError,
    ehk_estimate,
    maximal_ideal,
    parse_script,
    report_csv,
    report_json,
    run_script,
    use_guard,
)
from hkspread import groebner, lengths, spread
from hkspread.groebner import GroebnerBasis, basis_memo
from hkspread.cli import OPTIONS, USAGE, main
from hkspread.runner import error_document
from hkspread.script import COMMANDS

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

SESSION = """
char 2
vars x y
ideal m = x, y
ideal J = x^2, y^3
gb J
length J
colon m J
ehk J e_max=2
spread J a=m q0=1
identity self m q=2
independent m
"""

# the top-level keys of a report document, in the order it prints them
KEYS = ["tool", "version", "schema", "config", "ring", "bindings", "ok",
        "results", "timing"]


def _untimed(doc):
    """The report document without its timing, which differs run to run."""
    doc.pop("timing")
    return doc


def test_report_shape_and_ok():
    doc = run_script(parse_script(SESSION))
    assert doc["ok"]
    assert set(doc["timing"]) == {"total_seconds", "per_command_seconds"}
    assert len(doc["timing"]["per_command_seconds"]) == len(doc["results"])
    assert doc["tool"] == "hkspread"
    assert doc["schema"] == 1
    assert doc["ring"] == {
        "characteristic": 2, "variables": ["x", "y"],
        "relations": [], "dimension": 2,
    }
    assert doc["bindings"] == [
        {"name": "m", "generators": ["x", "y"]},
        {"name": "J", "generators": ["x^2", "y^3"]},
    ]
    kinds = [r["kind"] for r in doc["results"]]
    assert kinds == ["gb", "length", "colon", "ehk", "spread",
                     "identity", "independent"]
    assert all(r["status"] == "ok" for r in doc["results"])


def test_rationals_serialize_as_num_den():
    doc = run_script(parse_script(SESSION))
    ehk = next(r for r in doc["results"] if r["kind"] == "ehk")["data"]
    assert ehk["value"] == {"num": 6, "den": 1}
    assert ehk["value_float"] == 6.0
    assert ehk["samples"][0] == {
        "e": 0, "q": 1, "colength": 6, "normalized": {"num": 6, "den": 1},
    }
    spread = next(r for r in doc["results"] if r["kind"] == "spread")["data"]
    assert spread["estimate"] == 2
    assert spread["ehk_a"] == {"num": 1, "den": 1}
    assert spread["cells"][0]["ratio"] == {"num": 2, "den": 1}
    assert spread["q0_schedule"] == [1]


def test_identity_and_independent_payloads():
    doc = run_script(parse_script(SESSION))
    ident = next(r for r in doc["results"] if r["kind"] == "identity")["data"]
    assert ident["name"] == "self-product"
    assert ident["pass"] is True
    row = ident["rows"][0]
    assert row["label"] == "self-product[q=2]"
    assert row["lhs"] == row["rhs"] == {"num": 6, "den": 1}
    assert row["residual"] == {"num": 0, "den": 1}
    indep = next(r for r in doc["results"] if r["kind"] == "independent")["data"]
    assert indep["verdict"] == "consistent"
    assert indep["evidence"]["kind"] == "sampled"
    assert "proves nothing" in indep["evidence"]["by"]
    assert [g["generator"] for g in indep["generators"]] == ["x", "y"]


# the trust keys that `evidence` replaced
_REMOVED_KEYS = {"method", "residuals", "error_bound", "secondary",
                 "ratio_trend", "stabilized", "rounding_distance", "exact",
                 "tolerance", "caveat"}


def test_golden_results_state_their_evidence():
    """Every estimate, identity and independence result of the JSON goldens
    has one `evidence`: a kind of the three, a rule named by a module
    constant, and rational checks; none has a trust key of its own."""
    rules = {v for mod in (lengths, spread) for k, v in vars(mod).items()
             if k.startswith("_BY_")}
    seen = set()
    for name in ("session", "minimal", "quadric"):
        for result in json.loads((GOLDEN / f"{name}.json").read_text())["results"]:
            data = result["data"]
            assert not _REMOVED_KEYS & set(data), result["command"]
            if result["kind"] not in ("ehk", "spread", "spread_hk",
                                      "identity", "independent"):
                assert "evidence" not in data
                continue
            seen.add(result["kind"])
            ev = data["evidence"]
            assert list(ev) == ["kind", "by", "checks"]
            assert ev["kind"] in ("exact", "proven", "sampled")
            assert ev["by"] in rules
            assert all(list(c) == ["num", "den"] and type(c["num"]) is int
                       and type(c["den"]) is int and c["den"] > 0
                       for c in ev["checks"])
    assert seen == {"ehk", "spread", "spread_hk", "identity", "independent"}


def test_determinism():
    a = _untimed(run_script(parse_script(SESSION)))
    b = _untimed(run_script(parse_script(SESSION)))
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_error_isolation_keeps_later_commands():
    rep = run_script(parse_script(
        "char 2; vars x y; ideal P = x; spread P a=P; length P"))
    assert not rep["ok"]
    first, second = rep["results"]
    assert first["status"] == "error"
    assert first["error"]["type"] == "PreconditionError"
    assert second["status"] == "ok"
    assert second["data"]["finite"] is False


def test_failed_identity_marks_report_not_ok():
    rep = run_script(parse_script(
        "char 2; vars x y; ideal m = x, y; ideal J = x^2, y^3; "
        "identity product J m ell=2 q=2"))
    assert not rep["ok"]
    data = rep["results"][0]["data"]
    assert data["pass"] is False
    assert data["rows"][0]["pass"] is False


def test_explicit_e_max_zero_is_kept():
    rep = run_script(parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal m = x, y, z; "
        "ehk m e_max=0 method=last"))
    result = rep["results"][0]
    assert result["command"] == "ehk m e_max=0 method=last"
    assert [s["e"] for s in result["data"]["samples"]] == [0]


def test_spread_e_max_zero_on_quotient_ring_names_the_normalizer():
    rep = run_script(parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal m = x, y, z; "
        "spread m e_max=0"))
    error = rep["results"][0]["error"]
    assert error["type"] == "PreconditionError"
    assert error["message"] == (
        "the normalizing e_HK(a) on a quotient ring needs e_max >= 1")


def test_spread_hk_e_max_zero_on_quotient_ring_names_the_estimates():
    rep = run_script(parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal J = x + y, z; "
        "spread_hk J e_max=0"))
    error = rep["results"][0]["error"]
    assert error["type"] == "PreconditionError"
    assert error["message"] == (
        "the normalizing e_HK(a) on a quotient ring needs e_max >= 1")


@pytest.mark.parametrize("command, message", [
    ("ehk m e_max=0", "e_HK on a quotient ring needs e_max >= 1"),
    ("identity product m J ell=2 q=3 e_max=0",
     "e_HK on a quotient ring needs e_max >= 1"),
    ("identity basechange m s=1 q=3 e_max=0",
     "e_HK on a quotient ring needs e_max >= 1"),
    ("ehk m e_max=0 method=fit", "fit methods need e_max >= 1"),
], ids=["ehk", "product", "basechange", "explicit-fit"])
def test_ehk_e_max_zero_on_quotient_ring_names_the_chosen_method(command,
                                                                 message):
    """Under the default method the error names e_HK, not the fit that
    the script never chose; an explicit method=fit keeps its message."""
    rep = run_script(parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal m = x, y, z; "
        "ideal J = x + y, z; " + command))
    error = rep["results"][0]["error"]
    assert error == {"type": "PreconditionError", "message": message}


def test_spread_e_max_zero_on_a_polynomial_ring_names_the_two_cells():
    """e_HK(a) on a polynomial ring needs no e >= 1, but a q0 level still
    compares two cells; e_max = 0 gives one, so nothing could stabilize."""
    rep = run_script(parse_script(
        "char 2; vars x y; ideal m = x, y; spread m e_max=0"))
    error = rep["results"][0]["error"]
    assert error["type"] == "PreconditionError"
    assert error["message"] == (
        "each q0 level compares the cells e = 0 and e = 1, so spread needs "
        "e_max >= 1")


_F2 = "char 2; vars x y; ideal m = x, y; ideal J = x^2, y^3; "
_CUBIC = "char 2; vars x y z; quotient x^3 + y^3 + z^3; ideal m = x, y, z; "


def test_spread_reports_the_a_its_command_named():
    """`a` echoes the option the command gave, or null without one: the
    default normalizer is the maximal ideal, not the binding named m."""
    script = parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal m = x^2, y, z; "
        "ideal J = x, y; spread J e_max=2; spread J a=m e_max=2")
    default, named = (r["data"] for r in run_script(script)["results"])
    assert default["a"] is None
    assert default["ehk_a"] == {"num": 1999, "den": 1311}
    assert ehk_estimate(maximal_ideal(script.ring), e_max=2).value == (
        Fraction(1999, 1311))
    assert named["a"] == "m"
    assert named["ehk_a"] == {"num": 2, "den": 1}


@pytest.mark.parametrize("header,bare,explicit", [
    (_F2, "spread J", "spread J q0=1 e_max=3"),
    (_F2, "independent m", "independent m q0=4 e_max=3"),
    (_F2, "ehk J", "ehk J e_max=3"),
    # least q0 reaches 4 here, so a default other than p^2 would show
    (_CUBIC, "independent m", "independent m q0=4 e_max=3"),
])
def test_left_out_options_take_the_function_defaults(header, bare, explicit):
    bare_result, explicit_result = [
        run_script(parse_script(header + cmd))["results"][0]
        for cmd in (bare, explicit)]
    assert bare_result["command"] == bare
    assert explicit_result["command"] == explicit
    assert bare_result["status"] == "ok"
    assert bare_result["data"] == explicit_result["data"]


# one value for each option name, read by every verb that takes it
_OPTION_VALUES = {"a": "m", "e_max": "1", "ell": "1", "method": "last",
                  "q": "3", "q0": "3", "s": "1", "z": "y"}


def test_every_option_of_every_verb_reaches_its_driver():
    """Each verb runs with all of its COMMANDS options set; a name the
    driver does not take would escape `run_script` as a TypeError."""
    lines = []
    for verb, (n_names, required, others) in COMMANDS.items():
        names = ("m", "J")[:n_names]
        options = [f"{key}={_OPTION_VALUES[key]}" for key in required + others]
        lines.append(" ".join([verb, *names, *options]))
    script = parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal m = x, y, z; "
        "ideal J = y, z\n" + "\n".join(lines))
    results = run_script(script)["results"]
    assert [r["command"] for r in results] == lines
    for result in results:
        if result["status"] != "ok":
            assert issubclass(getattr(hkspread, result["error"]["type"]),
                              hkspread.AlgebraError), result


def test_zero_generators_of_a_binding_are_dropped():
    script = parse_script("char 2; vars x y; ideal J = 0, x, y - y; gb J")
    assert [str(g) for g in script.ideals()["J"].gens] == ["x"]
    data = run_script(script)["results"][0]["data"]
    assert data["basis"] == ["x"]


def test_independent_e_max_zero_names_the_colon_survey():
    rep = run_script(parse_script(
        "char 2; vars x y; ideal m = x, y; independent m e_max=0"))
    error = rep["results"][0]["error"]
    assert error["type"] == "PreconditionError"
    assert error["message"] == "the colon survey needs e_max >= 1"


def test_report_json_prints_the_document_in_golden_key_order():
    doc = run_script(parse_script(SESSION))
    printed = json.loads(report_json(doc))
    assert printed == doc
    assert list(printed) == list(doc) == KEYS
    golden = json.loads((GOLDEN / "session.json").read_text())
    assert list(golden) + ["timing"] == KEYS


def test_csv_layout():
    rep = run_script(parse_script(SESSION))
    lines = report_csv(rep).splitlines()
    assert lines[0] == "command,section,label,q0,e,q,value,num,den,pass"
    assert "gb J,basis,0,,,,x^2,,," in lines
    assert "length J,length,,,,,6,,," in lines
    assert "ehk J e_max=2,estimate,proven,,,,6.0,6,1," in lines
    assert "ehk J e_max=2,sample,,,0,1,6,6,1," in lines
    assert "identity self m q=2,row,self-product[q=2],,,,,0,1,True" in lines
    spread_cells = [l for l in lines if l.startswith("spread J") and ",cell," in l]
    assert len(spread_cells) == 4


def test_csv_infinite_length():
    rep = run_script(parse_script("char 2; vars x y; ideal P = x; length P"))
    assert "length P,length,,,,,inf,,," in report_csv(rep).splitlines()


def test_csv_flattens_a_failed_command_to_one_error_row():
    rep = run_script(parse_script(
        "char 2; vars x y; ideal O = 1; length O; spread O"))
    lines = report_csv(rep).splitlines()
    assert lines[1:] == [
        "length O,length,,,,,0,,,",
        "spread O,error,PreconditionError,,,,spread needs a proper ideal,,,"]


def test_run_config_guard_applies():
    """run_script sets no budget of its own: it runs under the caller's
    guard, and the report's config states that guard."""
    script = parse_script(
        "char 7; vars x y z; "
        "ideal I = x^2 + y*z, y^2 + x*z, z^2 + x*y; gb I")
    with use_guard(GuardConfig(max_steps=2)):
        rep = run_script(script)
    assert not rep["ok"]
    assert rep["results"][0]["error"]["type"] == "ResourceLimitError"
    assert run_script(script)["ok"]
    # the quadric's ehk takes far more than two steps
    quadric = parse_script("char 3; vars x y z; quotient x^2 + y*z; "
                           "ideal m = x, y, z; ehk m e_max=4")
    with use_guard(GuardConfig(max_steps=2)):
        doc = run_script(quadric)
    assert not doc["ok"]
    assert doc["results"][0]["error"] == {
        "type": "ResourceLimitError",
        "message": "reduction step budget exceeded (2)"}
    assert doc["config"] == {"order": "degrevlex", "max_gb_steps": 2,
                             "max_exponent": GuardConfig().max_exponent,
                             "format": "json"}


def test_error_document_for_parse_error():
    with pytest.raises(ScriptError) as info:
        parse_script("char 4; vars x")
    doc = error_document(info.value)
    assert doc["ok"] is False
    assert doc["error"] == {
        "type": "ScriptError", "message": "characteristic must be prime",
        "line": 1, "column": 6,
    }


@pytest.fixture()
def scripts(tmp_path):
    ok = tmp_path / "ok.hks"
    ok.write_text("char 2\nvars x y\nideal J = x, y\nlength J\n")
    fail = tmp_path / "fail.hks"
    fail.write_text("char 2\nvars x y\nideal J = x\nspread J a=J\n")
    bad = tmp_path / "bad.hks"
    bad.write_text("char 4\nvars x\n")
    hard = tmp_path / "hard.hks"
    hard.write_text("char 7\nvars x y z\n"
                    "ideal I = x^2 + y*z, y^2 + x*z, z^2 + x*y\ngb I\n")
    return {"ok": ok, "fail": fail, "bad": bad, "hard": hard,
            "missing": tmp_path / "missing.hks"}


def test_cli_unit_normalizer_is_an_error_row(tmp_path, capsys):
    """e_HK of the unit ideal is 0, and every spread divides by it: a unit
    `a` fails its own command and the commands after it still run."""
    path = tmp_path / "unit.hks"
    path.write_text("char 2; vars x y; ideal O = 1; ideal J = x, y; "
                    "length J; spread J a=O; spread_hk J a=O; length J")
    assert main(["run", str(path)]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert [(r["command"], r["status"]) for r in results] == [
        ("length J", "ok"), ("spread J a=O", "error"),
        ("spread_hk J a=O", "error"), ("length J", "ok")]
    assert results[0]["data"] == results[3]["data"] == {
        "ideal": "J", "finite": True, "value": 1}
    for r in results[1:3]:
        assert r["error"] == {"type": "PreconditionError",
                              "message": "the normalizing ideal a must be proper"}


@pytest.mark.parametrize("command, message", [
    ("spread O", "spread needs a proper ideal"),
    ("spread_hk O", "spread_hk needs a proper ideal"),
    ("identity lemma33 O z=y", "additivity check needs a proper ideal"),
    ("identity corollary O", "vanishing check needs a proper ideal"),
    ("identity product m O ell=2 q=2,4",
     "product identity needs a proper ideal"),
    ("identity lemma33 P z=1", "z must lie in the maximal ideal"),
    ("identity lemma33 P z=1+y", "z must lie in the maximal ideal"),
])
def test_unit_ideal_is_a_precondition_error(command, message):
    """ℓ* and the identities are stated for proper ideals, and lemma33's z
    lies in the maximal ideal: a unit ideal or a unit z is an error row,
    not an estimate (spread_hk read 1) or a failed identity (lemma33 read
    lhs 1, rhs 2 on O, and residual 1 on z=1)."""
    rep = run_script(parse_script(
        "char 2; vars x y; ideal O = 1; ideal P = x; ideal m = x, y; "
        + command))
    assert not rep["ok"]
    result = rep["results"][0]
    assert result["status"] == "error"
    assert result["error"] == {"type": "PreconditionError", "message": message}


def test_cli_exit_codes(scripts, capsys):
    assert main(["run", str(scripts["ok"])]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert main(["run", str(scripts["fail"])]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
    assert main(["run", str(scripts["bad"])]) == 2
    err_doc = json.loads(capsys.readouterr().out)
    assert err_doc["error"]["message"] == "characteristic must be prime"
    assert main(["run", str(scripts["missing"])]) == 2
    assert "no such script file" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "char 2; vars x; ideal J = (x^" + "9" * 2200 + ")^" + "9" * 2200 + "; gb J",
    "char 2; vars x; ideal J = " + "*".join(["x^" + "9" * 4299] * 11) + "; gb J",
], ids=["power-of-power", "product-of-powers"])
def test_cli_built_exponent_past_str_limit_exits_2(tmp_path, capsys, text):
    """Exponents that a script builds past str()'s default limit of 4300
    digits, from literals within it: a parse error at the polynomial, with
    the JSON error document, not a traceback when the report prints it."""
    path = tmp_path / "script.hks"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ScriptError", "line": 1, "column": 27,
                     "message": "exponent has more than 4300 digits"}


@pytest.mark.parametrize("text, message, column", [
    ("char 3; vars x y; quotient 1; ideal m = x, y; ehk m e_max=1",
     "quotient relation must not be a nonzero constant", 28),
    ("char 2; vars x; ideal J = " + "(" * 1000 + "x" + ")" * 1000,
     "parentheses nested deeper than 100", 127),
    ("char 2; vars x y z; ideal J = (x+y+z+1)^65535; gb J",
     "polynomial arithmetic step budget exceeded (500000)", 40),
    # str.isdigit takes these, and int() reads '３' as 3 but fails on '²'
    ("char 3; vars x; ideal J = x^\u00b2", "unexpected character '\u00b2'", 29),
    ("char \uff13; vars x; ideal J = x", "unexpected character '\uff13'", 6),
    ("char 3; vars x if; ideal J = x", "invalid variable name 'if'", 16),
    ("char 3; vars x\u00b2; ideal J = x", "invalid variable name 'x\u00b2'", 14),
    ("char 3317044064679887385961981; vars x",
     "characteristic 3317044064679887385961981 is too large: the primality "
     "test is exact only below 3317044064679887385961981", 6),
])
def test_cli_rejected_scripts_exit_2(tmp_path, capsys, text, message, column):
    path = tmp_path / "script.hks"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ScriptError", "message": message,
                     "line": 1, "column": column}


def test_cli_accepts_a_61_bit_characteristic(tmp_path, capsys):
    """2^61 - 1 is prime; trial division took minutes to say so."""
    path = tmp_path / "script.hks"
    path.write_text("char 2305843009213693951; vars x; ideal J = x; length J")
    assert main(["run", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ring"]["characteristic"] == 2**61 - 1
    assert doc["results"][0]["data"]["value"] == 1


def test_cli_parses_under_the_run_guard(tmp_path, capsys):
    """--max-gb-steps reaches the parser: the products of (x+y)^3 take
    4 + 6 term pairs."""
    path = tmp_path / "script.hks"
    path.write_text("char 5; vars x y; ideal J = (x+y)^3; gb J")
    assert main(["run", str(path), "--max-gb-steps", "10"]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--max-gb-steps", "9"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        "polynomial arithmetic step budget exceeded (9)")


@pytest.mark.parametrize("kind", ["directory", "not_utf8", "no_permission"])
def test_cli_unreadable_script_exits_2(tmp_path, capsys, monkeypatch, kind):
    path = tmp_path / "script.hks"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"char 2\nvars x\xff\n")
    else:
        path.write_text("char 2\nvars x\n")

        def refuse(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(file))
        # the CLI's own `open`: a module global shadows the builtin
        monkeypatch.setattr("hkspread.cli.open", refuse, raising=False)
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"hkspread: cannot read script file: {path}")
    assert captured.err.count("\n") == 1


def test_cli_fallback_budgets_are_the_guard_defaults(scripts, capsys):
    assert main(["run", str(scripts["ok"])]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["max_gb_steps"], config["max_exponent"]) == GuardConfig()


def _fresh_env():
    """The environment of a fresh interpreter that imports this checkout,
    with stdout buffered as it is by default."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return env


# modules a run of the CLI must not load: argparse with the gettext and
# locale it reads, pathlib and typing, and dataclasses and inspect
_UNLOADED = ("argparse", "gettext", "locale", "pathlib", "typing",
             "dataclasses", "inspect")


def test_a_header_run_loads_no_parser_or_typing_modules(tmp_path):
    """A fresh interpreter, this test process having imported them all,
    under -S: the modules `site` imports (a `.pth` file may load pathlib
    and typing) cannot hide a regression."""
    path = tmp_path / "header.hks"
    path.write_text("char 2\nvars x\n")
    code = ("import sys; from hkspread.cli import main; "
            "sys.argv[1:] = ['run', sys.argv[1]]; status = main(); "
            f"print(status, sorted(set({_UNLOADED!r}) & set(sys.modules)), "
            "file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(path)],
                          env=_fresh_env(), check=True, capture_output=True,
                          text=True)
    assert proc.stderr.strip() == "0 []"
    assert json.loads(proc.stdout)["ok"] is True


def test_only_the_process_entry_freezes_the_heap(capsys, monkeypatch):
    """main() as the process freezes once; main(argv) never does, and
    both report the same document."""
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    path = str(GOLDEN / "session.hks")
    monkeypatch.setattr(sys, "argv", ["hkspread", "run", path])
    assert main() == 0
    as_process = _untimed(json.loads(capsys.readouterr().out))
    assert len(frozen) == 1
    frozen.clear()
    assert main(["run", path]) == 0
    assert len(frozen) == 0
    assert _untimed(json.loads(capsys.readouterr().out)) == as_process


def test_an_in_process_run_leaves_the_collector_as_it_was(capsys):
    before = gc.get_freeze_count()
    assert main(["run", str(GOLDEN / "session.hks")]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_run_as_the_process_loads_csv_only_for_csv(fmt):
    """main() in a fresh interpreter, frozen heap and all, prints the
    golden report; only the CSV run imports the csv module."""
    code = ("import sys; from hkspread.cli import main; "
            "sys.argv[1:] = ['run', sys.argv[1], '--format', sys.argv[2]]; "
            "status = main(); print(status, 'csv' in sys.modules, "
            "'_csv' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code,
                           str(GOLDEN / "session.hks"), fmt],
                          env=_fresh_env(), check=True, capture_output=True,
                          text=True)
    loaded = str(fmt == "csv")
    assert proc.stderr.split() == ["0", loaded, loaded]
    golden = (GOLDEN / f"session.{fmt}").read_text()
    if fmt == "csv":
        assert proc.stdout == golden
    else:
        assert _untimed(json.loads(proc.stdout)) == json.loads(golden)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_closed_stdout_exits_141(tmp_path, fmt):
    """A reader that closes the pipe early (`| head -c 10`): exit 141, the
    status of a process that SIGPIPE ends, and no traceback.  The report
    (619 KB of JSON) is larger than a pipe's buffer."""
    path = tmp_path / "big.hks"
    path.write_text("char 2\nvars x y\nideal J = x^2, y^3\n"
                    + "length J\n" * 3000)
    proc = subprocess.Popen([sys.executable, "-m", "hkspread.cli", "run",
                             str(path), "--format", fmt], env=_fresh_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def test_cli_reads_stdin(scripts, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(scripts["ok"].read_text()))
    assert main(["run", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_cli_csv_format(scripts, capsys):
    assert main(["run", str(scripts["ok"]), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "command,section,label,q0,e,q,value,num,den,pass"


@pytest.mark.parametrize("name", ["minimal", "quadric", "session"])
def test_cli_csv_matches_golden(name, capsys):
    assert main(["run", str(GOLDEN / f"{name}.hks"), "--format", "csv"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.csv").read_text()


@pytest.mark.parametrize("order", ["degrevlex", "lex", "deglex"])
def test_cli_order_matches_golden(order, capsys):
    """`gb` and `colon` under each --order, against bases written before
    the orders became matrices."""
    assert main(["run", str(GOLDEN / "orders.hks"), "--order", order,
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"orders.{order}.csv").read_text()


def test_cli_rejects_unknown_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(GOLDEN / "orders.hks"), "--order", "grlex"])
    assert exc.value.code == 2
    assert "invalid choice: 'grlex'" in capsys.readouterr().err


# a value other than the default for each row of the option table
_FLAG_VALUES = {"--format": "csv", "--order": "lex",
                  "--max-gb-steps": "100000", "--max-exponent": "512"}


def _cli_output(argv, capsys):
    """(exit code, stdout) of an in-process run, a JSON report untimed."""
    code = main(argv)
    out = capsys.readouterr().out
    if out.startswith("{"):
        out = _untimed(json.loads(out))
    return code, out


def _shortest_prefix(name):
    """The shortest prefix of `name` that names no other option."""
    return next(name[:k] for k in range(3, len(name) + 1)
                if [n for n in OPTIONS if n.startswith(name[:k])] == [name])


def test_every_option_has_a_test_value():
    assert set(_FLAG_VALUES) == set(OPTIONS)


@pytest.mark.parametrize("name", list(_FLAG_VALUES))
def test_cli_option_spellings_give_one_document(name, capsys):
    """`--name value`, `--name=value`, a unique prefix and the option before
    the script each give the same report."""
    path, value = str(GOLDEN / "orders.hks"), _FLAG_VALUES[name]
    spaced = _cli_output(["run", path, name, value], capsys)
    assert spaced[0] == 0
    assert spaced != _cli_output(["run", path], capsys)
    prefix = _shortest_prefix(name)
    assert prefix != name
    for argv in (["run", path, f"{name}={value}"],
                 ["run", path, prefix, value],
                 ["run", f"{prefix}={value}", path],
                 ["run", name, value, "--", path]):
        assert _cli_output(argv, capsys) == spaced, argv


def test_cli_double_dash_ends_the_options(tmp_path, capsys, monkeypatch):
    """After `--`, a script whose name starts with '-' is a path."""
    monkeypatch.chdir(tmp_path)
    Path("-s.hks").write_text("char 2; vars x y; ideal J = x, y; length J")
    assert main(["run", "--format", "csv", "--", "-s.hks"]) == 0
    assert "length J,length,,,,,1,,," in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["run", "s.hks", "--max", "5"],
     "ambiguous option: --max could match --max-gb-steps, --max-exponent"),
    (["run", "s.hks", "--bogus", "1"], "unrecognized arguments: --bogus"),
    (["run", "s.hks", "-x"], "unrecognized arguments: -x"),
    (["run", "s.hks", "--max-gb-steps=0"],
     "argument --max-gb-steps: must be a positive integer, got 0"),
    (["run", "s.hks", "--format=xml"],
     "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"),
    (["run"], "the following arguments are required: script"),
    (["run", "--format", "csv"],
     "the following arguments are required: script"),
    (["run", "s.hks", "t.hks"], "unrecognized arguments: t.hks"),
    ([], "the first argument must be the subcommand 'run'"),
    (["s.hks"], "the first argument must be the subcommand 'run'"),
] + [(["run", "s.hks", name], f"argument {name}: expected one argument")
     for name in _FLAG_VALUES],
    ids=["ambiguous", "unknown", "short", "budget", "choice", "no-script",
         "options-only", "two-scripts", "no-subcommand", "no-run"]
    + [f"no-value{name}" for name in _FLAG_VALUES])
def test_cli_bad_command_lines_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{USAGE}\nhkspread run: error: {message}\n"
    assert captured.err.startswith("usage: hkspread run [-h] [--format ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "-h"],
                                  ["run", "s.hks", "--format", "csv", "-h"]])
def test_cli_help_names_every_option(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == USAGE
    for name, (_, default, _) in OPTIONS.items():
        assert sum(line.startswith(f"  {name} ") for line in lines) == 1
        assert f"{name} " in lines[0]
        assert f"(default {default})" in out


def test_ehk_past_the_exponent_cap_fails_at_the_default_guard():
    rep = run_script(parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal m = x, y, z; "
        "ehk m e_max=11"))
    assert rep["results"][0]["error"] == {
        "type": "ResourceLimitError",
        "message": "bracket power exponent exceeds cap (100000)"}


_QUADRIC_SESSION = parse_script(
    "char 3; vars x y z; quotient x^2 + y*z; ideal m = x, y, z; "
    "ideal J = x + y, z; ehk m e_max=2; spread J e_max=2")


def _record_new_levels(monkeypatch, on_new=None):
    """Patch `GroebnerBasis.frobenius` to list, per thread, every level GB
    it builds."""
    made = {}
    frobenius = GroebnerBasis.frobenius

    def recording(gb):
        new = gb._frobenius is None
        result = frobenius(gb)
        if new:
            made.setdefault(threading.get_ident(), []).append(result)
            if on_new is not None:
                on_new()
        return result

    monkeypatch.setattr(GroebnerBasis, "frobenius", recording)
    return made


def test_session_builds_each_level_of_m_once(monkeypatch):
    m = _QUADRIC_SESSION.ideals()["m"]
    m_powers = [m.bracket_power(3).groebner_basis(),
                m.bracket_power(9).groebner_basis()]
    made = _record_new_levels(monkeypatch)
    assert run_script(_QUADRIC_SESSION)["ok"]
    (levels,) = made.values()
    # ehk takes m^[3] and m^[9], and so does the spread's normalizer, which
    # builds its own maximal ideal: it finds m's basis in the session's memo
    assert sum(lv in m_powers for lv in levels) == 2
    assert groebner._BASES.get() is None


def test_basis_memo_is_per_session_and_per_thread(monkeypatch):
    barrier = threading.Barrier(2, timeout=10)
    held = set()

    def meet_once():
        # the first level each thread builds waits for the other thread, so
        # both sessions are open at the same time
        if threading.get_ident() not in held:
            held.add(threading.get_ident())
            barrier.wait()

    made = _record_new_levels(monkeypatch, meet_once)
    reports, memo_after = [], []
    relations = _QUADRIC_SESSION.ring.relation_basis()._packed

    def session():
        reports.append(run_script(_QUADRIC_SESSION))
        memo_after.append(groebner._BASES.get())

    workers = [threading.Thread(target=session) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(30)
    assert not any(w.is_alive() for w in workers)
    assert [r["ok"] for r in reports] == [True, True]
    assert memo_after == [None, None]
    first, second = made.values()
    # both sessions build the same levels, and none is shared
    assert len(first) == len(second) > 0
    assert not {id(lv) for lv in first} & {id(lv) for lv in second}
    assert groebner._BASES.get() is None
    # the ring both sessions parse into keeps its relation basis as built
    assert _QUADRIC_SESSION.ring.relation_basis()._packed is relations


def test_a_deep_chain_leaves_the_relation_basis_as_built():
    """Every level of a chain reduces against the ring's one relation
    basis, in packings that widen with q; the basis keeps its own."""
    script = parse_script("char 2; vars x y z; quotient x^3 + y^3 + z^3; "
                          "ideal m = x, y, z; ehk m e_max=8")
    relations = script.ring.relation_basis()._packed
    assert run_script(script)["ok"]
    assert script.ring.relation_basis()._packed is relations


def test_session_memo_shares_the_basis_of_equal_generator_sets():
    """A script's `m = 2*y, x, z` and the maximal ideal `spread` builds have
    the same generators up to order and scaling: in one session they get one basis
    object, and with it one numerator and one Frobenius chain.  Outside a
    session each ideal computes its own."""
    script = parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal m = 2*y, x, z")
    ring = script.ring

    def bases():
        m, maximal = script.ideals()["m"], maximal_ideal(ring)
        return [(I.groebner_basis(), I.bracket_power(3).groebner_basis())
                for I in (m, maximal)]

    with basis_memo():
        (gb, level), (gb2, level2) = bases()
        assert gb is gb2 and level is level2
    (gb, level), (gb2, level2) = bases()
    assert gb == gb2 and level == level2
    assert gb is not gb2 and level is not level2


def test_session_memo_keeps_the_orders_apart():
    """The LEX and DEGREVLEX bases of (x^2 + y^3) are equal as polynomial
    lists; within one session each order still keeps its own."""
    ring = RingSpec(3, ("x", "y"))
    f = ring.poly("x^2 + y^3")
    with basis_memo():
        I = Ideal(ring, (f,))
        lex, drl = I.groebner_basis(LEX), I.groebner_basis(DEGREVLEX)
        assert lex.order == LEX and drl.order == DEGREVLEX
        assert lex is not drl
        assert Ideal(ring, (2 * f,)).groebner_basis(LEX) is lex
        assert Ideal(ring, (2 * f,)).groebner_basis() is drl
        assert Ideal(ring, (f, 2 * f)).groebner_basis(LEX) is lex


# The three benchmark session scripts at seed 1, copied as text.
_BENCH_SCRIPTS = {
    "hk_quadric": "char 3\nvars x y z\nquotient x^2 + y*z\nideal m = 2*(y), 2*(x), z\n"
                  "ehk m e_max=6 method=fit\n",
    "colon_cubic": "char 2\nvars x y z\nquotient x^3 + y^3 + z^3\n"
                   "ideal m = z, y, x\nideal K = z, x + y\nideal P = x\n"
                   "identity corollary K e_max=4\nidentity lemma33 P z=y e_max=4\n"
                   "independent m e_max=5\n",
    "session_quadric": "char 3\nvars x y z\nquotient x^2 + y*z\n"
                       "ideal m = z, 2*(y), 2*(x)\nideal J = x + y, 2*(z)\n"
                       "ehk m e_max=5\nspread J a=m e_max=4\nspread_hk J e_max=4\n"
                       "identity self m q=3,9 e_max=3\n"
                       "identity product m J ell=2 q=3,9 e_max=3\n"
                       "identity basechange m s=1 q=3,9 e_max=3\n",
}


@pytest.mark.parametrize("name,steps,runs", [("hk_quadric", 22, 8),
                                             ("colon_cubic", 3535, 68),
                                             ("session_quadric", 460, 45)])
def test_bench_scripts_take_the_pinned_reductions(name, steps, runs, monkeypatch):
    """Every guard step and Buchberger run of the benchmark's sessions is
    pinned: a change to how bases are stored or passed between kernel calls
    must take exactly the same reductions."""
    seen = {"steps": 0, "runs": 0}
    spend, buchberger = groebner._Budget.spend, groebner._buchberger

    def counted_spend(self, n=1):
        seen["steps"] += n
        return spend(self, n)

    def counted_buchberger(*args):
        seen["runs"] += 1
        return buchberger(*args)

    monkeypatch.setattr(groebner._Budget, "spend", counted_spend)
    monkeypatch.setattr(groebner, "_buchberger", counted_buchberger)
    doc = run_script(parse_script(_BENCH_SCRIPTS[name]))
    assert all(r["status"] == "ok" for r in doc["results"])
    assert (seen["steps"], seen["runs"]) == (steps, runs)


def test_cli_budgets_come_from_flags_alone(scripts, capsys, monkeypatch):
    """The environment sets no budget: the run states GuardConfig()'s
    budgets, and only --max-gb-steps lowers them."""
    monkeypatch.setenv("HKSPREAD_MAX_GB_STEPS", "2")
    monkeypatch.setenv("HKSPREAD_MAX_EXPONENT", "1")
    assert main(["run", str(scripts["hard"])]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["max_gb_steps"], config["max_exponent"]) == GuardConfig()
    assert main(["run", str(scripts["hard"]), "--max-gb-steps", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["max_gb_steps"] == 2
    assert doc["results"][0]["error"]["type"] == "ResourceLimitError"


def test_cli_max_exponent_flag(scripts, capsys):
    path = scripts["ok"].parent / "deep.hks"
    path.write_text(
        "char 2\nvars x y\nideal J = x, y\nehk J e_max=4 method=fit\n")
    assert main(["run", str(path), "--max-exponent", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["error"]["type"] == "ResourceLimitError"


@pytest.mark.parametrize("flag, value", [
    ("--max-gb-steps", "-1"),
    ("--max-gb-steps", "0"),
    ("--max-exponent", "0"),
    ("--max-exponent", "many"),
])
def test_cli_rejects_non_positive_budgets(scripts, capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        main(["run", str(scripts["ok"]), flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert "integer" in captured.err


def test_cli_budget_of_one_is_accepted(scripts, capsys):
    assert main(["run", str(scripts["ok"]), "--max-gb-steps", "1",
                 "--max-exponent", "1"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["max_gb_steps"], config["max_exponent"]) == (1, 1)


def test_cli_ring_dimension_runs_under_the_one_guard(tmp_path, capsys):
    """The ring's dimension runs the relation basis under the run's guard:
    a budget too small for it fails the command and leaves the dimension
    null, and the report is still written."""
    path = tmp_path / "quadric.hks"
    path.write_text("char 3; vars x y z; quotient x^2 + y*z; "
                    "ideal m = x, y, z; ehk m e_max=1")
    assert main(["run", str(path), "--max-exponent", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["error"]["type"] == "ResourceLimitError"
    assert doc["ring"]["dimension"] is None


_HIGH_RELATION = ("char 2; vars x y; quotient x^200000 + y^200000; "
                  "ideal J = x, y; length J")


def test_cli_relation_past_the_default_cap_is_a_report(capsys, monkeypatch):
    """A relation past the default exponent cap fails its command and the
    dimension, not the run; the --max-exponent that admits it admits both."""
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(_HIGH_RELATION))
    assert main(["run", "-"]) == 1
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == ""
    assert doc["ok"] is False and doc["ring"]["dimension"] is None
    assert doc["results"][0]["error"]["type"] == "ResourceLimitError"

    monkeypatch.setattr("sys.stdin", io.StringIO(_HIGH_RELATION))
    assert main(["run", "-", "--max-exponent", "1000000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ring"]["dimension"] == 1
    assert doc["results"][0]["data"] == {"ideal": "J", "finite": True,
                                         "value": 1}


def test_readme_large_q_example_is_exact():
    """The README's `ehk m e_max=13` on the quadric at --max-exponent 10^7:
    exponents up to 3^13 sit in wide packed fields, and every colength is
    (3q² − 1)/2."""
    script = parse_script("char 3\nvars x y z\nquotient x^2 + y*z\n"
                          "ideal m = x, y, z\nehk m e_max=13\n")
    with use_guard(GuardConfig(max_exponent=10**7)):
        doc = run_script(script)
    samples = doc["results"][0]["data"]["samples"]
    assert [(s["q"], s["colength"]) for s in samples] == [
        (3 ** e, (3 * 9 ** e - 1) // 2) for e in range(14)]
    assert samples[-1]["colength"] == 3812798742493
