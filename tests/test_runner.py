"""Report builder, JSON/CSV serialization, and the command-line entry point."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import hkspread
from hkspread import (
    Report,
    RunConfig,
    ScriptError,
    parse_script,
    report_csv,
    report_json,
    run_script,
)
from hkspread import ideals
from hkspread.cli import main
from hkspread.runner import error_document, report_document

GOLDEN = Path(__file__).parent / "golden"

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


def test_report_shape_and_ok():
    rep = run_script(parse_script(SESSION))
    assert isinstance(rep, Report)
    assert rep.ok
    doc = report_document(rep, include_timing=False)
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
    assert "timing" not in doc
    timed = report_document(rep)
    assert set(timed["timing"]) == {"total_seconds", "per_command_seconds"}


def test_rationals_serialize_as_num_den():
    rep = run_script(parse_script(SESSION))
    doc = report_document(rep, include_timing=False)
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
    rep = run_script(parse_script(SESSION))
    doc = report_document(rep, include_timing=False)
    ident = next(r for r in doc["results"] if r["kind"] == "identity")["data"]
    assert ident["name"] == "self-product"
    assert ident["pass"] is True
    row = ident["rows"][0]
    assert row["label"] == "self-product[q=2]"
    assert row["lhs"] == row["rhs"] == {"num": 6, "den": 1}
    assert row["residual"] == {"num": 0, "den": 1}
    indep = next(r for r in doc["results"] if r["kind"] == "independent")["data"]
    assert indep["verdict"] == "consistent"
    assert "finite-q evidence only" in indep["caveat"]
    assert [g["generator"] for g in indep["generators"]] == ["x", "y"]


def test_determinism():
    a = report_document(run_script(parse_script(SESSION)), include_timing=False)
    b = report_document(run_script(parse_script(SESSION)), include_timing=False)
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_error_isolation_keeps_later_commands():
    rep = run_script(parse_script(
        "char 2; vars x y; ideal P = x; spread P a=P; length P"))
    assert not rep.ok
    doc = report_document(rep, include_timing=False)
    first, second = doc["results"]
    assert first["status"] == "error"
    assert first["error"]["type"] == "PreconditionError"
    assert second["status"] == "ok"
    assert second["data"]["finite"] is False


def test_failed_identity_marks_report_not_ok():
    rep = run_script(parse_script(
        "char 2; vars x y; ideal m = x, y; ideal J = x^2, y^3; "
        "identity product J m ell=2 q=2"))
    assert not rep.ok
    data = report_document(rep, include_timing=False)["results"][0]["data"]
    assert data["pass"] is False
    assert data["rows"][0]["pass"] is False


def test_explicit_e_max_zero_is_kept():
    rep = run_script(parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal m = x, y, z; "
        "ehk m e_max=0 method=last"))
    result = report_document(rep, include_timing=False)["results"][0]
    assert result["command"] == "ehk m e_max=0 method=last"
    assert [s["e"] for s in result["data"]["samples"]] == [0]


def test_spread_e_max_zero_on_quotient_ring_names_the_normalizer():
    rep = run_script(parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal m = x, y, z; "
        "spread m e_max=0"))
    error = report_document(rep, include_timing=False)["results"][0]["error"]
    assert error["type"] == "PreconditionError"
    assert error["message"] == (
        "the normalizing e_HK(a) on a quotient ring needs e_max >= 1")


def test_spread_hk_e_max_zero_on_quotient_ring_names_the_estimates():
    rep = run_script(parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal J = x + y, z; "
        "spread_hk J e_max=0"))
    error = report_document(rep, include_timing=False)["results"][0]["error"]
    assert error["type"] == "PreconditionError"
    assert error["message"] == (
        "the e_HK estimates of a, J^[q0] and a·J^[q0] on a quotient ring "
        "need e_max >= 1")


def test_spread_e_max_zero_on_a_polynomial_ring_names_the_two_cells():
    """e_HK(a) on a polynomial ring needs no e >= 1, but a q0 level still
    compares two cells; e_max = 0 gives one, so nothing could stabilize."""
    rep = run_script(parse_script(
        "char 2; vars x y; ideal m = x, y; spread m e_max=0"))
    error = report_document(rep, include_timing=False)["results"][0]["error"]
    assert error["type"] == "PreconditionError"
    assert error["message"] == (
        "each q0 level compares the cells e = 0 and e = 1, so spread needs "
        "e_max >= 1")


_F2 = "char 2; vars x y; ideal m = x, y; ideal J = x^2, y^3; "
_CUBIC = "char 2; vars x y z; quotient x^3 + y^3 + z^3; ideal m = x, y, z; "


@pytest.mark.parametrize("header,bare,explicit", [
    (_F2, "spread J", "spread J q0=1 e_max=3"),
    (_F2, "independent m", "independent m q0=4 e_max=3"),
    (_F2, "ehk J", "ehk J e_max=3"),
    # least q0 reaches 4 here, so a default other than p^2 would show
    (_CUBIC, "independent m", "independent m q0=4 e_max=3"),
])
def test_left_out_options_take_the_function_defaults(header, bare, explicit):
    bare_result, explicit_result = [
        report_document(run_script(parse_script(header + cmd)),
                        include_timing=False)["results"][0]
        for cmd in (bare, explicit)]
    assert bare_result["command"] == bare
    assert explicit_result["command"] == explicit
    assert bare_result["status"] == "ok"
    assert bare_result["data"] == explicit_result["data"]


def test_zero_generators_of_a_binding_are_dropped():
    script = parse_script("char 2; vars x y; ideal J = 0, x, y - y; gb J")
    assert [str(g) for g in script.ideals()["J"].gens] == ["x"]
    data = report_document(run_script(script),
                           include_timing=False)["results"][0]["data"]
    assert data["basis"] == ["x"]


def test_independent_e_max_zero_names_the_colon_survey():
    rep = run_script(parse_script(
        "char 2; vars x y; ideal m = x, y; independent m e_max=0"))
    error = report_document(rep, include_timing=False)["results"][0]["error"]
    assert error["type"] == "PreconditionError"
    assert error["message"] == "the colon survey needs e_max >= 1"


def test_every_exported_name_resolves():
    for name in hkspread.__all__:
        assert hasattr(hkspread, name), name


def test_report_json_round_trips():
    rep = run_script(parse_script(SESSION))
    doc = json.loads(report_json(rep, include_timing=False))
    assert doc == report_document(rep, include_timing=False)


def test_csv_layout():
    rep = run_script(parse_script(SESSION))
    lines = report_csv(rep).splitlines()
    assert lines[0] == "command,section,label,q0,e,q,value,num,den,pass"
    assert "gb J,basis,0,,,,x^2,,," in lines
    assert "length J,length,,,,,6,,," in lines
    assert "ehk J e_max=2,estimate,monomial-exact,,,,6.0,6,1," in lines
    assert "ehk J e_max=2,sample,,,0,1,6,6,1," in lines
    assert "identity self m q=2,row,self-product[q=2],,,,,0,1,True" in lines
    spread_cells = [l for l in lines if l.startswith("spread J") and ",cell," in l]
    assert len(spread_cells) == 4


def test_csv_infinite_length():
    rep = run_script(parse_script("char 2; vars x y; ideal P = x; length P"))
    assert "length P,length,,,,,inf,,," in report_csv(rep).splitlines()


def test_run_config_guard_applies():
    script = parse_script(
        "char 7; vars x y z; "
        "ideal I = x^2 + y*z, y^2 + x*z, z^2 + x*y; gb I")
    rep = run_script(script, RunConfig(max_gb_steps=2))
    assert not rep.ok
    assert rep.results[0].error["type"] == "ResourceLimitError"
    assert run_script(script).ok


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


@pytest.mark.parametrize("kind", ["directory", "not_utf8", "no_permission"])
def test_cli_unreadable_script_exits_2(tmp_path, capsys, monkeypatch, kind):
    path = tmp_path / "script.hks"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"char 2\nvars x\xff\n")
    else:
        path.write_text("char 2\nvars x\n")

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))
        monkeypatch.setattr(Path, "read_text", refuse)
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"hkspread: cannot read script file: {path}")
    assert captured.err.count("\n") == 1


def test_cli_fallback_budgets_are_the_guard_defaults(scripts, capsys,
                                                     monkeypatch):
    monkeypatch.delenv("HKSPREAD_MAX_GB_STEPS", raising=False)
    monkeypatch.delenv("HKSPREAD_MAX_EXPONENT", raising=False)
    assert main(["run", str(scripts["ok"])]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["max_gb_steps"], config["max_exponent"]) == (500_000, 100_000)
    assert (RunConfig().max_gb_steps, RunConfig().max_exponent) == (500_000, 100_000)


def test_records_keep_their_semantics():
    config = RunConfig(order="lex")
    with pytest.raises(AttributeError):
        config.order = "deglex"
    first = Report(config=config, ring=None, bindings=())
    second = Report(config=config, ring=None, bindings=())
    first.results.append("result")
    first.per_command_seconds.append(0.5)
    assert second.results == [] and second.per_command_seconds == []


def test_importing_the_cli_skips_dataclasses_and_inspect():
    # a fresh interpreter: this test process has imported both already
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, hkspread.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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


def test_ehk_past_the_exponent_cap_fails_at_the_default_guard():
    rep = run_script(parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal m = x, y, z; "
        "ehk m e_max=11"))
    assert rep.results[0].error == {
        "type": "ResourceLimitError",
        "message": "bracket power exponent exceeds cap (100000)"}


_QUADRIC_SESSION = parse_script(
    "char 3; vars x y z; quotient x^2 + y*z; ideal m = x, y, z; "
    "ideal J = x + y, z; ehk m e_max=2; spread J e_max=2")


def _record_new_levels(monkeypatch, on_new=None):
    """Patch `_Chain.basis` to list, per thread, every level GB it builds."""
    made = {}
    basis = ideals._Chain.basis

    def recording(chain, q):
        new = q not in chain.bases
        result = basis(chain, q)
        if new:
            made.setdefault(threading.get_ident(), []).append(result)
            if on_new is not None:
                on_new()
        return result

    monkeypatch.setattr(ideals._Chain, "basis", recording)
    return made


def test_session_builds_each_level_of_m_once(monkeypatch):
    m = _QUADRIC_SESSION.ideals()["m"]
    m_powers = [m.bracket_power(3).groebner_basis(),
                m.bracket_power(9).groebner_basis()]
    made = _record_new_levels(monkeypatch)
    assert run_script(_QUADRIC_SESSION).ok
    (levels,) = made.values()
    # ehk takes m^[3] and m^[9], and so does the spread's normalizer, which
    # builds its own maximal ideal: it finds them in the session's memo
    assert sum(lv in m_powers for lv in levels) == 2
    assert ideals._CHAINS.get() is None


def test_chain_memo_is_per_session_and_per_thread(monkeypatch):
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

    def session():
        reports.append(run_script(_QUADRIC_SESSION))
        memo_after.append(ideals._CHAINS.get())

    workers = [threading.Thread(target=session) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(30)
    assert not any(w.is_alive() for w in workers)
    assert [r.ok for r in reports] == [True, True]
    assert memo_after == [None, None]
    first, second = made.values()
    # both sessions build the same levels, and none is shared
    assert len(first) == len(second) > 0
    assert not {id(lv) for lv in first} & {id(lv) for lv in second}
    assert ideals._CHAINS.get() is None


def test_cli_env_override_and_flag_precedence(scripts, capsys, monkeypatch):
    monkeypatch.setenv("HKSPREAD_MAX_GB_STEPS", "2")
    assert main(["run", str(scripts["hard"])]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["max_gb_steps"] == 2
    assert doc["results"][0]["error"]["type"] == "ResourceLimitError"
    # an explicit flag wins over the environment
    assert main(["run", str(scripts["hard"]), "--max-gb-steps", "500000"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["max_gb_steps"] == 500000


def test_cli_max_exponent_env(scripts, capsys, monkeypatch):
    monkeypatch.setenv("HKSPREAD_MAX_EXPONENT", "4")
    path = scripts["ok"].parent / "deep.hks"
    path.write_text(
        "char 2\nvars x y\nideal J = x, y\nehk J e_max=4 method=fit\n")
    assert main(["run", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["error"]["type"] == "ResourceLimitError"


@pytest.mark.parametrize("args, env, name", [
    (["--max-gb-steps", "-1"], {}, "--max-gb-steps"),
    (["--max-gb-steps", "0"], {}, "--max-gb-steps"),
    (["--max-exponent", "0"], {}, "--max-exponent"),
    (["--max-exponent", "many"], {}, "--max-exponent"),
    ([], {"HKSPREAD_MAX_GB_STEPS": "0"}, "HKSPREAD_MAX_GB_STEPS"),
    ([], {"HKSPREAD_MAX_EXPONENT": "-3"}, "HKSPREAD_MAX_EXPONENT"),
    ([], {"HKSPREAD_MAX_EXPONENT": "many"}, "HKSPREAD_MAX_EXPONENT"),
])
def test_cli_rejects_non_positive_budgets(scripts, capsys, monkeypatch,
                                          args, env, name):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as info:
        main(["run", str(scripts["ok"])] + args)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err
    assert "integer" in captured.err


def test_cli_budget_of_one_is_accepted(scripts, capsys, monkeypatch):
    monkeypatch.setenv("HKSPREAD_MAX_EXPONENT", "1")
    assert main(["run", str(scripts["ok"]), "--max-gb-steps", "1"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["max_gb_steps"], config["max_exponent"]) == (1, 1)


def test_readme_large_q_example_is_exact():
    """The README's `ehk m e_max=13` on the quadric at --max-exponent 10^7:
    exponents up to 3^13 sit in wide packed fields, and every colength is
    (3q² − 1)/2."""
    script = parse_script("char 3\nvars x y z\nquotient x^2 + y*z\n"
                          "ideal m = x, y, z\nehk m e_max=13\n")
    doc = report_document(run_script(script, RunConfig(max_exponent=10**7)),
                          include_timing=False)
    samples = doc["results"][0]["data"]["samples"]
    assert [(s["q"], s["colength"]) for s in samples] == [
        (3 ** e, (3 * 9 ** e - 1) // 2) for e in range(14)]
    assert samples[-1]["colength"] == 3812798742493
