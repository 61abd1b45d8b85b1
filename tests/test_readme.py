"""The README's Python examples run as written and give the values their
comments state."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                      flags=re.S | re.M)


def test_readme_python_examples():
    blocks = _python_blocks()
    assert len(blocks) == 4
    ns = {}
    for block in blocks:  # in order, sharing one namespace
        exec(compile(block, str(README), "exec"), ns)

    assert int(ns["length_quotient"](ns["J"])) == 6
    assert ns["ehk_estimate"](ns["J"]).value == Fraction(6, 1)
    assert ns["ehk_estimate"](ns["J"]).evidence.kind == "proven"

    rep = ns["rep"]
    assert rep.estimate == 2
    assert [c.ratio for c in rep.cells] == [Fraction(2)] * 4

    chk = ns["chk"]
    assert chk.passed
    assert all(r.residual == 0 for r in chk.rows)

    assert round(float(ns["est"].value), 3) == 1.503
    assert ns["est"].evidence.kind == "sampled"

    doc = ns["doc"]
    assert doc["ok"] is True
    assert doc["results"][0]["data"]["value"] == 6
    assert ns["report_csv"](doc).splitlines()[1] == "length J,length,,,,,6,,,"

    big = ns["big"]
    assert big["ok"] is True
    assert big["config"]["max_gb_steps"] == 100_000
    assert big["config"]["max_exponent"] == 10**7
    assert big["results"][0]["data"]["samples"][-1]["colength"] == 3812798742493
