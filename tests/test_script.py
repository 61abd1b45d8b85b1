"""Session-script lexer, parser, and canonical printer."""

import pytest

from hkspread import (
    RingSpec,
    ScriptError,
    parse_polynomial,
    parse_script,
    print_script,
)
from hkspread.script import (
    EhkCommand,
    GbCommand,
    IdentityProductCommand,
    SpreadCommand,
    format_command,
)


def test_parse_minimal_session():
    script = parse_script("char 2; vars x y; ideal J = x, y; spread J;")
    assert script.ring.characteristic == 2
    assert script.ring.variables == ("x", "y")
    assert [name for name, _ in script.bindings] == ["J"]
    assert script.bindings[0][1] == (script.ring.gen(0), script.ring.gen(1))
    assert script.commands == (SpreadCommand("J"),)


def test_parse_quotient_session():
    script = parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal a = x, y, z; "
        "ehk a e_max=3;")
    assert len(script.ring.relations) == 1
    assert str(script.ring.relations[0]) == "x^2 + y*z"
    assert script.commands == (EhkCommand("a", e_max=3),)


def test_parse_full_option_surface():
    script = parse_script("""
# a comment line
char 2
vars x y
ideal m = x, y
ideal J = x^2, y^3
gb J; length J; colon m J
ehk J e_max=2 method=fit
spread J a=m q0=2 e_max=2
spread_hk J q0=1
identity product m J ell=2 q=2,4 e_max=2
identity self m q=2 q0=1
identity lemma33 J z=y a=m
identity basechange m s=2 q=2,4
identity corollary J q0=2
independent m q0=4 e_max=2
""")
    kinds = [type(c).__name__ for c in script.commands]
    assert kinds == [
        "GbCommand", "LengthCommand", "ColonCommand", "EhkCommand",
        "SpreadCommand", "SpreadHkCommand", "IdentityProductCommand",
        "IdentitySelfCommand", "IdentityLemma33Command",
        "IdentityBasechangeCommand", "IdentityCorollaryCommand",
        "IndependentCommand",
    ]
    spread = script.commands[4]
    assert (spread.a, spread.q0, spread.e_max) == ("m", 2, 2)
    prod = script.commands[6]
    assert prod == IdentityProductCommand("m", "J", 2, (2, 4), 2)


def _error(text):
    with pytest.raises(ScriptError) as info:
        parse_script(text)
    return info.value


def test_non_prime_characteristic_position():
    err = _error("char 4; vars x y")
    assert err.message == "characteristic must be prime"
    assert (err.line, err.column) == (1, 6)


def test_unknown_variable_position():
    err = _error("char 2\nvars x y\nideal J = x, w")
    assert "unknown variable 'w'" in err.message
    assert (err.line, err.column) == (3, 14)


def test_parse_errors():
    assert "must start with a 'char'" in _error("vars x y").message
    assert "expected a 'vars'" in _error("char 2; ideal J = x").message
    assert "duplicate variable" in _error("char 2; vars x x").message
    assert "duplicate binding" in _error(
        "char 2; vars x; ideal J = x; ideal J = x^2").message
    assert "unknown ideal" in _error("char 2; vars x; gb J").message
    assert "quotient relation must be homogeneous" in _error(
        "char 2; vars x y; quotient x + y^2").message
    assert "'quotient' must appear before" in _error(
        "char 2; vars x y; ideal J = x; quotient x*y").message
    assert "not a power of the characteristic" in _error(
        "char 2; vars x; ideal J = x; spread J q0=3").message
    assert "method must be" in _error(
        "char 2; vars x; ideal J = x; ehk J method=magic").message
    assert "missing required option" in _error(
        "char 2; vars x y; ideal J = x; identity product J J q=2").message
    assert "unknown identity kind" in _error(
        "char 2; vars x; ideal J = x; identity triple J").message
    assert "duplicate option" in _error(
        "char 2; vars x; ideal J = x; spread J q0=2 q0=2").message
    assert "unexpected character" in _error("char 2; vars x; ideal J = x @").message


def test_parse_polynomial_api():
    R = RingSpec(5, ("x", "y"))
    f = parse_polynomial("3*x^2*y + 4", R)
    assert str(f) == "3*x^2*y + 4"
    assert parse_polynomial("-x", R) == R.gen(0).scale(4)
    assert parse_polynomial("(x + y)^2", R) == (R.gen(0) + R.gen(1)) ** 2
    with pytest.raises(ScriptError):
        parse_polynomial("x + ", R)
    with pytest.raises(ScriptError):
        parse_polynomial("x y", R)  # implicit multiplication rejected


def test_format_command_canonical():
    assert format_command(GbCommand("J")) == "gb J"
    assert format_command(EhkCommand("J", None, "fit")) == "ehk J method=fit"
    assert format_command(SpreadCommand("J", "m", 2, None)) == "spread J a=m q0=2"
    assert format_command(
        IdentityProductCommand("I", "J", 2, (2, 4), None)
    ) == "identity product I J ell=2 q=2,4"


def test_print_parse_round_trip():
    text = """char 2
vars x y
ideal m = x, y
ideal J = x^2, y^3
gb J
ehk J e_max=2 method=fit
spread J a=m q0=2
length J
colon m J
spread_hk J a=m q0=1 e_max=2
identity product m J ell=2 q=2,4
identity self m q=2,4 q0=2 e_max=2
identity lemma33 J z=x*y + y a=m
identity basechange m s=2 q=2,4 e_max=1
identity corollary J q0=2
independent m
"""
    script = parse_script(text)
    assert len({type(c) for c in script.commands}) == 12
    printed = print_script(script)
    assert parse_script(printed) == script
    # printing is idempotent
    assert print_script(parse_script(printed)) == printed


def test_round_trip_with_quotient():
    text = "char 3; vars x y z; quotient x^2 + y*z; ideal a = x, y, z; ehk a;"
    script = parse_script(text)
    printed = print_script(script)
    assert parse_script(printed) == script
    assert "quotient x^2 + y*z" in printed


_HEAD = "char 2; vars x y; ideal J = x; ideal m = x, y; "  # 47 columns


@pytest.mark.parametrize("command, message, column", [
    ("identity product J J q=2", "missing required option 'ell'", 57),
    ("identity basechange J s=1", "missing required option 'q'", 57),
    ("identity lemma33 J a=m", "missing required option 'z'", 57),
    ("spread J foo=2", "unknown option 'foo'", 57),
    ("identity corollary J ell=2", "unknown option 'ell'", 69),
    ("spread J q0=2 q0=2", "duplicate option 'q0'", 62),
    ("colon J K", "unknown ideal 'K'", 56),
    ("spread J a=K", "unknown ideal 'K'", 59),
    ("identity lemma33 J z=y a=K", "unknown ideal 'K'", 73),
    ("ehk J method=magic",
     "method must be fit, last, or exact, got 'magic'", 61),
    ("identity triple J", "unknown identity kind 'triple'", 57),
    ("identity", "expected identity kind", 56),
    ("frobnicate J", "unknown command 'frobnicate'", 48),
    ("identity product J q=2", "expected ideal name", 67),
    ("length J extra", "unexpected token 'extra'", 57),
    ("identity product m m ell=1 q=2,2",
     "q values must increase, got 2 after 2", 79),
    ("identity product m m ell=1 q=4,2",
     "q values must increase, got 2 after 4", 79),
    ("identity basechange m s=1 q=1,2,2",
     "q values must increase, got 2 after 2", 80),
    ("identity self m q=2,4,4", "q values must increase, got 4 after 4", 70),
])
def test_command_error_positions(command, message, column):
    err = _error(_HEAD + command)
    assert (err.message, err.line, err.column) == (message, 1, column)
