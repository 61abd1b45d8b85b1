"""Session-script lexer, parser, and canonical printer."""

import random
from pathlib import Path

import pytest

from hkspread import (
    GuardConfig,
    RingSpec,
    ScriptError,
    parse_polynomial,
    parse_script,
    print_script,
    use_guard,
)
from hkspread.script import COMMANDS, Command, Token, format_command, tokenize


def test_parse_minimal_session():
    script = parse_script("char 2; vars x y; ideal J = x, y; spread J;")
    assert script.ring.characteristic == 2
    assert script.ring.variables == ("x", "y")
    assert [name for name, _ in script.bindings] == ["J"]
    assert script.bindings[0][1] == (script.ring.gen(0), script.ring.gen(1))
    assert script.commands == (Command("spread", ("J",)),)


def test_parse_quotient_session():
    script = parse_script(
        "char 3; vars x y z; quotient x^2 + y*z; ideal a = x, y, z; "
        "ehk a e_max=3;")
    assert len(script.ring.relations) == 1
    assert str(script.ring.relations[0]) == "x^2 + y*z"
    assert script.commands == (Command("ehk", ("a",), (("e_max", 3),)),)


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
    assert [c.verb for c in script.commands] == list(COMMANDS)
    spread = script.commands[4]
    assert spread == Command("spread", ("J",),
                             (("a", "m"), ("q0", 2), ("e_max", 2)))
    prod = script.commands[6]
    assert prod == Command("identity product", ("m", "J"),
                           (("ell", 2), ("q", (2, 4)), ("e_max", 2)))
    lemma = script.commands[8]
    assert lemma.options == (("z", script.ring.gen(1)), ("a", "m"))


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


@pytest.mark.parametrize("relation", ["1", "2"])
def test_constant_relation_is_a_parse_error(relation):
    err = _error(f"char 3; vars x y; quotient {relation}; ideal m = x, y; "
                 "ehk m e_max=1; identity basechange m s=1 q=3")
    assert err.message == "quotient relation must not be a nonzero constant"
    assert (err.line, err.column) == (1, 28)


def _nested(depth):
    return "(" * depth + "x" + ")" * depth


def test_deep_parentheses_are_a_parse_error():
    R = RingSpec(2, ("x",))
    head = "char 2; vars x; ideal J = "  # 26 columns
    err = _error(head + _nested(1000))
    assert err.message == "parentheses nested deeper than 100"
    assert (err.line, err.column) == (1, 27 + 100)
    with pytest.raises(ScriptError) as info:
        parse_polynomial(_nested(1000), R)
    assert (info.value.message, info.value.column) == (
        "parentheses nested deeper than 100", 101)
    assert parse_polynomial(_nested(50), R) == R.gen(0)
    assert parse_polynomial(_nested(100), R) == R.gen(0)
    script = parse_script(head + _nested(50) + "; gb J")
    assert script.bindings[0][1] == (script.ring.gen(0),)


def test_large_powers_parse_through_frobenius_digits():
    """(x+y+z+1)^1000 in characteristic 3: 1000 = 3^6 + 3^5 + 3^3 + 1, so
    the power is a product of four Frobenius powers of four terms each,
    256 terms in all, parsed in milliseconds."""
    R = RingSpec(3, ("x", "y", "z"))
    f = R.poly("x + y + z + 1")
    got = parse_polynomial("(x+y+z+1)^1000", R)
    assert len(got.terms) == 256
    assert got == f.qth_power(729) * f.qth_power(243) * f.qth_power(27) * f


def test_script_products_spend_the_step_budget():
    """Every product the parser takes counts its term pairs against the
    guard's step budget before it is formed: (x+y+z+1)^65535 in
    characteristic 2 would have 4^16 terms, and stops at its '^' with a
    ScriptError; a small budget stops a small power, and '*' counts.
    (x+y)^2 takes 2·2 term pairs, (x+y)^3 then 3·2 more."""
    err = _error("char 2; vars x y z; ideal J = (x+y+z+1)^65535; gb J")
    assert err.message == "polynomial arithmetic step budget exceeded (500000)"
    assert (err.line, err.column) == (1, 40)
    R = RingSpec(5, ("x", "y"))
    with use_guard(GuardConfig(max_steps=6)):
        assert parse_polynomial("(x+y)^2", R) == R.poly("x^2 + 2*x*y + y^2")
        with pytest.raises(ScriptError) as info:
            parse_polynomial("(x+y)^3", R)
        assert (info.value.message, info.value.column) == (
            "polynomial arithmetic step budget exceeded (6)", 6)
        with pytest.raises(ScriptError) as info:
            parse_polynomial("(x+y)^2*(x+y)", R)
        assert info.value.column == 8


def test_long_runs_of_unary_minus_parse():
    R = RingSpec(3, ("x",))
    x = R.gen(0)
    assert parse_polynomial("-" * 3000 + "x", R) == x
    assert parse_polynomial("-" * 3001 + "x^2", R) == -(x ** 2)
    assert parse_polynomial("x - -" + "-" * 2998 + "x", R) == x + x
    script = parse_script("char 3; vars x; ideal J = " + "-" * 3000 + "x")
    assert script.bindings[0][1] == (script.ring.gen(0),)


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


def test_commands_equal_only_their_own_class():
    gb_j, length_j = Command("gb", ("J",)), Command("length", ("J",))
    assert gb_j == Command("gb", ("J",))
    assert gb_j != length_j and not gb_j == length_j
    assert gb_j != ("gb", ("J",), ()) and not gb_j == ("gb", ("J",), ())
    assert hash(gb_j) == hash(Command("gb", ("J",)))
    head = "char 2; vars x y; ideal J = x, y; "
    gb, length = parse_script(head + "gb J"), parse_script(head + "length J")
    assert gb != length and not gb == length
    assert gb == parse_script(head + "gb J")
    assert gb != (gb.ring, gb.bindings, gb.commands)


def test_commands_refuse_assignment():
    cmd = Command("ehk", ("J",), (("e_max", 2),))
    with pytest.raises(AttributeError):
        cmd.options = ()
    with pytest.raises(AttributeError):
        cmd.names = ("m",)
    with pytest.raises(TypeError):
        cmd.options[0] = ("e_max", 3)
    assert cmd == Command("ehk", ("J",), (("e_max", 2),))


def test_format_command_canonical():
    assert format_command(Command("gb", ("J",))) == "gb J"
    assert format_command(
        Command("ehk", ("J",), (("method", "fit"),))) == "ehk J method=fit"
    assert format_command(Command(
        "spread", ("J",), (("a", "m"), ("q0", 2)))) == "spread J a=m q0=2"
    assert format_command(Command(
        "identity product", ("I", "J"), (("ell", 2), ("q", (2, 4))))
    ) == "identity product I J ell=2 q=2,4"
    # options print in their COMMANDS order, whatever order they were typed
    head = "char 2; vars x y; ideal J = x, y; ideal m = x, y; "
    for typed, printed in [
            ("spread J e_max=2 q0=2", "spread J q0=2 e_max=2"),
            ("identity product J m e_max=1 q=2 ell=1",
             "identity product J m ell=1 q=2 e_max=1"),
            ("identity lemma33 J e_max=1 a=m z=x",
             "identity lemma33 J z=x a=m e_max=1")]:
        cmd, = parse_script(head + typed).commands
        assert format_command(cmd) == printed


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
    assert {c.verb for c in script.commands} == set(COMMANDS)
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
    ("ehk J method=magic", "method must be fit or last, got 'magic'", 61),
    ("ehk J method=exact", "method must be fit or last, got 'exact'", 61),
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


def _reference_tokenize(text):
    """A character-by-character lexer, the reference `tokenize`'s token
    pattern must match, columns included."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
        elif "0" <= ch <= "9":
            start = i
            startcol = col
            while i < n and "0" <= text[i] <= "9":
                i += 1
                col += 1
            tokens.append(Token("INT", text[start:i], line, startcol))
        elif ch.isalpha() or ch == "_":
            start = i
            startcol = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("IDENT", text[start:i], line, startcol))
        elif ch in ";,=+-*^()":
            tokens.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
        else:
            raise ScriptError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


def _lexed(lexer, text):
    """The tokens, or the first error as (message, line, column)."""
    try:
        return lexer(text)
    except ScriptError as err:
        return (err.message, err.line, err.column)


_GOLDEN_SCRIPTS = sorted((Path(__file__).parent / "golden").glob("*.hks"))


def _random_texts(count, seed=2024):
    rng = random.Random(seed)
    alphabet = "xyzq_0123456789²３#\t\n @;,=+-*^()"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randrange(40)))
            for _ in range(count)]


def test_tokenize_matches_the_reference_lexer():
    texts = [path.read_text() for path in _GOLDEN_SCRIPTS]
    assert len(texts) >= 5
    texts += _random_texts(3000)
    errors = 0
    for text in texts:
        got = _lexed(tokenize, text)
        assert got == _lexed(_reference_tokenize, text), text
        errors += isinstance(got, tuple)
    assert 100 < errors < len(texts) - 100  # both outcomes are exercised


def test_eof_after_a_comment_is_past_the_comment():
    assert tokenize("char 2 # comment")[-1] == Token("EOF", "", 1, 17)
    err = _error("char 2 # comment")
    assert (err.message, err.line, err.column) == (
        "expected a 'vars' declaration", 1, 17)
    err = _error("char 2; vars x; ideal J = # comment\ngb J")
    assert (err.message, err.line, err.column) == (
        "expected a polynomial", 1, 36)


_DIGITS = "9" * 5000  # past int()'s default limit of 4300 digits


@pytest.mark.parametrize("text, message, column", [
    ("char " + _DIGITS, "characteristic has too many digits", 6),
    ("char 2; vars x; ideal J = x^" + _DIGITS,
     "exponent has too many digits", 29),
    ("char 2; vars x; ideal J = x + " + _DIGITS,
     "constant has too many digits", 31),
    ("char 2; vars x; ideal J = x; ehk J e_max=" + _DIGITS,
     "integer has too many digits", 42),
    ("char 2; vars x; ideal J = x; spread J q0=" + _DIGITS,
     "power of the characteristic has too many digits", 42),
    ("char 2; vars x; ideal J = x; identity self J q=2," + _DIGITS,
     "power of the characteristic has too many digits", 50),
], ids=["char", "exponent", "constant", "option", "q0", "q-list"])
def test_overlong_integer_is_a_parse_error(text, message, column):
    err = _error(text)
    assert (err.message, err.line, err.column) == (message, 1, column)


def test_built_exponent_is_checked_against_str_limit():
    """x^N times itself: ten factors of 4299 nines make 4300 digits and
    parse; eleven make 4301 and fail at the first token of the innermost
    polynomial that holds them, a relation's or a parenthesized one's."""
    power = "x^" + "9" * 4299
    ten, eleven = "*".join([power] * 10), "*".join([power] * 11)
    R = RingSpec(2, ("x",))
    assert R.poly(ten).max_exponent() == 10 ** 4300 - 10
    err = _error("char 2; vars x; quotient x + " + eleven)
    assert (err.message, err.column) == ("exponent has more than 4300 digits", 26)
    err = _error("char 2; vars x; ideal J = x, 1 + (" + eleven + ")")
    assert (err.message, err.column) == ("exponent has more than 4300 digits", 35)
