"""Session-script language: lexer, parser, AST, and canonical printer.

Grammar (statements separated by ';' or newline, '#' comments):

    char <prime>
    vars <ident>+
    quotient <poly>                  (repeatable, before any bindings)
    ideal <name> = <poly> (, <poly>)*
    gb <name>
    length <name>
    colon <name> <name>
    ehk <name> [e_max=N] [method=fit|last|exact]
    spread <name> [a=<name>] [q0=N] [e_max=N]
    spread_hk <name> [a=<name>] [q0=N] [e_max=N]
    identity product <I> <J> ell=N q=N[,N...] [e_max=N]
    identity self <J> q=N[,N...] [q0=N] [e_max=N]
    identity lemma33 <I> z=<poly> [a=<name>] [q0=N] [e_max=N]
    identity basechange <a> s=N q=N[,N...] [e_max=N]
    identity corollary <I> [q0=N] [e_max=N]
    independent <name> [q0=N] [e_max=N]

Polynomials are infix with '^' and '*'; implicit multiplication is not
allowed.  q and q0 take power-of-p values (not exponents).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

from .errors import HomogeneityError, NotPrimeError, ScriptError
from .poly import FrobeniusExponent, Polynomial, RingSpec


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


_SYMBOLS = set(";,=+-*^()")


def tokenize(text: str):
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
        elif ch.isdigit():
            start = i
            startcol = col
            while i < n and text[i].isdigit():
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
        elif ch in _SYMBOLS:
            tokens.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
        else:
            raise ScriptError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- command AST --------------------------------------------------------------


@dataclass(frozen=True)
class GbCommand:
    name: str


@dataclass(frozen=True)
class LengthCommand:
    name: str


@dataclass(frozen=True)
class ColonCommand:
    left: str
    right: str


@dataclass(frozen=True)
class EhkCommand:
    name: str
    e_max: int | None = None
    method: str | None = None


@dataclass(frozen=True)
class SpreadCommand:
    name: str
    a: str | None = None
    q0: int | None = None
    e_max: int | None = None


@dataclass(frozen=True)
class SpreadHkCommand:
    name: str
    a: str | None = None
    q0: int | None = None
    e_max: int | None = None


@dataclass(frozen=True)
class IdentityProductCommand:
    left: str
    right: str
    ell: int
    q: tuple
    e_max: int | None = None


@dataclass(frozen=True)
class IdentitySelfCommand:
    name: str
    q: tuple
    q0: int | None = None
    e_max: int | None = None


@dataclass(frozen=True)
class IdentityLemma33Command:
    name: str
    z: Polynomial
    a: str | None = None
    q0: int | None = None
    e_max: int | None = None


@dataclass(frozen=True)
class IdentityBasechangeCommand:
    name: str
    s: int
    q: tuple
    e_max: int | None = None


@dataclass(frozen=True)
class IdentityCorollaryCommand:
    name: str
    q0: int | None = None
    e_max: int | None = None


@dataclass(frozen=True)
class IndependentCommand:
    name: str
    q0: int | None = None
    e_max: int | None = None


# verb -> (command class, number of leading ideal names).  The class's
# fields after the ideal names are the command's options, in the order the
# printer writes them; a field without a default is a required option.
COMMANDS = {
    "gb": (GbCommand, 1),
    "length": (LengthCommand, 1),
    "colon": (ColonCommand, 2),
    "ehk": (EhkCommand, 1),
    "spread": (SpreadCommand, 1),
    "spread_hk": (SpreadHkCommand, 1),
    "identity product": (IdentityProductCommand, 2),
    "identity self": (IdentitySelfCommand, 1),
    "identity lemma33": (IdentityLemma33Command, 1),
    "identity basechange": (IdentityBasechangeCommand, 1),
    "identity corollary": (IdentityCorollaryCommand, 1),
    "independent": (IndependentCommand, 1),
}

# option name -> type; each name has one type in every command.  ideal is a
# bound ideal name, qvalue a power of p, qlist comma-separated qvalues.
_OPTION_TYPES = {"a": "ideal", "e_max": "int", "ell": "int",
                 "method": "method", "q": "qlist", "q0": "qvalue",
                 "s": "int", "z": "poly"}

VERBS = {cls: verb for verb, (cls, _) in COMMANDS.items()}

# first words that only start two-word verbs, such as "identity"
_GROUPS = {verb.split()[0] for verb in COMMANDS if " " in verb}

_METHODS = ("fit", "last", "exact")


@dataclass(frozen=True)
class SessionScript:
    ring: RingSpec
    bindings: tuple  # ((name, (Polynomial, ...)), ...) in declaration order
    commands: tuple

    def ideals(self):
        from .ideals import Ideal
        return {name: Ideal(self.ring, tuple(g for g in gens if not g.is_zero()))
                for name, gens in self.bindings}


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ScriptError(message, tok.line, tok.col)

    def at_statement_end(self) -> bool:
        tok = self.peek()
        return tok.kind in ("NEWLINE", "EOF") or (
            tok.kind == "SYM" and tok.value == ";")

    def skip_separators(self):
        while True:
            tok = self.peek()
            if tok.kind == "NEWLINE" or (tok.kind == "SYM" and tok.value == ";"):
                self.advance()
            else:
                return

    def end_statement(self):
        if not self.at_statement_end():
            self.fail(f"unexpected token {self.peek().value!r}")

    def expect_ident(self, what="identifier") -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail(f"expected {what}")
        return self.advance()

    def expect_int(self, what="integer") -> Token:
        tok = self.peek()
        if tok.kind != "INT":
            self.fail(f"expected {what}")
        return self.advance()

    def expect_sym(self, sym):
        tok = self.peek()
        if tok.kind != "SYM" or tok.value != sym:
            self.fail(f"expected {sym!r}")
        return self.advance()

    # polynomial expressions --------------------------------------------

    def parse_poly(self, ring: RingSpec) -> Polynomial:
        result = self.parse_poly_term(ring)
        while True:
            tok = self.peek()
            if tok.kind == "SYM" and tok.value in "+-":
                self.advance()
                rhs = self.parse_poly_term(ring)
                result = result + rhs if tok.value == "+" else result - rhs
            else:
                return result

    def parse_poly_term(self, ring) -> Polynomial:
        result = self.parse_poly_factor(ring)
        while True:
            tok = self.peek()
            if tok.kind == "SYM" and tok.value == "*":
                self.advance()
                result = result * self.parse_poly_factor(ring)
            else:
                return result

    def parse_poly_factor(self, ring) -> Polynomial:
        tok = self.peek()
        if tok.kind == "SYM" and tok.value == "-":
            self.advance()
            return -self.parse_poly_factor(ring)
        base = self.parse_poly_atom(ring)
        tok = self.peek()
        if tok.kind == "SYM" and tok.value == "^":
            self.advance()
            exp = self.expect_int("exponent")
            return base ** int(exp.value)
        return base

    def parse_poly_atom(self, ring) -> Polynomial:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return ring.constant(int(tok.value))
        if tok.kind == "IDENT":
            if tok.value not in ring.variables:
                self.fail(f"unknown variable {tok.value!r}", tok)
            self.advance()
            return ring.gen(ring.variables.index(tok.value))
        if tok.kind == "SYM" and tok.value == "(":
            self.advance()
            inner = self.parse_poly(ring)
            self.expect_sym(")")
            return inner
        self.fail("expected a polynomial")

    # options -----------------------------------------------------------

    def looks_like_option(self) -> bool:
        tok = self.peek()
        return (tok.kind == "IDENT"
                and self.tokens[self.pos + 1].kind == "SYM"
                and self.tokens[self.pos + 1].value == "=")

    def parse_options(self, ring, allowed, bound) -> dict:
        """Options named in `allowed`, read by their _OPTION_TYPES entry;
        an ideal value must be one of the `bound` names."""
        seen = {}
        while self.looks_like_option():
            key_tok = self.advance()
            key = key_tok.value
            if key not in allowed:
                self.fail(f"unknown option {key!r}", key_tok)
            if key in seen:
                self.fail(f"duplicate option {key!r}", key_tok)
            self.expect_sym("=")
            kind = _OPTION_TYPES[key]
            if kind == "int":
                seen[key] = int(self.expect_int().value)
            elif kind == "ideal":
                tok = self.expect_ident()
                if tok.value not in bound:
                    self.fail(f"unknown ideal {tok.value!r}", tok)
                seen[key] = tok.value
            elif kind == "method":
                tok = self.expect_ident()
                if tok.value not in _METHODS:
                    self.fail("method must be fit, last, or exact, "
                              f"got {tok.value!r}", tok)
                seen[key] = tok.value
            elif kind == "qvalue":
                seen[key] = self.parse_q_value(ring)
            elif kind == "qlist":
                values = [self.parse_q_value(ring)]
                while (self.peek().kind == "SYM"
                       and self.peek().value == ","):
                    self.advance()
                    tok = self.peek()
                    value = self.parse_q_value(ring)
                    if value <= values[-1]:
                        self.fail(f"q values must increase, got {value} "
                                  f"after {values[-1]}", tok)
                    values.append(value)
                seen[key] = tuple(values)
            elif kind == "poly":
                seen[key] = self.parse_poly(ring)
            else:  # pragma: no cover
                raise AssertionError(kind)
        return seen

    def parse_q_value(self, ring) -> int:
        tok = self.expect_int("power of the characteristic")
        value = int(tok.value)
        try:
            FrobeniusExponent.from_q(ring.characteristic, value)
        except Exception:
            self.fail(
                f"{value} is not a power of the characteristic "
                f"{ring.characteristic}", tok)
        return value


def parse_script(text: str) -> SessionScript:
    """Parse a full session; errors carry (line, column) positions."""
    p = _Parser(text)
    p.skip_separators()

    tok = p.peek()
    if not (tok.kind == "IDENT" and tok.value == "char"):
        p.fail("script must start with a 'char' declaration")
    p.advance()
    char_tok = p.expect_int("characteristic")
    characteristic = int(char_tok.value)
    p.end_statement()
    p.skip_separators()

    tok = p.peek()
    if not (tok.kind == "IDENT" and tok.value == "vars"):
        p.fail("expected a 'vars' declaration")
    p.advance()
    names = []
    name_tok = p.expect_ident("variable name")
    names.append(name_tok.value)
    while p.peek().kind == "IDENT":
        names.append(p.advance().value)
    p.end_statement()
    if len(set(names)) != len(names):
        raise ScriptError("duplicate variable name", name_tok.line, name_tok.col)

    try:
        ring = RingSpec(characteristic, tuple(names))
    except NotPrimeError:
        raise ScriptError("characteristic must be prime",
                          char_tok.line, char_tok.col)

    p.skip_separators()
    while p.peek().kind == "IDENT" and p.peek().value == "quotient":
        kw = p.advance()
        rel_start = p.peek()
        rel = p.parse_poly(ring)
        p.end_statement()
        try:
            ring = ring.quotient(rel)
        except HomogeneityError:
            raise ScriptError("quotient relation must be homogeneous",
                              rel_start.line, rel_start.col)
        p.skip_separators()

    bindings = []
    bound = set()
    commands = []

    def require_bound(tok):
        if tok.value not in bound:
            raise ScriptError(f"unknown ideal {tok.value!r}", tok.line, tok.col)
        return tok.value

    while p.peek().kind != "EOF":
        tok = p.peek()
        if tok.kind != "IDENT":
            p.fail("expected a statement")
        word = tok.value
        if word == "quotient":
            p.fail("'quotient' must appear before ideal bindings")
        elif word == "char" or word == "vars":
            p.fail(f"duplicate {word!r} declaration")
        elif word == "ideal":
            p.advance()
            name_tok = p.expect_ident("ideal name")
            if name_tok.value in bound:
                raise ScriptError(f"duplicate binding {name_tok.value!r}",
                                  name_tok.line, name_tok.col)
            p.expect_sym("=")
            gens = [p.parse_poly(ring)]
            while p.peek().kind == "SYM" and p.peek().value == ",":
                p.advance()
                gens.append(p.parse_poly(ring))
            p.end_statement()
            bindings.append((name_tok.value, tuple(gens)))
            bound.add(name_tok.value)
        else:
            # a command: a verb of one or two words, read by COMMANDS
            verb_tok = p.advance()
            verb = word
            if verb not in COMMANDS:
                if verb not in _GROUPS:
                    p.fail(f"unknown command {verb!r}", verb_tok)
                verb_tok = p.expect_ident(f"{word} kind")
                verb = f"{word} {verb_tok.value}"
                if verb not in COMMANDS:
                    p.fail(f"unknown {word} kind {verb_tok.value!r}", verb_tok)
            cls, n_names = COMMANDS[verb]
            options = fields(cls)[n_names:]
            names = []
            for _ in range(n_names):
                if p.looks_like_option():
                    p.fail("expected ideal name")
                names.append(require_bound(p.expect_ident("ideal name")))
            opts = p.parse_options(ring, [f.name for f in options], bound)
            for f in options:
                if f.default is MISSING and f.name not in opts:
                    p.fail(f"missing required option {f.name!r}", verb_tok)
            p.end_statement()
            commands.append(cls(*names, **opts))
        p.skip_separators()

    return SessionScript(ring=ring, bindings=tuple(bindings),
                         commands=tuple(commands))


def parse_polynomial(text: str, ring: RingSpec) -> Polynomial:
    """Parse a single infix polynomial in the given ring."""
    p = _Parser(text)
    p.skip_separators()
    poly = p.parse_poly(ring)
    p.skip_separators()
    if p.peek().kind != "EOF":
        p.fail("unexpected trailing input")
    return poly


# -- canonical printer --------------------------------------------------------


def format_command(cmd) -> str:
    verb = VERBS[type(cmd)]
    n_names = COMMANDS[verb][1]
    values = [(f.name, getattr(cmd, f.name)) for f in fields(cmd)]
    parts = [verb] + [value for _, value in values[:n_names]]
    for key, value in values[n_names:]:
        if value is not None:
            if _OPTION_TYPES[key] == "qlist":
                value = ",".join(str(q) for q in value)
            parts.append(f"{key}={value}")
    return " ".join(parts)


def print_script(script: SessionScript) -> str:
    """Canonical text whose parse equals the script."""
    lines = [f"char {script.ring.characteristic}",
             "vars " + " ".join(script.ring.variables)]
    for rel in script.ring.relations:
        lines.append(f"quotient {rel}")
    for name, gens in script.bindings:
        lines.append(f"ideal {name} = " + ", ".join(str(g) for g in gens))
    for cmd in script.commands:
        lines.append(format_command(cmd))
    return "\n".join(lines) + "\n"
