"""Session-script language: lexer, parser, AST, and canonical printer.

Grammar (statements separated by ';' or newline, '#' comments):

    char <prime>
    vars <ident>+
    quotient <poly>                  (repeatable, before any bindings)
    ideal <name> = <poly> (, <poly>)*
    gb <name>
    length <name>
    colon <name> <name>
    ehk <name> [e_max=N] [method=fit|last]
    spread <name> [a=<name>] [q0=N] [e_max=N]
    spread_hk <name> [a=<name>] [q0=N] [e_max=N]
    identity product <I> <J> ell=N q=N[,N...] [e_max=N]
    identity self <J> q=N[,N...] [q0=N] [e_max=N]
    identity lemma33 <I> z=<poly> [a=<name>] [q0=N] [e_max=N]
    identity basechange <a> s=N q=N[,N...] [e_max=N]
    identity corollary <I> [q0=N] [e_max=N]
    independent <name> [q0=N] [e_max=N]

Polynomials are infix with '^' and '*'; implicit multiplication is not
allowed.  Their products spend the active guard's step budget, one step
per term pair (`_Parser.spend_product`).  q and q0 take power-of-p values
(not exponents).

The lexer is one pattern with a named group per token kind.  Each command
parses to one `Command(verb, names, options)` record.  Its verb's row in
COMMANDS, (number of leading ideal names, required options, other
options), says what the parser reads after the verb.  The option table
_OPTIONS maps each option name to the one `_Parser` method that reads its
value (a bound ideal name, an integer, a method, a q value, a list of q
values or a polynomial), and `_Parser.integer` reads every integer
literal, so one that int() refuses for its length is a ScriptError at its
token.  `options` holds the (name, value) pairs the script set, in the
row's order, whatever order they were typed in, and the printer writes
them back in that order.  Commands and scripts equal only records of
their own class.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple

from .errors import (FrobeniusPowerError, HomogeneityError, NotPrimeError,
                     ResourceLimitError, ScriptError, UnitRelationError)
from .groebner import _Budget, active_guard
from .poly import PRIME_LIMIT, Polynomial, RingSpec, as_q, valid_var_name


Token = namedtuple("Token", "kind value line col")


# one named group per token kind, tried in this order; SKIP (blanks and
# '#' comments) makes no token
_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)|(?P<SKIP>[ \t\r]+|#[^\n]*)"
    r"|(?P<INT>[0-9]+)"  # ASCII only: \d takes '３'
    r"|(?P<IDENT>\w+)"  # \w is isalnum() or '_'; the first must be a letter
    r"|(?P<SYM>[;,=+\-*^()])")


def tokenize(text: str):
    tokens = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        kind = match and match.lastgroup
        col = pos - line_start + 1
        if not kind or kind == "IDENT" and not (text[pos].isalpha()
                                                or text[pos] == "_"):
            raise ScriptError(f"unexpected character {text[pos]!r}", line, col)
        if kind != "SKIP":
            tokens.append(Token(kind, match.group(), line, col))
        pos = match.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, pos
    tokens.append(Token("EOF", "", line, pos - line_start + 1))
    return tokens


# -- command AST --------------------------------------------------------------


class Command(namedtuple("Command", "verb names options", defaults=((),))):
    """One parsed command: its verb, its leading ideal names and the options
    it sets, as (name, value) pairs in the order of its COMMANDS row."""

    __slots__ = ()


# verb -> (number of leading ideal names, required options, other options).
# A command prints its required options and then the others, in this order.
COMMANDS = {
    "gb": (1, (), ()),
    "length": (1, (), ()),
    "colon": (2, (), ()),
    "ehk": (1, (), ("e_max", "method")),
    "spread": (1, (), ("a", "q0", "e_max")),
    "spread_hk": (1, (), ("a", "q0", "e_max")),
    "identity product": (2, ("ell", "q"), ("e_max",)),
    "identity self": (1, ("q",), ("q0", "e_max")),
    "identity lemma33": (1, ("z",), ("a", "q0", "e_max")),
    "identity basechange": (1, ("s", "q"), ("e_max",)),
    "identity corollary": (1, (), ("q0", "e_max")),
    "independent": (1, (), ("q0", "e_max")),
}

# first words that only start two-word verbs, such as "identity"
_GROUPS = {verb.split()[0] for verb in COMMANDS if " " in verb}

_METHODS = ("fit", "last")

# deepest parenthesis nesting a polynomial may use; the parser recurses once
# per level, so this keeps it far from the interpreter's recursion limit
_MAX_NESTING = 100


class SessionScript(namedtuple("SessionScript", "ring bindings commands")):
    """SessionScript(ring, bindings, commands): the bindings are
    ((name, (Polynomial, ...)), ...) in declaration order."""

    __slots__ = ()

    def ideals(self):
        from .ideals import Ideal
        return {name: Ideal(self.ring, gens) for name, gens in self.bindings}


def _same_class_eq(self, other):
    return type(self) is type(other) and tuple.__eq__(self, other)


def _same_class_ne(self, other):
    return not _same_class_eq(self, other)


# A named tuple equals every tuple with equal items; a command or script
# equals only one of its own class.
for _cls in (Command, SessionScript):
    _cls.__eq__, _cls.__ne__ = _same_class_eq, _same_class_ne


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, ring: RingSpec | None = None):
        self.tokens = tokenize(text)
        self.pos = 0
        self.ring = ring  # the ring polynomials and q values are read in
        self.bound = set()  # the ideal names bound so far
        self.depth = 0  # parentheses open around the current position
        self.budget = _Budget(active_guard(), "polynomial arithmetic")

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

    def at(self, *syms) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.value in syms

    def at_statement_end(self) -> bool:
        return self.peek().kind in ("NEWLINE", "EOF") or self.at(";")

    def skip_separators(self):
        while self.peek().kind == "NEWLINE" or self.at(";"):
            self.advance()

    def end_statement(self):
        if not self.at_statement_end():
            self.fail(f"unexpected token {self.peek().value!r}")

    def expect_ident(self, what="identifier") -> Token:
        if self.peek().kind != "IDENT":
            self.fail(f"expected {what}")
        return self.advance()

    def expect_sym(self, sym):
        if not self.at(sym):
            self.fail(f"expected {sym!r}")
        return self.advance()

    # values: every integer literal, and each kind of option value ------

    def integer(self, what="integer") -> int:
        """The integer literal here; `what` names it in errors, also when
        it has more digits than int() reads."""
        tok = self.peek()
        if tok.kind != "INT":
            self.fail(f"expected {what}")
        try:
            value = int(tok.value)
        except ValueError:
            self.fail(f"{what} has too many digits")
        self.advance()
        return value

    def ideal_name(self, what="identifier") -> str:
        tok = self.expect_ident(what)
        if tok.value not in self.bound:
            self.fail(f"unknown ideal {tok.value!r}", tok)
        return tok.value

    def method(self) -> str:
        tok = self.expect_ident()
        if tok.value not in _METHODS:
            self.fail(f"method must be fit or last, got {tok.value!r}", tok)
        return tok.value

    def q_value(self) -> int:
        tok = self.peek()
        value = self.integer("power of the characteristic")
        try:
            as_q(self.ring, value)
        except FrobeniusPowerError:
            self.fail(
                f"{value} is not a power of the characteristic "
                f"{self.ring.characteristic}", tok)
        return value

    def q_list(self) -> tuple:
        values = [self.q_value()]
        while self.at(","):
            self.advance()
            tok = self.peek()
            value = self.q_value()
            if value <= values[-1]:
                self.fail(f"q values must increase, got {value} "
                          f"after {values[-1]}", tok)
            values.append(value)
        return tuple(values)

    # polynomial expressions --------------------------------------------

    def spend_product(self, a, b, tok):
        """Count a·b's term pairs against the guard's step budget before
        a·b is formed: a ScriptError at `tok` once the script's products
        together pass it.  A product by one term is free: it adds none."""
        if len(a.terms) < 2 or len(b.terms) < 2:
            return
        try:
            self.budget.spend(len(a.terms) * len(b.terms))
        except ResourceLimitError as exc:
            self.fail(str(exc), tok)

    def parse_poly(self) -> Polynomial:
        """A polynomial whose exponents str() can write: powers and
        products of powers build exponents from literals, so one longer
        than sys.get_int_max_str_digits() (0: no limit) is a ScriptError
        at the polynomial's first token."""
        first = self.peek()
        result = self.parse_poly_term()
        while self.at("+", "-"):
            tok = self.advance()
            rhs = self.parse_poly_term()
            result = result + rhs if tok.value == "+" else result - rhs
        # sys.get_int_max_str_digits is new in Python 3.10.7; before, no limit
        digits = getattr(sys, "get_int_max_str_digits", int)()
        e = result.max_exponent()
        # 2^(3·digits) < 10^digits: the power of ten only past that
        if digits and e.bit_length() > 3 * digits and e >= 10 ** digits:
            self.fail(f"exponent has more than {digits} digits", first)
        return result

    def parse_poly_term(self) -> Polynomial:
        result = self.parse_poly_factor()
        while self.at("*"):
            tok = self.advance()
            rhs = self.parse_poly_factor()
            self.spend_product(result, rhs, tok)
            result = result * rhs
        return result

    def parse_poly_factor(self) -> Polynomial:
        negate = False
        while self.at("-"):
            self.advance()
            negate = not negate
        result = self.parse_poly_atom()
        if self.at("^"):
            tok = self.advance()
            result = result.power(self.integer("exponent"),
                                  lambda a, b: self.spend_product(a, b, tok))
        return -result if negate else result

    def parse_poly_atom(self) -> Polynomial:
        tok = self.peek()
        ring = self.ring
        if tok.kind == "INT":
            return ring.constant(self.integer("constant"))
        if tok.kind == "IDENT":
            if tok.value not in ring.variables:
                self.fail(f"unknown variable {tok.value!r}", tok)
            self.advance()
            return ring.gen(ring.variables.index(tok.value))
        if self.at("("):
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING}",
                          tok)
            self.advance()
            self.depth += 1
            inner = self.parse_poly()
            self.expect_sym(")")
            self.depth -= 1
            return inner
        self.fail("expected a polynomial")

    # options -----------------------------------------------------------

    def looks_like_option(self) -> bool:
        tok = self.peek()
        return (tok.kind == "IDENT"
                and self.tokens[self.pos + 1].kind == "SYM"
                and self.tokens[self.pos + 1].value == "=")

    def parse_options(self, allowed) -> dict:
        """Options named in `allowed`, each read by its _OPTIONS reader."""
        seen = {}
        while self.looks_like_option():
            key_tok = self.advance()
            key = key_tok.value
            if key not in allowed:
                self.fail(f"unknown option {key!r}", key_tok)
            if key in seen:
                self.fail(f"duplicate option {key!r}", key_tok)
            self.expect_sym("=")
            seen[key] = _OPTIONS[key](self)
        return seen


# option name -> the reader of its value, one kind of value per name in
# every command: a bound ideal name, an integer, fit or last, a power of p,
# increasing comma-separated powers of p, or a polynomial.
_OPTIONS = {"a": _Parser.ideal_name, "e_max": _Parser.integer,
            "ell": _Parser.integer, "method": _Parser.method,
            "q": _Parser.q_list, "q0": _Parser.q_value,
            "s": _Parser.integer, "z": _Parser.parse_poly}


def parse_script(text: str) -> SessionScript:
    """Parse a full session; errors carry (line, column) positions."""
    p = _Parser(text)
    p.skip_separators()

    tok = p.peek()
    if not (tok.kind == "IDENT" and tok.value == "char"):
        p.fail("script must start with a 'char' declaration")
    p.advance()
    char_tok = p.peek()
    characteristic = p.integer("characteristic")
    p.end_statement()
    p.skip_separators()

    tok = p.peek()
    if not (tok.kind == "IDENT" and tok.value == "vars"):
        p.fail("expected a 'vars' declaration")
    p.advance()
    name_toks = [p.expect_ident("variable name")]
    while p.peek().kind == "IDENT":
        name_toks.append(p.advance())
    p.end_statement()
    for tok in name_toks:
        if not valid_var_name(tok.value):
            p.fail(f"invalid variable name {tok.value!r}", tok)
    names = [tok.value for tok in name_toks]
    if len(set(names)) != len(names):
        p.fail("duplicate variable name", name_toks[0])

    try:
        p.ring = RingSpec(characteristic, tuple(names))
    except NotPrimeError as exc:
        p.fail("characteristic must be prime" if characteristic < PRIME_LIMIT
               else str(exc), char_tok)

    p.skip_separators()
    while p.peek().kind == "IDENT" and p.peek().value == "quotient":
        p.advance()
        rel_start = p.peek()
        rel = p.parse_poly()
        p.end_statement()
        try:
            p.ring = p.ring.quotient(rel)
        except HomogeneityError:
            p.fail("quotient relation must be homogeneous", rel_start)
        except UnitRelationError:
            p.fail("quotient relation must not be a nonzero constant",
                   rel_start)
        p.skip_separators()

    bindings = []
    commands = []
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
            if name_tok.value in p.bound:
                p.fail(f"duplicate binding {name_tok.value!r}", name_tok)
            p.expect_sym("=")
            gens = [p.parse_poly()]
            while p.at(","):
                p.advance()
                gens.append(p.parse_poly())
            p.end_statement()
            bindings.append((name_tok.value, tuple(gens)))
            p.bound.add(name_tok.value)
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
            n_names, required, others = COMMANDS[verb]
            names = []
            for _ in range(n_names):
                if p.looks_like_option():
                    p.fail("expected ideal name")
                names.append(p.ideal_name("ideal name"))
            opts = p.parse_options(required + others)
            for key in required:
                if key not in opts:
                    p.fail(f"missing required option {key!r}", verb_tok)
            p.end_statement()
            commands.append(Command(verb, tuple(names), tuple(
                (key, opts[key]) for key in required + others
                if key in opts)))
        p.skip_separators()

    return SessionScript(ring=p.ring, bindings=tuple(bindings),
                         commands=tuple(commands))


def parse_polynomial(text: str, ring: RingSpec) -> Polynomial:
    """Parse a single infix polynomial in the given ring."""
    p = _Parser(text, ring)
    p.skip_separators()
    poly = p.parse_poly()
    p.skip_separators()
    if p.peek().kind != "EOF":
        p.fail("unexpected trailing input")
    return poly


# -- canonical printer --------------------------------------------------------


def format_command(cmd: Command) -> str:
    parts = [cmd.verb, *cmd.names]
    for key, value in cmd.options:
        if isinstance(value, tuple):  # a list of q values
            value = ",".join(map(str, value))
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
