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

Each command parses to one `Command(verb, names, options)` record.  Its
verb's row in COMMANDS, (number of leading ideal names, required options,
other options), says what the parser reads after the verb; `options` holds
the (name, value) pairs the script set, in the row's order, whatever order
they were typed in, and the printer writes them back in that order.
Commands and scripts equal only records of their own class.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (FrobeniusPowerError, HomogeneityError, NotPrimeError,
                     ScriptError, UnitRelationError)
from .groebner import active_guard
from .poly import PRIME_LIMIT, Polynomial, RingSpec, as_q, valid_var_name


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
        elif "0" <= ch <= "9":   # ASCII only: str.isdigit takes '²' and '３'
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
        elif ch in _SYMBOLS:
            tokens.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
        else:
            raise ScriptError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- command AST --------------------------------------------------------------


class Command(NamedTuple):
    """One parsed command: its verb, its leading ideal names and the options
    it sets, as (name, value) pairs in the order of its COMMANDS row."""

    verb: str
    names: tuple
    options: tuple = ()


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

# option name -> type; each name has one type in every command.  ideal is a
# bound ideal name, qvalue a power of p, qlist comma-separated qvalues.
_OPTION_TYPES = {"a": "ideal", "e_max": "int", "ell": "int",
                 "method": "method", "q": "qlist", "q0": "qvalue",
                 "s": "int", "z": "poly"}

# first words that only start two-word verbs, such as "identity"
_GROUPS = {verb.split()[0] for verb in COMMANDS if " " in verb}

_METHODS = ("fit", "last")

# deepest parenthesis nesting a polynomial may use; the parser recurses once
# per level, so this keeps it far from the interpreter's recursion limit
_MAX_NESTING = 100


class SessionScript(NamedTuple):
    ring: RingSpec
    bindings: tuple  # ((name, (Polynomial, ...)), ...) in declaration order
    commands: tuple

    def ideals(self):
        from .ideals import Ideal
        return {name: Ideal(self.ring, gens) for name, gens in self.bindings}


def _same_class_eq(self, other):
    return type(self) is type(other) and tuple.__eq__(self, other)


def _same_class_ne(self, other):
    return not _same_class_eq(self, other)


# A NamedTuple equals every tuple with equal items; a command or script
# equals only one of its own class.
for _cls in (Command, SessionScript):
    _cls.__eq__, _cls.__ne__ = _same_class_eq, _same_class_ne


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses open around the current position
        self.pairs = 0  # term pairs of the products taken so far
        self.max_pairs = active_guard().max_steps

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

    def spend_product(self, a, b, tok):
        """Count a·b's term pairs against the guard's step budget before
        a·b is formed: a ScriptError at `tok` once the script's products
        together pass it.  A product by one term is free: it adds none."""
        if len(a.terms) < 2 or len(b.terms) < 2:
            return
        self.pairs += len(a.terms) * len(b.terms)
        if self.pairs > self.max_pairs:
            self.fail("polynomial arithmetic step budget exceeded "
                      f"({self.max_pairs})", tok)

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
                rhs = self.parse_poly_factor(ring)
                self.spend_product(result, rhs, tok)
                result = result * rhs
            else:
                return result

    def parse_poly_factor(self, ring) -> Polynomial:
        negate = False
        while self.peek().kind == "SYM" and self.peek().value == "-":
            self.advance()
            negate = not negate
        result = self.parse_poly_atom(ring)
        tok = self.peek()
        if tok.kind == "SYM" and tok.value == "^":
            self.advance()
            exp = self.expect_int("exponent")
            result = result.power(int(exp.value), lambda a, b: self.spend_product(
                a, b, tok))
        return -result if negate else result

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
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING}",
                          tok)
            self.advance()
            self.depth += 1
            inner = self.parse_poly(ring)
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
                    self.fail(f"method must be fit or last, got {tok.value!r}",
                              tok)
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
            as_q(ring, value)
        except FrobeniusPowerError:
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
        ring = RingSpec(characteristic, tuple(names))
    except NotPrimeError as exc:
        p.fail("characteristic must be prime" if characteristic < PRIME_LIMIT
               else str(exc), char_tok)

    p.skip_separators()
    while p.peek().kind == "IDENT" and p.peek().value == "quotient":
        p.advance()
        rel_start = p.peek()
        rel = p.parse_poly(ring)
        p.end_statement()
        try:
            ring = ring.quotient(rel)
        except HomogeneityError:
            raise ScriptError("quotient relation must be homogeneous",
                              rel_start.line, rel_start.col)
        except UnitRelationError:
            raise ScriptError("quotient relation must not be a nonzero "
                              "constant", rel_start.line, rel_start.col)
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
            n_names, required, others = COMMANDS[verb]
            names = []
            for _ in range(n_names):
                if p.looks_like_option():
                    p.fail("expected ideal name")
                names.append(require_bound(p.expect_ident("ideal name")))
            opts = p.parse_options(ring, required + others, bound)
            for key in required:
                if key not in opts:
                    p.fail(f"missing required option {key!r}", verb_tok)
            p.end_statement()
            commands.append(Command(verb, tuple(names), tuple(
                (key, opts[key]) for key in required + others
                if key in opts)))
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


def format_command(cmd: Command) -> str:
    parts = [cmd.verb, *cmd.names]
    for key, value in cmd.options:
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
