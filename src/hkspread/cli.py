"""Command-line entry point: parse a session script, run it, print a report.

    usage: hkspread run [-h] [--format {json,csv}]
                        [--order {degrevlex,lex,deglex}] [--max-gb-steps N]
                        [--max-exponent N] script

The script is a file path, or `-` for stdin.  OPTIONS, one row per
option, is the one list the parser, the help and the defaults read.  An
option and its value may come before or after the script, as `--name
value` or `--name=value`, and a unique prefix names an option (`--max-gb
5`); `--` ends the options.  `-h`/`--help` prints the usage and one line
per option to stdout and exits 0.  Each budget of the run's guard comes
from its flag alone, or else from GuardConfig's default.

Exit codes: 0 all commands succeeded and every identity check passed,
1 a command failed, an identity check did not pass or the guard could not
afford the ring's dimension (reported as null), 2 an unreadable
script file, a parse error or a bad command line (an unknown or ambiguous
option, a missing script, a budget flag below 1: the usage and
`hkspread run: error: <message>` on stderr), 141 (128 + SIGPIPE) the
reader closed stdout before the report was written, as with
`hkspread run s.hks | head`.
"""

from __future__ import annotations

import gc
import json
import os
import sys

from .errors import ScriptError
from .groebner import GuardConfig, use_guard
from .orders import ORDERS
from .runner import error_document, report_csv, report_json, run_script
from .script import parse_script


def _budget(text: str) -> int:
    """A guard budget: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


# --name -> (its choices, or the reader of its value; its default; help)
OPTIONS = {
    "--format": (("json", "csv"), "json", "report format"),
    "--order": (tuple(ORDERS), "degrevlex",
                "monomial order for printed bases"),
    "--max-gb-steps": (_budget, GuardConfig().max_steps,
                       "reduction steps per basis computation, and for the "
                       "script's products"),
    "--max-exponent": (_budget, GuardConfig().max_exponent,
                       "largest exponent of a Frobenius power, Buchberger "
                       "input or basis element"),
}


def _spelling(name: str) -> str:
    """`--name {a,b}` for a row with choices, `--name N` for one with a
    reader."""
    kind = OPTIONS[name][0]
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} N"


USAGE = ("usage: hkspread run [-h] "
         + "".join(f"[{_spelling(name)}] " for name in OPTIONS) + "script")


def _fail(message: str):
    print(USAGE, f"hkspread run: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _help():
    rows = [("script", "session script file path, or - for stdin")]
    rows += [(_spelling(name), f"{text} (default {default})")
             for name, (_, default, text) in OPTIONS.items()]
    width = max(len(spelling) for spelling, _ in rows) + 2
    print(USAGE, *(f"  {spelling:<{width}}{text}" for spelling, text in rows),
          sep="\n")
    raise SystemExit(0)


def _read(name: str, text: str):
    """The value `text` gives option `name`, by the option's row."""
    kind = OPTIONS[name][0]
    if isinstance(kind, tuple):
        if text not in kind:
            _fail(f"argument {name}: invalid choice: {text!r} "
                  f"(choose from {', '.join(map(repr, kind))})")
        return text
    try:
        return kind(text)
    except ValueError as exc:
        _fail(f"argument {name}: {exc}")


def parse_args(argv) -> tuple:
    """(script, {option name: value}) from `run` and its arguments, every
    option of OPTIONS set, to its default when argv does not set it; the
    last setting of an option wins.  A bad command line prints the usage
    and the error to stderr and raises SystemExit(2)."""
    argv = list(argv)
    if argv[:1] == ["run"]:
        del argv[0]
    elif argv[:1] not in (["-h"], ["--help"]):
        _fail("the first argument must be the subcommand 'run'")
    values = {name: default for name, (_, default, _) in OPTIONS.items()}
    positional = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            positional += tokens  # every token after it
        elif token in ("-h", "--help"):
            _help()
        elif token.startswith("-") and token != "-":
            name, eq, text = token.partition("=")
            names = ([name] if name in OPTIONS
                     else [n for n in OPTIONS if n.startswith(name)])
            if not names:
                _fail(f"unrecognized arguments: {token}")
            if len(names) > 1:
                _fail(f"ambiguous option: {name} could match "
                      f"{', '.join(names)}")
            name = names[0]
            if not eq:
                text = next(tokens, None)
                if text is None:
                    _fail(f"argument {name}: expected one argument")
            values[name] = _read(name, text)
        else:
            positional.append(token)
    if not positional:
        _fail("the following arguments are required: script")
    if len(positional) > 1:
        _fail(f"unrecognized arguments: {' '.join(positional[1:])}")
    return positional[0], values


def _emit(text: str) -> int | None:
    """Write the report to stdout and flush it: None, or 141 when the
    reader has closed the pipe."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit has nothing left to
        # fail on, and exit with the status a process ended by SIGPIPE has.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return None


def main(argv=None) -> int:
    """Run the command line and return the exit code.

    `argv=None` means "run as the process" (the `hkspread` script and
    `python -m hkspread.cli`): the arguments come from `sys.argv`, and the
    objects alive after start-up are frozen (`gc.freeze()`), so neither the
    run's full collections nor the collections at interpreter exit walk
    them again.  A long-lived host that calls `main` more than once passes
    an argument list instead, which freezes nothing.
    """
    if argv is None:
        gc.freeze()
        argv = sys.argv[1:]
    script_path, options = parse_args(argv)

    try:
        if script_path == "-":
            text = sys.stdin.read()
        else:
            with open(script_path, encoding="utf-8") as f:
                text = f.read()
    except FileNotFoundError:
        print(f"hkspread: no such script file: {script_path}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"hkspread: cannot read script file: {script_path}: {reason}",
              file=sys.stderr)
        return 2

    # one guard for the whole run: the script's products spend its steps
    guard = GuardConfig(options["--max-gb-steps"], options["--max-exponent"])
    with use_guard(guard):
        try:
            script = parse_script(text)
        except ScriptError as exc:
            return _emit(json.dumps(error_document(exc), indent=2) + "\n") or 2
        doc = run_script(script, order=options["--order"])
    if options["--format"] == "csv":
        text = report_csv(doc)
    else:
        text = report_json(doc) + "\n"
    return _emit(text) or (0 if doc["ok"] else 1)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
