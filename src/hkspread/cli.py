"""Command-line entry point: parse a session script, run it, print a report.

Exit codes: 0 all commands succeeded and every identity check passed,
1 a command failed, an identity check did not pass or the guard could not
afford the ring's dimension (reported as null), 2 an unreadable
script file, a parse error or a bad option (a budget flag below 1, say),
141 (128 + SIGPIPE) the reader closed stdout before the report was
written, as with `hkspread run s.hks | head`.  Each budget of the run's
guard comes from its flag alone, or else from GuardConfig's default.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

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
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkspread",
        description="exact characteristic-p lengths, Hilbert-Kunz "
                    "multiplicities, and star-spread estimation")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", help="execute a session script")
    run.add_argument("script", help="script file path, or '-' for stdin")
    run.add_argument("--format", choices=("json", "csv"), default="json",
                     help="report format (default json)")
    run.add_argument("--order", choices=ORDERS,
                     default="degrevlex",
                     help="monomial order for printed bases (default degrevlex)")
    run.add_argument("--max-gb-steps", type=_budget,
                     default=GuardConfig().max_steps, metavar="N",
                     help="reduction-step budget per basis computation, "
                          "and for the script's polynomial products")
    run.add_argument("--max-exponent", type=_budget,
                     default=GuardConfig().max_exponent, metavar="N",
                     help="largest exponent allowed in any Frobenius power, "
                          "Buchberger input or new basis element")
    return parser


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
    args = build_parser().parse_args(argv)

    try:
        if args.script == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.script).read_text(encoding="utf-8")
    except FileNotFoundError:
        print(f"hkspread: no such script file: {args.script}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"hkspread: cannot read script file: {args.script}: {reason}",
              file=sys.stderr)
        return 2

    # one guard for the whole run: the script's products spend its steps
    with use_guard(GuardConfig(args.max_gb_steps, args.max_exponent)):
        try:
            script = parse_script(text)
        except ScriptError as exc:
            return _emit(json.dumps(error_document(exc), indent=2) + "\n") or 2
        doc = run_script(script, order=args.order)
    if args.format == "csv":
        text = report_csv(doc)
    else:
        text = report_json(doc) + "\n"
    return _emit(text) or (0 if doc["ok"] else 1)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
