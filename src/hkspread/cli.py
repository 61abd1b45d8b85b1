"""Command-line entry point: parse a session script, run it, print a report.

Exit codes: 0 all commands succeeded and every identity check passed,
1 a command failed or an identity check did not pass, 2 an unreadable
script file, a parse error or a bad option (a budget flag or environment
variable below 1, say).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ScriptError
from .groebner import GuardConfig, use_guard
from .orders import ORDERS
from .runner import RunConfig, error_document, report_csv, report_json, run_script
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


def _env_budget(parser, name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return _budget(raw)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"{name} {exc}")


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
    run.add_argument("--max-gb-steps", type=_budget, default=None, metavar="N",
                     help="reduction-step budget per basis computation, "
                          "and for the script's polynomial products "
                          "(env HKSPREAD_MAX_GB_STEPS)")
    run.add_argument("--max-exponent", type=_budget, default=None, metavar="N",
                     help="largest exponent allowed in any Frobenius power, "
                          "Buchberger input or new basis element "
                          "(env HKSPREAD_MAX_EXPONENT)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    fallback = GuardConfig()
    max_steps = args.max_gb_steps
    if max_steps is None:
        max_steps = _env_budget(parser, "HKSPREAD_MAX_GB_STEPS",
                                fallback.max_steps)
    max_exponent = args.max_exponent
    if max_exponent is None:
        max_exponent = _env_budget(parser, "HKSPREAD_MAX_EXPONENT",
                                   fallback.max_exponent)

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
    with use_guard(GuardConfig(max_steps=max_steps, max_exponent=max_exponent)):
        try:
            script = parse_script(text)
        except ScriptError as exc:
            print(json.dumps(error_document(exc), indent=2))
            return 2
        doc = run_script(script, RunConfig(order=args.order,
                                           format=args.format))
    if args.format == "csv":
        sys.stdout.write(report_csv(doc))
    else:
        print(report_json(doc))
    return 0 if doc["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
