"""Command-line entry point: ``tangentia run <script> [--json]``.

Exit codes: 0 success, 1 script error (syntax/semantic/usage) or a
closed output pipe, 2 internal invariant violation.  Output is
deterministic for a fixed script, flags, and seed: monomials in deglex
order, rationals in lowest terms, and a versioned JSON schema in machine mode.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .dsl import DslError, run_source
from .freealg import AlgebraError
from .morphism import DEFAULT_MAX_DEGREE

JSON_SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1, like every other bad input:
    its own code for them, 2, is this program's internal error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="tangentia",
        description=(
            "Exact tangent-derivation calculus on free algebras. "
            "Composition convention: compose(phi, psi) maps x to phi(psi(x))."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", help="execute a script")
    run.add_argument("script", help="path to the script file, or - for stdin")
    run.add_argument("--json", action="store_true", help="emit the versioned JSON report")
    run.add_argument(
        "--max-degree",
        type=int,
        default=DEFAULT_MAX_DEGREE,
        help="default truncation bound for ia-level/tangent/invert (default %(default)s)",
    )
    run.add_argument("--seed", type=int, default=0, help="default seed for span sampling")
    return parser


def _render_text(results, out):
    for rec in results:
        cmd = rec["command"]
        body = rec["output"]
        print(f"== {cmd}", file=out)
        for key, value in body.items():
            if isinstance(value, list) and value and isinstance(value[0], list):
                print(f"  {key}:", file=out)
                for row in value:
                    print(f"    [{', '.join(str(x) for x in row)}]", file=out)
            elif isinstance(value, list):
                print(f"  {key}:", file=out)
                for item in value:
                    print(f"    {item}", file=out)
            elif isinstance(value, dict):
                print(f"  {key}:", file=out)
                for k, v in value.items():
                    print(f"    {k}: {v}", file=out)
            else:
                print(f"  {key}: {value}", file=out)


def main(argv=None):
    """Run the command line on ``argv``; returns the exit code.  Python's
    cap on the digits of an int printed as a string (from 3.11) is lifted
    for the run, as the output is exact, and put back before returning:
    the limit of a caller that runs ``main`` in its process stays its own."""
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    set_limit(0)
    try:
        return _run(argv)
    finally:
        set_limit(limit)


def _run(argv):
    args = build_parser().parse_args(argv)
    if args.max_degree < 0:
        print(f"error: --max-degree must be >= 0, got {args.max_degree}", file=sys.stderr)
        return 1
    try:
        if args.script == "-":
            source = sys.stdin.read()
        else:
            with open(args.script, "r", encoding="utf-8") as fh:
                source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        results = run_source(source, max_degree=args.max_degree, seed=args.seed)
    except (DslError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            doc = {"schema_version": JSON_SCHEMA_VERSION, "results": results}
            json.dump(doc, sys.stdout, indent=2, sort_keys=False)
            print()
        else:
            _render_text(results, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, inside the try
    except BrokenPipeError:  # what is left, flushed at exit, goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
