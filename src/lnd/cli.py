"""Command-line front end.

    lnd check <file> [--seed N] [--budget N] [--deg-max N]
    lnd report <file> [...]        same, with full witness lines
    lnd parse <file>               check the corpus without running it

`check`/`report` exit with 0 exactly when no directive FAILed or ERRORed.
`parse` parses the corpus and binds its directives (runner.bind), building
and evaluating nothing.  It prints `ok: N definitions, M directives` and
exits 0, or prints each fault that `check` would give as an ERROR line as
`error: FILE:LINE:COL: message` and exits 1.  A ParseError stops every
command with exit code 2.  Output is plain UTF-8 text and is
byte-identical across runs for the same file and options.
"""

from __future__ import annotations

import argparse
import sys

from . import corpus, runner
from .errors import LndError, ParseError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnd",
        description="Exact checks for locally nilpotent derivations on affine 3-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "run all directives and print one verdict line each"),
        ("report", "run all directives and print verdicts with full witnesses"),
        ("parse", "check a corpus file without running it"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="corpus file")
        if name != "parse":
            cmd.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
            cmd.add_argument(
                "--budget",
                type=int,
                default=None,
                help="override sample count for randomized directives",
            )
            cmd.add_argument(
                "--deg-max",
                type=int,
                default=runner.MAX_DEG_MAX,
                help="cap on search degree bounds",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    options = _build_parser().parse_args(argv)
    try:
        with open(options.file, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    faults, code = [], 1
    try:
        case = corpus.parse(source)
        if options.command == "parse":
            definition_faults, arguments = runner.bind(case)
            faults = list(definition_faults.values())
            faults += [fault for fault in arguments if isinstance(fault, LndError)]
        else:
            report = runner.run(
                case,
                seed=options.seed,
                budget=options.budget,
                deg_max_cap=max(1, min(options.deg_max, runner.MAX_DEG_MAX)),
            )
    except ParseError as exc:
        faults, code = [exc], 2
    for fault in sorted(faults, key=lambda fault: (fault.line, fault.col)):
        print(f"error: {options.file}:{fault.line}:{fault.col}: {fault.message}")
    if faults:
        return code
    if options.command == "parse":
        print(f"ok: {len(case.definitions)} definitions, {len(case.directives)} directives")
        return 0
    sys.stdout.write(runner.format_report(report, full=options.command == "report"))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
