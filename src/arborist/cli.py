"""Command-line surface.

Subcommands: verify, orbit, independence, search, julia, report.
Exit status 0 on success, 2 on user errors (argparse errors and
:class:`~arborist.errors.UsageError`), 141 (128 + SIGPIPE) when the reader
of standard output closes it early, 130 (128 + SIGINT) on Ctrl-C, 1 on
everything else: invariant violations, other I/O errors and any other
exception, which signals a bug.  The library checks counts and base
points; this module converts text and maps the library's refusals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import traceback
from collections import Counter

from .backorbit import RenderConfig, points_csv, render, sample_backward
from .critorbit import DEFAULT_DEPTH, d_sequence, orbit_report
from .dynamics import family1, family2
from .errors import InvariantViolation, UsageError, open_named
from .exactnum import digit_limit_message, format_reduced, parse_rational, quoted
from .independence import brute_force_independent, two_independent
from .search import SearchConfig, iter_rows, search, tally
from .verdict import certify

USAGE_ERROR = 2
INTERNAL_ERROR = 1
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it
INTERRUPTED = 130  # 128 + SIGINT, likewise
_INTEGER_RE = re.compile(r"\s*[+-]?\d+\s*")
# argparse reads an argument as an option unless it looks like a negative
# number, which by its own rule excludes -1e-3 and -inf; julia's parser
# takes every argument that starts as a negative float does for a value
_NEGATIVE_FLOAT_RE = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        if _INTEGER_RE.fullmatch(text):  # the digits passed sys.get_int_max_str_digits()
            raise argparse.ArgumentTypeError(digit_limit_message(text)) from None
        raise argparse.ArgumentTypeError(f"not an integer: {quoted(text)}") from None


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {quoted(text)}") from None


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        values = []
    if len(values) not in (1, 2):
        raise UsageError(f"expected RE or RE,IM, got {quoted(text)}")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"expected finite parts, got {quoted(text)}")
    return complex(*values)


def cmd_verify(args: argparse.Namespace) -> int:
    a = parse_rational(args.a)
    verdict = certify(a, args.family, depth=args.depth)
    print(json.dumps(verdict.to_json_dict()))
    return 0


def cmd_orbit(args: argparse.Namespace) -> int:
    a = parse_rational(args.a)
    qmap = family1(a) if args.family == 1 else family2(a)
    orbit = d_sequence(qmap, args.depth)
    print(json.dumps(orbit_report(orbit), sort_keys=True))
    return 0


def cmd_independence(args: argparse.Namespace) -> int:
    values = [parse_rational(piece) for piece in args.values.split(",")]
    checker = brute_force_independent if args.oracle else two_independent
    result = checker(values)
    witness = [values[i] for i in result.witness or ()]
    payload = {
        "status": "Independent" if result.independent else "Dependent",
        "witness_indices": list(result.witness) if result.witness else None,
        "witness_values": [format_reduced(v.numerator, v.denominator) for v in witness] or None,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    families = tuple(sorted(set(args.family or [1, 2])))
    cfg = SearchConfig(
        height=args.height,
        out_path=args.out,
        families=families,
        depth=args.depth,
        workers=args.workers,
    )
    summary = search(cfg)
    print(f"rows written: {summary.rows_written}")
    print(f"rows skipped (already present): {summary.rows_skipped}")
    for label, part in (("", 0), ("condition ", 1)):
        totals: Counter[str] = Counter()
        for key, count in summary.counts.items():
            totals[key[part]] += count
        del totals["-"]  # the condition of a row without one
        for name in sorted(totals):
            print(f"  {label}{name}: {totals[name]}")
    return 0


def cmd_julia(args: argparse.Namespace) -> int:
    cfg = RenderConfig(
        width=args.width,
        height=args.height,
        bounds=tuple(args.bounds),
        n_points=args.points,
        burn_in=args.burn_in,
        seed=args.seed,
    )
    c, a = _parse_complex(args.c), _parse_complex(args.a)
    # the CSV is ASCII text; only the PGM image needs stdout's binary buffer,
    # which a text stream in its place (a StringIO under redirect_stdout) lacks
    if not (args.out or args.csv or hasattr(sys.stdout, "buffer")):
        raise UsageError("standard output takes only text here; write the PGM image with --out")
    points = sample_backward(c, a, cfg)
    if args.out:
        payload = points_csv(points).encode("ascii") if args.csv else render(points, cfg)
        with open_named(args.out, "wb") as fh:
            fh.write(payload)
    elif args.csv:
        sys.stdout.write(points_csv(points))
    else:
        sys.stdout.buffer.write(render(points, cfg))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    counts = tally(iter_rows(args.in_path))
    width = max([len(status) for status, _ in counts] + [6])
    print(f"{'status':<{width}}  {'condition':<10}  count")
    for (status, condition), count in sorted(counts.items()):
        print(f"{status:<{width}}  {condition:<10}  {count}")
    print(f"total rows: {sum(counts.values())}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arborist",
        description="Certify surjectivity of arboreal Galois representations "
        "for quadratic maps with strictly preperiodic base points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("verify", "certify a single base point", cmd_verify),
        ("orbit", "adjusted critical orbit report", cmd_orbit),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--family", type=_int, choices=(1, 2), required=True)
        p.add_argument("--a", required=True, metavar="R/S")
        p.add_argument("--depth", type=_int, default=DEFAULT_DEPTH)
        p.set_defaults(func=func)

    p = sub.add_parser("independence", help="2-independence of a value list")
    p.add_argument("--values", required=True, metavar="V1,V2,...")
    p.add_argument("--oracle", action="store_true", help="use the subset-product oracle")
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("search", help="height-bounded certification sweep")
    p.add_argument("--height", type=_int, required=True)
    p.add_argument("--family", type=_int, choices=(1, 2), action="append")
    p.add_argument("--depth", type=_int, default=DEFAULT_DEPTH)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=_int, default=1)
    p.set_defaults(func=cmd_search)

    defaults = RenderConfig()
    p = sub.add_parser("julia", help="render a Julia set by backward orbit")
    p._negative_number_matcher = _NEGATIVE_FLOAT_RE
    p.add_argument("--c", required=True, metavar="RE[,IM]")
    p.add_argument("--a", required=True, metavar="RE[,IM]")
    p.add_argument("--points", type=_int, default=defaults.n_points)
    p.add_argument("--seed", type=_int, default=defaults.seed)
    p.add_argument("--burn-in", type=_int, default=defaults.burn_in, dest="burn_in")
    p.add_argument("--width", type=_int, default=defaults.width)
    p.add_argument("--height", type=_int, default=defaults.height)
    p.add_argument(
        "--bounds",
        type=_float,
        nargs=4,
        default=defaults.bounds,
        metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"),
    )
    p.add_argument("--out", default=None)
    p.add_argument("--csv", action="store_true", help="emit re,im rows instead of PGM")
    p.set_defaults(func=cmd_julia)

    p = sub.add_parser("report", help="tally a results file")
    p.add_argument("--in", dest="in_path", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # here, not at shutdown, where a failure exits 120
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KeyboardInterrupt:
        return INTERRUPTED  # search has flushed every row it wrote
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except OSError as exc:
        # stdout keeps what it could not write; point it at devnull so the
        # flush at interpreter shutdown has nowhere to fail
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return BROKEN_PIPE  # the reader is gone; it wants no message
        print(f"i/o error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
