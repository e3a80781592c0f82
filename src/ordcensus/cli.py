"""Command-line interface: each command parses its options, makes one
library call and prints the result.

Subcommands: constants, census (as|se), classify, oracle, verify-kernel,
report-table1.  Exit codes: 0 success, 1 stdout closed before the output was
written, 2 usage error, 3 resource guard exceeded, 4 invariant violation
(oracle disagreement or route mismatch).

The logic lives in the module each command loads: ``dirichlet.constants_report``
and ``table1_rows``; ``artin_schreier.census``, which picks and cross-checks
the routes; ``superelliptic.census_se``, and ``sample_covers``, which checks,
guards and draws; each cover's ``classify()``; ``OracleReport.to_dict()``.
This module only converts --x-bound, reads and writes files and writes CSV.

``census as`` and ``census se`` each accept only the options they read, and
``classify`` takes exactly one of --cover and --sample, with --q, --n,
--max-m and --seed for --sample only; anything else is a usage error
(exit 2).

Outputs are deterministic for a fixed configuration (including --seed).

Each command imports the modules it runs inside its ``cmd_*`` function, and
``json`` only where JSON is read or written: ``--help`` loads only this module
and ``errors``, each census family only its own module, and a cover only the
record module of its kind, ``ascover`` or ``secover``, never a census
module, so that a short job does not pay for the rest.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DomainError, ResourceGuardError, InvariantViolation

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4


def emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise DomainError(f"cannot write output file {path}: {exc}") from exc


def emit_json(data, output: str | None):
    import json
    emit(json.dumps(data, indent=2), output)


def _m_max_from_args(args) -> int:
    if args.x_bound is not None and args.max_m is not None:
        raise DomainError("give one of --max-m / --x-bound, not both")
    if args.x_bound is not None:
        # largest m with q^m < X
        x = args.x_bound
        if x < 2:
            raise DomainError("--x-bound must be >= 2")
        m = 0
        while args.q ** (m + 1) < x:
            m += 1
        return m
    if args.max_m is None:
        raise DomainError("one of --max-m / --x-bound is required")
    if args.max_m < 0:
        raise DomainError("--max-m must be >= 0")
    return args.max_m


def cmd_constants(args) -> int:
    from .dirichlet import constants_report
    emit_json(constants_report(args.q, args.p), args.output)
    return EXIT_OK


def cmd_census(args) -> int:
    from .dirichlet import cumulative_ratios
    from .fields import field_from_qp
    # the field first: --x-bound is converted with q >= 2
    field = field_from_qp(args.q, args.p if args.family == "as" else 2)
    m_max = _m_max_from_args(args)
    if args.family == "as":
        from .artin_schreier import census
        rows = census(field, m_max, args.include_infinity, args.mode).rows
    else:
        from .superelliptic import census_se
        rows = census_se(field, args.n, m_max)
    steps = cumulative_ratios(rows, rows)  # the rows run through m in order
    if args.format == "csv":
        emit("\n".join(["m,a_m,b_m,cumulative_ratio"] +
                       [f"{m},{a},{b},{ratio:.6f}" for m, a, b, ratio in steps]), args.output)
    else:
        emit_json([{"m": m, "a_m": a, "b_m": b, "cumulative_ratio": round(ratio, 6)}
                   for m, a, b, ratio in steps], args.output)
    return EXIT_OK


def _load_cover(path: str):
    import json
    from .serialize import cover_from_dict
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8, whatever the locale
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, UTF-8, int size, nesting
        raise DomainError(f"cannot read cover file {path}: {exc}") from exc
    return cover_from_dict(data)


def cmd_classify(args) -> int:
    from .serialize import cover_to_dict
    given = {k: v for k in ("q", "n", "max_m", "seed") if (v := getattr(args, k)) is not None}
    if args.cover is not None:
        if given:
            raise DomainError("--q, --n, --max-m and --seed apply to --sample only")
        covers = [_load_cover(args.cover)]
    else:
        from .superelliptic import sample_covers
        covers = sample_covers(args.sample, **given)
    reports = [{**cover_to_dict(c), **c.classify()} for c in covers]
    emit_json(reports[0] if args.cover is not None else reports, args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import cross_validate
    report = cross_validate(_load_cover(args.cover))
    emit_json(report.to_dict(), args.output)
    if not report.agree:
        raise InvariantViolation(f"oracle disagreement: {report.detail}")
    return EXIT_OK


def cmd_verify_kernel(args) -> int:
    from . import superelliptic
    ok = superelliptic.verify_kernel_lemma(args.n)
    emit_json({"n": args.n, "rank": (args.n + 1) // 2, "pass": ok}, args.output)
    if not ok:
        raise InvariantViolation(f"kernel lemma verification failed for n = {args.n}")
    return EXIT_OK


def cmd_report_table1(args) -> int:
    from .dirichlet import table1_rows
    rows = table1_rows()
    if args.format == "csv":
        lines = [",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows]
        emit("\n".join(lines), args.output)
    else:
        emit_json(rows, args.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's own ``print_help`` drops an ``OSError`` of its write, so that
    unbuffered ``--help`` into a closed pipe would exit 0; this one lets it
    reach ``main``.  Subparsers are built with the parent's class."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ordcensus",
        description="Censuses and limiting probabilities of ordinary cyclic "
                    "covers of the projective line over small finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="evaluate the limiting constants")
    p_const.add_argument("--q", type=int, required=True)
    p_const.add_argument("--p", type=int, required=True)
    p_const.add_argument("--output", default=None)
    p_const.set_defaults(func=cmd_constants)

    # the options both census families read; each family adds its own
    p_rows = argparse.ArgumentParser(add_help=False)
    p_rows.add_argument("--q", type=int, required=True)
    p_rows.add_argument("--max-m", type=int, default=None)
    p_rows.add_argument("--x-bound", type=int, default=None,
                        help="count up to the largest m with q^m < X")
    p_rows.add_argument("--format", choices=["csv", "json"], default="csv")
    p_rows.add_argument("--output", default=None)

    p_census = sub.add_parser("census", help="exact (a_m, b_m) census tables")
    families = p_census.add_subparsers(dest="family", required=True)
    p_as = families.add_parser("as", parents=[p_rows], help="Artin-Schreier covers")
    p_as.add_argument("--p", type=int, default=2)
    p_as.add_argument("--mode", choices=["analytic", "enumerate", "both"],
                      default="analytic")
    p_as.add_argument("--include-infinity", action="store_true")
    p_se = families.add_parser("se", parents=[p_rows], help="superelliptic covers")
    p_se.add_argument("--n", type=int, default=3)
    p_census.set_defaults(func=cmd_census)

    p_classify = sub.add_parser("classify", help="invariants of one cover or a sample")
    source = p_classify.add_mutually_exclusive_group(required=True)
    source.add_argument("--cover", default=None, help="cover JSON file")
    source.add_argument("--sample", type=int, default=None,
                        help="classify this many seeded random superelliptic covers")
    p_classify.add_argument("--q", type=int, default=None)
    p_classify.add_argument("--n", type=int, default=None)
    p_classify.add_argument("--max-m", type=int, default=None)
    p_classify.add_argument("--seed", type=int, default=None)
    p_classify.add_argument("--output", default=None)
    p_classify.set_defaults(func=cmd_classify)

    p_oracle = sub.add_parser("oracle", help="point-count p-rank cross-validation")
    p_oracle.add_argument("--cover", required=True)
    p_oracle.add_argument("--output", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_kernel = sub.add_parser("verify-kernel",
                              help="exact kernel/rank check of the fractional-part matrix")
    p_kernel.add_argument("--n", type=int, required=True)
    p_kernel.add_argument("--output", default=None)
    p_kernel.set_defaults(func=cmd_verify_kernel)

    p_table = sub.add_parser("report-table1",
                             help="computed constants with deviations from published values")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--output", default=None)
    p_table.set_defaults(func=cmd_report_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)  # --help prints, then raises SystemExit
            return args.func(args)
        finally:
            sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, as Python's notes on
        # SIGPIPE do, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
