"""Command-line interface.

Subcommands: constants, census (as|se), classify, oracle, verify-kernel,
report-table1.  Exit codes: 0 success, 2 usage error, 3 resource guard
exceeded, 4 invariant violation (oracle disagreement or route mismatch).

``census as`` and ``census se`` each accept only the options they read, and
``classify`` takes exactly one of --cover and --sample, with --q, --n,
--max-m and --seed for --sample only; anything else is a usage error
(exit 2).

Outputs are deterministic for a fixed configuration (including --seed).
The environment variable ORDCENSUS_OUTDIR, when
set, is prepended to relative --output paths.

Each command imports the modules it runs inside its ``cmd_*`` function, and
``json`` only where JSON is read or written, so that a short job does not
pay for the rest of the package: ``--help`` loads only this module and
``errors``, ``census as`` never loads the superelliptic code, ``census se``
never loads the Artin-Schreier code, and only ``classify`` and ``oracle``
load ``serialize``.  A cover loads only the module of its kind, so
``classify --sample`` (superelliptic covers) never loads the Artin-Schreier
code either.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DomainError, ResourceGuardError, InvariantViolation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4

# classify --sample reads these when --q, --n, --max-m or --seed is not given
SAMPLE_DEFAULTS = {"q": 2, "n": 3, "max_m": 4, "seed": 0}
# a cover is charged (n-1)^2 + 400 steps of ~0.4 us to draw and classify: an upper
# bound, as its eigenspace sums take (n-1)(k+1) steps for k non-constant parts
MAX_SAMPLE_COST = 25 * 10 ** 6

TABLE1 = {
    # q: (phi(1), P(AS) modified family, CEZB)
    2: (0.314148, 0.314148, 0.419422),
    4: (0.593976, 0.514777, 0.737512),
    8: (0.776577, 0.702617, 0.873264),
    16: (0.882162, 0.833730, 0.937270),
    32: (0.939367, 0.911820, 0.968720),
}


def _resolve_output(path: str | None):
    if path is None:
        return None
    outdir = os.environ.get("ORDCENSUS_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def emit(text: str, output: str | None):
    path = _resolve_output(output)
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


def census_csv(rows: dict, m_values) -> str:
    from .dirichlet import cumulative_ratios
    lines = ["m,a_m,b_m,cumulative_ratio"]
    for m, a, b, ratio in cumulative_ratios(rows, m_values):
        lines.append(f"{m},{a},{b},{ratio:.6f}")
    return "\n".join(lines)


def census_json(rows: dict, m_values) -> list:
    from .dirichlet import cumulative_ratios
    return [{"m": m, "a_m": a, "b_m": b, "cumulative_ratio": round(ratio, 6)}
            for m, a, b, ratio in cumulative_ratios(rows, m_values)]


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
    from . import dirichlet
    from .fields import field_from_qp
    q, p = args.q, args.p
    field_from_qp(q, p)  # validates q = p^k
    phi1 = dirichlet.phi_at_1(q)
    psi = dirichlet.psi_p_at_1(p, q)
    data = {
        "q": q,
        "p": p,
        "phi1": float(phi1.value),
        "psi_p1": float(psi.value),
        "zeta2": float(dirichlet.zeta_affine(q, 2)),
        "P_AS_unramified": float(dirichlet.ordinary_probability_as(q, p, False)),
        "P_AS_modified": float(dirichlet.ordinary_probability_as(q, p, True)),
        "cezb": float(dirichlet.cezb_constant(q)),
        "truncation_degree": phi1.truncation_degree,
        "error_bound": float(phi1.error_bound),
    }
    emit_json(data, args.output)
    return EXIT_OK


def cmd_census(args) -> int:
    from .fields import field_from_qp
    # the field first: --x-bound is converted with q >= 2
    field = field_from_qp(args.q, args.p if args.family == "as" else 2)
    m_max = _m_max_from_args(args)
    if args.family == "as":
        from . import artin_schreier as asc
        tables = []
        if args.mode in ("analytic", "both"):
            tables.append(asc.census_analytic(field, m_max, args.include_infinity))
        if args.mode in ("enumerate", "both"):
            tables.append(asc.census_enumerated(field, m_max, args.include_infinity))
        rows = tables[0].rows
        m_values = range(2, m_max + 1)
        if len(tables) == 2:
            other = tables[1].rows
            m = next((m for m in m_values if rows[m] != other[m]), None)
            if m is not None:
                raise InvariantViolation(
                    f"analytic and enumerated censuses first disagree at m={m}: "
                    f"(a_m, b_m) = {rows[m]} analytic vs {other[m]} enumerated")
    else:
        from . import superelliptic
        rows = superelliptic.census_se(field, args.n, m_max)
        m_values = range(0, m_max + 1)
    if args.format == "csv":
        emit(census_csv(rows, m_values), args.output)
    else:
        emit_json(census_json(rows, m_values), args.output)
    return EXIT_OK


def _load_cover(path: str):
    import json
    from .serialize import cover_from_dict
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8, whatever the locale
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or int size
        raise DomainError(f"cannot read cover file {path}: {exc}") from exc
    return cover_from_dict(data)


def cmd_classify(args) -> int:
    from .fields import field_from_qp, require_odd_prime
    from .serialize import cover_to_dict
    if args.cover is not None:
        if any(getattr(args, k) is not None for k in SAMPLE_DEFAULTS):
            raise DomainError("--q, --n, --max-m and --seed apply to --sample only")
        covers = [_load_cover(args.cover)]
    else:
        if args.sample < 0:
            raise DomainError("--sample must be >= 0")
        import random
        from . import superelliptic
        q, n, max_m, seed = (d if getattr(args, k) is None else getattr(args, k)
                             for k, d in SAMPLE_DEFAULTS.items())
        rng = random.Random(seed)
        field = field_from_qp(q, 2)
        require_odd_prime(n)  # checked here too, as --sample 0 draws nothing
        if max_m < 0:
            raise DomainError("--max-m must be >= 0")
        if args.sample * ((n - 1) ** 2 + 400) > MAX_SAMPLE_COST:
            raise ResourceGuardError(f"classify --sample guarded at N ((n-1)^2 + 400) <= "
                                     f"{MAX_SAMPLE_COST:,}, got N = {args.sample}, n = {n}")
        covers = [superelliptic.random_se_cover(field, n, max_m, rng)
                  for _ in range(args.sample)]
    reports = []
    for c in covers:
        entry = cover_to_dict(c)
        if c.kind == "artin-schreier":
            from . import artin_schreier as asc
            entry.update({"kind": "artin-schreier", "genus": asc.genus(c),
                          "m": asc.m_invariant(c), "ordinary": asc.is_ordinary(c)})
        else:
            from . import superelliptic
            d = superelliptic.eigen_degrees(c).d  # checked against genus_se
            entry.update({"kind": "superelliptic", "genus": sum(d),
                          "m": c.branch_count, "d_i": list(d),
                          "a_number": superelliptic.a_number(c),
                          "ordinary": superelliptic.is_ordinary_se(c)})
            if (entry["a_number"] == 0) != entry["ordinary"]:
                raise InvariantViolation(f"classification routes disagree on {entry}")
        reports.append(entry)
    emit_json(reports[0] if args.cover is not None else reports, args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle
    cover = _load_cover(args.cover)
    report = oracle.cross_validate(cover)
    data = {
        "kind": report.kind,
        "genus": report.genus,
        "N_k": list(report.counts),
        "L": list(report.l_coeffs),
        "p_rank": report.p_rank,
        "ordinary_by_criterion": report.ordinary_by_criterion,
        "agree": report.agree,
    }
    if not report.agree:
        data["detail"] = report.detail
    emit_json(data, args.output)
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
    from . import dirichlet
    rows = []
    for q, (phi_pub, pas_pub, cezb_pub) in TABLE1.items():
        phi1 = float(dirichlet.phi_at_1(q).value)
        pas = float(dirichlet.ordinary_probability_as(q, 2, True))
        cezb = float(dirichlet.cezb_constant(q))
        rows.append({"q": q,
                     "phi1": round(phi1, 6), "phi1_dev": round(abs(phi1 - phi_pub), 6),
                     "P_AS_modified": round(pas, 6),
                     "P_AS_modified_dev": round(abs(pas - pas_pub), 6),
                     "cezb": round(cezb, 6), "cezb_dev": round(abs(cezb - cezb_pub), 6)})
    if args.format == "csv":
        lines = [",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows]
        emit("\n".join(lines), args.output)
    else:
        emit_json(rows, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
