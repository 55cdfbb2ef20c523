"""Command-line entry point.

Subcommands mirror the library modules: ``table``, ``verify coeffs``,
``verify identities``, ``gs bound``, ``gs seminorm``, ``wedge classify``,
``wedge figure``, ``probe run``, ``probe criterion``.

Exit status contract: 0 on success with all checks passing, 1 when any
check reports a failure, 2 on usage errors (each argument is checked once,
by the library function that owns it, and a rejected value raises
``ParameterError`` before any file is made; ``wedge figure``, whose writer
opens its own file, also checks the degree before it makes ``--out-dir``),
3 when the program itself fails (a ``PrecisionError``, a bare ``ValueError``
or any other unexpected exception); each error is one line on stderr, so
the verifiers double as CI tests and a crash is never mistaken for a
failed check or a rejected argument.  All numeric output is written as
decimal (or exact ``p/q``) strings; identical argv gives identical bytes.
No option sets a precision: all compute at the one result precision
``precision.RESULT_BITS`` (192 bits), far above the at most 24 digits they
print; ``precision.escalate`` alone starts a certified value ``GUARD_BITS``
(64) above it, doubled while an enclosure is too wide.  No command holds a
coefficient table: each walks the rows it needs (``derivpoly.coeff_rows``).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import derivpoly, gsfunc, identities, oracle, precision, probe, wedge
from ._util import CheckResult, ParameterError, format_fraction, format_int, format_mpf, parse_fraction, require_degree


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not a rational number: %r" % text) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gsmult", description=__doc__.split("\n")[0])
    parser.add_argument("--out-dir", type=Path, default=None, help="directory prefixed to relative output paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="build a coefficient table and export it as JSON")
    p_table.set_defaults(run=_cmd_table)
    p_table.add_argument("--m", type=int, required=True)
    p_table.add_argument("--kmax", type=int, required=True)
    p_table.add_argument("--out", type=Path, required=True)

    p_verify = sub.add_parser("verify", help="exact verification suites")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)

    p_coeffs = verify_sub.add_parser("coeffs", help="certify the table against the independent oracles")
    p_coeffs.set_defaults(run=_cmd_verify_coeffs)
    p_coeffs.add_argument("--m", type=int, required=True)
    p_coeffs.add_argument("--kmax", type=int, required=True)
    p_coeffs.add_argument("--json", type=Path, default=None, help="write the oracle report as JSON")

    p_ident = verify_sub.add_parser("identities", help="run the exact identity and bound checks")
    p_ident.set_defaults(run=_cmd_verify_identities)
    p_ident.add_argument("--m", type=int, required=True)
    p_ident.add_argument("--kmax", type=int, required=True)
    p_ident.add_argument("--theta", type=_fraction_arg, required=True, help="rational, e.g. 2/3")
    p_ident.add_argument("--jmax", type=int, default=3)
    p_ident.add_argument("--json", type=Path, default=None)

    p_gs = sub.add_parser("gs", help="derivative-bound sweeps and seminorm estimates")
    gs_sub = p_gs.add_subparsers(dest="gs_command", required=True)

    p_bound = gs_sub.add_parser("bound", help="empirical factorial bound for exp(-<x>**(1/theta))")
    p_bound.set_defaults(run=_cmd_gs_bound)
    p_bound.add_argument("--theta", type=_fraction_arg, required=True)
    p_bound.add_argument("--kmax", type=int, required=True)
    p_bound.add_argument("--slope-tol", type=float, default=1e-3)

    p_semi = gs_sub.add_parser("seminorm", help="truncated seminorm estimate, cells to CSV")
    p_semi.set_defaults(run=_cmd_gs_seminorm)
    p_semi.add_argument("--kind", choices=("a", "h"), required=True)
    p_semi.add_argument("--a", type=_fraction_arg, default=None)
    p_semi.add_argument("--h", type=_fraction_arg, default=None)
    p_semi.add_argument("--theta", type=_fraction_arg, required=True)
    p_semi.add_argument("--s", type=_fraction_arg, required=True)
    p_semi.add_argument("--kmax", type=int, required=True)
    p_semi.add_argument("--max-power", type=int, default=10)
    p_semi.add_argument("--f", choices=("gs", "gaussian"), default="gs", help="which function to estimate")
    p_semi.add_argument("--grid", default=None, help="XMAX:N -> {0} plus N halvings of XMAX")
    p_semi.add_argument("--csv", type=Path, default=None, help="write the (k, x, value) cells")

    p_wedge = sub.add_parser("wedge", help="parameter-quadrant classification")
    wedge_sub = p_wedge.add_subparsers(dest="wedge_command", required=True)

    p_cls = wedge_sub.add_parser("classify", help="classify one (theta, s) query")
    p_cls.set_defaults(run=_cmd_wedge_classify)
    p_cls.add_argument("--theta", type=_fraction_arg, required=True)
    p_cls.add_argument("--s", type=_fraction_arg, required=True)
    p_cls.add_argument("--m", type=int, required=True)
    p_cls.add_argument("--space", choices=("roumieu", "beurling"), required=True)
    p_cls.add_argument("--d", type=int, default=1)
    p_cls.add_argument("--monomial", action="store_true", help="phase is exactly +/- x**m")
    p_cls.add_argument("--propagator", action="store_true")
    p_cls.add_argument("--t-zero", action="store_true", help="propagator at time t = 0 (the identity)")

    p_fig = wedge_sub.add_parser("figure", help="emit the region quadrant as CSV or SVG")
    p_fig.set_defaults(run=_cmd_wedge_figure)
    p_fig.add_argument("--m", type=int, required=True)
    p_fig.add_argument("--space", choices=("roumieu", "beurling"), default="roumieu")
    p_fig.add_argument("--format", choices=("csv", "svg"), required=True)
    p_fig.add_argument("--out", type=Path, required=True)
    p_fig.add_argument("--monomial", action="store_true")
    p_fig.add_argument("--theta-min", type=_fraction_arg, default=Fraction(1, 20))
    p_fig.add_argument("--theta-max", type=_fraction_arg, default=Fraction(2))
    p_fig.add_argument("--theta-step", type=_fraction_arg, default=Fraction(1, 20))
    p_fig.add_argument("--s-min", type=_fraction_arg, default=Fraction(1, 20))
    p_fig.add_argument("--s-max", type=_fraction_arg, default=Fraction(4))
    p_fig.add_argument("--s-step", type=_fraction_arg, default=Fraction(1, 20))

    p_probe = sub.add_parser("probe", help="growth probe along k")
    probe_sub = p_probe.add_subparsers(dest="probe_command", required=True)

    p_run = probe_sub.add_parser("run", help="emit per-order records as CSV")
    p_run.set_defaults(run=_cmd_probe_run)
    p_run.add_argument("--m", type=int, required=True)
    p_run.add_argument("--theta", type=_fraction_arg, required=True)
    p_run.add_argument("--nu", type=_fraction_arg, required=True)
    p_run.add_argument("--kmax", type=int, required=True)
    p_run.add_argument("--sign", choices=("+", "-"), default="+", help="sign of lam = +/- i*m; no output depends on it")
    p_run.add_argument("--kj-only", action="store_true", help="restrict orders to the k_j subsequence")
    p_run.add_argument("--csv", type=Path, required=True)

    p_crit = probe_sub.add_parser("criterion", help="multiplier-criterion divergence check")
    p_crit.set_defaults(run=_cmd_probe_criterion)
    p_crit.add_argument("--m", type=int, required=True)
    p_crit.add_argument(
        "--theta",
        type=_fraction_arg,
        required=True,
        help="rational with m*theta >= 2, e.g. 2 or 3/2; a pass is evidence at orders k_1..k_jmax, not a proof",
    )
    p_crit.add_argument("--s", type=_fraction_arg, required=True)
    p_crit.add_argument("--jmax", type=int, required=True)

    return parser


def _resolve(path: Path | None, out_dir: Path | None) -> Path | None:
    """``path`` under ``out_dir`` when relative; makes ``out_dir``, so call it once the arguments are checked."""
    if path is None:
        return None
    if out_dir is not None and not path.is_absolute():
        out_dir.mkdir(parents=True, exist_ok=True)
        return out_dir / path
    return path


def _print_check(result: CheckResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    extra = ""
    if result.extremal_ratio is not None:
        extra = "  extremal=%s" % format_mpf(result.extremal_ratio, 10)
    print("%-34s %s%s" % (result.name, status, extra))
    for w in result.witnesses[:10]:
        print("    witness: %s" % _witness_repr(w))


def _witness_repr(w: tuple) -> str:
    """``repr(w)``, with any int beyond CPython's digit limit still written out."""
    parts = [format_int(x) if isinstance(x, int) else repr(x) for x in w]
    return "(%s%s)" % (", ".join(parts), "," if len(parts) == 1 else "")


def _cmd_table(args) -> int:
    rows = derivpoly.coeff_rows(args.m, args.kmax).decimals()  # arguments checked before the file is made
    out = _resolve(args.out, args.out_dir)
    with out.open("w", encoding="utf-8") as fp:
        derivpoly.write_table_json(fp, args.m, args.kmax, rows)
    print("wrote table m=%d kmax=%d to %s" % (args.m, args.kmax, out))
    return 0


def _cmd_verify_coeffs(args) -> int:
    report = oracle.certify(derivpoly.coeff_rows(args.m, args.kmax))
    json_path = _resolve(args.json, args.out_dir)
    if json_path is not None:
        json_path.write_text(report.to_json(), encoding="utf-8")
    if report.certified:
        print("coefficients certified: m=%d, k in 1..%d" % (args.m, args.kmax))
        return 0
    print("DISCREPANCIES: %d cells" % len(report.discrepancies))
    for d in report.discrepancies[:20]:
        print("    k=%s n=%s table=%s oracle=%s" % d)
    return 1


def _cmd_verify_identities(args) -> int:
    if args.kmax < 2:
        raise ParameterError("--kmax must be >= 2")
    floor = identities.check_floor_identities(args.m, args.kmax)  # these check every argument before any row
    wedge_fn = identities.check_wedge_fn_nonneg(args.m, args.theta)
    k_max = max(args.kmax, 4)  # the ck2 bound needs k >= 4
    j_max = args.jmax if args.theta.denominator == 1 else None
    bounds = identities.check_table_bounds(args.m, args.theta, k_max, j_max)  # one walk, row by row
    results = [floor, *bounds[:3], wedge_fn, *bounds[3:]]
    if j_max is None:
        print("evaluation-lower-bound skipped: requires an integer --theta")
    for r in results:
        _print_check(r)
    json_path = _resolve(args.json, args.out_dir)
    if json_path is not None:
        import json

        payload = [r.to_json_dict() for r in results]
        json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0 if all(r.passed for r in results) else 1


def _cmd_gs_bound(args) -> int:
    result = gsfunc.verify_gs_bound(args.theta, args.kmax, slope_tol=args.slope_tol)
    _print_check(result)
    return 0 if result.passed else 1


def _parse_grid_spec(text: str):
    try:
        xmax, points = text.split(":")
        return gsfunc.geometric_grid(parse_fraction(xmax), int(points))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError("--grid expects XMAX:N, got %r" % text) from exc


def _cmd_gs_seminorm(args) -> int:
    grid = _parse_grid_spec(args.grid) if args.grid else None
    f_spec = gsfunc.GSFunction(args.theta) if args.f == "gs" else gsfunc.Gaussian()
    cells = gsfunc.seminorm_cells(
        args.kind,
        f_spec,
        theta=args.theta,
        s=args.s,
        a=args.a,
        h=args.h,
        max_deriv=args.kmax,
        max_power=args.max_power,
        grid=grid,
    )
    estimate = max((value for _, _, value in cells), default=precision.to_mpf(0))
    csv_path = _resolve(args.csv, args.out_dir)
    if csv_path is not None:
        lines = ["k,x,value"]
        for beta, x, value in cells:
            lines.append("%d,%s,%s" % (beta, format_fraction(x), format_mpf(value)))
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("seminorm lower bound (%s-family): %s" % (args.kind, format_mpf(estimate)))
    return 0


def _cmd_wedge_classify(args) -> int:
    query = wedge.WedgeQuery(
        theta=args.theta,
        s=args.s,
        m=args.m,
        space=wedge.Space(args.space),
        d=args.d,
        mode=wedge.Mode.PURE_MONOMIAL if args.monomial else wedge.Mode.GENERAL_POLYNOMIAL,
        operator=wedge.Operator.PROPAGATOR if args.propagator else wedge.Operator.MULTIPLIER,
        t_nonzero=not args.t_zero,
    )
    verdict = wedge.classify(query)
    line = verdict.verdict.value
    if verdict.citation:
        line += " (%s)" % verdict.citation
    if verdict.boundary_excluded:
        line += " [boundary point excluded]"
    print(line)
    return 0


def _cmd_wedge_figure(args) -> int:
    grid = wedge.GridSpec(
        theta_start=args.theta_min,
        theta_stop=args.theta_max,
        theta_step=args.theta_step,
        s_start=args.s_min,
        s_stop=args.s_max,
        s_step=args.s_step,
    )
    mode = wedge.Mode.PURE_MONOMIAL if args.monomial else wedge.Mode.GENERAL_POLYNOMIAL
    require_degree(args.m)  # before _resolve makes --out-dir; emit_region_grid checks it again before it opens the file
    out = _resolve(args.out, args.out_dir)
    wedge.emit_region_grid(args.m, wedge.Space(args.space), grid, args.format, out, mode)
    print("wrote %s region grid to %s" % (args.format, out))
    return 0


def _cmd_probe_run(args) -> int:
    if args.kmax < 1:
        raise ParameterError("--kmax must be >= 1")
    if args.kj_only:
        j_max = derivpoly.kj_count(args.m, args.kmax)
        k_values = derivpoly.kj_sequence(args.m, j_max).entries if j_max else ()
    else:
        k_values = range(1, args.kmax + 1)
    cfg = probe.ProbeConfig(
        m=args.m,
        theta=args.theta,
        nu=args.nu,
        k_values=k_values,
    )
    records = probe.probe_series(cfg)
    csv_path = _resolve(args.csv, args.out_dir)
    lines = ["k,x,log_dkg_f,rate"]
    for r in records:
        lines.append("%d,%s,%s,%s" % (r.k, format_mpf(r.x), format_mpf(r.log_dkg_f), format_mpf(r.rate)))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("wrote %d records to %s" % (len(records), csv_path))
    try:
        print("fitted growth rate (tail 1/2): %s" % format_mpf(probe.estimate_rate(records), 10))
    except ParameterError:  # too few records for estimate_rate's fit: none is printed
        pass
    return 0


def _cmd_probe_criterion(args) -> int:
    result = probe.criterion_check(args.m, args.theta, args.s, args.jmax)
    _print_check(result)
    return 0 if result.passed else 1


def dispatch(argv) -> int:
    """Parse argv and run; returns the exit status (0 ok, 1 failed check, 2 usage, 3 crash)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.run(args)
    except ParameterError as exc:
        print("usage error: %s" % " ".join(str(exc).split()), file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a failed check
        detail = " ".join(str(exc).split())
        print("error: %s%s" % (type(exc).__name__, ": " + detail if detail else ""), file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
