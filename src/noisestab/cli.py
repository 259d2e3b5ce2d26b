"""Command-line front end: certificates, bound evaluation, brute force.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
configuration error.  A usage error is one `error: ...` line on stderr, no
traceback.  That covers an invalid or non-finite option value, an output
path that cannot be written, and an input outside a routine's numeric
domain: eps_star(rho), which eps-star, bounds-table, plot and the localopt
check evaluate, resolves its root only for rho above about 7e-4.  Output is
text, JSON, or CSV; CSV always uses '.' as the decimal separator and every
output file ends with a newline.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds, certify, sweeps

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_BRUTE_RHOS = tuple(round(0.1 * k, 1) for k in range(1, 10))


def _write(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _kv_json(pairs) -> str:
    import json
    return json.dumps(dict(pairs))


def _kv_csv(pairs) -> str:
    head = ",".join(k for k, _ in pairs)
    row = ",".join(repr(v) if isinstance(v, float) else str(v) for _, v in pairs)
    return head + "\n" + row


def _emit_pairs(pairs, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _write(_kv_json(pairs), out)
    elif fmt == "csv":
        _write(_kv_csv(pairs), out)
    else:
        _write("\n".join(f"{k} = {v}" for k, v in pairs), out)


def _parse_rho_list(values) -> list:
    if not values:
        return list(DEFAULT_BRUTE_RHOS)
    out = []
    for chunk in values:
        for part in str(chunk).split(","):
            if part:
                out.append(float(part))
    return out


def _add_output_flags(p: argparse.ArgumentParser, default_fmt: str = "text") -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv", "text"), default=default_fmt)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisestab",
        description="Noise-stability bounds and the dictator-optimality certificate")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the grid/Lipschitz certificate")
    p.add_argument("--rho-lo", type=float, default=certify.RHO_LO)
    p.add_argument("--rho-hi", type=float, default=certify.RHO_HI)
    p.add_argument("--delta", type=float, default=certify.DELTA)
    p.add_argument("--lipschitz", type=float, default=certify.LIPSCHITZ_M)
    p.add_argument("--step", type=float, default=None,
                   help="grid spacing (default delta/lipschitz)")
    p.add_argument("--threads", type=int, default=1, help="has no effect")
    _add_output_flags(p, default_fmt="json")

    p = sub.add_parser("eps-star", help="evaluate the threshold eps*(rho)")
    p.add_argument("--rho", type=float, required=True)
    _add_output_flags(p)

    p = sub.add_parser("gamma", help="evaluate a Gamma bound at (eps, rho)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--phi", choices=sorted(bounds.PHI_BY_NAME), default=None)
    _add_output_flags(p)

    p = sub.add_parser("bounds-table", help="headline constants vs published values")
    p.add_argument("--rho", type=float, default=certify.RHO_HI)
    _add_output_flags(p)

    p = sub.add_parser("brute", help="brute-force bound checks on small cubes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", action="append", default=None,
                   help="correlation(s), repeatable or comma separated")
    p.add_argument("--checks", default="all",
                   help="comma list from %s or 'all'" % (sweeps.CHECK_NAMES,))
    p.add_argument("--sample", type=int, default=None,
                   help="sample size (required at n = 5)")
    p.add_argument("--seed", type=int, default=None)
    _add_output_flags(p)

    p = sub.add_parser("plot", help="CSV of eps*(rho) for external plotting")
    p.add_argument("--rho-step", type=float, default=0.01)
    p.add_argument("--out", default=None)
    return parser


def cmd_verify(args) -> int:
    cert = certify.verify_interval(args.rho_lo, args.rho_hi, args.delta,
                                   args.lipschitz, step=args.step)
    if args.format == "json":
        text = certify.certificate_to_json(cert)
    elif args.format == "csv":
        lines = [f"# rho_lo={cert.rho_lo!r} rho_hi={cert.rho_hi!r} "
                 f"step={cert.step!r} delta={cert.delta!r} "
                 f"lipschitz_m={cert.lipschitz_m!r} pass={cert.passed}",
                 "rho,theta,t_rho,eps_star,omega_max"]
        for row in cert.per_point:
            lines.append(",".join(repr(v) for v in row))
        text = "\n".join(lines)
    else:
        text = "\n".join([
            f"interval  [{cert.rho_lo}, {cert.rho_hi}]  step {cert.step}",
            f"slack     delta={cert.delta}  lipschitz M={cert.lipschitz_m}",
            f"grid      {cert.n_points} points",
            f"worst     theta={cert.worst_theta!r} at rho={cert.worst_rho!r}",
            f"pass      {cert.passed}",
        ] + ([f"reason    {cert.failure_reason}"] if cert.failure_reason else []))
    _write(text, args.out)
    return EXIT_OK if cert.passed else EXIT_CHECK_FAILED


def cmd_eps_star(args) -> int:
    if not 0.0 < args.rho < 1.0:
        print("error: --rho must lie strictly inside (0, 1)", file=sys.stderr)
        return EXIT_USAGE
    value = bounds.eps_star(args.rho)
    _emit_pairs([("rho", args.rho), ("eps_star", value)], args.format, args.out)
    return EXIT_OK


def cmd_gamma(args) -> int:
    if not 0.0 <= args.eps <= 1.0 or not 0.0 <= args.rho <= 1.0:
        print("error: eps and rho must lie in [0, 1]", file=sys.stderr)
        return EXIT_USAGE
    if args.q is not None and args.q <= 0:
        print("error: --q must be positive", file=sys.stderr)
        return EXIT_USAGE
    pairs = [("eps", args.eps), ("rho", args.rho)]
    if args.phi is None and args.q is not None:
        # closed forms: gamma_q for q != 1, its q-derivative limit at q = 1
        if args.q == 1.0:
            value = bounds.gamma_one(args.eps, args.rho)
            pairs += [("bound", "gamma_one"), ("value", value)]
        else:
            value = bounds.gamma_q(args.eps, args.rho, args.q)
            pairs += [("bound", "gamma_q"), ("q", args.q), ("value", value)]
    else:
        name = args.phi or "one-sym"
        factory = bounds.PHI_BY_NAME[name]
        if name.startswith("q-"):
            if args.q is None:
                print("error: --phi q-sym/q-asym needs --q", file=sys.stderr)
                return EXIT_USAGE
            phi = factory(args.q)
        else:
            phi = factory()
        value = bounds.gamma_phi(args.eps, args.rho, phi)
        pairs += [("bound", "gamma_phi"), ("phi", name), ("value", value)]
    _emit_pairs(pairs, args.format, args.out)
    return EXIT_OK


_PUBLISHED = {
    "eps_star": 0.195055,
    "omega_max": 0.193026,
    "beta_argmax": 0.175661,
    "t_rho": 0.663100,
    "theta": -0.00169063,
}


def cmd_bounds_table(args) -> int:
    if not 0.0 < args.rho < 1.0:
        print("error: --rho must lie strictly inside (0, 1)", file=sys.stderr)
        return EXIT_USAGE
    pt = certify.evaluate_point(args.rho)
    rows = [
        ("eps_star", pt.eps_star), ("omega_max", pt.omega_max),
        ("beta_argmax", pt.omega_argmax), ("t_rho", pt.t_rho), ("theta", pt.theta),
    ]
    if args.format == "text":
        lines = [f"rho = {args.rho}",
                 f"{'quantity':<12}{'computed':>22}{'published at rho=0.914':>26}"]
        for key, val in rows:
            lines.append(f"{key:<12}{val:>22.12f}{_PUBLISHED[key]:>26}")
        _write("\n".join(lines), args.out)
    else:
        _emit_pairs([("rho", args.rho)] + rows, args.format, args.out)
    return EXIT_OK


def cmd_brute(args) -> int:
    if args.n < 1 or args.n > sweeps.MAX_N:
        print(f"error: --n must lie in 1..{sweeps.MAX_N}", file=sys.stderr)
        return EXIT_USAGE
    if args.n > sweeps.MAX_EXHAUSTIVE_N and args.sample is None:
        print("error: n = 5 requires --sample with --seed", file=sys.stderr)
        return EXIT_USAGE
    if args.sample is not None and args.seed is None:
        print("error: --sample requires --seed", file=sys.stderr)
        return EXIT_USAGE
    if args.sample is not None and args.sample <= 0:
        print("error: --sample must be positive", file=sys.stderr)
        return EXIT_USAGE
    rhos = _parse_rho_list(args.rho)
    if any(not 0.0 <= r <= 1.0 for r in rhos):
        print("error: rho values must lie in [0, 1]", file=sys.stderr)
        return EXIT_USAGE
    checks = (list(sweeps.CHECK_NAMES) if args.checks == "all"
              else [c for c in args.checks.split(",") if c])
    results = sweeps.run_checks(args.n, rhos, checks,
                                sample=args.sample, seed=args.seed)
    if args.format == "json":
        import json
        text = json.dumps([r.as_dict() for r in results], indent=2)
    elif args.format == "csv":
        lines = ["check,n,rho,tested,max_violation,tolerance,pass"]
        for r in results:
            lines.append(f"{r.name},{r.n},{r.rho!r},{r.tested},"
                         f"{r.max_violation!r},{r.tolerance!r},{r.passed}")
        text = "\n".join(lines)
    else:
        lines = []
        for r in results:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"{status}  {r.name:<14} n={r.n} rho={r.rho:<6} "
                         f"tested={r.tested:<7} worst={r.max_violation:.3e} "
                         f"tol={r.tolerance:.0e}")
        text = "\n".join(lines)
    _write(text, args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def cmd_plot(args) -> int:
    if not 0.0 < args.rho_step < 1.0:
        print("error: --rho-step must lie in (0, 1)", file=sys.stderr)
        return EXIT_USAGE
    lines = ["rho,eps_star"]
    k = 1
    while True:
        rho = k * args.rho_step
        if rho >= 1.0 - 1e-12:
            break
        lines.append(f"{rho!r},{bounds.eps_star(rho)!r}")
        k += 1
    _write("\n".join(lines), args.out)
    return EXIT_OK


_COMMANDS = {
    "verify": cmd_verify,
    "eps-star": cmd_eps_star,
    "gamma": cmd_gamma,
    "bounds-table": cmd_bounds_table,
    "brute": cmd_brute,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
