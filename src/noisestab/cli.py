"""Command-line front end: certificates, bound evaluation, brute force.

Each command parses its arguments, calls one library routine and renders
the result; the routines own their input domains.  Exit codes: 0 all
checks passed, 1 a mathematical check failed, 2 usage or configuration
error.  A usage error is one `error: ...` line on stderr, no traceback.
That covers an argument argparse rejects, an invalid or non-finite option
value, an output path that cannot be written, and an input outside a
routine's numeric domain: eps_star(rho), which eps-star, bounds-table,
plot and the localopt check evaluate, resolves its root only for rho
above about 7e-4.  Inputs too large to hold in memory are usage errors
too: a plot --rho-step that would write more than PLOT_MAX_ROWS rows, a
verify grid of more than certify.MAX_GRID_POINTS (1,000,000) points and
a brute --sample above sweeps.MAX_SAMPLE (100,000).  Output is text,
JSON, or CSV; JSON writes null for a non-finite value, CSV always uses
'.' as the decimal separator and every output file ends with a newline.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds, certify, sweeps

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_BRUTE_RHOS = tuple(round(0.1 * k, 1) for k in range(1, 10))
#: Most rows `plot` writes: one eps_star lane each, all in memory at once.
PLOT_MAX_ROWS = 100_000


def _write(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _finite(record: dict) -> dict:
    """The record with each non-finite float as None (JSON null)."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in record.items()}


def _csv(header, rows) -> str:
    """A header line, then one line per row: floats by repr, the rest by str."""
    return "\n".join([",".join(header)] + [
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
        for row in rows])


def _emit_pairs(pairs, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(_finite(dict(pairs)))
    elif fmt == "csv":
        keys, values = zip(*pairs)
        text = _csv(keys, [values])
    else:
        text = "\n".join(f"{k} = {v}" for k, v in pairs)
    _write(text, out)


def _parse_rho_list(values) -> list:
    if not values:
        return list(DEFAULT_BRUTE_RHOS)
    return [float(part) for chunk in values for part in chunk.split(",") if part]


class _Parser(argparse.ArgumentParser):
    """Raises each argparse usage error as ValueError, for `main` to report."""

    def error(self, message):
        raise ValueError(message)


def _add_output_flags(p: argparse.ArgumentParser, default_fmt: str = "text") -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv", "text"), default=default_fmt)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        text = (f"# rho_lo={cert.rho_lo!r} rho_hi={cert.rho_hi!r} "
                f"step={cert.step!r} delta={cert.delta!r} "
                f"lipschitz_m={cert.lipschitz_m!r} pass={cert.passed}\n"
                + _csv(["rho", "theta", "t_rho", "eps_star", "omega_max"],
                       cert.per_point))
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
    value = bounds.eps_star(args.rho)
    _emit_pairs([("rho", args.rho), ("eps_star", value)], args.format, args.out)
    return EXIT_OK


def cmd_gamma(args) -> int:
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
                raise ValueError("--phi q-sym/q-asym needs --q")
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
    checks = (list(sweeps.CHECK_NAMES) if args.checks == "all"
              else [c for c in args.checks.split(",") if c])
    results = sweeps.run_checks(args.n, _parse_rho_list(args.rho), checks,
                                sample=args.sample, seed=args.seed)
    if args.format == "json":
        text = json.dumps([_finite(r.as_dict()) for r in results], indent=2)
    elif args.format == "csv":
        text = _csv(["check", "n", "rho", "tested", "max_violation", "tolerance", "pass"],
                    [r.as_dict().values() for r in results])
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
    step = args.rho_step
    if not 0.0 < step < 1.0 - 1e-12:  # the grid below is the CLI's own, from rho = step
        raise ValueError("--rho-step must lie in (0, 1 - 1e-12)")
    if (1.0 - 1e-12) / step > PLOT_MAX_ROWS:
        raise ValueError(f"--rho-step {step!r} would write more than "
                         f"{PLOT_MAX_ROWS} rows")
    rho = np.arange(1, math.floor((1.0 - 1e-12) / step) + 2) * step
    rho = rho[rho < 1.0 - 1e-12]
    rows = zip(rho.tolist(), bounds.eps_star(rho).tolist())
    _write(_csv(["rho", "eps_star"], rows), args.out)
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
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help, after argparse has printed it
        return exc.code
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
