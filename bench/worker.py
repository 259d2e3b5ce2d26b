"""Child side of the noisestab benchmark: one workload in a fresh interpreter.

`bench/run.py` starts this file; it is not meant to be run by hand.  Modes:

  setup <workload>     import the package and build the inputs, print the
                       ready line, exit (the set-up probes)
  run <workload>       the same set-up, then closed-loop passes until the
                       next pass would end after --seconds
  trace-certify        one traced certificate pass plus the layer probes
  trace-brute          one traced brute-force pass
  trace-cli <out>      `noisestab verify --out <out>` in this process, with
                       spans around the calls the command makes

Every line written to stdout is one JSON object with a "kind" field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The five sweep checks, by the names `CheckResult.name` carries.
CHECKS = ("majorization", "gamma", "qstab", "ck", "localopt")
#: Largest n enumerated exhaustively; sweeps past it are sampled.
SAMPLED_N = 5
#: rho values probed with `t_rho` (and so `omega_max`, `eps_star`) when tracing.
T_RHO_PROBES = 200
#: Repeated `certificate_to_json` calls when tracing.
JSON_REPEATS = 20
#: Untraced/traced pairs behind each tracing-overhead figure.
OVERHEAD_PAIRS = 3
#: Interval of the certificate slice used to measure tracing overhead.
OVERHEAD_SLICE = {"rho_lo": 0.9, "rho_hi": 0.914}
#: Passes that always run, however long. A `certify` pass takes 17-25 s on a
#: shared 2-core x86 host; two make `wall_s` a median of more than one sample
#: and cover both `brute` seeds.
MIN_PASSES = 2
#: Longest one `noisestab verify` child may take before it counts as failed.
CLI_TIMEOUT_S = 170


def cpu_s() -> float:
    """User + system CPU of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def emit(kind: str, **fields) -> None:
    print(json.dumps({"kind": kind, **fields}), flush=True)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile, p in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# tracing: spans recorded around calls into the package, kept in memory
# ---------------------------------------------------------------------------

def plain_call(_name, fn, *args, **kwargs):
    """The untraced stand-in for `Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    """Spans as [name, parent index, start, end], nested by call order."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = [name, parent, 0.0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._open.pop()

    def patch(self, module, attr: str, name: str) -> None:
        """Route every lookup of `module.attr` through a span named `name`."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def durations(self, name: str) -> list:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list:
        """Span duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [s[3] - s[2] - covered[i]
                for i, s in enumerate(self.spans) if s[0] == name]


def call_stats(prefix: str, values, scale: float, tail: float,
               with_n: bool = True) -> dict:
    """p50 and the tail percentile of span times (seconds times `scale`)."""
    out = {f"{prefix}.p50": statistics.median(values) * scale,
           f"{prefix}.p{tail:g}": percentile(values, tail) * scale}
    if with_n:
        out[f"{prefix}.n"] = len(values)
    return out


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def gate_certificate(data: bytes, ref: dict, exit_code: int = 0) -> dict:
    """A certificate pass counts all its grid points as failed unless the
    command succeeded and the bytes hash to the reference with pass = true
    and the reference point count."""
    digest = hashlib.sha256(data).hexdigest()
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    if digest != ref["sha256"]:
        reasons.append(f"sha256 {digest} != reference {ref['sha256']}")
    try:
        doc = json.loads(data)
    except ValueError:
        reasons.append("output is not JSON")
    else:
        if doc.get("pass") is not True:
            reasons.append(f"pass = {doc.get('pass')!r}")
        if doc.get("n_points") != ref["n_points"]:
            reasons.append(f"n_points = {doc.get('n_points')!r}")
    items = ref["n_points"]
    return {"items": items, "failed": items if reasons else 0,
            "sha256": digest, "reasons": reasons}


def family_size(n: int, brute: dict) -> int:
    """Functions a check sees at n: every balanced one, or the sample."""
    return brute["sample"] if n == SAMPLED_N else math.comb(2 ** n, 2 ** (n - 1))


def expected_tested(result, brute: dict):
    """What `CheckResult.tested` must equal, or None where only an upper
    bound (the family size) is known: localopt on a sample."""
    if result.name != "localopt":
        return family_size(result.n, brute)
    if result.n == SAMPLED_N:
        return None
    return brute["localopt_tested"][str(result.n)][brute["rhos"].index(result.rho)]


def gate_checks(results, brute: dict) -> dict:
    """Every check must pass and test exactly the family it should."""
    attempted = failed = 0
    reasons = []
    for r in results:
        want = expected_tested(r, brute)
        ok = r.passed and (r.tested == want if want is not None
                           else r.tested <= family_size(r.n, brute))
        count = r.tested if want is None else want
        attempted += count
        if not ok:
            failed += count
            reasons.append(f"{r.name} n={r.n} rho={r.rho}: passed={r.passed} "
                           f"tested={r.tested} expected={want}")
    return {"items": attempted, "failed": failed, "reasons": reasons}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def cli_args(ref: dict) -> list:
    return [a for k, v in ref["interval"].items()
            for a in (f"--{k.replace('_', '-')}", repr(v))]


def certify_pass(ref: dict, call=plain_call) -> dict:
    """`verify_interval(threads=1)` in process, serialised and gated."""
    from noisestab import certify
    cert = call("certify.verify_interval", certify.verify_interval,
                threads=1, **ref["interval"])
    text = call("certify.certificate_to_json", certify.certificate_to_json, cert)
    return {**gate_certificate(text.encode("utf-8"), ref), "cert": cert}


def cli_pass(ref: dict, out: Path) -> dict:
    """`python -m noisestab verify` with the default --threads, gated."""
    out.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "noisestab", "verify", "--format", "json",
            "--out", str(out), *cli_args(ref)]
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CLI_TIMEOUT_S, cwd=ROOT)
        code, err = proc.returncode, proc.stderr.strip()
    except subprocess.TimeoutExpired:
        code, err = -1, f"timed out after {CLI_TIMEOUT_S} s"
    data = out.read_bytes() if out.exists() else b""
    gate = gate_certificate(data, ref, code)
    if err:
        gate["reasons"].append(err.splitlines()[-1])
    return gate


def run_checks_on(call, n: int, F, rhos, group: str) -> list:
    """The five checks at each rho, in the order `sweeps.run_checks` uses."""
    from noisestab import sweeps
    fns = {"majorization": sweeps.envelope_check, "gamma": sweeps.gamma_bound_check,
           "qstab": sweeps.q_bound_check, "ck": sweeps.ck_check,
           "localopt": sweeps.local_optimality_check}
    return [call(f"sweeps.{name}.{group}", fns[name], n, rho, F)
            for rho in rhos for name in CHECKS]


def brute_pass(brute: dict, seed: int, call=plain_call) -> dict:
    """Exhaustive sweeps for small n, then a seeded sample at n = 5."""
    from noisestab import sweeps
    results = []
    for n in brute["exhaustive_n"]:
        F = call("sweeps.balanced_supports", sweeps.balanced_supports, n)
        results += run_checks_on(call, n, F, brute["rhos"], "le4")
    F = call("sweeps.sampled_balanced_supports", sweeps.sampled_balanced_supports,
             SAMPLED_N, brute["sample"], seed)
    results += run_checks_on(call, SAMPLED_N, F, brute["rhos"], "n5")
    return gate_checks(results, brute)


def second_seed(seed: int) -> int:
    """The held-out n = 5 sample seed paired with the workload seed."""
    return seed + 1000


class Workload:
    """Set-up (timed from outside as `setup_s`) and one closed-loop pass."""

    def __init__(self, name: str, ref: dict, seed: int, tmp: Path):
        self.name, self.ref, self.tmp = name, ref, tmp
        self.identity = {}
        if name == "certify":
            import noisestab.certify  # noqa: F401
        elif name == "cli-verify":
            from noisestab import cli
            self.identity["cli_default_threads"] = cli.build_parser().parse_args(["verify"]).threads
        elif name == "brute":
            import noisestab.sweeps  # noqa: F401
            self.seeds = (seed, second_seed(seed))
        else:
            raise ValueError(f"unknown workload {name!r}")

    def run_pass(self, k: int) -> dict:
        if self.name == "certify":
            gate = certify_pass(self.ref)
            gate.pop("cert")
            return gate
        if self.name == "cli-verify":
            return cli_pass(self.ref, self.tmp / "certificate.json")
        seed = self.seeds[k % len(self.seeds)]
        return {**brute_pass(self.ref["brute"], seed), "seed": seed}

    def failed_pass(self, exc: BaseException) -> dict:
        """An exception inside a pass fails every item the pass attempted."""
        traceback.print_exception(exc, file=sys.stderr)
        if self.name == "brute":
            b = self.ref["brute"]
            ns = [*b["exhaustive_n"], SAMPLED_N]
            items = sum(family_size(n, b) for n in ns) * len(CHECKS) * len(b["rhos"])
        else:
            items = self.ref["n_points"]
        return {"items": items, "failed": items, "reasons": [repr(exc)]}


def identity() -> dict:
    import numpy
    import scipy
    import noisestab
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "noisestab": noisestab.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_loop(wl: Workload, seconds: float) -> None:
    """Closed loop, one caller: a pass starts when the previous one has
    ended, and only if it is expected (median pass so far) to end by
    `seconds`, except that the first `MIN_PASSES` always run."""
    walls = []
    start = time.perf_counter()
    k = 0
    while True:
        c0, t0 = cpu_s(), time.perf_counter()
        try:
            rec = wl.run_pass(k)
        except Exception as exc:  # a broken pass is a failed pass, not a crash
            rec = wl.failed_pass(exc)
        wall = time.perf_counter() - t0
        emit("pass", wall_s=wall, cpu_s=cpu_s() - c0, **rec)
        walls.append(wall)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

def overhead_pct(work, patch) -> float:
    """Median traced over median untraced time of `work(call)`, in percent
    above 1, from alternating untraced and traced runs."""
    work(plain_call)  # warm-up, untimed
    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        t0 = time.perf_counter()
        work(plain_call)
        plain.append(time.perf_counter() - t0)
        tr = Tracer()
        patch(tr)
        t0 = time.perf_counter()
        work(tr.call)
        traced.append(time.perf_counter() - t0)
        tr.restore()
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)


def patch_certify(tr: Tracer) -> None:
    from noisestab import certify
    tr.patch(certify, "evaluate_point", "certify.evaluate_point")
    tr.patch(certify, "eps_star", "bounds.eps_star")
    tr.patch(certify, "omega_max", "certify.omega_max")


def trace_certify(ref: dict, seed: int) -> None:
    from noisestab import certify
    slice_ref = {**ref, "interval": OVERHEAD_SLICE}
    overhead = overhead_pct(lambda call: certify_pass(slice_ref, call), patch_certify)

    tr = Tracer()
    patch_certify(tr)
    t0 = time.perf_counter()
    rec = certify_pass(ref, tr.call)
    wall = time.perf_counter() - t0
    cert = rec.pop("cert")
    for _ in range(JSON_REPEATS - 1):
        tr.call("certify.certificate_to_json", certify.certificate_to_json, cert)
    rhos = [row[0] for row in cert.per_point]
    for rho in random.Random(seed).sample(rhos, min(T_RHO_PROBES, len(rhos))):
        tr.call("certify.t_rho", certify.t_rho, rho)
    tr.restore()

    json_ms = [d * 1e3 for d in tr.durations("certify.certificate_to_json")]
    metrics = {
        **call_stats("bounds.eps_star.call_ms", tr.durations("bounds.eps_star"), 1e3, 99),
        **call_stats("certify.omega_max.self_ms", tr.self_times("certify.omega_max"), 1e3, 95),
        **call_stats("certify.t_rho.self_ms", tr.self_times("certify.t_rho"), 1e3, 95),
        **call_stats("certify.evaluate_point.call_ms",
                     tr.durations("certify.evaluate_point"), 1e3, 99),
        "certify.verify_interval.self_s": tr.self_times("certify.verify_interval")[0],
        "certify.certificate_to_json_ms.p50": statistics.median(json_ms),
        "certify.certificate_to_json_ms.n": len(json_ms),
        "certify.omega_max.point_share_pct": 100.0 * sum(tr.self_times("certify.omega_max"))
                                             / sum(tr.durations("certify.t_rho")),
        "trace.certify.wall_s": wall,
        "trace.certify.overhead_pct": overhead,
    }
    emit("trace", metrics=metrics, **rec)


def patch_brute(tr: Tracer) -> None:
    from noisestab import bounds, sweeps
    tr.patch(bounds, "gamma_phi", "bounds.gamma_phi")
    tr.patch(bounds, "gamma_q", "bounds.gamma_q")
    tr.patch(bounds, "big_theta", "bounds.big_theta")
    tr.patch(sweeps, "noised", "sweeps.noised")
    tr.patch(sweeps, "noise_kernel", "cube.noise_kernel")


def computed_calls(brute: dict, seed: int) -> dict:
    """Quadrature and envelope calls one brute pass must make, derived from
    its inputs: one call per unique dictator-distance key, phi (or q) and
    rho, and one `big_theta` per beta grid point and rho."""
    import inspect
    from noisestab import sweeps
    keys = 0
    for n in [*brute["exhaustive_n"], SAMPLED_N]:
        F = (sweeps.sampled_balanced_supports(n, brute["sample"], seed) if n == SAMPLED_N
             else sweeps.balanced_supports(n))
        dt = sweeps.dictator_distances(F, n)
        keys += len(set((dt * 2 ** n).round().astype(int).flatten().tolist()))
    rhos = len(brute["rhos"])
    betas = inspect.signature(sweeps.envelope_check).parameters["beta_points"].default
    groups = len(brute["exhaustive_n"]) + 1
    return {"bounds.gamma_phi": keys * len(sweeps.GAMMA_PHIS) * rhos,
            "bounds.gamma_q": keys * (len(sweeps.Q_UPPER) + len(sweeps.Q_LOWER)) * rhos,
            "bounds.big_theta": betas * rhos * groups}


def trace_brute(ref: dict, seed: int) -> None:
    from noisestab import sweeps
    brute = ref["brute"]
    n_slice = brute["exhaustive_n"][-1]
    F_slice = sweeps.balanced_supports(n_slice)

    def slice_work(call):
        return run_checks_on(call, n_slice, F_slice, [0.5], "le4")

    overhead = overhead_pct(slice_work, patch_brute)
    want = computed_calls(brute, seed)

    tr = Tracer()
    patch_brute(tr)
    t0 = time.perf_counter()
    rec = brute_pass(brute, seed, tr.call)
    wall = time.perf_counter() - t0
    tr.restore()

    for name, count in want.items():
        got = len(tr.durations(name))
        if got != count:
            rec["failed"] += 1
            rec["reasons"].append(f"{name}: traced {got} calls, computed {count}")
    metrics = {}
    for name in CHECKS:
        metrics[f"sweeps.{name}.le4_s"] = sum(tr.durations(f"sweeps.{name}.le4"))
        metrics[f"sweeps.{name}.n5_s"] = sum(tr.durations(f"sweeps.{name}.n5"))
    for name in ("gamma", "majorization"):
        metrics[f"sweeps.{name}.self_s"] = sum(
            tr.self_times(f"sweeps.{name}.le4") + tr.self_times(f"sweeps.{name}.n5"))
    metrics.update({
        **call_stats("bounds.gamma_phi.call_ms", tr.durations("bounds.gamma_phi"),
                     1e3, 95, with_n=False),
        "bounds.gamma_phi.calls.computed": want["bounds.gamma_phi"],
        **call_stats("bounds.big_theta.call_us", tr.durations("bounds.big_theta"),
                     1e6, 99, with_n=False),
        "bounds.big_theta.calls.computed": want["bounds.big_theta"],
        **call_stats("bounds.gamma_q.call_us", tr.durations("bounds.gamma_q"), 1e6, 95),
        **call_stats("cube.noise_kernel.call_ms", tr.durations("cube.noise_kernel"), 1e3, 95),
        **call_stats("sweeps.noised.call_ms", tr.durations("sweeps.noised"), 1e3, 95),
        "sweeps.balanced_supports.ms": sum(tr.durations("sweeps.balanced_supports")) * 1e3,
        "sweeps.sampled_balanced_supports.ms":
            sum(tr.durations("sweeps.sampled_balanced_supports")) * 1e3,
        "trace.brute.wall_s": wall,
        "trace.brute.overhead_pct": overhead,
    })
    emit("trace", metrics=metrics, seed=seed, **rec)


def trace_cli(out: str, extra: list) -> None:
    """Run the `verify` command in this process with spans around the calls
    it makes into `certify` and around its file write.  The caller times
    this whole process; its wall minus these spans is the CLI's own time."""
    t0 = time.perf_counter()
    from noisestab import certify, cli
    import_s = time.perf_counter() - t0
    tr = Tracer()
    cpu = {}

    def verify_with_cpu(*args, **kwargs):
        c0 = cpu_s()
        try:
            return tr.call("certify.verify_interval", verify, *args, **kwargs)
        finally:
            cpu["pool"] = cpu_s() - c0

    verify = certify.verify_interval
    certify.verify_interval = verify_with_cpu
    tr.patch(certify, "certificate_to_json", "certify.certificate_to_json")
    tr.patch(cli, "_write", "cli.write")
    code = cli.main(["verify", "--format", "json", "--out", out, *extra])
    tr.restore()
    certify.verify_interval = verify
    emit("trace-cli", exit_code=code, import_s=import_s,
         verify_pool_s=tr.durations("certify.verify_interval")[0],
         pool_cpu_s=cpu["pool"],
         to_json_s=tr.durations("certify.certificate_to_json")[0],
         write_s=tr.durations("cli.write")[0])


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run", "trace-certify", "trace-brute", "trace-cli"))
    p.add_argument("target", nargs="?", default=None,
                   help="workload name, or the output path for trace-cli")
    p.add_argument("--reference", type=Path, required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    args = p.parse_args(argv)
    ref = json.loads(args.reference.read_text())[args.size]

    if args.mode == "trace-cli":
        trace_cli(args.target, cli_args(ref))
        return 0
    if args.mode in ("trace-certify", "trace-brute"):
        emit("identity", **identity())
        (trace_certify if args.mode == "trace-certify" else trace_brute)(ref, args.seed)
        return 0

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        wl = Workload(args.target, ref, args.seed, Path(tmp))
        emit("ready")
        if args.mode == "run":
            emit("identity", **identity(), **wl.identity)
            run_loop(wl, args.seconds)
            emit("done", peak_rss_mb=peak_rss_mb())
    return 0


if __name__ == "__main__":
    sys.exit(main())
