#!/usr/bin/env python3
"""noisestab benchmark: certificate, CLI-verify and brute-sweep workloads.

    python3 bench/run.py --workload certify|cli-verify|brute|all
                         [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                         [--out FILE]

Run it from a source checkout: the package is imported from `src/`, nothing
is installed.  Each workload runs in fresh worker processes (bench/worker.py)
with BLAS and OpenMP pinned to one thread.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones named in BENCHMARK.json, with
--trace 1 the per-layer ones.  Lines before it list every metric with its
unit and the identity record.  Exit code 0 means every correctness gate
held, 1 that one failed, 2 that the checkout could not be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (stdlib-only at import time)

WORKLOADS = ("certify", "cli-verify", "brute")
#: One BLAS/OpenMP thread in every process: idle pool threads otherwise turn
#: CPU time into scheduler noise.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
#: Fresh interpreters timed for set-up besides the one that runs the passes.
SETUP_PROBES = 4
#: Every worker of one invocation must have ended this long after start.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked: no result is printed."""


class Runner:
    """Starts workers with one environment and one deadline."""

    def __init__(self, opts):
        self.opts = opts
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, **THREAD_PINS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def run(self, *mode):
        """Run `worker.py <mode...>` to its end.  Returns the spawn time,
        the JSON records with their arrival times, and the exit time."""
        o = self.opts
        cmd = [sys.executable, str(BENCH / "worker.py"), *mode,
               "--reference", str(o.reference), "--size", o.size,
               "--seed", str(o.seed), "--seconds", str(o.seconds)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=self.env, cwd=ROOT)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            records = [(json.loads(line), time.perf_counter()) for line in proc.stdout]
            code = proc.wait()
            t_end = time.perf_counter()
        except ValueError as exc:
            raise BenchError(f"worker {' '.join(mode)} wrote a line that is not JSON: {exc}")
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if code != 0:
            raise BenchError(f"worker {' '.join(mode)} exited with code {code}")
        return t0, records, t_end


def only(records, kind: str):
    """The single record of `kind`, with its arrival time."""
    found = [(r, t) for r, t in records if r["kind"] == kind]
    if len(found) != 1:
        raise BenchError(f"expected one {kind!r} record from the worker, got {len(found)}")
    return found[0]


def run_workload(runner: Runner, name: str) -> dict:
    setups = []
    for _ in range(SETUP_PROBES):
        t0, records, _ = runner.run("setup", name)
        setups.append(only(records, "ready")[1] - t0)
    t0, records, _ = runner.run("run", name)
    setups.append(only(records, "ready")[1] - t0)
    passes = [r for r, _ in records if r["kind"] == "pass"]
    walls = [p["wall_s"] for p in passes]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
        "peak_rss_mb": only(records, "done")[0]["peak_rss_mb"],
    }
    ident = only(records, "identity")[0]
    ident.pop("kind")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "reasons": sorted({m for p in passes for m in p["reasons"]}),
            "identity": ident, "setup_samples_s": setups, "passes": passes,
            "certificate_sha256": sorted({p["sha256"] for p in passes if "sha256" in p})}


def run_trace(runner: Runner, ref: dict) -> dict:
    """One traced pass of every layer group; see bench/README.md."""
    _, records, _ = runner.run("trace-certify")
    cert = only(records, "trace")[0]
    ident = only(records, "identity")[0]
    ident.pop("kind")
    _, records, _ = runner.run("trace-brute")
    brute = only(records, "trace")[0]

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out = Path(tmp) / "certificate.json"
        t0, records, t_end = runner.run("trace-cli", str(out))
        spans = only(records, "trace-cli")[0]
        data = out.read_bytes() if out.exists() else b""
    cli = worker.gate_certificate(data, ref, spans["exit_code"])
    wall = t_end - t0
    cli_metrics = {
        "cli.import_s": spans["import_s"],
        "cli.verify_pool_s": spans["verify_pool_s"],
        "cli.pool_cpu_s": spans["pool_cpu_s"],
        "cli.write_ms": spans["write_s"] * 1e3,
        "cli.self_s": wall - spans["import_s"] - spans["verify_pool_s"] - spans["write_s"],
        "trace.cli-verify.wall_s": wall,
    }
    groups = (cert, cli, brute)
    return {"metrics": {**cert["metrics"], **cli_metrics, **brute["metrics"]},
            "attempted": sum(g["items"] for g in groups),
            "failed": sum(g["failed"] for g in groups),
            "reasons": [m for g in groups for m in g["reasons"]],
            "identity": ident,
            "certificate_sha256": sorted({cert["sha256"], cli["sha256"]})}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    """Content hash of the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "noisestab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0,
                   help="measured time per workload (untraced runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs: rho in [0.9, 0.914], brute n <= 3")
    p.add_argument("--reference", type=Path, default=BENCH / "reference.json",
                   help="inputs and the outputs they must reproduce")
    p.add_argument("--out", type=Path, default=None,
                   help="also write the full record (identity, passes) here")
    opts = p.parse_args(argv)
    opts.size = "smoke" if opts.smoke else "full"

    try:
        if not (SRC / "noisestab" / "__init__.py").is_file():
            raise BenchError(f"no package sources under {SRC}")
        try:
            ref = json.loads(opts.reference.read_text())[opts.size]
            units = declared_metrics(bool(opts.trace))
        except (KeyError, ValueError) as exc:
            raise BenchError(f"unreadable reference or BENCHMARK.json: {exc!r}")
        runner = Runner(opts)
        if opts.trace:
            results = {"trace": run_trace(runner, ref)}
        else:
            names = WORKLOADS if opts.workload == "all" else (opts.workload,)
            results = {name: run_workload(runner, name) for name in names}
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for label, res in results.items():
        if set(res["metrics"]) != set(units):
            print(f"error: {label} metrics differ from BENCHMARK.json: "
                  f"{sorted(set(res['metrics']) ^ set(units))}", file=sys.stderr)
            return 2
        prefix = f"{label}." if len(results) > 1 else ""
        for name, value in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
            print(f"{label:<11} {name:<42} {value:>16.6g} {units[name]}")
        ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        print(f"{label:<11} {'fail_ratio':<42} {ratio:>16.6g} "
              f"({res['failed']} of {res['attempted']} items)")
        if "passes" in res:
            print(f"{label:<11} {'passes':<42} {len(res['passes']):>16d} "
                  f"(wall_s, cpu_s and items_per_s are their medians)")
        for reason in res["reasons"]:
            print(f"{label:<11} FAILED: {reason}")

    identity = {"git_commit": git_commit(), "src_sha256": src_sha256()}
    for res in results.values():
        identity.update(res["identity"])
    identity.update({
        "cpu_count": os.cpu_count(),
        "thread_pins": {k: runner.env[k] for k in THREAD_PINS},
        "workload": opts.workload, "size": opts.size, "trace": opts.trace,
        "seed": opts.seed, "brute_seeds": [opts.seed, worker.second_seed(opts.seed)],
        "reference_sha256": ref["sha256"],
        "certificate_sha256": sorted({d for r in results.values()
                                      for d in r["certificate_sha256"]}),
    })
    print(json.dumps({"identity": identity}))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    summary = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    if opts.out is not None:
        opts.out.write_text(json.dumps({"identity": identity, "results": results,
                                        **summary}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
