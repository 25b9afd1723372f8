"""Run one benchmark workload against the checkout and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads, metrics and bounds are listed
in BENCHMARK.json; perfbench/README.md says why each one is there.

`--trace 0` prints the end-to-end metrics.  Three fresh child processes in
turn answer the workload's pinned pool closed-loop with one client, in the
order the seed gives, each until the pool or its third of `--seconds` runs
out.  Query times are scaled to a reference machine speed and combined per
query (see scaled_times).  Set-up time is the median over those children
and further fresh set-up-only children.

`--trace 1` prints the per-layer metrics.  One untraced child answers the
pool as above, then a traced child answers the same queries with every
public function of the package wrapped; `trace.overhead_ratio` compares
the two.

Every child gets a cleaned environment: SEMIGROUP_FORGE_THREADS and
SEMIGROUP_FORGE_BACKEND removed, so the default kernel is measured with
one thread, and PYTHONPATH set to the checkout's src/ alone.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the run's
context (seed, bound kernel, Python version, nproc) and each metric with
its unit.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from math import exp, lgamma, log, log1p
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASSES = 3
# Median time of calibration.calibrate() on the machine that pinned the
# goldens (2-vCPU x86-64 VM, Python 3.11.7).  Query times are reported at
# this loop speed; see scaled_times.
REFERENCE_LOOP_S = 0.00095
CALIBRATION_WINDOW = 5  # queries on each side of the one being scaled
# A run must end well inside three minutes, whatever --seconds says.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("SEMIGROUP_FORGE_THREADS", "SEMIGROUP_FORGE_BACKEND",
                     "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Children:
    """Starts worker processes one at a time, within the run's deadline."""

    def __init__(self, ns):
        self.ns = ns
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, mode: str, *extra: str) -> dict:
        argv = [
            sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--workload", self.ns.workload, "--seed", str(self.ns.seed),
            "--mode", mode, *extra,
        ]
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child passed the run deadline")
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_times(pass_: dict) -> list[float]:
    """Query times of one pass at the reference loop speed.

    Other tenants of a shared machine slow interpreted code in waves of a
    fraction of a second to minutes, and the calibration loop timed before
    each query slows in step.  Each time is scaled by the reference loop
    time over the median loop time of the queries around it.
    """
    loop = pass_["calibration"]
    out = []
    for i, t in enumerate(pass_["times"]):
        around = loop[max(0, i - CALIBRATION_WINDOW): i + CALIBRATION_WINDOW + 1]
        out.append(t * REFERENCE_LOOP_S / statistics.median(around))
    return out


def harrell_davis(values: list[float], q: float, steps: int = 8) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics, so
    it does not jump when two queries near the quantile swap ranks.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)
    total = weight_sum = 0.0
    for i, x in enumerate(ordered):
        w = 0.0
        for k in range(steps):  # midpoint rule over [i/n, (i+1)/n]
            t = (i + (k + 0.5) / steps) / n
            w += exp((a - 1) * log(t) + (b - 1) * log1p(-t) - log_beta)
        total += w * x
        weight_sum += w
    return total / weight_sum


def end_to_end(children: Children) -> tuple[dict, dict, int, int]:
    children.run("setup")  # warm-up: byte-compiles the package; not counted
    budget = str(children.ns.seconds / PASSES)
    passes: list[dict] = []
    setups: list[float] = []
    limit: list[str] = []
    for _ in range(PASSES):
        setups.append(children.run("setup")["setup_s"])
        passes.append(children.run("run", "--seconds", budget, *limit))
        setups.append(passes[-1]["setup_s"])
        limit = ["--limit", str(len(passes[0]["times"]))]
    setups.append(children.run("setup")["setup_s"])
    done = len(passes[0]["times"])
    if done == 0:
        raise BenchError("no query finished within --seconds")
    # Each pass is its own process, so no process sees a query twice; the
    # per-query median over passes damps a wave that hit one pass.
    per_pass = [scaled_times(p) for p in passes]
    times = [statistics.median(s[i] for s in per_pass if i < len(s)) for i in range(done)]
    raw = [statistics.median(p["times"][i] for p in passes if i < len(p["times"]))
           for i in range(done)]
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "queries_per_s": done / sum(times),
        "query_p50_ms": harrell_davis(times, 0.5) * 1e3,
        "query_p90_ms": harrell_davis(times, 0.9) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "success_rate": 1.0 - failed / attempted,
    }
    context = {
        "backend_name": passes[0]["backend_name"],
        "pool": passes[0]["pool"],
        "passes": [len(p["times"]) for p in passes],
        "samples": done,
        "beyond_p90": done - math.ceil(0.9 * done),
        "setup_samples": len(setups),
        "unscaled": {
            "queries_per_s": done / sum(raw),
            "query_p50_ms": harrell_davis(raw, 0.5) * 1e3,
            "query_p90_ms": harrell_davis(raw, 0.9) * 1e3,
        },
        "error_rate": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:10],
    }
    return metrics, context, attempted, failed


def traced(children: Children) -> tuple[dict, dict, int, int]:
    plain = children.run("run", "--seconds", str(children.ns.seconds))
    done = len(plain["times"])
    if done == 0:
        raise BenchError("no query finished within --seconds")
    # Same seed, same queries; only the time left bounds the traced pass.
    spans = children.run(
        "trace", "--limit", str(done), "--seconds", str(max(children.remaining() - 10, 1))
    )
    metrics = dict(spans["layers"])
    metrics["trace.overhead_ratio"] = (
        sum(scaled_times(spans)) / sum(scaled_times(plain)) - 1.0
    )
    attempted = done + len(spans["times"])
    failed = plain["failed"] + spans["failed"]
    if plain["answers_sha256"] != spans["answers_sha256"] or len(spans["times"]) != done:
        failed += 1  # tracing changed an answer, or the traced pass fell short
    context = {
        "backend_name": spans["backend_name"],
        "pool": plain["pool"],
        "samples": done,
        "traced_samples": len(spans["times"]),
        "patched_bindings": len(spans["patched_bindings"]),
        "error_rate": failed / attempted,
        "failures": (plain["failures"] + spans["failures"])[:10],
    }
    return metrics, context, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"run.py: no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if ns.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {ns.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "semigroup_forge" / "__init__.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src' / 'semigroup_forge'}",
              file=sys.stderr)
        return 2

    children = Children(ns)
    try:
        metrics, context, attempted, failed = (traced if ns.trace else end_to_end)(children)
    except BenchError as ex:
        print(f"run.py: {ex}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if ns.trace else spec["end_to_end"]
    context = {
        "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds,
        "trace": ns.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), **context,
    }
    print("context " + json.dumps(context, sort_keys=True))
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
