"""One measured pass in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --mode setup|run|trace [--seconds S] [--limit N]

`setup` times the set-up only: from just before `import semigroup_forge`
(and `.cli`) until the first query is ready, which covers the imports,
the seeded input generation and the golden load.  `run` then answers the
queries closed-loop, one at a time, until the pool or `--seconds` runs out.
`trace` does the same with every public function wrapped (see spans.py).
Only the public call is inside a query's timed window; the answer check
follows it.

run.py starts this with a cleaned environment (see run.py).  The package
must come from DIR/src, or the pass aborts.
"""
from __future__ import annotations

import os
import sys
import time


def _options(argv: list[str]) -> dict:
    # argparse is left to the package's own import, which set-up times.
    opts = {"seconds": None, "limit": None}
    it = iter(argv)
    for flag in it:
        if not flag.startswith("--"):
            raise SystemExit(f"worker: unexpected argument {flag!r}")
        opts[flag[2:]] = next(it)
    for key in ("root", "workload", "seed", "mode"):
        if key not in opts:
            raise SystemExit(f"worker: --{key} is required")
    return opts


def main(argv: list[str]) -> int:
    opts = _options(argv)
    root = os.path.realpath(opts["root"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    started = time.perf_counter()
    import semigroup_forge
    import semigroup_forge.cli

    import json

    import workloads

    package_dir = os.path.realpath(os.path.dirname(semigroup_forge.__file__))
    expected_dir = os.path.join(root, "src", "semigroup_forge")
    if package_dir != expected_dir:
        print(f"worker: semigroup_forge imported from {package_dir}, "
              f"not {expected_dir}", file=sys.stderr)
        return 3
    modules = {
        name: sys.modules[f"semigroup_forge.{name}"]
        for name in ("core", "search", "packed", "cli")
    }
    queries = workloads.seeded_order(
        workloads.load_pool(opts["workload"]), int(opts["seed"])
    )
    if opts["limit"] is not None:
        queries = queries[: int(opts["limit"])]
    inputs = [workloads.prepare(q, modules) for q in queries]
    setup_s = time.perf_counter() - started
    backend = semigroup_forge.backend_name

    report = {"setup_s": setup_s, "backend_name": backend}
    if opts["mode"] == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if opts["mode"] == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    seconds = float(opts["seconds"]) if opts["seconds"] is not None else float("inf")

    import gc
    import hashlib
    import resource

    from calibration import calibrate

    gc.freeze()
    digest = hashlib.sha256()
    times: list[float] = []
    speed: list[float] = []
    failures: list[str] = []
    stdout_bytes = 0
    loop_start = time.perf_counter()
    for index, (q, args) in enumerate(zip(queries, inputs)):
        if time.perf_counter() - loop_start >= seconds:
            break
        if tracer is not None:
            tracer.query = index
        gc.collect()
        speed.append(calibrate())
        t0 = time.perf_counter()
        try:
            result = workloads.call(q, args, modules)
        except Exception as ex:  # a raising query is a failed query
            times.append(time.perf_counter() - t0)
            failures.append(f"{q['id']}: raised {ex!r}")
            digest.update(b"raised\n")
            continue
        times.append(time.perf_counter() - t0)
        got = workloads.answer(q["op"], result, backend)
        if q["op"] == "cli":
            stdout_bytes += len(result[1].encode("utf-8"))
        if got != q["expect"]:
            failures.append(f"{q['id']}: answer differs from its golden")
        digest.update(json.dumps(got, sort_keys=True).encode("utf-8") + b"\n")
        del result, got

    report.update(
        times=times,
        calibration=speed,
        pool=len(queries),
        failed=len(failures),
        failures=failures[:10],
        answers_sha256=digest.hexdigest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        report["patched_bindings"] = tracer.bindings()
        tracer.uninstall()
        from spans import layer_metrics

        report["layers"] = layer_metrics(tracer, sum(times), stdout_bytes)
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{opts['workload']}.tsv"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
