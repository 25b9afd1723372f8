"""Regenerate the pinned pools and answers in perfbench/goldens/.

    PYTHONPATH=src python3 perfbench/make_goldens.py [WORKLOAD ...]

Run from the repository root with the pure kernel bound.  For each
workload it walks a candidate range, times every candidate once and keeps
those under the workload's per-query cost cap (a row stops at its first
cell over the cap: within a row cost grows as e falls).  It pins each kept
query's answer only after cross-checking it:

- `sieve`: every minimizer's Frobenius number and genus recomputed by
  `oracle.sieve`, plus its multiplicity and embedding dimension;
- `packed_route` / `tree_route`: the other search route agrees on the value
  and on the full minimizer set, wherever it finishes within ROUTE_BUDGET_S;
- `class`: every class member packs back to the class root;
- `cli_rc`, `cli_verify`: the CLI exits 0 and its own `--verify` passes.

Each entry records which checks it got, and its measured cost.
"""
from __future__ import annotations

import io
import json
import platform
import random
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb, gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from semigroup_forge import backend_name  # noqa: E402
from semigroup_forge.cli import main as cli_main  # noqa: E402
from semigroup_forge.oracle import sieve  # noqa: E402
from semigroup_forge.packed import class_min_frobenius, enumerate_packed, pack  # noqa: E402
from semigroup_forge.search import (  # noqa: E402
    min_frobenius,
    min_frobenius_full_set,
    min_frobenius_value_packed,
    min_genus,
    min_genus_packed,
)

# Per-query cost caps, in seconds on the generating machine.  They keep
# cells like min_frobenius(12,3) (minutes) or min_genus(10,2) out, and
# size each pool so that run.py's three passes fit in about two thirds of
# BENCHMARK.json's run_seconds.
CAP_S = {
    "tree_frobenius": 0.35,
    "genus_levels": 0.3,
    "packed_classes": 0.15,
    "cli_verify": 0.15,
}
ROUTE_BUDGET_S = 5.0
CLASS_QUERIES = 150
CLASS_MIN_MEMBERS = 3
CLI_QUERIES = 560
RNG_SEED = 20170101


class _OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise _OverBudget()


def timed(fn, *args, limit: float):
    """(seconds, result), or (None, None) when the call passes `limit`."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        t0 = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - t0, result
    except _OverBudget:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def check_members(members, m: int, e: int, frobenius=None, genus=None) -> None:
    for S in members:
        r = sieve(S.min_gens)
        if (r.frobenius, r.genus) != (S.frobenius, S.genus):
            raise AssertionError(f"sieve disagrees on {S!r}")
        if S.multiplicity != m or S.embedding_dim != e:
            raise AssertionError(f"{S!r} is not at (m, e) = ({m}, {e})")
        if frobenius is not None and S.frobenius != frobenius:
            raise AssertionError(f"{S!r} does not have F = {frobenius}")
        if genus is not None and S.genus != genus:
            raise AssertionError(f"{S!r} does not have g = {genus}")


def same_outcome(a, b) -> bool:
    return a.value == b.value and list(a.minimizers) == list(b.minimizers)


def cross_check(fn, m: int, e: int, want) -> bool:
    """Whether the other route agreed; False when it ran out of budget."""
    seconds, other = timed(fn, m, e, limit=ROUTE_BUDGET_S)
    if seconds is None:
        return False
    agrees = other == want if isinstance(want, int) else same_outcome(other, want)
    if not agrees:
        raise AssertionError(f"{fn.__name__}({m},{e}) disagrees with the pinned answer")
    return True


def entry(op: str, args, result, cost: float, checks: list[str], group=None) -> dict:
    q = {
        "id": f"{op}{tuple(args)!r}".replace(" ", ""),
        "op": op,
        "args": list(args),
        "expect": workloads.answer(op, result, backend_name),
        "cost_s": round(cost, 4),
        "checks": checks,
    }
    if group is not None:
        q["group"] = group
    return q


def tree_frobenius() -> list[dict]:
    cap, pool = CAP_S["tree_frobenius"], []
    for m in range(5, 41):
        for e in range(m, 2, -1):
            cost, out = timed(min_frobenius, m, e, limit=cap)
            if cost is None or cost > cap:
                break
            check_members(out.minimizers, m, e, frobenius=out.value)
            checks = ["sieve"]
            if comb(m - 1, e - 1) <= 20000 and cross_check(min_frobenius_full_set, m, e, out):
                checks.append("packed_route")
            pool.append(entry("min_frobenius", (m, e), out, cost, checks))
    return pool


def genus_levels() -> list[dict]:
    cap, pool = CAP_S["genus_levels"], []
    for m in range(3, 41):
        for e in range(m, 2, -1):
            cost, out = timed(min_genus, m, e, limit=cap)
            if cost is None or cost > cap:
                break
            check_members(out.minimizers, m, e, genus=out.value)
            checks = ["sieve"]
            if comb(m - 1, e - 1) <= 20000 and cross_check(min_genus_packed, m, e, out):
                checks.append("packed_route")
            pool.append(entry("min_genus", (m, e), out, cost, checks, group=f"row{m}"))
    return pool


def packed_classes() -> list[dict]:
    cap, pool, cells = CAP_S["packed_classes"], [], []
    for e in (3, 4, 5, 6):
        # The tree routes only get slower as m grows at fixed e.
        try_genus = try_frobenius = True
        for m in range(15, 41):
            runs = []
            for fn in (min_genus_packed, min_frobenius_value_packed, min_frobenius_full_set):
                cost, out = timed(fn, m, e, limit=cap)
                if cost is None or cost > cap:
                    break
                runs.append((cost, out))
            if len(runs) < 3:
                break
            cells.append((m, e))
            (g_cost, genus), (v_cost, value), (f_cost, full) = runs
            check_members(genus.minimizers, m, e, genus=genus.value)
            check_members(full.minimizers, m, e, frobenius=full.value)
            if value != full.value:
                raise AssertionError(f"packed Frobenius routes disagree at ({m},{e})")
            g_checks, f_checks = ["sieve"], ["sieve"]
            try_genus = try_genus and cross_check(min_genus, m, e, genus)
            if try_genus:
                g_checks.append("tree_route")
            try_frobenius = try_frobenius and cross_check(min_frobenius, m, e, full)
            if try_frobenius:
                f_checks.append("tree_route")
            pool.append(entry("min_genus_packed", (m, e), genus, g_cost, g_checks))
            pool.append(entry("min_frobenius_value_packed", (m, e), value, v_cost,
                              f_checks + ["full_set"]))
            pool.append(entry("min_frobenius_full_set", (m, e), full, f_cost, f_checks))
    # Most packing classes hold one member with the root's Frobenius number;
    # the class queries keep roots of larger classes, so the class walk
    # (class_sons, monoid_contains) does real work.
    rng = random.Random(RNG_SEED)
    families = {cell: enumerate_packed(*cell).members for cell in cells}
    seen, classes = set(), 0
    while classes < CLASS_QUERIES:
        m, e = rng.choice(cells)
        root = rng.choice(families[(m, e)])
        if root.min_gens in seen:
            continue
        seen.add(root.min_gens)
        cost, members = timed(class_min_frobenius, root, limit=cap)
        if cost is None or cost > cap or len(members) < CLASS_MIN_MEMBERS:
            continue
        check_members(members, m, e, frobenius=root.frobenius)
        if any(pack(T) != root for T in members):
            raise AssertionError(f"a member of the class of {root!r} packs elsewhere")
        pool.append(entry("class_min_frobenius", (list(root.min_gens),), members, cost,
                          ["sieve", "class"]))
        classes += 1
    return pool


def _cli_candidates(rng: random.Random):
    """Endless stream of small argv lists over all seven subcommands."""
    while True:
        kind = rng.randrange(7)
        m = rng.randint(5, 12)
        e = rng.randint(2, m)
        if kind == 0:
            argv = ["min-genus", str(m), str(e)]
        elif kind == 1:
            argv = ["min-frobenius", str(m), str(e)]
            argv += rng.choice([[], ["--via", "packed"], ["--via", "packed", "--full-set"]])
        elif kind == 2:
            argv = ["packed", str(m), str(e)] + rng.choice([[], ["--show", "g"], ["--show", "f"]])
        elif kind == 3:
            argv = ["tree", str(m), "--levels", str(rng.randint(2, 8))]
        elif kind == 4:
            argv = ["audit-wilf", str(m), str(e), "--levels", str(rng.randint(2, 8))]
        elif kind == 5:
            m *= 3
            gens = sorted(set(rng.sample(range(m, 4 * m), rng.randint(2, 6)) + [m]))
            if _gcd(gens) != 1:
                continue
            argv = ["info", ",".join(map(str, gens))]
        else:
            picked = rng.sample(range(1, m), rng.randint(1, min(5, m - 1)))
            gens = sorted([m] + [m + a for a in picked])
            if _gcd(gens) != 1:
                continue
            argv = ["class-min-frob", ",".join(map(str, gens))]
        yield argv + ["--verify", "--format", "json"]


def _gcd(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


def cli_verify() -> list[dict]:
    cap, pool, seen = CAP_S["cli_verify"], [], set()
    for argv in _cli_candidates(random.Random(RNG_SEED)):
        if len(pool) == CLI_QUERIES:
            break
        key = tuple(argv)
        if key in seen:
            continue
        seen.add(key)
        cost, result = timed(_run_cli, argv, limit=cap)
        if cost is None or cost > cap or result[0] != 0:
            continue
        status = json.loads(result[1])["meta"]["verify"]
        if status.startswith("failed"):
            raise AssertionError(f"{argv}: --verify failed: {status}")
        checks = ["cli_rc", "cli_verify" if status == "ok" else f"cli_verify {status}"]
        q = entry("cli", argv, result, cost, checks)
        q["id"] = " ".join(argv)
        pool.append(q)
    return pool


def _dumps(doc: dict) -> str:
    """Compact JSON with one pool entry per line, so diffs stay readable."""
    head = {k: v for k, v in doc.items() if k != "pool"}
    lines = [json.dumps(q, sort_keys=True, separators=(",", ":")) for q in doc["pool"]]
    body = json.dumps(head, sort_keys=True)[:-1]
    return body + ', "pool": [\n' + ",\n".join(lines) + "\n]}\n"


POOL_MAKERS = {
    "tree_frobenius": tree_frobenius,
    "genus_levels": genus_levels,
    "packed_classes": packed_classes,
    "cli_verify": cli_verify,
}


def main(argv: list[str]) -> int:
    if backend_name != "pure":
        print("make_goldens: pin goldens with the pure kernel bound "
              "(SEMIGROUP_FORGE_BACKEND=pure)", file=sys.stderr)
        return 2
    for name in argv or workloads.WORKLOADS:
        t0 = time.perf_counter()
        pool = POOL_MAKERS[name]()
        doc = {
            "workload": name,
            "cap_s": CAP_S[name],
            "generated_with": {"backend": backend_name, "python": platform.python_version()},
            "pool_cost_s": round(sum(q["cost_s"] for q in pool), 3),
            "pool": pool,
        }
        with open(workloads.golden_path(name), "w", encoding="utf-8") as fh:
            fh.write(_dumps(doc))
        print(f"{name}: {len(pool)} queries, pinned cost {doc['pool_cost_s']} s, "
              f"generated in {time.perf_counter() - t0:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
