"""Self-tests of the benchmark.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Run from the repository root.  They check that the goldens agree with the
brute-force oracle, that tracing puts back every binding it patched, that
tracing changes no answer, and that traced counts repeat exactly for one
seed.  The file name keeps them out of the package's own test run.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from run import child_env  # noqa: E402

SEED = 7
LIMIT = 12  # queries per workload in the subprocess checks
EXACT_SUFFIXES = (".calls", ".out", ".members", ".entries", ".uncertified")
EXACT_NAMES = ("_backend.ops", "search.nodes", "cli.stdout_bytes")


def _minimizers(population, m: int, e: int, key: str) -> tuple[int, list]:
    found = [S for S in population if S.multiplicity == m and S.embedding_dim == e]
    best = min(getattr(S, key) for S in found)
    return best, sorted(list(S.min_gens) for S in found if getattr(S, key) == best)


def test_goldens_agree_with_oracle_on_small_cells():
    from semigroup_forge.oracle import enumerate_by_genus, sieve

    for workload, key, top_m in (("tree_frobenius", "frobenius", 5),
                                 ("genus_levels", "genus", 6)):
        small = [q for q in workloads.load_pool(workload) if q["args"][0] <= top_m]
        assert len(small) >= 3, workload
        for q in small:
            m, e = q["args"]
            want = q["expect"]
            for gens in want["min_gens"]:
                assert getattr(sieve(gens), key) == want["value"], (q["id"], gens)
            # Gaps of S lie in [1, F(S)], so genus <= F: genus <= value
            # covers every candidate for either minimum.
            population = enumerate_by_genus(m, want["value"])
            value, minimizers = _minimizers(population, m, e, key)
            assert (value, minimizers) == (want["value"], want["min_gens"]), q["id"]
            assert want["count"] == len(minimizers), q["id"]


def _package_bindings() -> dict:
    import semigroup_forge.cli  # noqa: F401  (loads every module)

    return {
        (name, key): value
        for name, mod in sorted(sys.modules.items())
        if name.startswith("semigroup_forge")
        for key, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_patches_every_binding_and_restores_it():
    before = _package_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = set(tracer.bindings())
        for name in ("multiplicity_tree.make_semigroup", "packed.make_semigroup",
                     "cli.make_semigroup", "search.sons", "core.residue_table",
                     "core.minimal_residues", "core.make_semigroup", "cli.sieve"):
            assert f"semigroup_forge.{name}" in patched, name
        wrapped = {id(v.__wrapped__) for v in _package_bindings().values()
                   if hasattr(v, "__wrapped__")}
        assert len(wrapped) == len(spans.TARGETS)
        left = [k for k, v in _package_bindings().items() if id(v) in wrapped]
        assert not left, f"originals still bound: {left}"
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def _worker(workload: str, mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
         "--workload", workload, "--seed", str(SEED), "--mode", mode,
         "--limit", str(LIMIT)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _exact(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES}


def test_tracing_changes_no_answer_and_counts_repeat():
    for workload in workloads.WORKLOADS:
        plain = _worker(workload, "run")
        first = _worker(workload, "trace")
        second = _worker(workload, "trace")
        assert plain["failed"] == first["failed"] == 0, (workload, first["failures"])
        assert len(plain["times"]) == len(first["times"]) == LIMIT, workload
        assert plain["answers_sha256"] == first["answers_sha256"], workload
        counts = _exact(first["layers"])
        assert any(counts.values()), workload
        assert counts == _exact(second["layers"]), workload


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}", flush=True)
