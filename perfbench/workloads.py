"""Pinned query pools, their seeded order, and the answer check.

A pool lives in goldens/<workload>.json, written by make_goldens.py.  Each
entry names one public call of the package (`op`), its arguments, and the
answer it must return (`expect`).  A run answers the pool in an order drawn
from the seed.  Entries that share a `group` (one multiplicity row of
genus_levels) stay together and keep their pinned order, so consecutive
queries re-walk the same tree prefix.

This module imports nothing from the package at load time: the worker
times those imports as part of set-up.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

WORKLOADS = ("tree_frobenius", "genus_levels", "packed_classes", "cli_verify")

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# op -> (package module, function).  Looked up on the module at call time,
# so a tracing wrapper installed on that binding is what gets called.
OPS = {
    "min_frobenius": ("search", "min_frobenius"),
    "min_genus": ("search", "min_genus"),
    "min_genus_packed": ("search", "min_genus_packed"),
    "min_frobenius_value_packed": ("search", "min_frobenius_value_packed"),
    "min_frobenius_full_set": ("search", "min_frobenius_full_set"),
    "class_min_frobenius": ("packed", "class_min_frobenius"),
    "cli": ("cli", "main"),
}

# CLI JSON output names the bound kernel.  The name is masked before the
# stdout is hashed, so one golden serves either kernel.
_BACKEND_FIELD = '"backend": "{}"'


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_pool(workload: str) -> list[dict]:
    with open(golden_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["pool"]


def seeded_order(pool: list[dict], seed: int) -> list[dict]:
    """The pool with its groups shuffled by `seed`; order inside a group kept."""
    groups: dict[str, list[dict]] = {}
    for q in pool:
        groups.setdefault(q.get("group", q["id"]), []).append(q)
    keys = list(groups)
    random.Random(seed).shuffle(keys)
    return [q for k in keys for q in groups[k]]


def prepare(q: dict, modules: dict) -> tuple:
    """Positional arguments for the call; builds class roots up front."""
    if q["op"] == "class_min_frobenius":
        return (modules["core"].make_semigroup(q["args"][0]),)
    if q["op"] == "cli":
        return (list(q["args"]),)
    return tuple(q["args"])


def call(q: dict, args: tuple, modules: dict):
    module, name = OPS[q["op"]]
    fn = getattr(modules[module], name)
    if q["op"] != "cli":
        return fn(*args)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fn(*args)
    return code, out.getvalue()


def answer(op: str, result, backend_name: str) -> dict:
    """The comparable part of a result: value, count and every minimizer.

    CLI stdout is kept as its SHA-256, which pins it byte for byte without
    storing megabytes of JSON in the goldens.
    """
    if op == "cli":
        code, stdout = result
        masked = stdout.replace(
            _BACKEND_FIELD.format(backend_name), _BACKEND_FIELD.format("*")
        )
        return {"rc": code, "stdout_sha256": hashlib.sha256(masked.encode("utf-8")).hexdigest()}
    if op == "min_frobenius_value_packed":
        return {"value": result}
    if op == "class_min_frobenius":
        members, value = result, result[0].frobenius
    else:
        members, value = result.minimizers, result.value
    return {
        "value": value,
        "count": len(members),
        "min_gens": sorted(list(S.min_gens) for S in members),
    }
