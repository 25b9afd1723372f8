"""Command-line interface.

Every public operation is reachable as a subcommand, with two output
formats: a human-oriented table using the angle-bracket generator
notation, and a single JSON document with sorted keys.  Identical
invocations produce byte-identical stdout; timing goes to stderr.

Exit codes: 0 success, 2 invalid arguments, 3 empty family,
4 verification failure (including a Wilf violation).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from math import comb

from ._backend import backend_name
from .core import NumericalSemigroup, make_semigroup
from .errors import NotPacked, SemigroupError, Uncertified
from .multiplicity_tree import bfs_levels
from .oracle import sieve
from .packed import class_min_frobenius, enumerate_packed
from .search import (
    Existence,
    existence,
    min_frobenius,
    min_frobenius_full_set,
    min_frobenius_value_packed,
    min_genus,
    min_genus_packed,
    wilf_audit,
)

__all__ = ["main"]

MAX_MULTIPLICITY = 5000
MAX_LEVELS = 12
# Verification cost ceilings: members sieved per command, and the largest
# packed family worth enumerating for a cross-route check.
VERIFY_MEMBER_CAP = 200
VERIFY_ROUTE_CAP = 20000


def _gen_list(text: str) -> list[int]:
    items = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            items.append(int(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid generator token: {tok!r}")
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated generator list")
    return items


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    common.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the result against the brute-force oracle",
    )
    p = argparse.ArgumentParser(
        prog="semigroup-forge",
        description="Minimal genus and minimal Frobenius number over numerical "
        "semigroups with fixed multiplicity and embedding dimension.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("min-genus", parents=[common], help="least genus at (m, e)")
    q.add_argument("m", type=int)
    q.add_argument("e", type=int)

    q = sub.add_parser(
        "min-frobenius", parents=[common], help="least Frobenius number at (m, e)"
    )
    q.add_argument("m", type=int)
    q.add_argument("e", type=int)
    q.add_argument(
        "--via",
        choices=("tree", "packed"),
        default="tree",
        help="pruned tree search, or minimum over the packed family",
    )
    q.add_argument(
        "--full-set",
        action="store_true",
        help="with --via packed: expand the minimizing classes to the full set",
    )

    q = sub.add_parser(
        "packed", parents=[common], help="the packed family C(m, e)"
    )
    q.add_argument("m", type=int)
    q.add_argument("e", type=int)
    q.add_argument(
        "--show",
        choices=("g", "f"),
        help="append the per-member genus (g) or Frobenius (f) value list",
    )

    q = sub.add_parser(
        "tree", parents=[common], help="levels of the multiplicity-m tree"
    )
    q.add_argument("m", type=int)
    q.add_argument("--levels", type=int, required=True, metavar="K")

    q = sub.add_parser(
        "class-min-frob",
        parents=[common],
        help="all semigroups in the packing class with the root's Frobenius number",
    )
    q.add_argument("generators", type=_gen_list, metavar="G1,G2,...")

    q = sub.add_parser("info", parents=[common], help="invariants of one semigroup")
    q.add_argument("generators", type=_gen_list, metavar="G1,G2,...")

    q = sub.add_parser(
        "audit-wilf",
        parents=[common],
        help="Wilf inequality over dimension-e members of tree levels 0..K",
    )
    q.add_argument("m", type=int)
    q.add_argument("e", type=int)
    q.add_argument("--levels", type=int, required=True, metavar="K")

    return p


def _sg_json(S: NumericalSemigroup) -> dict:
    return {"min_gens": list(S.min_gens), "frobenius": S.frobenius, "genus": S.genus}


def _sg_text(S: NumericalSemigroup) -> str:
    return repr(S)


def _member_lines(semigroups, out: list[str]) -> None:
    for S in semigroups:
        out.append(f"  {_sg_text(S)}  F={S.frobenius}  g={S.genus}")


def _verify_members(semigroups) -> tuple[str, bool]:
    """Sieve every listed semigroup; returns (status text, failed flag)."""
    semigroups = list(semigroups)
    for S in semigroups[:VERIFY_MEMBER_CAP]:
        try:
            r = sieve(S.min_gens)
        except Uncertified:
            return f"partial: sieve uncertified for {_sg_text(S)}", False
        if r.frobenius != S.frobenius or r.genus != S.genus:
            return (
                f"failed: oracle disagrees on {_sg_text(S)}: "
                f"F {r.frobenius} vs {S.frobenius}, g {r.genus} vs {S.genus}",
                True,
            )
    if len(semigroups) > VERIFY_MEMBER_CAP:
        return (
            f"partial: sieved {VERIFY_MEMBER_CAP} of {len(semigroups)} members",
            False,
        )
    return "ok", False


def _route_checkable(m: int, e: int) -> bool:
    return comb(m - 1, e - 1) <= VERIFY_ROUTE_CAP


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _classify(m: int, e: int) -> NumericalSemigroup | None:
    """Gate a (m, e) request; returns the naturals when they are the family."""
    cls = existence(m, e)
    if cls is Existence.NON_EMPTY:
        return None
    if cls is Existence.ONLY_NATURALS:
        return make_semigroup([1])
    if m < 1 or e < 1 or m < e:
        raise _Exit(2, f"invalid arguments: no semigroup has m={m}, e={e}")
    raise _Exit(3, f"empty family: dimension 1 with multiplicity {m} > 1")


def _guard_m(m: int) -> None:
    if m > MAX_MULTIPLICITY:
        raise _Exit(2, f"multiplicity {m} exceeds the guard {MAX_MULTIPLICITY}")


def _guard_levels(k: int) -> None:
    if k < 0:
        raise _Exit(2, "level count must be non-negative")
    if k > MAX_LEVELS:
        raise _Exit(2, f"level count {k} exceeds the guard {MAX_LEVELS}")


def _cmd_min_genus(ns) -> tuple[dict, dict, list[str], int]:
    _guard_m(ns.m)
    naturals = _classify(ns.m, ns.e)
    meta: dict = {"backend": backend_name, "nodes": None, "verify": None}
    if naturals is not None:
        value, level_index, minimizers = 0, 0, [naturals]
    else:
        stats: dict = {}
        outcome = min_genus(ns.m, ns.e, stats=stats)
        value, level_index = outcome.value, outcome.level
        minimizers = list(outcome.minimizers)
        meta["nodes"] = stats["nodes"]
        if ns.verify:
            status, failed = _verify_members(minimizers)
            if not failed and status == "ok":
                if _route_checkable(ns.m, ns.e):
                    other = min_genus_packed(ns.m, ns.e)
                    if other.value != value or list(other.minimizers) != minimizers:
                        status, failed = (
                            f"failed: packed route disagrees (value {other.value})",
                            True,
                        )
                else:
                    status = "partial: packed family too large to cross-check"
            meta["verify"] = status
            if failed:
                raise _Exit(4, status)
    if ns.verify and meta["verify"] is None:
        meta["verify"] = "ok"
    result = {
        "value": value,
        "level": level_index,
        "minimizers": [_sg_json(S) for S in minimizers],
    }
    lines = [
        f"min-genus m={ns.m} e={ns.e}",
        f"value: {value}",
        f"level: {level_index}",
        f"minimizers ({len(minimizers)}):",
    ]
    _member_lines(minimizers, lines)
    return result, meta, lines, 0


def _cmd_min_frobenius(ns) -> tuple[dict, dict, list[str], int]:
    _guard_m(ns.m)
    naturals = _classify(ns.m, ns.e)
    meta: dict = {"backend": backend_name, "nodes": None, "verify": None}
    complete = True
    if naturals is not None:
        value, minimizers = -1, [naturals]
    elif ns.via == "tree":
        stats: dict = {}
        outcome = min_frobenius(ns.m, ns.e, stats=stats)
        value, minimizers = outcome.value, list(outcome.minimizers)
        meta["nodes"] = stats["nodes"]
    elif ns.full_set:
        outcome = min_frobenius_full_set(ns.m, ns.e)
        value, minimizers = outcome.value, list(outcome.minimizers)
    else:
        value = min_frobenius_value_packed(ns.m, ns.e)
        family = enumerate_packed(ns.m, ns.e)
        minimizers = [S for S in family if S.frobenius == value]
        complete = False
    if ns.verify:
        status, failed = _verify_members(minimizers)
        if not failed and status == "ok" and naturals is None:
            if _route_checkable(ns.m, ns.e):
                other = min_frobenius_value_packed(ns.m, ns.e)
                if other != value:
                    status, failed = (
                        f"failed: packed route disagrees (value {other})",
                        True,
                    )
            else:
                status = "partial: packed family too large to cross-check"
        meta["verify"] = status
        if failed:
            raise _Exit(4, status)
    result = {
        "value": value,
        "complete": complete,
        "minimizers": [_sg_json(S) for S in minimizers],
    }
    label = "complete" if complete else "packed representatives only"
    lines = [
        f"min-frobenius m={ns.m} e={ns.e} via={ns.via}",
        f"value: {value}",
        f"minimizers ({len(minimizers)}, {label}):",
    ]
    _member_lines(minimizers, lines)
    return result, meta, lines, 0


def _cmd_packed(ns) -> tuple[dict, dict, list[str], int]:
    _guard_m(ns.m)
    naturals = _classify(ns.m, ns.e)
    meta: dict = {"backend": backend_name, "nodes": None, "verify": None}
    members = [naturals] if naturals is not None else list(enumerate_packed(ns.m, ns.e))
    if ns.verify:
        status, failed = _verify_members(members)
        meta["verify"] = status
        if failed:
            raise _Exit(4, status)
    result = {"count": len(members), "members": [_sg_json(S) for S in members]}
    lines = [f"packed m={ns.m} e={ns.e}", f"count: {len(members)}"]
    _member_lines(members, lines)
    if ns.show == "g":
        values = [S.genus for S in members]
        result["values"] = {"kind": "genus", "values": values}
        lines.append("genus values: " + ",".join(str(v) for v in values))
    elif ns.show == "f":
        values = [S.frobenius for S in members]
        result["values"] = {"kind": "frobenius", "values": values}
        lines.append("frobenius values: " + ",".join(str(v) for v in values))
    return result, meta, lines, 0


def _cmd_tree(ns) -> tuple[dict, dict, list[str], int]:
    if ns.m < 1:
        raise _Exit(2, "multiplicity must be positive")
    _guard_m(ns.m)
    _guard_levels(ns.levels)
    meta: dict = {"backend": backend_name, "nodes": None, "verify": None}
    levels = []
    for lv in bfs_levels(ns.m):
        levels.append(lv)
        if lv.level_index == ns.levels:
            break
    meta["nodes"] = sum(len(lv) for lv in levels)
    if ns.verify:
        status, failed = _verify_members([S for lv in levels for S in lv])
        meta["verify"] = status
        if failed:
            raise _Exit(4, status)
    result = {
        "levels": [
            {
                "level_index": lv.level_index,
                "genus": ns.m - 1 + lv.level_index,
                "members": [_sg_json(S) for S in lv.members],
            }
            for lv in levels
        ]
    }
    lines = [f"tree m={ns.m} levels={ns.levels}"]
    for lv in levels:
        n = len(lv)
        word = "member" if n == 1 else "members"
        lines.append(f"level {lv.level_index} (genus {ns.m - 1 + lv.level_index}, {n} {word}):")
        for S in lv:
            lines.append(f"  {_sg_text(S)}")
    return result, meta, lines, 0


def _semigroup_arg(generators: list[int]) -> NumericalSemigroup:
    # The smallest generator is the multiplicity and sizes the residue
    # table, so the guard runs before anything is allocated.
    _guard_m(min(generators))
    return make_semigroup(generators)


def _cmd_class_min_frob(ns) -> tuple[dict, dict, list[str], int]:
    S = _semigroup_arg(ns.generators)
    meta: dict = {"backend": backend_name, "nodes": None, "verify": None}
    members = list(class_min_frobenius(S))
    if ns.verify:
        status, failed = _verify_members(members)
        meta["verify"] = status
        if failed:
            raise _Exit(4, status)
    result = {
        "frobenius": S.frobenius,
        "count": len(members),
        "members": [_sg_json(T) for T in members],
    }
    lines = [
        f"class-min-frob {_sg_text(S)}",
        f"frobenius: {S.frobenius}",
        f"members ({len(members)}):",
    ]
    _member_lines(members, lines)
    return result, meta, lines, 0


def _cmd_info(ns) -> tuple[dict, dict, list[str], int]:
    S = _semigroup_arg(ns.generators)
    meta: dict = {"backend": backend_name, "nodes": None, "verify": None}
    if ns.verify:
        status, failed = _verify_members([S])
        meta["verify"] = status
        if failed:
            raise _Exit(4, status)
    result = {
        "min_gens": list(S.min_gens),
        "multiplicity": S.multiplicity,
        "embedding_dim": S.embedding_dim,
        "max_gen": S.max_gen,
        "frobenius": S.frobenius,
        "genus": S.genus,
        "apery": {"modulus": S.apery.modulus, "entries": list(S.apery.entries)},
    }
    lines = [
        f"semigroup {_sg_text(S)}",
        "min_gens: " + ",".join(str(g) for g in S.min_gens),
        f"multiplicity: {S.multiplicity}",
        f"embedding_dim: {S.embedding_dim}",
        f"max_gen: {S.max_gen}",
        f"frobenius: {S.frobenius}",
        f"genus: {S.genus}",
        f"apery mod {S.apery.modulus}: "
        + ",".join(str(w) for w in S.apery.entries),
    ]
    return result, meta, lines, 0


def _cmd_audit_wilf(ns) -> tuple[dict, dict, list[str], int]:
    if ns.m < 1 or ns.e < 1:
        raise _Exit(2, "multiplicity and dimension must be positive")
    _guard_m(ns.m)
    _guard_levels(ns.levels)
    meta: dict = {"backend": backend_name, "nodes": None, "verify": None}
    audited: list[NumericalSemigroup] = []
    for lv in bfs_levels(ns.m):
        audited.extend(S for S in lv if S.embedding_dim == ns.e)
        if lv.level_index == ns.levels:
            break
    violations = wilf_audit(audited)
    if ns.verify:
        status, failed = _verify_members(audited)
        meta["verify"] = status
        if failed:
            raise _Exit(4, status)
    result = {
        "checked": len(audited),
        "violations": [
            {"min_gens": list(v.semigroup.min_gens), "lhs": v.lhs, "rhs": v.rhs}
            for v in violations
        ],
    }
    lines = [
        f"audit-wilf m={ns.m} e={ns.e} levels={ns.levels}",
        f"checked: {len(audited)}",
        f"violations: {len(violations)}",
    ]
    for v in violations:
        lines.append(f"  {_sg_text(v.semigroup)}  lhs={v.lhs}  rhs={v.rhs}")
    code = 0
    if violations:
        print(
            "WILF INEQUALITY VIOLATED: "
            + "; ".join(
                f"{_sg_text(v.semigroup)} lhs={v.lhs} rhs={v.rhs}" for v in violations
            ),
            file=sys.stderr,
        )
        code = 4
    return result, meta, lines, code


_HANDLERS = {
    "min-genus": _cmd_min_genus,
    "min-frobenius": _cmd_min_frobenius,
    "packed": _cmd_packed,
    "tree": _cmd_tree,
    "class-min-frob": _cmd_class_min_frob,
    "info": _cmd_info,
    "audit-wilf": _cmd_audit_wilf,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    started = time.perf_counter()
    try:
        result, meta, lines, code = _HANDLERS[ns.command](ns)
    except _Exit as ex:
        print(f"error: {ex}", file=sys.stderr)
        return ex.code
    except NotPacked as ex:
        print(f"error: not packed: {ex}", file=sys.stderr)
        return 2
    except SemigroupError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    if ns.format == "json":
        envelope = {
            "command": ns.command,
            "inputs": _inputs_echo(ns),
            "result": result,
            "meta": meta,
        }
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        if meta.get("verify"):
            lines.append(f"verify: {meta['verify']}")
        print("\n".join(lines))
    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


def _inputs_echo(ns) -> dict:
    echo: dict = {}
    for key in ("m", "e", "levels", "via", "show", "generators"):
        if hasattr(ns, key):
            echo[key] = getattr(ns, key)
    if hasattr(ns, "full_set"):
        echo["full_set"] = ns.full_set
    return echo


if __name__ == "__main__":
    raise SystemExit(main())
