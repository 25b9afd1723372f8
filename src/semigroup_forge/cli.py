"""Command-line interface.

Every public operation is reachable as a subcommand, with two output
formats: a human-oriented table using the angle-bracket generator
notation, and a single JSON document with sorted keys.  Identical
invocations produce byte-identical stdout; timing goes to stderr.

Each answer is rendered once, in the format asked for.  `_json` writes
the JSON document itself, byte for byte what `json.dumps` writes with
sorted keys and a two-space indent: any indent makes `json` fall back to
its pure-Python encoder.  Semigroups are written straight from their
generators, F and g.

One table, `_COMMANDS`, declares every command's arguments.  `_parse`
reads a well-formed call off it; help, abbreviations and every refusal
go to argparse, whose parser `_build_parser` builds from the same table
and which is imported only then.

Exit codes: 0 success, 2 invalid arguments, 3 empty family,
4 verification failure (including a Wilf violation).  Output cut short
by its reader (`| head -1`, also with `2>&1`) keeps that code and prints
no traceback.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import namedtuple
from itertools import islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from ._backend import backend_name
from .core import Existence, NumericalSemigroup, SearchOutcome, existence, make_semigroup
from .errors import SemigroupError, Uncertified
from .multiplicity_tree import bfs_levels
from .oracle import sieve
from .packed import class_min_frobenius, enumerate_packed
from .search import (
    min_frobenius,
    min_frobenius_full_set,
    min_frobenius_packed,
    min_genus,
    min_genus_packed,
    wilf_audit,
)

__all__ = ["main"]

MAX_MULTIPLICITY = 5000
MAX_LEVELS = 12
# Verification cost ceiling: members sieved per command.
VERIFY_MEMBER_CAP = 200


def _gen_list(text: str) -> list[int]:
    items = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            items.append(int(tok))
        except ValueError:
            import argparse

            raise argparse.ArgumentTypeError(f"invalid generator token: {tok!r}")
    if not items:
        import argparse

        raise argparse.ArgumentTypeError("expected a comma-separated generator list")
    return items


def _build_parser(command: str | None = None):
    """The top parser, with the subparser of `command` only, or of all seven.

    Only what `_parse` declines reaches it: help, abbreviations and
    refusals.  Building a one-command parser and parsing a call with it
    takes 0.28-0.36 ms, where `_parse` takes 3.4-4.8 us, and building the
    full parser takes 1.0 ms (timeit, 2-vCPU VM, Python 3.11.7).  A
    one-command parser still names every command in its usage line, so it
    refuses a leftover argument alone.
    """
    import argparse

    p = argparse.ArgumentParser(
        prog="semigroup-forge",
        description="Minimal genus and minimal Frobenius number over numerical "
        "semigroups with fixed multiplicity and embedding dimension.",
    )
    # The full parser keeps None: its refusals of a missing or unknown command name `command`.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, arguments, _) in _COMMANDS.items():
        if command in (None, name):
            q = sub.add_parser(name, help=text)
            for flag, kwargs in arguments:
                q.add_argument(flag, **kwargs)
    return p


def _value(token: str, kwargs: dict):
    """`token` as argparse converts it; raises where `_parse` leaves it to argparse."""
    if token[:1] == "-" or token not in kwargs.get("choices", (token,)):
        raise ValueError(token)
    return kwargs.get("type", str)(token)


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a well-formed call, else None.

    Well-formed is a command, then exactly its positionals, then full
    option strings, each value-taking one followed by a value that passes
    its `choices` or `type`, with every required option given; no
    positional or value starts with `-`.  Anything else (help, an
    abbreviation, `--opt=value`, `--`, a leftover or a bad value) is
    None, and argparse parses it, so its help and refusals stay the only ones.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    ns, options, tokens = {"command": argv[0]}, {}, iter(argv[1:])
    try:
        for flag, kwargs in _COMMANDS[argv[0]][1]:
            dest = flag.lstrip("-").replace("-", "_")
            if flag[0] == "-":
                options[flag] = dest, kwargs
                ns[dest] = kwargs.get("default")
            else:
                ns[dest] = _value(next(tokens), kwargs)
        for token in tokens:
            dest, kwargs = options[token]
            store_true = kwargs.get("action") == "store_true"
            ns[dest] = True if store_true else _value(next(tokens), kwargs)
    # A missing token (StopIteration), an unknown one (KeyError) or a refused
    # value (ValueError, or `_gen_list`'s ArgumentTypeError, which names no
    # class here without importing argparse): argparse parses it and says which.
    except Exception:
        return None
    if any(kwargs.get("required") and ns[dest] is None for dest, kwargs in options.values()):
        return None
    return SimpleNamespace(**ns)


def _member_lines(semigroups) -> list[str]:
    return [f"  {S!r}  F={S.frobenius}  g={S.genus}" for S in semigroups]


def _json(x, pad: str = "") -> str:
    """What `json.dumps` writes for `x` with sorted keys and a two-space
    indent, with `x` nested at `pad`.

    Takes dicts with str keys, lists, tuples, ints, strs, bools, None and
    semigroups; a semigroup is the object of its `frobenius`, `genus` and
    `min_gens`.  Types are tested with `is`: a bool is an int subclass,
    and json writes it `true`/`false`.
    """
    t = type(x)
    if t is int:
        return int.__repr__(x)
    if t is str:
        return encode_basestring_ascii(x)
    inner = pad + "  "
    sep = ",\n" + inner
    if t is NumericalSemigroup:
        deeper = inner + "  "
        return (
            f'{{\n{inner}"frobenius": {x.frobenius}{sep}"genus": {x.genus}'
            f'{sep}"min_gens": [\n{deeper}'
            + (",\n" + deeper).join(map(int.__repr__, x.min_gens))
            + f"\n{inner}]\n{pad}}}"
        )
    if t is dict:
        if not x:
            return "{}"
        body = sep.join(
            encode_basestring_ascii(k) + ": " + _json(v, inner)
            for k, v in sorted(x.items())
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    if t is list or t is tuple:
        if not x:
            return "[]"
        if all(type(v) is int for v in x):
            body = sep.join(map(int.__repr__, x))
        else:
            body = sep.join([_json(v, inner) for v in x])
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(x)


class _Report(namedtuple("_Report", "result lines members nodes route alarm", defaults=(None,) * 3)):
    """What one subcommand computed; `main` verifies and renders it.

    `result` is the JSON form, holding the semigroups themselves; `lines`
    is a zero-argument callable that builds the table form, so each
    answer is rendered only in the format asked for.  `members` are the
    semigroups `--verify` sieves.  `route`, when set, is the packed
    search for the same minimum: `--verify` calls it as `route(m, e)` and
    requires its value and full minimizer set to equal `result["value"]`
    and `members`.  `alarm` is printed on stderr after
    the report and makes the exit code 4.
    """

    __slots__ = ()


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _verify(ns, report: _Report) -> str:
    """The status of sieving the members and cross-checking the route, or exit 4."""
    members = report.members
    status = "ok"
    if len(members) > VERIFY_MEMBER_CAP:
        status = f"partial: sieved {VERIFY_MEMBER_CAP} of {len(members)} members"
    for i, S in enumerate(members[:VERIFY_MEMBER_CAP], 1):
        try:
            r = sieve(S.min_gens)
        except Uncertified:
            status = f"partial: sieve uncertified for member {i} of {len(members)}"
            break
        if r.frobenius != S.frobenius or r.genus != S.genus:
            raise _Exit(
                4,
                f"failed: oracle disagrees on {S!r}: "
                f"F {r.frobenius} vs {S.frobenius}, g {r.genus} vs {S.genus}",
            )
    if report.route is not None:
        other = report.route(ns.m, ns.e)
        if (other.value, list(other.minimizers)) != (report.result["value"], members):
            raise _Exit(4, f"failed: packed route disagrees (value {other.value})")
    return status


def _classify(m: int, e: int) -> NumericalSemigroup | None:
    """Gate a (m, e) request; returns the naturals when they are the family."""
    _guard_m(m)
    cls = existence(m, e)
    if cls is Existence.NON_EMPTY:
        return None
    if cls is Existence.ONLY_NATURALS:
        return make_semigroup([1])
    if e == 1 < m:
        raise _Exit(3, f"empty family: dimension 1 with multiplicity {m} > 1")
    raise _Exit(2, f"invalid arguments: no semigroup has m={m}, e={e}")


def _guard_m(m: int) -> None:
    if m > MAX_MULTIPLICITY:
        raise _Exit(2, f"multiplicity {m} exceeds the guard {MAX_MULTIPLICITY}")


def _first_levels(ns) -> list[tuple[NumericalSemigroup, ...]]:
    """Levels 0..K of the multiplicity-m tree, behind the m and K guards."""
    if ns.m < 1:
        raise _Exit(2, "multiplicity must be positive")
    _guard_m(ns.m)
    if ns.levels < 0:
        raise _Exit(2, "level count must be non-negative")
    if ns.levels > MAX_LEVELS:
        raise _Exit(2, f"level count {ns.levels} exceeds the guard {MAX_LEVELS}")
    return list(islice(bfs_levels(ns.m), ns.levels + 1))


def _cmd_min_genus(ns) -> _Report:
    naturals = _classify(ns.m, ns.e)
    stats: dict = {}
    if naturals is not None:
        outcome = SearchOutcome(naturals.genus, (naturals,))
    else:
        outcome = min_genus(ns.m, ns.e, stats=stats)
    value, minimizers = outcome.value, list(outcome.minimizers)
    level_index = value - (ns.m - 1)
    result = {
        "value": value,
        "level": level_index,
        "minimizers": minimizers,
    }
    lines = lambda: [
        f"min-genus m={ns.m} e={ns.e}",
        f"value: {value}",
        f"level: {level_index}",
        f"minimizers ({len(minimizers)}):",
        *_member_lines(minimizers),
    ]
    route = min_genus_packed if naturals is None else None
    return _Report(result, lines, minimizers, stats.get("nodes"), route)


def _cmd_min_frobenius(ns) -> _Report:
    naturals = _classify(ns.m, ns.e)
    stats: dict = {}
    if naturals is not None:
        outcome = SearchOutcome(naturals.frobenius, (naturals,))
    elif ns.via == "tree":
        outcome = min_frobenius(ns.m, ns.e, stats=stats)
    else:
        outcome = (min_frobenius_full_set if ns.full_set else min_frobenius_packed)(ns.m, ns.e)
    value, minimizers = outcome.value, list(outcome.minimizers)
    complete = naturals is not None or ns.via == "tree" or ns.full_set
    result = {
        "value": value,
        "complete": complete,
        "minimizers": minimizers,
    }
    label = "complete" if complete else "packed representatives only"
    lines = lambda: [
        f"min-frobenius m={ns.m} e={ns.e} via={ns.via}",
        f"value: {value}",
        f"minimizers ({len(minimizers)}, {label}):",
        *_member_lines(minimizers),
    ]
    # Under --via packed the answer already is the packed route.
    route = min_frobenius_full_set if naturals is None and ns.via == "tree" else None
    return _Report(result, lines, minimizers, stats.get("nodes"), route)


def _cmd_packed(ns) -> _Report:
    naturals = _classify(ns.m, ns.e)
    members = [naturals] if naturals is not None else list(enumerate_packed(ns.m, ns.e))
    result = {"count": len(members), "members": members}
    if ns.show is not None:
        kind = {"g": "genus", "f": "frobenius"}[ns.show]
        values = [getattr(S, kind) for S in members]
        result["values"] = {"kind": kind, "values": values}
    lines = lambda: [
        f"packed m={ns.m} e={ns.e}",
        f"count: {len(members)}",
        *_member_lines(members),
        *([f"{kind} values: " + ",".join(map(str, values))] if ns.show else []),
    ]
    return _Report(result, lines, members)


def _cmd_tree(ns) -> _Report:
    levels = _first_levels(ns)
    result = {
        "levels": [
            {
                "level_index": k,
                "genus": ns.m - 1 + k,
                "members": lv,
            }
            for k, lv in enumerate(levels)
        ]
    }

    def lines() -> list[str]:
        out = [f"tree m={ns.m} levels={ns.levels}"]
        for k, lv in enumerate(levels):
            n = len(lv)
            word = "member" if n == 1 else "members"
            out.append(f"level {k} (genus {ns.m - 1 + k}, {n} {word}):")
            out.extend(f"  {S!r}" for S in lv)
        return out

    members = [S for lv in levels for S in lv]
    return _Report(result, lines, members, nodes=len(members))


def _semigroup_arg(generators: list[int]) -> NumericalSemigroup:
    # The smallest generator is the multiplicity and sizes the residue
    # table, so the guard runs before anything is allocated.
    _guard_m(min(generators))
    return make_semigroup(generators)


def _cmd_class_min_frob(ns) -> _Report:
    S = _semigroup_arg(ns.generators)
    members = list(class_min_frobenius(S))
    result = {
        "frobenius": S.frobenius,
        "count": len(members),
        "members": members,
    }
    lines = lambda: [
        f"class-min-frob {S!r}",
        f"frobenius: {S.frobenius}",
        f"members ({len(members)}):",
        *_member_lines(members),
    ]
    return _Report(result, lines, members)


def _cmd_info(ns) -> _Report:
    S = _semigroup_arg(ns.generators)
    result = {
        "min_gens": S.min_gens,
        "multiplicity": S.multiplicity,
        "embedding_dim": S.embedding_dim,
        "max_gen": S.max_gen,
        "frobenius": S.frobenius,
        "genus": S.genus,
        "apery": {"modulus": S.multiplicity, "entries": S.entries},
    }
    lines = lambda: [
        f"semigroup {S!r}",
        "min_gens: " + ",".join(str(g) for g in S.min_gens),
        f"multiplicity: {S.multiplicity}",
        f"embedding_dim: {S.embedding_dim}",
        f"max_gen: {S.max_gen}",
        f"frobenius: {S.frobenius}",
        f"genus: {S.genus}",
        f"apery mod {S.multiplicity}: " + ",".join(str(w) for w in S.entries),
    ]
    return _Report(result, lines, [S])


def _cmd_audit_wilf(ns) -> _Report:
    if ns.m < 1 or ns.e < 1:
        raise _Exit(2, "multiplicity and dimension must be positive")
    audited = [S for lv in _first_levels(ns) for S in lv if S.embedding_dim == ns.e]
    violations = wilf_audit(audited)
    result = {
        "checked": len(audited),
        "violations": [
            {"min_gens": v.semigroup.min_gens, "lhs": v.lhs, "rhs": v.rhs}
            for v in violations
        ],
    }
    lines = lambda: [
        f"audit-wilf m={ns.m} e={ns.e} levels={ns.levels}",
        f"checked: {len(audited)}",
        f"violations: {len(violations)}",
        *(f"  {v.semigroup!r}  lhs={v.lhs}  rhs={v.rhs}" for v in violations),
    ]
    alarm = None
    if violations:
        alarm = "WILF INEQUALITY VIOLATED: " + "; ".join(
            f"{v.semigroup!r} lhs={v.lhs} rhs={v.rhs}" for v in violations
        )
    return _Report(result, lines, audited, alarm=alarm)


# Each command's arguments in declaration order, as (flag, `add_argument` keywords).
_COMMON = (
    ("--format", dict(choices=("table", "json"), default="table", help="output format")),
    (
        "--verify",
        dict(action="store_true", default=False,
             help="cross-check the result against the brute-force oracle"),
    ),
)
_M = ("m", dict(type=int))
_FAMILY = (*_COMMON, _M, ("e", dict(type=int)))
_GENERATORS = (*_COMMON, ("generators", dict(type=_gen_list, metavar="G1,G2,...")))
_LEVELS = ("--levels", dict(type=int, required=True, metavar="K"))
_VIA = (
    "--via",
    dict(choices=("tree", "packed"), default="tree",
         help="pruned tree search, or minimum over the packed family"),
)
_FULL_SET = (
    "--full-set",
    dict(action="store_true", default=False,
         help="with --via packed: expand the minimizing classes to the full set"),
)
_SHOW = (
    "--show",
    dict(choices=("g", "f"), help="append the per-member genus (g) or Frobenius (f) value list"),
)

# Each command, in help order: its help line, its arguments and its handler.
_COMMANDS = {
    "min-genus": ("least genus at (m, e)", _FAMILY, _cmd_min_genus),
    "min-frobenius": (
        "least Frobenius number at (m, e)", (*_FAMILY, _VIA, _FULL_SET), _cmd_min_frobenius
    ),
    "packed": ("the packed family C(m, e)", (*_FAMILY, _SHOW), _cmd_packed),
    "tree": ("levels of the multiplicity-m tree", (*_COMMON, _M, _LEVELS), _cmd_tree),
    "class-min-frob": (
        "all semigroups in the packing class with the root's Frobenius number",
        _GENERATORS,
        _cmd_class_min_frob,
    ),
    "info": ("invariants of one semigroup", _GENERATORS, _cmd_info),
    "audit-wilf": (
        "Wilf inequality over dimension-e members of tree levels 0..K",
        (*_FAMILY, _LEVELS),
        _cmd_audit_wilf,
    ),
}


def _emit(text: str, stream) -> None:
    """Print `text` on `stream`; a reader that closed it gets no more."""
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        # Point the stream at devnull, so the interpreter's flush at exit
        # stays quiet.  stderr may share the pipe stdout had (`2>&1`).
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv=None) -> int:
    # argparse takes `-3,5` for an option, and `_parse` refuses it: only a bare
    # negative number passes as a value.  A leading blank makes such a generator
    # list a value, and `_gen_list` strips it, so `make_semigroup` names the bad
    # generator.
    argv = sys.argv[1:] if argv is None else argv
    argv = [" " + a if a[:1] == "-" and a[1:2].isdigit() and "," in a else a for a in argv]
    ns = _parse(argv)
    if ns is None:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        try:
            ns = _build_parser(command).parse_args(argv)
        except SystemExit as ex:
            return int(ex.code or 0)
    started = time.perf_counter()
    try:
        report = _COMMANDS[ns.command][2](ns)
        meta = {
            "backend": backend_name,
            "nodes": report.nodes,
            "verify": _verify(ns, report) if ns.verify else None,
        }
    except (_Exit, SemigroupError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return getattr(ex, "code", 2)  # a domain error exits 2
    if ns.format == "json":
        inputs = {
            k: v for k, v in vars(ns).items() if k not in ("command", "format", "verify")
        }
        envelope = {
            "command": ns.command,
            "inputs": inputs,
            "result": report.result,
            "meta": meta,
        }
        out = _json(envelope)
    else:
        verify_line = [f"verify: {meta['verify']}"] if meta["verify"] else []
        out = "\n".join(report.lines() + verify_line)
    _emit(out, sys.stdout)
    if report.alarm:
        _emit(report.alarm, sys.stderr)
    _emit(f"elapsed: {time.perf_counter() - started:.3f}s", sys.stderr)
    return 4 if report.alarm else 0


if __name__ == "__main__":
    raise SystemExit(main())
