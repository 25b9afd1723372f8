"""Spans and counts around the package's public functions.

The package binds its functions by `from .core import make_semigroup` and
the like, so a function is reachable under several module names
(`core.make_semigroup`, `multiplicity_tree.make_semigroup`,
`packed.make_semigroup`, `cli.make_semigroup`, ...).  `Tracer.install`
replaces *every* binding of each target in every loaded `semigroup_forge`
module; patching only the defining module would record nothing.
`Tracer.uninstall` puts each original back.

Spans stay in memory while the run goes and are written once at the end.
A span's self time is its duration minus the durations of its direct
child spans (calls are single-threaded, so children never overlap).
"""
from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "semigroup_forge"


def _count_table(counts, args, result):
    # Computed kernel work: one relaxation step per residue per generator.
    counts["_backend.ops"] += args[0] * len(args[1])


def _count_minimal(counts, args, result):
    counts["_backend.ops"] += args[0] * args[0]


def _count_make(counts, args, result):
    # Every caller passes a re-iterable collection (list, tuple, set, range).
    counts["core.make_semigroup.useful"] += len(result.min_gens)
    counts["core.make_semigroup.inputs"] += len(set(args[0]))


def _count_out(name):
    def count(counts, args, result):
        counts[name] += len(result)

    return count


def _count_entries(counts, args, result):
    counts["oracle.sieve.entries"] += len(result.reachable)


# (span name, module holding the bound function, attribute, count hook)
TARGETS = (
    ("_backend.residue_table", "_backend", "residue_table", _count_table),
    ("_backend.minimal_residues", "_backend", "minimal_residues", _count_minimal),
    ("core.make_semigroup", "core", "make_semigroup", _count_make),
    ("core.monoid_contains", "core", "monoid_contains", None),
    ("multiplicity_tree.root", "multiplicity_tree", "root", None),
    ("multiplicity_tree.sons", "multiplicity_tree", "sons",
     _count_out("multiplicity_tree.sons.out")),
    ("search.min_genus", "search", "min_genus", None),
    ("search.min_frobenius", "search", "min_frobenius", None),
    ("search.min_genus_packed", "search", "min_genus_packed", None),
    ("search.min_frobenius_value_packed", "search", "min_frobenius_value_packed", None),
    ("search.min_frobenius_full_set", "search", "min_frobenius_full_set", None),
    ("packed.enumerate_packed", "packed", "enumerate_packed",
     _count_out("packed.enumerate_packed.members")),
    ("packed.class_sons", "packed", "class_sons", _count_out("packed.class_sons.out")),
    ("packed.class_min_frobenius", "packed", "class_min_frobenius", None),
    ("oracle.sieve", "oracle", "sieve", _count_entries),
    ("cli.main", "cli", "main", None),
)

# Tree routes report their node count through an optional `stats` dict.
_STATS_ROUTES = {"search.min_genus", "search.min_frobenius"}


class Tracer:
    """Records a span per call of each target while installed."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, query id)
        self.counts: Counter = Counter()
        self.query = -1
        self._stack = [-1]
        self._patched: list = []  # (module, attribute, original)

    def wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        with_stats = name in _STATS_ROUTES

        def traced(*args, **kwargs):
            if with_stats and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as ex:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1], self.query)
                counts[f"{name}.raised.{type(ex).__name__}"] += 1
                raise
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, stack[-1], self.query)
            if count is not None:
                count(counts, args, result)
            if with_stats:
                counts["search.nodes"] += kwargs["stats"].get("nodes", 0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, home, attr, count in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{home}"], attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def bindings(self) -> list[str]:
        return [f"{mod.__name__}.{key}" for mod, key, _ in self._patched]

    def totals(self) -> tuple[Counter, dict]:
        """Calls and self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tquery\n")
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{query}\n")


def layer_metrics(tracer: Tracer, wall_s: float, stdout_bytes: int) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    calls, self_s = tracer.totals()
    counts = tracer.counts
    out: dict = {}
    for name, *_ in TARGETS:
        if name == "multiplicity_tree.root":
            continue
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["_backend.ops"] = counts["_backend.ops"]
    kernel_s = self_s["_backend.residue_table"] + self_s["_backend.minimal_residues"]
    out["_backend.share"] = kernel_s / wall_s if wall_s > 0 else 0.0
    inputs = counts["core.make_semigroup.inputs"]
    out["core.make_semigroup.useful_ratio"] = (
        counts["core.make_semigroup.useful"] / inputs if inputs else 0.0
    )
    out["multiplicity_tree.sons.out"] = counts["multiplicity_tree.sons.out"]
    built = counts["multiplicity_tree.sons.out"]
    out["multiplicity_tree.expand_ratio"] = (
        calls["multiplicity_tree.sons"] / built if built else 0.0
    )
    out["search.nodes"] = counts["search.nodes"]
    out["packed.enumerate_packed.members"] = counts["packed.enumerate_packed.members"]
    out["packed.class_sons.out"] = counts["packed.class_sons.out"]
    out["oracle.sieve.entries"] = counts["oracle.sieve.entries"]
    out["oracle.sieve.uncertified"] = counts["oracle.sieve.raised.Uncertified"]
    out["cli.stdout_bytes"] = stdout_bytes
    return out
