"""Acceptance gate: one test per criterion, exact equality throughout.

Each test finishes by printing its own pass line; pytest -v adds the
per-criterion PASSED/FAILED verdict either way.
"""
import json
import random
import subprocess
import sys
from itertools import islice

from semigroup_forge.core import (
    interval_apery,
    interval_frobenius,
    interval_genus,
    make_semigroup,
    sylvester_frobenius,
)
from semigroup_forge.errors import NotNumerical
from semigroup_forge.multiplicity_tree import bfs_levels, sons
from semigroup_forge.oracle import enumerate_by_genus
from semigroup_forge.packed import (
    class_min_frobenius,
    enumerate_packed,
    is_packed,
    pack,
)
from semigroup_forge.search import (
    min_frobenius,
    min_frobenius_full_set,
    min_frobenius_value_packed,
    min_genus,
    min_genus_packed,
    wilf_audit,
)


def mk(*gens):
    return make_semigroup(gens)


def test_criterion_1_golden_examples():
    out = min_genus(5, 3)
    assert (out.value, out.minimizers) == (6, (mk(5, 6, 7), mk(5, 6, 8)))

    out = min_genus(6, 3)
    assert (out.value, out.minimizers) == (9, (mk(6, 7, 8), mk(6, 7, 9), mk(6, 7, 10)))

    out = min_frobenius(4, 3)
    assert (out.value, out.minimizers) == (6, (mk(4, 5, 7),))

    assert min_frobenius_value_packed(6, 5) == 8

    out = min_frobenius(7, 4)
    assert out.value == 13
    assert mk(7, 9, 10, 15) in out.minimizers
    assert mk(7, 8, 10, 19) in out.minimizers

    assert class_min_frobenius(mk(6, 7, 8, 9, 11)) == (
        mk(6, 7, 8, 9, 11),
        mk(6, 8, 9, 11, 13),
        mk(6, 8, 11, 13, 15),
    )

    assert mk(8, 9, 10).genus == 16
    assert mk(8, 9, 11).genus == 14

    assert [S.genus for S in enumerate_packed(6, 3)] == [9, 9, 9, 10, 10, 11, 12, 13, 13]
    assert [S.frobenius for S in enumerate_packed(6, 5)] == [11, 10, 9, 8, 13]

    expected_levels = [
        {mk(4, 5, 6, 7)},
        {mk(4, 6, 7, 9), mk(4, 5, 7), mk(4, 5, 6)},
        {mk(4, 7, 9, 10), mk(4, 6, 9, 11), mk(4, 6, 7), mk(4, 5, 11)},
        {
            mk(4, 9, 10, 11),
            mk(4, 7, 10, 13),
            mk(4, 7, 9),
            mk(4, 6, 11, 13),
            mk(4, 6, 9),
            mk(4, 5),
        },
    ]
    for lv, expected in zip(islice(bfs_levels(4), 4), expected_levels):
        assert set(lv) == expected

    print("criterion 1 (golden examples): PASS")


def test_criterion_2_formula_cross_checks():
    for m in range(2, 61):
        for e in range(2, m + 1):
            S = make_semigroup(range(m, m + e))
            assert interval_genus(m, e) == S.genus, (m, e)
            assert interval_frobenius(m, e) == S.frobenius, (m, e)
            assert interval_apery(m, e) == S.entries, (m, e)
    for m in range(2, 61):
        assert sylvester_frobenius(m, m + 1) == m * m - m - 1
    print("criterion 2 (formula cross-checks): PASS")


def test_criterion_3_oracle_equivalence():
    for m in range(2, 8):
        for e in range(2, m + 1):
            tree_out = min_frobenius(m, e)
            packed_value = min_frobenius_value_packed(m, e)
            class_out = min_frobenius_full_set(m, e)
            assert tree_out.value == packed_value == class_out.value, (m, e)
            assert tree_out.minimizers == class_out.minimizers, (m, e)

            genus_tree = min_genus(m, e)
            genus_packed = min_genus_packed(m, e)
            assert genus_tree.value == genus_packed.value, (m, e)
            assert genus_tree.minimizers == genus_packed.minimizers, (m, e)

    for m in range(2, 7):
        population = enumerate_by_genus(m, (m - 1) + 5)
        for k, lv in enumerate(islice(bfs_levels(m), 6)):
            expected = {S for S in population if S.genus == (m - 1) + k}
            assert set(lv) == expected, (m, k)
    print("criterion 3 (oracle equivalence): PASS")


def test_criterion_4_edge_and_packing_properties():
    for m in range(2, 7):
        for lv in islice(bfs_levels(m), 7):
            for parent in lv:
                for son in sons(parent):
                    assert son.genus == parent.genus + 1
                    assert son.frobenius > parent.frobenius
                    assert son.embedding_dim <= parent.embedding_dim

    rng = random.Random(2024)
    checked = 0
    while checked < 500:
        gens = rng.sample(range(2, 121), rng.randint(2, 5))
        try:
            S = make_semigroup(gens)
        except NotNumerical:
            continue
        P = pack(S)
        assert P.genus <= S.genus, S
        assert P.frobenius <= S.frobenius, S
        if not is_packed(S):
            assert P.genus < S.genus, S
        checked += 1
    print("criterion 4 (edge and packing properties): PASS")


def test_criterion_5_wilf_audit():
    population = set()
    for m in range(2, 7):
        for lv in islice(bfs_levels(m), 7):
            population.update(lv)
        population.update(enumerate_by_genus(m, m + 5))
    for m in range(2, 8):
        for e in range(2, m + 1):
            population.update(enumerate_packed(m, e))
    population.add(mk(1))
    violations = wilf_audit(population)
    assert not violations, f"WILF INEQUALITY VIOLATED: {violations}"
    print(f"criterion 5 (Wilf audit over {len(population)} semigroups): PASS")


def test_criterion_6_cli_determinism():
    commands = [
        ("min-genus", "5", "3", "--format", "json"),
        ("min-genus", "6", "3"),
        ("min-frobenius", "7", "4", "--format", "json", "--verify"),
        ("min-frobenius", "6", "5", "--via", "packed", "--full-set"),
        ("packed", "6", "3", "--show", "g", "--format", "json"),
        ("tree", "4", "--levels", "3"),
        ("class-min-frob", "6,7,8,9,11", "--format", "json"),
        ("info", "6,9,20"),
        ("audit-wilf", "4", "3", "--levels", "5", "--format", "json"),
    ]
    for args in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "semigroup_forge.cli", *args],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, (args, runs[0].stderr)
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, args
        if "json" in args:
            json.loads(runs[0].stdout)
    print("criterion 6 (CLI determinism): PASS")
