"""Command-line surface: outputs, exit codes, determinism, round-trips."""
import argparse
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semigroup_forge.cli as cli
from semigroup_forge.cli import _build_parser, _Exit, _json, _Report, _verify, main
from semigroup_forge.core import NumericalSemigroup, make_semigroup
from semigroup_forge.oracle import SieveResult
from semigroup_forge.search import SearchOutcome


def run_main(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "semigroup_forge.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


# Table stdout of one invocation per subcommand besides min-genus.
TABLE_GOLDENS = {
    "min-frobenius 7 4 --verify": (
        "min-frobenius m=7 e=4 via=tree\n"
        "value: 13\n"
        "minimizers (7, complete):\n"
        "  ⟨7,8,9,10⟩  F=13  g=9\n"
        "  ⟨7,8,9,11⟩  F=13  g=9\n"
        "  ⟨7,8,9,12⟩  F=13  g=9\n"
        "  ⟨7,8,10,11⟩  F=13  g=9\n"
        "  ⟨7,8,10,12⟩  F=13  g=9\n"
        "  ⟨7,8,10,19⟩  F=13  g=10\n"
        "  ⟨7,9,10,15⟩  F=13  g=10\n"
        "verify: ok\n"
    ),
    "packed 6 5 --show f": (
        "packed m=6 e=5\n"
        "count: 5\n"
        "  ⟨6,7,8,9,10⟩  F=11  g=6\n"
        "  ⟨6,7,8,9,11⟩  F=10  g=6\n"
        "  ⟨6,7,8,10,11⟩  F=9  g=6\n"
        "  ⟨6,7,9,10,11⟩  F=8  g=6\n"
        "  ⟨6,8,9,10,11⟩  F=13  g=7\n"
        "frobenius values: 11,10,9,8,13\n"
    ),
    "tree 4 --levels 2": (
        "tree m=4 levels=2\n"
        "level 0 (genus 3, 1 member):\n"
        "  ⟨4,5,6,7⟩\n"
        "level 1 (genus 4, 3 members):\n"
        "  ⟨4,5,6⟩\n"
        "  ⟨4,5,7⟩\n"
        "  ⟨4,6,7,9⟩\n"
        "level 2 (genus 5, 4 members):\n"
        "  ⟨4,5,11⟩\n"
        "  ⟨4,6,7⟩\n"
        "  ⟨4,6,9,11⟩\n"
        "  ⟨4,7,9,10⟩\n"
    ),
    "class-min-frob 6,7,8,9,11": (
        "class-min-frob ⟨6,7,8,9,11⟩\n"
        "frobenius: 10\n"
        "members (3):\n"
        "  ⟨6,7,8,9,11⟩  F=10  g=6\n"
        "  ⟨6,8,9,11,13⟩  F=10  g=7\n"
        "  ⟨6,8,11,13,15⟩  F=10  g=8\n"
    ),
    "info 4,5,7": (
        "semigroup ⟨4,5,7⟩\n"
        "min_gens: 4,5,7\n"
        "multiplicity: 4\n"
        "embedding_dim: 3\n"
        "max_gen: 7\n"
        "frobenius: 6\n"
        "genus: 4\n"
        "apery mod 4: 0,5,10,7\n"
    ),
    "audit-wilf 5 3 --levels 4": (
        "audit-wilf m=5 e=3 levels=4\n"
        "checked: 9\n"
        "violations: 0\n"
    ),
}


class TestGoldenOutputs:
    def test_min_genus_table(self, capsys):
        code, out, _ = run_main(capsys, "min-genus", "5", "3")
        assert code == 0
        assert out == (
            "min-genus m=5 e=3\n"
            "value: 6\n"
            "level: 2\n"
            "minimizers (2):\n"
            "  ⟨5,6,7⟩  F=9  g=6\n"
            "  ⟨5,6,8⟩  F=9  g=6\n"
        )

    def test_min_genus_json(self, capsys):
        code, out, _ = run_main(capsys, "min-genus", "5", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "min-genus"
        assert doc["inputs"] == {"m": 5, "e": 3}
        assert doc["result"]["value"] == 6
        assert [m["min_gens"] for m in doc["result"]["minimizers"]] == [
            [5, 6, 7],
            [5, 6, 8],
        ]

    def test_min_frobenius_json(self, capsys):
        code, out, _ = run_main(capsys, "min-frobenius", "4", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["value"] == 6
        assert doc["result"]["complete"] is True
        assert [m["min_gens"] for m in doc["result"]["minimizers"]] == [[4, 5, 7]]

    def test_class_min_frob(self, capsys):
        code, out, _ = run_main(
            capsys, "class-min-frob", "6,7,8,9,11", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["frobenius"] == 10
        assert [m["min_gens"] for m in doc["result"]["members"]] == [
            [6, 7, 8, 9, 11],
            [6, 8, 9, 11, 13],
            [6, 8, 11, 13, 15],
        ]

    def test_packed_show_frobenius(self, capsys):
        code, out, _ = run_main(
            capsys, "packed", "6", "5", "--show", "f", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["count"] == 5
        assert doc["result"]["values"] == {
            "kind": "frobenius",
            "values": [11, 10, 9, 8, 13],
        }

    def test_tree_levels(self, capsys):
        code, out, _ = run_main(capsys, "tree", "4", "--levels", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        levels = doc["result"]["levels"]
        assert [len(lv["members"]) for lv in levels] == [1, 3, 4, 6]
        assert levels[2]["genus"] == 5

    def test_info(self, capsys):
        code, out, _ = run_main(capsys, "info", "4,5,7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == {
            "min_gens": [4, 5, 7],
            "multiplicity": 4,
            "embedding_dim": 3,
            "max_gen": 7,
            "frobenius": 6,
            "genus": 4,
            "apery": {"modulus": 4, "entries": [0, 5, 10, 7]},
        }

    def test_audit_wilf(self, capsys):
        code, out, _ = run_main(capsys, "audit-wilf", "5", "3", "--levels", "6")
        assert code == 0
        assert "violations: 0" in out

    @pytest.mark.parametrize("args", list(TABLE_GOLDENS))
    def test_table(self, capsys, args):
        code, out, _ = run_main(capsys, *args.split())
        assert code == 0
        assert out == TABLE_GOLDENS[args]


def count_packed_enumerations(monkeypatch) -> list:
    """Record every walk of the packed family's leaves, whoever starts it.

    `enumerate_packed` walks the whole family and the searches the
    branch-and-bound, both through `packed._leaves`; a bound is no new walk.
    """
    import semigroup_forge.packed as packed

    leaves = packed._leaves
    calls = []

    def counted(m, e, key=None):
        calls.append((m, e))
        return leaves(m, e, key)

    monkeypatch.setattr(packed, "_leaves", counted)
    return calls


class TestMinFrobeniusRoutes:
    def test_via_packed_value_only(self, capsys):
        code, out, _ = run_main(
            capsys, "min-frobenius", "7", "4", "--via", "packed", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["value"] == 13
        assert doc["result"]["complete"] is False
        # Packed representatives only: the unpacked minimizers are absent.
        gens = [m["min_gens"] for m in doc["result"]["minimizers"]]
        assert [7, 9, 10, 15] not in gens

    def test_via_packed_full_set(self, capsys):
        code, out, _ = run_main(
            capsys,
            "min-frobenius",
            "7",
            "4",
            "--via",
            "packed",
            "--full-set",
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert doc["result"]["complete"] is True
        gens = [m["min_gens"] for m in doc["result"]["minimizers"]]
        assert [7, 9, 10, 15] in gens and [7, 8, 10, 19] in gens

    def test_via_packed_enumerates_the_family_once(self, capsys, monkeypatch):
        calls = count_packed_enumerations(monkeypatch)
        code, out, _ = run_main(capsys, "min-frobenius", "7", "4", "--via", "packed")
        assert code == 0
        assert "value: 13" in out
        assert calls == [(7, 4)]

    @pytest.mark.parametrize("full_set", [[], ["--full-set"]])
    def test_via_packed_verify_does_not_recheck_itself(self, capsys, monkeypatch, full_set):
        calls = count_packed_enumerations(monkeypatch)
        code, out, _ = run_main(
            capsys, "min-frobenius", "7", "4", "--via", "packed", "--verify",
            *full_set, "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["meta"]["verify"] == "ok"
        assert calls == [(7, 4)]

    def test_tree_and_packed_full_set_agree(self, capsys):
        _, out_tree, _ = run_main(capsys, "min-frobenius", "6", "4", "--format", "json")
        _, out_packed, _ = run_main(
            capsys, "min-frobenius", "6", "4", "--via", "packed", "--full-set",
            "--format", "json",
        )
        tree_doc, packed_doc = json.loads(out_tree), json.loads(out_packed)
        assert tree_doc["result"]["value"] == packed_doc["result"]["value"]
        assert tree_doc["result"]["minimizers"] == packed_doc["result"]["minimizers"]


class TestExitCodes:
    def test_invalid_m_less_than_e(self, capsys):
        code, out, err = run_main(capsys, "min-genus", "3", "5")
        assert code == 2
        assert out == ""
        assert "invalid arguments" in err

    def test_empty_family(self, capsys):
        code, _, err = run_main(capsys, "min-genus", "5", "1")
        assert code == 3
        assert "empty family" in err

    def test_naturals_family(self, capsys):
        code, out, _ = run_main(capsys, "min-genus", "1", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["value"] == 0
        assert doc["result"]["minimizers"] == [
            {"min_gens": [1], "frobenius": -1, "genus": 0}
        ]
        code, out, _ = run_main(capsys, "min-frobenius", "1", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["value"] == -1

    @pytest.mark.parametrize("verify", [(), ("--verify",)], ids=["plain", "verify"])
    @pytest.mark.parametrize(
        "command",
        [
            ("min-genus",),
            ("min-frobenius", "--via", "tree"),
            ("min-frobenius", "--via", "packed"),
            ("min-frobenius", "--via", "packed", "--full-set"),
        ],
        ids=" ".join,
    )
    def test_naturals_on_every_minimum_route(self, capsys, command, verify):
        code, out, _ = run_main(
            capsys, command[0], "1", "1", *command[1:], *verify, "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        result = doc["result"]
        assert result["value"] == (0 if command[0] == "min-genus" else -1)
        assert result["minimizers"] == [{"min_gens": [1], "frobenius": -1, "genus": 0}]
        assert result.get("complete", True) is True
        assert doc["meta"]["nodes"] is None
        assert doc["meta"]["verify"] == ("ok" if verify else None)

    def test_unpacked_class_input(self, capsys):
        code, _, err = run_main(capsys, "class-min-frob", "5,11,17")
        assert code == 2
        assert "not packed" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["info", "3,x"], "invalid generator token: 'x'"),
            (["info", ","], "expected a comma-separated generator list"),
            (["tree", "0", "--levels", "1"], "multiplicity must be positive"),
            (["tree", "5", "--levels", "-1"], "level count must be non-negative"),
            (
                ["audit-wilf", "5", "0", "--levels", "2"],
                "multiplicity and dimension must be positive",
            ),
            (["info", "-3,5"], "error: generator -3 is not positive"),
        ],
    )
    def test_refusals(self, capsys, args, message):
        code, out, err = run_main(capsys, *args)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    def test_multiplicity_guard(self, capsys):
        code, _, err = run_main(capsys, "min-genus", "5001", "3")
        assert code == 2
        assert "guard" in err

    def test_deepest_packed_family(self, capsys):
        # One residue per step of the enumeration, 1099 steps deep.
        code, out, err = run_main(capsys, "packed", "1100", "1100")
        assert code == 0
        assert out.startswith("packed m=1100 e=1100\n")
        assert err.count("\n") == 1  # the elapsed line only

    def test_level_guard(self, capsys):
        code, _, err = run_main(capsys, "tree", "4", "--levels", "13")
        assert code == 2
        assert "guard" in err

    def test_parse_error_reports_token(self):
        proc = run_proc("info", "4,x5")
        assert proc.returncode == 2
        assert "'x5'" in proc.stderr

    def test_gcd_failure(self, capsys):
        code, _, err = run_main(capsys, "info", "2,4")
        assert code == 2
        assert "gcd" in err

    def test_generator_past_kernel_range(self):
        proc = run_proc("info", "5,2305843009213693953")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "kernel range" in proc.stderr

    def test_reader_closing_stdout_early(self):
        # As in `| head -1`: the reader takes one line of a large document
        # and closes the pipe while the CLI is still writing.
        proc = subprocess.Popen(
            [sys.executable, "-m", "semigroup_forge.cli", "packed", "18", "9",
             "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert "Traceback" not in err
        assert "elapsed" in err

    def test_reader_closing_merged_stream_early(self):
        # As in `2>&1 | head -1`: the elapsed line goes to the pipe the
        # reader has closed, and the exit code is still the full run's.
        proc = subprocess.Popen(
            [sys.executable, "-m", "semigroup_forge.cli", "packed", "14", "7"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        assert proc.stdout.readline() == "packed m=14 e=7\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0

    def test_wilf_alarm_survives_a_closed_stdout(self):
        # stdout is closed before the report is written; the alarm still
        # reaches a separate stderr, and the exit code is 4.
        script = (
            "import sys, semigroup_forge.cli as cli\n"
            "from semigroup_forge.search import WilfViolation\n"
            "cli.wilf_audit = lambda sgs: (WilfViolation(min(sgs), 99, 1),)\n"
            "sys.exit(cli.main(['audit-wilf', '5', '3', '--levels', '4']))\n"
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert "WILF INEQUALITY VIOLATED: ⟨5,6,7⟩ lhs=99 rhs=1" in proc.stderr

    @pytest.mark.parametrize("command", ["info", "class-min-frob"])
    def test_multiplicity_guard_runs_before_construction(
        self, capsys, monkeypatch, command
    ):
        # A 3e8-entry residue table must never be allocated.
        import semigroup_forge.core as core

        def refuse(*args):
            raise AssertionError("residue table built before the guard")

        monkeypatch.setattr(core, "residue_table", refuse)
        code, out, err = run_main(capsys, command, "300000000,300000001")
        assert code == 2
        assert out == ""
        assert "guard" in err


class TestVerify:
    def test_verify_ok_statuses(self, capsys):
        for args in (
            ("min-genus", "5", "3"),
            ("min-frobenius", "6", "5"),
            ("packed", "6", "3"),
            ("tree", "4", "--levels", "2"),
            ("class-min-frob", "6,7,8,9,11"),
            ("info", "6,9,20"),
            ("audit-wilf", "4", "3", "--levels", "4"),
        ):
            code, out, _ = run_main(capsys, *args, "--format", "json", "--verify")
            assert code == 0, args
            assert json.loads(out)["meta"]["verify"] == "ok", args

    def test_verify_does_not_change_result(self, capsys):
        _, plain, _ = run_main(capsys, "min-genus", "6", "3", "--format", "json")
        _, verified, _ = run_main(
            capsys, "min-genus", "6", "3", "--format", "json", "--verify"
        )
        a, b = json.loads(plain), json.loads(verified)
        assert a["result"] == b["result"]
        assert a["meta"]["verify"] is None
        assert b["meta"]["verify"] == "ok"

    def test_sieve_disagreement_exits_4(self, capsys, monkeypatch):
        import semigroup_forge.cli as cli
        from semigroup_forge.oracle import sieve

        def wrong(gens):
            r = sieve(gens)
            return SieveResult(r.bound, r.reachable, r.frobenius + 1, r.genus)

        monkeypatch.setattr(cli, "sieve", wrong)
        code, out, err = run_main(capsys, "min-genus", "5", "3", "--verify")
        assert code == 4
        assert out == ""
        assert "failed: oracle disagrees" in err

    def test_packed_route_disagreement_exits_4(self, capsys, monkeypatch):
        import semigroup_forge.cli as cli
        from semigroup_forge.search import min_genus_packed

        def wrong(m, e):
            outcome = min_genus_packed(m, e)
            return SearchOutcome(outcome.value + 1, outcome.minimizers)

        monkeypatch.setattr(cli, "min_genus_packed", wrong)
        code, out, err = run_main(capsys, "min-genus", "5", "3", "--verify")
        assert code == 4
        assert out == ""
        assert "failed: packed route disagrees (value 7)" in err

    def test_tree_frobenius_keeps_its_packed_cross_check(self, capsys, monkeypatch):
        import semigroup_forge.cli as cli
        from semigroup_forge.search import min_frobenius_full_set

        def wrong(m, e):
            return SearchOutcome(14, min_frobenius_full_set(m, e).minimizers)

        monkeypatch.setattr(cli, "min_frobenius_full_set", wrong)
        code, out, err = run_main(capsys, "min-frobenius", "7", "4", "--verify")
        assert code == 4
        assert out == ""
        assert "failed: packed route disagrees (value 14)" in err

    def test_tree_frobenius_cross_check_compares_members(self, capsys, monkeypatch):
        # Right value, one minimizer short: the whole answer must agree.
        import semigroup_forge.cli as cli
        from semigroup_forge.search import min_frobenius_full_set

        def short(m, e):
            outcome = min_frobenius_full_set(m, e)
            return SearchOutcome(outcome.value, outcome.minimizers[1:])

        monkeypatch.setattr(cli, "min_frobenius_full_set", short)
        code, out, err = run_main(capsys, "min-frobenius", "7", "4", "--verify")
        assert code == 4
        assert out == ""
        assert "failed: packed route disagrees (value 13)" in err

    def test_cross_check_runs_past_the_member_cap(self, capsys, monkeypatch):
        # (14, 11) has 208 genus minimizers: the sieve takes 200 and says
        # partial, and the packed route still covers all of them.
        import semigroup_forge.cli as cli
        from semigroup_forge.search import min_genus_packed

        def short(m, e):
            outcome = min_genus_packed(m, e)
            return SearchOutcome(outcome.value, outcome.minimizers[:-1])

        monkeypatch.setattr(cli, "min_genus_packed", short)
        code, out, err = run_main(capsys, "min-genus", "14", "11", "--verify")
        assert code == 4
        assert out == ""
        assert "failed: packed route disagrees (value 16)" in err

    def test_cross_check_has_no_family_size_cap(self, capsys, monkeypatch):
        # C(17, 9) = 24310 candidate subsets, past any guessed route cap:
        # the packed route still runs, and agrees.
        import semigroup_forge.cli as cli
        from semigroup_forge.search import min_frobenius_full_set

        calls = []

        def counted(m, e):
            calls.append((m, e))
            return min_frobenius_full_set(m, e)

        monkeypatch.setattr(cli, "min_frobenius_full_set", counted)
        code, out, _ = run_main(
            capsys, "min-frobenius", "18", "10", "--verify", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["meta"]["verify"] == "ok"
        assert calls == [(18, 10)]

    @pytest.mark.parametrize(
        "args, status",
        [
            (("packed", "11", "5"), "partial: sieved 200 of 210 members"),
            # The id names the uncertified member; the status names its place.
            pytest.param(
                ("info", "5000,5001"),
                "partial: sieve uncertified for member 1 of 1",
                id="args1-partial: sieve uncertified for ⟨5000,5001⟩",
            ),
            # 100 generators: the status names the member by its place, not
            # by its generators.
            (
                ("info", ",".join(map(str, range(4901, 5001)))),
                "partial: sieve uncertified for member 1 of 1",
            ),
        ],
    )
    def test_verify_partial_statuses(self, capsys, args, status):
        code, out, _ = run_main(capsys, *args, "--format", "json", "--verify")
        assert code == 0
        assert json.loads(out)["meta"]["verify"] == status

    def test_wilf_violation_exits_4(self, capsys, monkeypatch):
        import semigroup_forge.cli as cli
        from semigroup_forge.search import WilfViolation

        def alarm(semigroups):
            S = sorted(semigroups)[0]
            return (WilfViolation(semigroup=S, lhs=99, rhs=1),)

        monkeypatch.setattr(cli, "wilf_audit", alarm)
        code, out, err = run_main(capsys, "audit-wilf", "5", "3", "--levels", "4")
        assert code == 4
        assert out == (
            "audit-wilf m=5 e=3 levels=4\n"
            "checked: 9\n"
            "violations: 1\n"
            "  ⟨5,6,7⟩  lhs=99  rhs=1\n"
        )
        assert "WILF INEQUALITY VIOLATED: ⟨5,6,7⟩ lhs=99 rhs=1" in err

    def test_verify_catches_corrupted_invariants(self):
        # A record whose table is wrong must be flagged: the table of
        # <4,5,7> is (0, 5, 10, 7), and moving residue 3 to 11 makes the
        # derived Frobenius number 7 where the sieve finds 6.
        broken = NumericalSemigroup((4, 5, 7), (0, 5, 10, 11))
        with pytest.raises(_Exit) as raised:
            _verify(None, _Report({}, [], [broken]))
        assert raised.value.code == 4
        assert str(raised.value).startswith("failed: oracle disagrees")


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self):
        for args in (
            ("min-genus", "5", "3", "--format", "json"),
            ("min-frobenius", "7", "4",),
            ("tree", "5", "--levels", "4", "--format", "json"),
            ("packed", "6", "3", "--show", "g"),
        ):
            first = run_proc(*args)
            second = run_proc(*args)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout

    def test_backend_does_not_change_result(self):
        base = run_proc("min-genus", "6", "3", "--format", "json")
        pure = run_proc("min-genus", "6", "3", "--format", "json")
        a, b = json.loads(base.stdout), json.loads(pure.stdout)
        assert a["result"] == b["result"]
        assert b["meta"]["backend"] == "pure"

    def test_timing_goes_to_stderr_only(self):
        proc = run_proc("min-genus", "5", "3")
        assert "elapsed" not in proc.stdout
        assert "elapsed" in proc.stderr


class TestImport:
    def test_cli_import_loads_no_dataclasses(self):
        # `dataclasses` loads `inspect`, `ast` and `dis`, which cost every CLI
        # run more than the package's own modules; a fresh process shows
        # what importing the CLI pulls in.
        probe = (
            "import sys, semigroup_forge.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestRoundTrip:
    def test_json_semigroups_recanonicalize(self, capsys):
        for args in (
            ("min-genus", "6", "3"),
            ("min-frobenius", "7", "4"),
            ("class-min-frob", "6,7,8,9,11"),
        ):
            _, out, _ = run_main(capsys, *args, "--format", "json")
            doc = json.loads(out)
            items = doc["result"].get("minimizers") or doc["result"]["members"]
            for item in items:
                S = make_semigroup(item["min_gens"])
                assert list(S.min_gens) == item["min_gens"]
                assert S.frobenius == item["frobenius"]
                assert S.genus == item["genus"]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


# Strings json must escape: quotes, backslashes, control characters,
# the generator brackets and characters outside the BMP.
json_text = st.text(
    st.characters() | st.sampled_from('"\\\n\t\x00\x1f\x7f⟨⟩\U0001d54a')
)
json_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | json_text
    | st.lists(st.integers(), min_size=1),
    lambda kids: st.lists(kids)
    | st.lists(kids).map(tuple)
    | st.dictionaries(json_text, kids),
    max_leaves=20,
)

# Every subcommand with and without --verify, both --show lists, the
# naturals (F = -1) and a representatives-only answer (complete: false).
RENDERED_COMMANDS = [
    *(
        args + verify
        for args in (
            ("min-genus", "6", "3"),
            ("min-frobenius", "7", "4"),
            ("packed", "6", "3"),
            ("tree", "4", "--levels", "3"),
            ("class-min-frob", "6,7,8,9,11"),
            ("info", "4,5,7"),
            ("audit-wilf", "5", "3", "--levels", "4"),
        )
        for verify in ((), ("--verify",))
    ),
    ("packed", "6", "3", "--show", "g"),
    ("packed", "6", "3", "--show", "f"),
    ("min-genus", "1", "1"),
    ("tree", "1", "--levels", "0"),
    ("min-frobenius", "7", "4", "--via", "packed"),
]


class TestJsonRenderer:
    @settings(max_examples=150, deadline=None)
    @given(json_docs)
    def test_matches_json_dumps(self, doc):
        assert _json(doc) == canonical(doc)

    def test_semigroup_renders_as_its_dict(self):
        for gens in ([1], [4, 5, 7], [6, 8, 11, 13, 15]):
            S = make_semigroup(gens)
            old = {"min_gens": list(S.min_gens), "frobenius": S.frobenius, "genus": S.genus}
            assert _json(S) == canonical(old)
            assert _json({"members": [S, S]}) == canonical({"members": [old, old]})

    @pytest.mark.parametrize("args", RENDERED_COMMANDS, ids=" ".join)
    def test_stdout_is_canonical_json(self, capsys, args):
        code, out, _ = run_main(capsys, *args, "--format", "json")
        assert code == 0
        assert out == canonical(json.loads(out)) + "\n"
        if "--via" in args:
            assert json.loads(out)["result"]["complete"] is False


class TestRenderOnce:
    """Each answer is rendered only in the format asked for."""

    def test_json_builds_no_table(self, capsys, monkeypatch):
        class JsonOnly(_Report):
            def __new__(cls, result, lines, *rest, **kw):
                assert callable(lines)
                return super().__new__(cls, result, cls.no_table, *rest, **kw)

            @staticmethod
            def no_table():
                raise AssertionError("table lines built under --format json")

        def no_repr(S):
            raise AssertionError("semigroup named under --format json")

        monkeypatch.setattr(cli, "_Report", JsonOnly)
        monkeypatch.setattr(NumericalSemigroup, "__repr__", no_repr)
        for args in RENDERED_COMMANDS:
            code, out, _ = run_main(capsys, *args, "--format", "json")
            assert code == 0, args
            json.loads(out)

    def test_report_is_a_plain_record(self):
        assert _Report._fields == ("result", "lines", "members", "nodes", "route", "alarm")
        assert _Report._field_defaults == {"nodes": None, "route": None, "alarm": None}
        report = _Report({}, list, [])
        with pytest.raises(AttributeError):
            report.nodes = 1
        assert not hasattr(report, "__dict__")

    def test_table_renders_no_json(self, capsys, monkeypatch):
        def no_json(x, pad=""):
            raise AssertionError("JSON rendered under --format table")

        monkeypatch.setattr(cli, "_json", no_json)
        for args in RENDERED_COMMANDS:
            code, out, _ = run_main(capsys, *args)
            assert code == 0, args
            assert not out.startswith("{"), args


# (option strings, dest, type name, default, choices, required, metavar, help)
# of each parser action, in declaration order.
HELP = (["-h", "--help"], "help", None, "==SUPPRESS==", None, False, None,
        "show this help message and exit")
FORMAT = (["--format"], "format", None, "table", ["table", "json"], False, None,
          "output format")
VERIFY = (["--verify"], "verify", None, False, None, False, None,
          "cross-check the result against the brute-force oracle")
M = ([], "m", "int", None, None, True, None, None)
E = ([], "e", "int", None, None, True, None, None)
LEVELS = (["--levels"], "levels", "int", None, None, True, "K", None)
GENERATORS = ([], "generators", "_gen_list", None, None, True, "G1,G2,...", None)
PARSER_STRUCTURE = {
    None: [
        HELP,
        ([], "command", None, None,
         ["min-genus", "min-frobenius", "packed", "tree", "class-min-frob", "info",
          "audit-wilf"],
         True, None, None),
    ],
    "min-genus": [HELP, FORMAT, VERIFY, M, E],
    "min-frobenius": [
        HELP, FORMAT, VERIFY, M, E,
        (["--via"], "via", None, "tree", ["tree", "packed"], False, None,
         "pruned tree search, or minimum over the packed family"),
        (["--full-set"], "full_set", None, False, None, False, None,
         "with --via packed: expand the minimizing classes to the full set"),
    ],
    "packed": [
        HELP, FORMAT, VERIFY, M, E,
        (["--show"], "show", None, None, ["g", "f"], False, None,
         "append the per-member genus (g) or Frobenius (f) value list"),
    ],
    "tree": [HELP, FORMAT, VERIFY, M, LEVELS],
    "class-min-frob": [HELP, FORMAT, VERIFY, GENERATORS],
    "info": [HELP, FORMAT, VERIFY, GENERATORS],
    "audit-wilf": [HELP, FORMAT, VERIFY, M, E, LEVELS],
}


def action_fields(parser) -> list[tuple]:
    return [
        (
            a.option_strings,
            a.dest,
            getattr(a.type, "__name__", None),
            a.default,
            None if a.choices is None else list(a.choices),
            a.required,
            a.metavar,
            a.help,
        )
        for a in parser._actions
    ]


class TestParser:
    # The structure, not the formatted help: help layout differs between
    # Python versions, the actions do not.
    def test_structure(self):
        top = _build_parser()
        parsers = {None: top, **top._actions[-1].choices}
        assert list(parsers) == list(PARSER_STRUCTURE)
        for name, parser in parsers.items():
            assert action_fields(parser) == PARSER_STRUCTURE[name], name
        for name in PARSER_STRUCTURE.keys() - {None}:
            choices = _build_parser(name)._actions[-1].choices
            assert list(choices) == [name]
            assert action_fields(choices[name]) == PARSER_STRUCTURE[name], name

    def test_one_invocation_builds_one_subparser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["info", "4,5,7"]) == 0
        assert len(built) == 2
        built.clear()
        assert main(["--help"]) == 0
        assert len(built) == 8  # the top parser and all seven subparsers
        # A leftover argument is refused by the one-command parser alone; a
        # missing or unknown command, by the full parser.
        for argv, count in (
            (["info", "4,5,7", "--bogus"], 2),
            (["min-genus", "5", "3", "4"], 2),
            ([], 8),
            (["bogus"], 8),
        ):
            built.clear()
            assert main(argv) == 2, argv
            assert len(built) == count, argv

    def test_one_command_usage_names_every_command(self):
        usage = _build_parser().format_usage()
        for name in PARSER_STRUCTURE.keys() - {None}:
            assert _build_parser(name).format_usage() == usage, name

    # The one-command parsers are checked against the full parser below; these
    # refusals only the full parser makes, so they are pinned as text.
    def test_full_parser_names_the_command_argument(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "semigroup-forge: error: the following arguments are required: command"
        )
        assert main(["bogus"]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "semigroup-forge: error: argument command: invalid choice: "
        )


# Argument lists that parse, fail to parse or ask for help, per command and
# before any command.  `info 4,5,7 --bogus` and `min-genus 5 3 4` parse on
# the one-command parser with an argument left over.
VALID_ARGS = {
    "min-genus": ["5", "3"],
    "min-frobenius": ["7", "4"],
    "packed": ["6", "3"],
    "tree": ["4", "--levels", "2"],
    "class-min-frob": ["6,7,8,9,11"],
    "info": ["4,5,7"],
    "audit-wilf": ["5", "3", "--levels", "2"],
}
PARITY_ARGV = [
    argv
    for name, args in VALID_ARGS.items()
    for argv in (
        [name, *args],
        [name, *args, "--format", "json", "--verify"],
        [name, *args, "--form", "json"],
        [name, "-h"],
        [name, "--help"],
        [name, *args, "-h"],
        [name],
        [name, *args[:-1]],
        [name, *args, "4"],
        [name, *args, "--bogus"],
        [name, "x" if args[0].isdigit() else "3,x", *args[1:]],
        [name, *args, "--format", "yaml"],
        [name, *args, "--format"],
        [name, "--", *args],
        [name, "-3,5", *args[1:]],
        ["--format", "json", name, *args],
    )
] + [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["bogus", "4,5,7"],
    ["Info", "4,5,7"],
    ["min", "5", "3"],
    ["--bogus", "info", "4,5,7"],
    ["--"],
    ["--", "info", "4,5,7"],
    ["-3,5"],
    ["min-frobenius", "7", "4", "--via", "packed", "--full-set"],
    ["min-frobenius", "7", "4", "--via", "bogus"],
    ["packed", "6", "3", "--show", "g"],
    ["packed", "6", "3", "--show", "x"],
    ["tree", "4", "--levels", "x"],
    ["audit-wilf", "5", "3"],
]


def without_elapsed(text: str) -> str:
    return "".join(s for s in text.splitlines(True) if not s.startswith("elapsed:"))


@pytest.mark.parametrize(
    "argv", PARITY_ARGV, ids=lambda argv: " ".join(argv) or "(none)"
)
def test_one_command_parser_matches_the_full_parser(argv, monkeypatch, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    full = _build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    want_code = main(list(argv))
    want_out, want_err = capsys.readouterr()
    assert (code, out, without_elapsed(err)) == (
        want_code, want_out, without_elapsed(want_err)
    )
