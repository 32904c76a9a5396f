"""CLI contract tests: exit codes, deterministic text, JSON shapes."""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cdskit
from cdskit import oracle, scheme
from cdskit.cli import run
from cdskit.instance import format_instance, parse_instance
from cdskit.scheme import format_scheme, parse_scheme, verify_linear
from cdskit.synthesis import (
    builtin_example1_instance,
    builtin_fig2_instance,
    builtin_fig2_scheme,
    reduce_randomness,
    synthesize_half_rate,
)
from gen import layered_feasible_instance


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.cds"
    path.write_text(format_instance(builtin_fig2_instance()))
    return str(path)


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.cds"
    path.write_text(format_instance(builtin_example1_instance()))
    return str(path)


@pytest.fixture
def fig2_scheme_file(tmp_path):
    path = tmp_path / "fig2.scheme"
    path.write_text(format_scheme(builtin_fig2_scheme()))
    return str(path)


@pytest.fixture
def block_rank_calls(monkeypatch):
    """The arguments of every ``scheme.block_ranks`` call, in order."""
    calls = []
    original = scheme.block_ranks

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(scheme, "block_ranks", counted)
    return calls


class TestCheck:
    def test_fig2_infeasible_with_witness(self, fig2_file, capsys):
        code = run(["check", fig2_file])
        out = capsys.readouterr().out
        assert code == 1
        assert out == (
            "instance: 6 vertices, 9 edges (5 qualified, 4 unqualified)\n"
            "INFEASIBLE (capacity < 1/2)\n"
            "  internal qualified edge: {B2, A2}\n"
            "  unqualified path: (B2, A1, B3, A2)\n"
        )

    def test_example1_feasible(self, example1_file, capsys):
        code = run(["check", example1_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "FEASIBLE (capacity = 1/2)" in out

    def test_json(self, fig2_file, capsys):
        code = run(["check", "--json", fig2_file])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["command"] == "check"
        assert payload["feasible"] is False
        assert payload["witness"]["edge"] == ["B2", "A2"]
        assert payload["witness"]["path"] == ["B2", "A1", "B3", "A2"]

    def test_degenerate_vertices_reported(self, tmp_path, capsys):
        path = tmp_path / "deg.cds"
        path.write_text("cds-instance v1\nq A1 B1\nq B1 A2\nu A2 B2\n")
        code = run(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "eliminated degenerate vertices (signal = secret): A1, B1" in out

    def test_empty_core_claims_capacity_one(self, tmp_path, capsys):
        # Every vertex is eliminated: no unqualified edge constrains the
        # signals, and `bound` certifies 1, not 1/2.
        path = tmp_path / "q.cds"
        path.write_text("cds-instance v1\nq A1 B1\n")
        assert run(["check", str(path)]) == 0
        assert capsys.readouterr().out == (
            "instance: 2 vertices, 1 edges (1 qualified, 0 unqualified)\n"
            "eliminated degenerate vertices (signal = secret): A1, B1\n"
            "FEASIBLE (no unqualified edge: capacity = 1)\n"
        )
        assert run(["check", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "command": "check",
            "feasible": True,
            "vertices": 2,
            "qualified_edges": 1,
            "unqualified_edges": 0,
            "eliminated": ["A1", "B1"],
            "witness": None,
        }
        assert run(["bound", str(path)]) == 0
        assert "shannon bound: 1 (max H(S) = 2)" in capsys.readouterr().out

    def test_byte_identical_reruns(self, fig2_file, capsys):
        run(["check", fig2_file])
        first = capsys.readouterr().out
        run(["check", fig2_file])
        second = capsys.readouterr().out
        assert first == second


class TestSynth:
    def test_writes_verified_scheme(self, example1_file, tmp_path, capsys):
        target = tmp_path / "out.scheme"
        code = run(["synth", example1_file, "-o", str(target), "--reduce-randomness"])
        out = capsys.readouterr().out
        assert code == 0
        assert "R = 1/2, R_Z = 1/2" in out
        assert "verification: PASS" in out
        sch = parse_scheme(target.read_text())
        assert sch.p == 5 and sch.noise_len == 2
        assert verify_linear(builtin_example1_instance(), sch).passed

    def test_stdout_is_a_scheme_file(self, example1_file, capsys):
        code = run(["synth", example1_file])
        captured = capsys.readouterr()
        assert code == 0
        sch = parse_scheme(captured.out)
        assert verify_linear(builtin_example1_instance(), sch).passed
        assert "scheme: p=5" in captured.err

    def test_infeasible_instance(self, fig2_file, capsys):
        code = run(["synth", fig2_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "INFEASIBLE" in out and "{B2, A2}" in out

    def test_infeasible_instance_lists_eliminated_vertices(self, fig2_file, capsys):
        path = Path(fig2_file).with_name("fig2b9.cds")
        path.write_text(Path(fig2_file).read_text() + "q A1 B9\n")
        assert run(["check", str(path)]) == 1
        check_out = capsys.readouterr().out
        assert run(["synth", str(path)]) == 1
        out = capsys.readouterr().out
        assert out == check_out
        assert "eliminated degenerate vertices (signal = secret): B9\n" in out
        assert run(["synth", str(path), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["eliminated"] == ["B9"]

    def test_json_payload(self, example1_file, capsys):
        code = run(["synth", "--json", example1_file])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["p"] == 5
        assert payload["rate"] == {"num": 1, "den": 2}
        assert parse_scheme(payload["scheme"]).noise_len == 2

    def test_no_qualified_edge_has_no_rate(self, tmp_path, capsys):
        path = tmp_path / "u.cds"
        path.write_text("cds-instance v1\nu A1 B1\n")
        assert run(["synth", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] and payload["rate"] is None
        assert run(["synth", str(path)]) == 0
        err = capsys.readouterr().err
        assert "scheme: p=2, L=1, L_Z=2\n" in err and "verification: PASS" in err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_output_into_missing_directory(self, example1_file, tmp_path, capsys, flags):
        target = tmp_path / "nodir" / "x.scheme"
        assert run(["synth", example1_file, "-o", str(target), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cds: error: cannot write scheme file {target}: ")
        assert captured.err.count("\n") == 1

    def test_no_edge_scheme_verifies_and_audits(self, tmp_path, capsys):
        # An instance with no edge gets a scheme with no signal, whose
        # longest signal has length 0.
        inst, target = tmp_path / "none.cds", tmp_path / "none.scheme"
        inst.write_text("cds-instance v1\n")
        assert run(["synth", str(inst), "-o", str(target)]) == 0
        capsys.readouterr()
        header = (
            "instance: 0 vertices, 0 edges (0 qualified, 0 unqualified)\n"
            "scheme: p=2, L=1, L_Z=0, max signal length 0\n"
        )
        assert run(["verify", str(inst), str(target)]) == 0
        assert capsys.readouterr().out == header + "overall: PASS\n"
        assert run(["audit", str(inst), str(target)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(header + "verification: PASS\nalignment:\n")
        assert out.endswith("overall: PASS\n")
        assert run(["audit", "--json", str(inst), str(target)]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_degenerate_vertices_get_plain_secret(self, tmp_path, capsys):
        path = tmp_path / "deg.cds"
        path.write_text("cds-instance v1\nq A1 B1\nq B1 A2\nu A2 B2\n")
        code = run(["synth", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        sch = parse_scheme(captured.out)
        # A1 and B1 were eliminated: their signals are the bare secret.
        for v in ("A1", "B1"):
            f, h = sch.matrices[v]
            assert f.to_lists() == [[1]]
            assert not h.data.any()


class TestVerify:
    def test_fig2_pair_passes(self, fig2_file, fig2_scheme_file, capsys):
        code = run(["verify", fig2_file, fig2_scheme_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out
        assert "R = 2/5, R_Z = 4/9, bounds [2/5, 1/2]" in out

    def test_oracle_crosscheck(self, fig2_file, fig2_scheme_file, capsys):
        code = run(["verify", fig2_file, fig2_scheme_file, "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all 9 edge verdicts confirmed over 8192 realizations" in out

    def test_oracle_checks_each_block_class_once(self, tmp_path, capsys, monkeypatch):
        # Acceptance criterion 10's instance and its reduced scheme: the
        # 10^4 edges join 72 signal blocks in 252 (kind, block, block)
        # classes, and the vertices of a block share one oracle array.
        inst = layered_feasible_instance(random.Random(100_010))
        reduced = reduce_randomness(inst, synthesize_half_rate(inst))
        inst_file, sch_file = tmp_path / "layered.cds", tmp_path / "layered.scheme"
        inst_file.write_text(format_instance(inst))
        sch_file.write_text(format_scheme(reduced))
        calls = []
        for name in ("check_correct", "check_secure"):
            def counted(table, v, u, check=getattr(oracle, name)):
                calls.append((check.__name__, v, u))
                return check(table, v, u)

            monkeypatch.setattr(oracle, name, counted)
        assert run(["verify", str(inst_file), str(sch_file), "--oracle"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("oracle: all 10000 edge verdicts confirmed over 1331 realizations\n")
        block = reduced.block_of
        classes = {(kind, block[v], block[u]) for kind, (v, u) in inst.edges}
        assert len(calls) == len(classes) == 252
        assert {name for name, _, _ in calls} == {"check_correct", "check_secure"}

    def test_broken_scheme_fails(self, fig2_file, tmp_path, capsys):
        sch = builtin_fig2_scheme()
        text = format_scheme(sch).replace("F: 0 0 1 0 | H:", "F: 1 0 1 0 | H:", 1)
        bad = tmp_path / "bad.scheme"
        bad.write_text(text)
        code = run(["verify", fig2_file, str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "overall: FAIL" in out

    def test_rate_reads_only_the_instance_signals(self, tmp_path, capsys):
        # C9 is not a vertex of the instance: verification ignores it, and
        # so does the rate, although it is the scheme's longest signal.
        inst, sch = tmp_path / "i.cds", tmp_path / "s.scheme"
        inst.write_text("cds-instance v1\nq A1 B1\nu A1 B2\nu A2 B1\nq A2 B2\n")
        signals = {"A1": "1 | H: 1 0", "A2": "1 | H: 0 1", "B1": "2 | H: 1 0", "B2": "2 | H: 0 1"}
        body = "".join(f"signal {v} 1\nF: {row}\n" for v, row in signals.items())
        body += "signal C9 3\nF: 1 | H: 0 0\nF: 0 | H: 1 0\nF: 0 | H: 0 1\n"
        sch.write_text("cds-scheme v1\nfield 3\nsecret 1\nnoise 2\n" + body)
        assert run(["verify", str(inst), str(sch)]) == 0
        out = capsys.readouterr().out
        assert "max signal length 3\n" in out
        assert out.endswith("overall: PASS\nR = 1/2, R_Z = 1/2, bounds [1/2, 1/2]\n")

    @pytest.mark.parametrize("rows", [0, 1])
    def test_no_qualified_edge_has_no_rate(self, tmp_path, capsys, rows):
        # Empty signals (rate L/0) and zero signals shorter than the secret
        # (rate 3/2) both verify when nothing must decode.
        inst, sch = tmp_path / "u.cds", tmp_path / "u.scheme"
        inst.write_text("cds-instance v1\nu A1 B1\n")
        body = "".join(f"signal {v} {rows}\n" + "F: 0 0 0 | H:\n" * rows for v in ("A1", "B1"))
        sch.write_text("cds-scheme v1\nfield 2\nsecret 3\nnoise 0\n" + body)
        assert run(["verify", str(inst), str(sch), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] and payload["rate"] is None

    def test_budget_env_guard(self, fig2_file, fig2_scheme_file, capsys, monkeypatch):
        monkeypatch.setenv("CDS_ENUM_BUDGET", "64")
        code = run(["verify", fig2_file, fig2_scheme_file, "--oracle"])
        captured = capsys.readouterr()
        assert code == 2
        assert "exceeds the enumeration budget" in captured.err

    @pytest.mark.parametrize("name", ["S", "Z"])
    def test_oracle_rejects_a_signal_named_like_a_variable(self, tmp_path, capsys, name):
        # The ranks verify the instance's edges and ignore the extra
        # signal; the oracle cannot tell it from the secret or the noise.
        inst, sch = tmp_path / "pad.cds", tmp_path / "pad.scheme"
        inst.write_text("cds-instance v1\nq A1 B1\n")
        rows = {"A1": "1 | H: 1", "B1": "0 | H: 1", name: "1 | H: 1"}
        body = "".join(f"signal {v} 1\nF: {row}\n" for v, row in rows.items())
        sch.write_text("cds-scheme v1\nfield 2\nsecret 1\nnoise 1\n" + body)
        assert run(["verify", str(inst), str(sch)]) == 0
        capsys.readouterr()
        assert run(["verify", str(inst), str(sch), "--oracle"]) == 2
        assert f"signal name '{name}' is reserved" in capsys.readouterr().err

    def test_bad_budget_value(self, fig2_file, fig2_scheme_file, capsys, monkeypatch):
        monkeypatch.setenv("CDS_ENUM_BUDGET", "lots")
        code = run(["verify", fig2_file, fig2_scheme_file, "--oracle"])
        assert code == 2

    def test_json(self, fig2_file, fig2_scheme_file, capsys):
        code = run(["verify", "--json", fig2_file, fig2_scheme_file, "--oracle"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pass"] is True
        assert payload["rate"] == {"num": 2, "den": 5}
        assert payload["oracle"]["mismatches"] == []
        assert len(payload["edges"]) == 9


class TestBound:
    def test_three_vertex_half(self, tmp_path, capsys):
        path = tmp_path / "small.cds"
        path.write_text("cds-instance v1\nq A1 B1\nu A1 B2\n")
        code = run(["bound", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "shannon bound: 1/2 (max H(S) = 1)" in out

    def test_fig2_bound_with_certificate(self, fig2_file, capsys):
        code = run(["bound", fig2_file, "--certificate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shannon bound: 5/12 (max H(S) = 5/6)" in out
        assert "dual certificate: H(S) <= 5/6 (verified exactly)" in out

    def test_vertex_restriction(self, example1_file, capsys):
        code = run(["bound", example1_file, "--vertices", "A1,B1,B4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "restricted to vertices: A1, B1, B4" in out
        assert "shannon bound: 1/2" in out

    def test_duplicate_vertices_listed_once(self, example1_file, capsys):
        assert run(["bound", example1_file, "--vertices", "A1,A1,B1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("instance: 2 vertices, 1 edges")
        assert "restricted to vertices: A1, B1\n" in out
        assert run(["bound", example1_file, "--vertices", "B1,A1,A1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["restricted_to"] == ["A1", "B1"]

    def test_ground_limit_error_names_the_remedy(self, tmp_path, capsys):
        path = tmp_path / "twelve.cds"
        path.write_text(
            "cds-instance v1\n" + "".join(f"q A{i} B{i}\n" for i in range(1, 7))
        )
        assert run(["bound", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "cds: error: ground set has 13 variables, limit 12; "
            "restrict to a vertex subset\n"
        )

    def test_no_edge_defines_no_capacity(self, tmp_path, example1_file, capsys):
        # Like `check` on the same file: exit 0, and no bound to report.
        path = tmp_path / "empty.cds"
        path.write_text("cds-instance v1\n")
        assert run(["bound", str(path)]) == 0
        assert capsys.readouterr().out == (
            "instance: 0 vertices, 0 edges (0 qualified, 0 unqualified)\n"
            "shannon bound: none (no edge: no capacity is defined)\n"
        )
        assert run(["bound", str(path), "--json", "--certificate"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "command": "bound",
            "rate_bound": None,
            "entropy_bound": None,
            "degenerate": True,
            "restricted_to": None,
            "certificate": None,
        }
        for names in (",", ""):
            assert run(["bound", example1_file, "--vertices", names, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["restricted_to"] == []

    def test_edgeless_restriction_defines_no_capacity(self, example1_file, capsys):
        # Like the zero-vertex case: vertices kept, but no edge among them.
        assert run(["bound", example1_file, "--vertices", "A1"]) == 0
        assert capsys.readouterr().out == (
            "instance: 1 vertices, 0 edges (0 qualified, 0 unqualified)\n"
            "restricted to vertices: A1\n"
            "shannon bound: none (no edge: no capacity is defined)\n"
        )
        argv = ["bound", example1_file, "--vertices", "A1,A2", "--json", "--certificate"]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out) == {
            "command": "bound",
            "rate_bound": None,
            "entropy_bound": None,
            "degenerate": True,
            "restricted_to": ["A1", "A2"],
            "certificate": None,
        }

    def test_unknown_vertex_rejected(self, example1_file, capsys):
        code = run(["bound", example1_file, "--vertices", "A1,Q9"])
        assert code == 2

    def test_json(self, fig2_file, capsys):
        code = run(["bound", "--json", fig2_file])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["rate_bound"] == {"num": 5, "den": 12}
        assert payload["degenerate"] is False


class TestAudit:
    def test_fig2_scheme_alignment(self, fig2_file, fig2_scheme_file, capsys):
        code = run(["audit", fig2_file, fig2_scheme_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "noise overlap 4 (>= L = 4)" in out
        assert "signal-aligned" in out
        assert "lemma audit: skipped" in out
        assert "overall: PASS" in out

    def test_verification_and_alignment_share_one_rank_table(
        self, fig2_file, fig2_scheme_file, block_rank_calls, capsys
    ):
        # fig2's lemma audit is skipped, so only the rank table ranks blocks.
        assert run(["audit", fig2_file, fig2_scheme_file]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        assert len(block_rank_calls) == 1

    def test_verify_and_synth_rank_once(
        self, fig2_file, fig2_scheme_file, example1_file, block_rank_calls, capsys
    ):
        # The rates come from the verification report already in hand.
        for argv, rates in (
            (["verify", fig2_file, fig2_scheme_file], "R = 2/5, R_Z = 4/9"),
            (["synth", example1_file, "--reduce-randomness"], "R = 1/2, R_Z = 1/2"),
        ):
            block_rank_calls.clear()
            assert run(argv) == 0
            captured = capsys.readouterr()
            assert rates in captured.out + captured.err
            assert len(block_rank_calls) == 1, argv

    def test_example1_lemma_audit(self, example1_file, tmp_path, capsys):
        target = tmp_path / "ex1.scheme"
        assert run(["synth", example1_file, "-o", str(target)]) == 0
        capsys.readouterr()
        code = run(["audit", example1_file, str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "signal_size: pass" in out
        assert "path_signal_alignment" in out
        assert "overall: PASS" in out

    def test_json(self, example1_file, tmp_path, capsys):
        target = tmp_path / "ex1.scheme"
        run(["synth", example1_file, "-o", str(target)])
        capsys.readouterr()
        code = run(["audit", "--json", example1_file, str(target)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pass"] is True
        assert len(payload["lemmas"]) == 5


    def test_enumeration_budget_leaves_audit_alone(
        self, example1_file, tmp_path, monkeypatch, capsys
    ):
        # The audit reads ranks; the budget limits only `verify --oracle`.
        target = tmp_path / "ex1.scheme"
        assert run(["synth", example1_file, "-o", str(target)]) == 0
        capsys.readouterr()
        assert run(["audit", example1_file, str(target)]) == 0
        unlimited = capsys.readouterr()
        monkeypatch.setenv("CDS_ENUM_BUDGET", "1")
        assert run(["audit", example1_file, str(target)]) == 0
        assert capsys.readouterr() == unlimited
        assert "lemma audit (rate-1/2 entropy identities):" in unlimited.out


class TestDemo:
    @pytest.mark.parametrize("name", ["fig2", "example1"])
    def test_writes_files(self, name, tmp_path, capsys):
        code = run(["demo", name, "-o", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        inst = parse_instance((tmp_path / f"{name}.cds").read_text())
        sch = parse_scheme((tmp_path / f"{name}.scheme").read_text())
        assert verify_linear(inst, sch).passed
        assert f"{name}.cds" in out and f"{name}.scheme" in out

    def test_demo_roundtrips_through_verify(self, tmp_path, capsys):
        run(["demo", "fig2", "-o", str(tmp_path)])
        capsys.readouterr()
        code = run(
            ["verify", str(tmp_path / "fig2.cds"), str(tmp_path / "fig2.scheme")]
        )
        assert code == 0


# The names ``cdskit`` exported when its __init__ imported every submodule,
# by the submodule that defines them.
_EXPORTED = {
    "gf": (
        "GfMatrix", "left_kernel", "rank", "rowspace_intersection_basis",
        "rowspace_intersection_dim",
    ),
    "instance": (
        "CdsInstance", "DegenerateInstanceError", "FeasibilityResult",
        "InstanceFormatError", "Partition", "PathWitness", "format_instance",
        "half_rate_feasible", "is_non_degenerate", "normalize_degenerate",
        "parse_instance", "qualified_components", "unqualified_components_within",
        "unqualified_path",
    ),
    "scheme": (
        "AlignmentReport", "LinearScheme", "RateReport", "SchemeFormatError",
        "VerificationReport", "alignment_report", "check_signal_alignment",
        "format_scheme", "noise_overlap_dim", "parse_scheme",
        "path_overlap_lower_bound", "rate_report", "verify_linear",
    ),
    "oracle": (
        "BudgetError", "DEFAULT_BUDGET", "LemmaAuditReport", "SchemeTable",
        "check_correct", "check_secure", "joint_entropy", "joint_rank",
        "lemma_audit", "tabulate",
    ),
    "synthesis": (
        "InfeasibleInstanceError", "SynthesisPlan", "builtin_example1_instance",
        "builtin_fig2_instance", "builtin_fig2_scheme", "builtin_instance",
        "plan_synthesis", "reduce_randomness", "synthesize_half_rate",
    ),
    "simplex": ("LpSolution", "solve_lp"),
    "entropy_lp": (
        "EntropyLp", "ShannonBoundResult", "build_entropy_lp",
        "cds_constraints", "dual_certificate", "elemental_inequalities", "lp_dump",
        "shannon_bound", "simplex_solve", "verify_certificate",
    ),
}

# Run a command in this interpreter, then write the names of every module
# loaded to the file named by the first argument.
_PROBE = """
import sys
from cdskit.cli import run
code = run(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write("\\n".join([str(code), *sys.modules]))
"""

_BASE = {"cdskit", "cdskit.cli"}
_SCHEME = {"cdskit.instance", "cdskit.gf", "cdskit.scheme"}
# argv, exit code, and the cdskit modules the command loads beyond _BASE.
_LAYERS = [
    ("check fig2.cds", 1, {"cdskit.instance"}),
    ("check example1.cds --json", 0, {"cdskit.instance"}),
    ("check missing.cds", 2, {"cdskit.instance"}),
    ("frobnicate fig2.cds", 2, set()),
    ("synth example1.cds --reduce-randomness", 0, _SCHEME | {"cdskit.synthesis"}),
    ("verify fig2.cds fig2.scheme", 0, _SCHEME),
    ("verify fig2.cds fig2.scheme --oracle", 0, _SCHEME | {"cdskit.oracle"}),
    ("audit fig2.cds fig2.scheme", 0, _SCHEME),
    ("audit example1.cds example1.scheme", 0, _SCHEME | {"cdskit.oracle"}),
    ("demo example1 -o out", 0, _SCHEME | {"cdskit.synthesis"}),
    ("bound fig2.cds", 0, {"cdskit.instance", "cdskit.simplex", "cdskit.entropy_lp"}),
]


class TestImports:
    """Each command loads only the layers it runs, in a fresh interpreter."""

    @staticmethod
    def python(*args: str, cwd=None) -> subprocess.CompletedProcess:
        src = str(Path(cdskit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            check=True,
        )

    def test_importing_the_package_loads_no_submodule(self):
        code = "import sys, cdskit; print(*sorted(m for m in sys.modules if 'cdskit' in m))"
        assert self.python("-c", code).stdout.split() == [b"cdskit"]

    @pytest.mark.parametrize("argv, code, extra", _LAYERS, ids=[c[0] for c in _LAYERS])
    def test_command_loads_only_its_layers(self, argv, code, extra, tmp_path):
        inst = builtin_example1_instance()
        files = {
            "fig2.cds": format_instance(builtin_fig2_instance()),
            "fig2.scheme": format_scheme(builtin_fig2_scheme()),
            "example1.cds": format_instance(inst),
            "example1.scheme": format_scheme(synthesize_half_rate(inst)),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        self.python("-c", _PROBE, "modules.txt", *argv.split(), cwd=tmp_path)
        exit_code, *modules = (tmp_path / "modules.txt").read_text().split("\n")
        assert int(exit_code) == code
        assert {m for m in modules if m.split(".")[0] == "cdskit"} == _BASE | extra
        loaded = {m.split(".")[0] for m in modules}
        command = argv.split()[0]
        if command in ("check", "frobnicate"):
            assert not loaded & {"numpy", "scipy"}
        if command != "bound":
            assert "scipy" not in loaded

    def test_exported_names_resolve_to_their_submodules(self):
        for module, names in _EXPORTED.items():
            source = importlib.import_module(f"cdskit.{module}")
            assert getattr(cdskit, module) is source
            for name in names:
                assert getattr(cdskit, name) is getattr(source, name), name
        star = {}
        exec("from cdskit import *", star)
        star.pop("__builtins__")
        expected = {*_EXPORTED, *(n for names in _EXPORTED.values() for n in names)}
        assert set(star) == expected
        assert set(cdskit.__all__) == expected
        assert expected <= set(dir(cdskit))
        assert not hasattr(cdskit, "no_such_name")


class TestUsageErrors:
    def test_missing_file(self, capsys):
        assert run(["check", "/nonexistent/path.cds"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.cds"
        path.write_text("cds-instance v1\nq A1 A1\n")
        assert run(["check", str(path)]) == 2
        assert "self-loop" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "check" in capsys.readouterr().out

    def test_missing_scheme_for_verify(self, fig2_file, tmp_path, capsys):
        other = tmp_path / "tiny.scheme"
        other.write_text(
            "cds-scheme v1\nfield 2\nsecret 1\nnoise 1\nsignal A1 1\nF: 1 | H: 1\n"
        )
        assert run(["verify", fig2_file, str(other)]) == 2
        assert "missing matrices" in capsys.readouterr().err

    def test_non_prime_field_scheme(self, fig2_file, tmp_path, capsys):
        f4 = tmp_path / "f4.scheme"
        f4.write_text("cds-scheme v1\nfield 4\nsecret 1\nnoise 0\nsignal A1 1\nF: 1 | H:\n")
        assert run(["verify", fig2_file, str(f4)]) == 2
        assert "line 2: modulus 4 must be a prime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, line",
        [("secret 0\nnoise 0", "line 3: secret length"), ("secret 1\nnoise -1", "line 4: noise length")],
    )
    def test_bad_lengths_scheme(self, fig2_file, tmp_path, capsys, header, line):
        bad = tmp_path / "bad.scheme"
        bad.write_text(f"cds-scheme v1\nfield 2\n{header}\n")
        assert run(["verify", fig2_file, str(bad)]) == 2
        assert line in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            # The file ends inside a signal's rows: the signal line is cited.
            ("secret 1\nnoise 0\nsignal A1 2\nF: 1 | H:\n", "line 5: signal A1: missing matrix rows"),
            # The file ends before a header keyword: the last line read is cited.
            ("", "line 2: missing 'secret <n>' line"),
            ("secret 1\n# no noise\n\n", "line 3: missing 'noise <n>' line"),
        ],
    )
    def test_truncated_scheme_cites_a_line(self, fig2_file, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.scheme"
        bad.write_text(f"cds-scheme v1\nfield 2\n{text}")
        assert run(["verify", fig2_file, str(bad)]) == 2
        assert capsys.readouterr().err == f"cds: error: {bad}: {message}\n"


# Whole outputs of a few commands on the built-ins, byte for byte: stdout,
# stderr and the exit code.  The certificate lines name the dual weights
# HiGHS proposes; any weights that pass verify_certificate are a valid
# proof, so a new SciPy may change them, and the file is then captured anew.
_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _GOLDEN, ids=[c["argv"] for c in _GOLDEN])
def test_full_output_is_pinned(case, tmp_path, monkeypatch, capsys):
    fig2 = format_scheme(builtin_fig2_scheme())
    files = {
        "fig2.cds": format_instance(builtin_fig2_instance()),
        "example1.cds": format_instance(builtin_example1_instance()),
        "broken.scheme": fig2.replace("F: 0 0 1 0 | H:", "F: 1 0 1 0 | H:", 1),
        "degenerate.cds": "cds-instance v1\nq A1 B1\nq B1 A2\nu A2 B2\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = run(case["argv"].split())
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == (case["stdout"], case["stderr"], case["exit"])
