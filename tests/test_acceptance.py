"""Acceptance suite: one test per criterion, each timed against its
stated budget and printed as a pass/fail line (run with ``pytest -s``).

Every expected value here is either trivially pinned, derived from an
independent oracle in this repository, or a published constant of the
problem (2/5, 5/12, 1/2); no tolerance is loosened below exactness.
"""

import itertools
import random
import time
from fractions import Fraction

from cdskit.cli import run
from cdskit.entropy_lp import dual_certificate, shannon_bound, verify_certificate
from cdskit.instance import (
    CdsInstance,
    format_instance,
    half_rate_feasible,
    is_non_degenerate,
)
from cdskit.oracle import check_correct, check_secure, lemma_audit, tabulate
from cdskit.scheme import (
    LinearScheme,
    alignment_report,
    check_signal_alignment,
    format_scheme,
    noise_overlap_dim,
    parse_scheme,
    rate_report,
    verify_linear,
)
from cdskit.synthesis import (
    builtin_example1_instance,
    builtin_fig2_instance,
    builtin_fig2_scheme,
    reduce_randomness,
    synthesize_half_rate,
)
from gen import (
    append_redundant_row,
    direct_sum,
    layered_feasible_instance,
    random_feasible_instance,
    random_matrix,
    random_scheme,
    shuffle_scheme,
)

F = Fraction


class _Budget:
    """Context manager asserting the wall-clock budget of a criterion."""

    def __init__(self, name: str, limit_s: float):
        self.name = name
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name}: {verdict} ({elapsed:.2f}s, budget {self.limit:g}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.name} exceeded its {self.limit}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_feasibility(tmp_path, capsys):
    with _Budget("criterion 1 (feasibility decision)", 2.0):
        t0 = time.monotonic()
        fig2 = builtin_fig2_instance()
        res = half_rate_feasible(fig2)
        assert not res.feasible
        assert res.witness_edge == ("B2", "A2")
        assert res.witness_path.vertices == ("B2", "A1", "B3", "A2")
        assert time.monotonic() - t0 < 1.0

        t0 = time.monotonic()
        assert half_rate_feasible(builtin_example1_instance()).feasible
        assert time.monotonic() - t0 < 1.0

        # The CLI surfaces the same verdicts and exit codes.
        fig2_path = tmp_path / "fig2.cds"
        fig2_path.write_text(format_instance(fig2))
        assert run(["check", str(fig2_path)]) == 1
        out = capsys.readouterr().out
        assert "internal qualified edge: {B2, A2}" in out
        assert "unqualified path: (B2, A1, B3, A2)" in out
        ex1_path = tmp_path / "example1.cds"
        ex1_path.write_text(format_instance(builtin_example1_instance()))
        assert run(["check", str(ex1_path)]) == 0
        assert "FEASIBLE (capacity = 1/2)" in capsys.readouterr().out


def test_criterion_2_synthesis():
    with _Budget("criterion 2 (rate-1/2 synthesis)", 1.0):
        inst = builtin_example1_instance()
        sch = synthesize_half_rate(inst)
        assert sch.p == 5
        report = rate_report(inst, sch)
        assert report.rate == F(1, 2)
        assert verify_linear(inst, sch).passed
        table = tabulate(sch)
        for kind, (v, u) in inst.edges:
            if kind == "q":
                assert check_correct(table, v, u)
            else:
                assert check_secure(table, v, u)
        reduced = reduce_randomness(inst, sch)
        assert reduced.noise_len == 2
        assert rate_report(inst, reduced).randomness_rate == F(1, 2)


def test_criterion_3_fig2_scheme():
    with _Budget("criterion 3 (rate-2/5 scheme)", 5.0):
        inst = builtin_fig2_instance()
        sch = builtin_fig2_scheme()
        assert sch.secret_len == 4
        assert sch.noise_len == 9
        assert all(sch.signal_len(v) == 5 for v in sch.vertices)
        assert rate_report(inst, sch).rate == F(2, 5)
        assert verify_linear(inst, sch).passed
        table = tabulate(sch)
        assert table.size == 2**13
        for kind, (v, u) in inst.edges:
            if kind == "q":
                assert check_correct(table, v, u)
            else:
                assert check_secure(table, v, u)


def test_criterion_4_shannon_bound_fig2():
    with _Budget("criterion 4 (Shannon bound 5/12)", 60.0):
        res = shannon_bound(builtin_fig2_instance())
        assert res.rate_bound == F(5, 12)  # exact equality, no tolerance
        assert res.entropy_bound == F(5, 6)
        assert verify_certificate(res.solution, res.lp) == F(5, 6)
        text = dual_certificate(res.solution, res.lp)
        assert "H(S) <= 5/6 (verified exactly)" in text


def test_criterion_5_shannon_bound_sanity():
    with _Budget("criterion 5 (3-vertex bound 1/2)", 1.0):
        inst = CdsInstance.from_edges([("q", "A1", "B1"), ("u", "A1", "B2")])
        res = shannon_bound(inst)
        assert res.rate_bound == F(1, 2)


def test_criterion_6_alignment_consistency():
    with _Budget("criterion 6 (alignment lemmas)", 60.0):
        inst = builtin_fig2_instance()
        sch = builtin_fig2_scheme()
        for edge in inst.qualified:
            assert noise_overlap_dim(sch, *edge) == 4 >= sch.secret_len
        for edge in inst.unqualified:
            assert check_signal_alignment(sch, *edge)[0]

        rng = random.Random(60_606)
        checked = 0
        while checked < 200:
            small = random_feasible_instance(
                rng, max_vertices=6, max_components=2, max_blocks=2
            )
            scheme = synthesize_half_rate(small)
            if rng.random() < 0.4:
                scheme = direct_sum(scheme, scheme)
            scheme = shuffle_scheme(rng, scheme)
            if rng.random() < 0.5:
                v = rng.choice(scheme.vertices)
                if scheme.signal_len(v) < 3:
                    scheme = append_redundant_row(rng, scheme, v)
            assert scheme.p in (2, 3)
            assert scheme.secret_len <= 2 and scheme.noise_len <= 4
            assert max(scheme.signal_len(v) for v in scheme.vertices) <= 3
            assert verify_linear(small, scheme).passed
            for edge in small.qualified:
                assert noise_overlap_dim(scheme, *edge) >= scheme.secret_len
            for edge in small.unqualified:
                assert check_signal_alignment(scheme, *edge)[0]
            checked += 1


def test_criterion_7_oracle_equivalence():
    with _Budget("criterion 7 (oracle equivalence)", 60.0):
        rng = random.Random(70_707)
        schemes = 0
        while schemes < 500:
            n = rng.randrange(2, 5)
            names = [f"v{i}" for i in range(n)]
            edges = []
            for a, b in itertools.combinations(names, 2):
                roll = rng.random()
                if roll < 0.4:
                    edges.append(("q", a, b))
                elif roll < 0.8:
                    edges.append(("u", a, b))
            if not edges:
                continue
            inst = CdsInstance.from_edges(edges, bipartite=False)
            if schemes % 5 == 4 and is_non_degenerate(inst)[0]:
                feas = half_rate_feasible(inst)
                if feas.feasible:
                    sch = synthesize_half_rate(inst)  # a valid one now and then
                else:
                    sch = random_scheme(rng, inst.vertices, 2, 1, 2)
            else:
                sch = random_scheme(
                    rng,
                    inst.vertices,
                    rng.choice([2, 3, 5]),
                    rng.randrange(1, 3),
                    rng.randrange(0, 4),
                )
            report = verify_linear(inst, sch)
            table = tabulate(sch)
            for kind, (v, u) in inst.edges:
                rank_verdict = report.edge_verdicts[(v, u)].ok
                oracle_verdict = (
                    check_correct(table, v, u)
                    if kind == "q"
                    else check_secure(table, v, u)
                )
                assert rank_verdict == oracle_verdict, (inst, sch.p, (v, u))
            schemes += 1


def test_criterion_8_lemma_audit():
    with _Budget("criterion 8 (lemma audit on 100 instances)", 120.0):
        rng = random.Random(80_808)
        for _ in range(100):
            inst = random_feasible_instance(rng, max_vertices=10)
            sch = synthesize_half_rate(inst)
            report = lemma_audit(inst, tabulate(sch), 1)
            assert report.passed, report
            for lemma in report.lemmas:
                assert not lemma.failures


def test_criterion_9_bounds_ordering():
    with _Budget("criterion 9 (bounds interval)", 60.0):
        inst = builtin_fig2_instance()
        sch = builtin_fig2_scheme()
        res = shannon_bound(inst)
        report = rate_report(inst, sch, converse=res.rate_bound)
        assert report.bounds == (F(2, 5), F(5, 12))
        assert report.bounds[0] <= report.bounds[1]
        # The paper-level open question shows up as a strict gap.
        assert report.bounds[0] < report.bounds[1]


def test_criterion_10_combinatorial_reach():
    inst = layered_feasible_instance(random.Random(100_010))
    assert len(inst.vertices) == 3600 and len(inst.edges) == 10_000
    name = (
        "criterion 10 (check, synthesis, reduction, verification and the "
        "scheme file's write and parse at 10^4 edges)"
    )
    with _Budget(name, 2.0):
        assert half_rate_feasible(inst).feasible
        sch = synthesize_half_rate(inst)
        assert (sch.p, sch.noise_len) == (7, 12)
        reduced = reduce_randomness(inst, sch)
        assert (reduced.p, reduced.noise_len) == (11, 2)
        assert verify_linear(inst, reduced).passed
        align = alignment_report(inst, reduced)
        assert min(align.noise_overlaps.values()) == 1
        assert all(align.signal_alignment.values())
        assert parse_scheme(format_scheme(reduced)) == reduced


def test_criterion_11_oracle_reach():
    rng = random.Random(110_011)
    names = [f"x{i}" for i in range(5)]
    sch = LinearScheme(2, 2, 18, {
        v: (random_matrix(rng, 2, 3, 2), random_matrix(rng, 2, 3, 18)) for v in names
    })
    pairs = rng.sample(list(itertools.combinations(names, 2)), 6)
    inst = CdsInstance.from_edges(
        [(rng.choice("qu"), v, u) for v, u in pairs], bipartite=False
    )
    deltas = {e: w.rank_delta for e, w in verify_linear(inst, sch).edge_verdicts.items()}
    with _Budget("criterion 11 (oracle at 2^20 realizations, 6 edges)", 1.2):
        table = tabulate(sch)
        assert table.size == 2**20
        for (v, u), delta in deltas.items():
            assert check_correct(table, v, u) == (delta == 2)
            assert check_secure(table, v, u) == (delta == 0)


def test_criterion_12_oracle_on_signal_blocks():
    inst = layered_feasible_instance(random.Random(100_010))
    reduced = reduce_randomness(inst, synthesize_half_rate(inst))
    assert (reduced.p, reduced.noise_len) == (11, 2)
    verdicts = verify_linear(inst, reduced).edge_verdicts
    name = "criterion 12 (oracle on the reduced 10^4-edge scheme, one array per block)"
    with _Budget(name, 1.0):
        table = tabulate(reduced)
        for kind, (v, u) in inst.edges:
            check = check_correct if kind == "q" else check_secure
            assert check(table, v, u) == verdicts[(v, u)].ok, (kind, v, u)
    assert len(inst.edges) == 10_000
    # Every vertex of a signal block maps to the block's one array.
    assert len({id(codes) for codes in table.values.values()}) == len(reduced.blocks) == 72
