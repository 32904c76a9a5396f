"""Tests for the rate-1/2 construction, randomness reduction, and the
built-in instances and scheme."""

import random
from fractions import Fraction

import pytest

from cdskit.gf import GfMatrix
from cdskit.instance import (
    CdsInstance,
    DegenerateInstanceError,
    half_rate_feasible,
    qualified_components,
)
from cdskit.oracle import check_correct, check_secure, lemma_audit, tabulate
from cdskit.scheme import (
    LinearScheme,
    alignment_report,
    noise_overlap_dim,
    rate_report,
    verify_linear,
)
from cdskit.synthesis import (
    FIG2_PATH_ORDER,
    InfeasibleInstanceError,
    builtin_example1_instance,
    builtin_fig2_instance,
    builtin_fig2_scheme,
    builtin_instance,
    derive_fig2_secret_rows,
    next_prime_above,
    plan_synthesis,
    reduce_randomness,
    synthesize_half_rate,
)
from cdskit.synthesis import _FIG2_SECRET_ROWS
from gen import random_feasible_instance
from conftest import EXAMPLE1_EDGES, FIG2_EDGES


def oracle_check(inst, sch) -> bool:
    table = tabulate(sch)
    for kind, (v, u) in inst.edges:
        good = check_correct(table, v, u) if kind == "q" else check_secure(table, v, u)
        if not good:
            return False
    return True


class TestPrimes:
    def test_next_prime_above(self):
        assert [next_prime_above(n) for n in range(8)] == [2, 2, 3, 5, 5, 7, 7, 11]


class TestBuiltinInstances:
    def test_fig2_shape(self):
        inst = builtin_fig2_instance()
        assert inst == CdsInstance.from_edges(FIG2_EDGES)
        assert len(inst.vertices) == 6
        assert len(inst.qualified) == 5
        assert len(inst.unqualified) == 4
        assert qualified_components(inst).blocks == (tuple(sorted(inst.vertices)),)

    def test_fig2_infeasible(self):
        res = half_rate_feasible(builtin_fig2_instance())
        assert not res.feasible
        assert res.witness_edge == ("B2", "A2")

    def test_example1_shape(self):
        inst = builtin_example1_instance()
        assert inst == CdsInstance.from_edges(EXAMPLE1_EDGES)
        assert qualified_components(inst).blocks == (
            ("A1", "A2", "A3", "B1", "B2", "B3"),
            ("A4", "B4"),
        )
        assert half_rate_feasible(inst).feasible

    def test_builtin_by_name(self):
        assert builtin_instance("fig2") == builtin_fig2_instance()
        assert builtin_instance("example1") == builtin_example1_instance()
        with pytest.raises(ValueError, match="unknown"):
            builtin_instance("fig3")


class TestSynthesizeHalfRate:
    def test_example1_construction(self):
        inst = builtin_example1_instance()
        plan = plan_synthesis(inst)
        assert plan.m_count == 2
        assert plan.u_counts == (4, 2)
        assert plan.p == 5
        sch = synthesize_half_rate(inst)
        assert sch.p == 5 and sch.secret_len == 1 and sch.noise_len == 2
        assert all(sch.signal_len(v) == 1 for v in sch.vertices)
        # Every signal is s + i * z_m with i nonzero.
        for v in sch.vertices:
            f, h = sch.matrices[v]
            assert f.to_lists() == [[1]]
            assert sum(1 for x in h.data[0] if x) == 1
        assert verify_linear(inst, sch).passed
        assert oracle_check(inst, sch)

    def test_small_instance_with_singleton_components(self):
        inst = CdsInstance.from_edges(
            [("q", "A1", "B1"), ("u", "A1", "B2"), ("u", "A2", "B1")]
        )
        plan = plan_synthesis(inst)
        assert plan.m_count == 3  # {A1, B1} plus the two isolated signals
        assert max(plan.u_counts) == 2
        sch = synthesize_half_rate(inst)
        assert sch.p == 3
        assert verify_linear(inst, sch).passed
        assert oracle_check(inst, sch)

    def test_fig2_rejected_with_witness(self):
        with pytest.raises(InfeasibleInstanceError) as err:
            synthesize_half_rate(builtin_fig2_instance())
        assert err.value.result.witness_edge == ("B2", "A2")
        assert err.value.result.witness_path.vertices == ("B2", "A1", "B3", "A2")

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInstanceError):
            synthesize_half_rate(CdsInstance.from_edges([("q", "A1", "B1")]))

    def test_rate_is_half(self):
        inst = builtin_example1_instance()
        report = rate_report(inst, synthesize_half_rate(inst))
        assert report.rate == Fraction(1, 2)

    def test_qualified_edges_share_one_noise_symbol(self):
        rng = random.Random(8)
        for _ in range(20):
            inst = random_feasible_instance(rng, max_vertices=8)
            sch = synthesize_half_rate(inst)
            for v, u in inst.qualified:
                hv = sch.matrices[v][1].data[0]
                hu = sch.matrices[u][1].data[0]
                (iv,) = [j for j, x in enumerate(hv) if x]
                (iu,) = [j for j, x in enumerate(hu) if x]
                assert iv == iu
                assert hv[iv] != hu[iu]
                assert noise_overlap_dim(sch, v, u) == 1


class TestReduceRandomness:
    @staticmethod
    def four_components() -> CdsInstance:
        edges = []
        for i in range(1, 5):
            edges.append(("q", f"A{i}", f"B{i}"))
            edges.append(("u", f"A{i}", f"B{i % 4 + 1}"))
        return CdsInstance.from_edges(edges)

    def test_example1_already_two_symbols(self):
        inst = builtin_example1_instance()
        sch = synthesize_half_rate(inst)
        reduced = reduce_randomness(inst, sch)
        assert reduced == sch and reduced.noise_len == 2
        report = rate_report(inst, reduced)
        assert report.randomness_rate == report.rate == Fraction(1, 2)

    def test_four_component_reduction(self):
        # Four qualified edges in separate components, two unqualified
        # blocks in each: M = 4, max U = 2, so p = 3 after reduction.
        inst = self.four_components()
        plan = plan_synthesis(inst)
        assert plan.m_count == 4 and max(plan.u_counts) == 2
        sch = synthesize_half_rate(inst)
        assert sch.noise_len == 4
        reduced = reduce_randomness(inst, sch)
        assert reduced.noise_len == 2
        assert reduced.p == 3
        # z_3 = z_1 + z_2 and z_4 = z_1 + 2 z_2, scaled by the block index.
        rows = {v: reduced.matrices[v][1].data[0].tolist() for v in reduced.vertices}
        position = {
            v: (m, i)
            for m, comp in enumerate(plan.components, start=1)
            for i, blk in enumerate(comp, start=1)
            for v in blk
        }
        assert position.keys() == set(reduced.vertices)
        for v, (m, i) in position.items():
            expected = {
                1: [i % 3, 0],
                2: [0, i % 3],
                3: [i % 3, i % 3],
                4: [i % 3, (2 * i) % 3],
            }[m]
            assert rows[v] == expected
        assert verify_linear(inst, reduced).passed
        assert oracle_check(inst, reduced)

    def test_f_matrices_and_verdicts_preserved(self):
        rng = random.Random(77)
        for _ in range(25):
            inst = random_feasible_instance(rng)
            sch = synthesize_half_rate(inst)
            reduced = reduce_randomness(inst, sch)
            assert reduced.noise_len == min(sch.noise_len, 2)
            for v in sch.vertices:
                assert reduced.matrices[v][0].to_lists() == sch.matrices[v][0].to_lists()
            before = verify_linear(inst, sch)
            after = verify_linear(inst, reduced)
            assert before.passed and after.passed
            assert oracle_check(inst, reduced)

    def test_rejects_every_changed_scheme(self):
        # M = 4 and p = 3: the synthesized scheme, an equal copy of one
        # block, and schemes with one block changed or shared, a vertex
        # dropped, added or renamed, or a changed secret length, p or
        # noise_len.
        # reduce_randomness accepts exactly those equal to the synthesized
        # scheme.
        inst = self.four_components()
        sch = synthesize_half_rate(inst)
        p, lz, mats = sch.p, sch.noise_len, sch.matrices

        def with_pair(v, f_rows, h_rows):
            pair = (GfMatrix.from_rows(p, f_rows, 1), GfMatrix.from_rows(p, h_rows, lz))
            return LinearScheme(p, 1, lz, {**mats, v: pair})

        def rebuilt(p, lz):
            return LinearScheme(p, 1, lz, {
                v: (GfMatrix.from_rows(p, f.to_lists(), 1),
                    GfMatrix.from_rows(p, [r + [0] * (lz - sch.noise_len) for r in h.to_lists()], lz))
                for v, (f, h) in mats.items()
            })

        f_b1, h_b1 = mats["B1"]  # block 2 of component 1: (1, 2 e_1)
        assert h_b1.to_lists() == [[2, 0, 0, 0]]
        accepted = [sch, with_pair("B1", f_b1.to_lists(), h_b1.to_lists())]
        rejected = [
            with_pair("B1", [[2]], h_b1.to_lists()),
            with_pair("B1", f_b1.to_lists(), [[1, 0, 0, 0]]),  # A1's pair
            with_pair("B1", f_b1.to_lists(), [[0, 2, 0, 0]]),
            with_pair("B1", [[1], [1]], h_b1.to_lists() * 2),
            LinearScheme(p, 1, lz, {**mats, "B1": mats["A1"]}),
            LinearScheme(p, 1, lz, {v: m for v, m in mats.items() if v != "B1"}),
            LinearScheme(p, 1, lz, {**mats, "C1": mats["A1"]}),
            LinearScheme(p, 1, lz, {("C1" if v == "B1" else v): m for v, m in mats.items()}),
            LinearScheme(p, 2, lz, {
                v: (GfMatrix.from_rows(p, [r + [0] for r in f.to_lists()], 2), h)
                for v, (f, h) in mats.items()
            }),
            rebuilt(5, lz),
            rebuilt(p, lz + 1),
        ]
        for variant in accepted:
            assert variant == sch
            assert reduce_randomness(inst, variant).noise_len == 2
        for variant in rejected:
            assert variant != sch
            with pytest.raises(ValueError, match="synthesize_half_rate"):
                reduce_randomness(inst, variant)

    def test_one_reduction_builds_one_scheme(self, monkeypatch):
        inst = self.four_components()
        sch = synthesize_half_rate(inst)
        built = []
        original = LinearScheme.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(LinearScheme, "__post_init__", counted)
        reduced = reduce_randomness(inst, sch)
        assert len(built) == 1 and built[0] is reduced

    def test_requires_synthesized_scheme(self):
        inst = builtin_example1_instance()
        sch = synthesize_half_rate(inst)
        other = CdsInstance.from_edges([("q", "A1", "B1"), ("u", "A1", "B2"), ("u", "A2", "B1")])
        with pytest.raises(ValueError, match="synthesize_half_rate"):
            reduce_randomness(other, sch)


class TestFig2Scheme:
    def test_dimensions_and_rate(self, fig2):
        sch = builtin_fig2_scheme()
        assert (sch.p, sch.secret_len, sch.noise_len) == (2, 4, 9)
        assert all(sch.signal_len(v) == 5 for v in sch.vertices)
        report = rate_report(fig2, sch)
        assert report.rate == Fraction(2, 5)

    def test_window_structure(self):
        sch = builtin_fig2_scheme()
        for k, v in enumerate(FIG2_PATH_ORDER):
            h = sch.matrices[v][1]
            for j in range(5):
                row = h.data[j].tolist()
                assert row[(k + j) % 9] == 1 and sum(row) == 1

    def test_verifies_and_oracle_agrees(self, fig2):
        sch = builtin_fig2_scheme()
        assert verify_linear(fig2, sch).passed
        assert oracle_check(fig2, sch)

    def test_b1_tail_bits(self):
        # B1's fourth and fifth bits are s4 + z4 and a bare z5.
        sch = builtin_fig2_scheme()
        f = sch.matrices["B1"][0]
        assert f.data[3].tolist() == [0, 0, 0, 1]
        assert f.data[4].tolist() == [0, 0, 0, 0]

    def test_decoding_rows_of_middle_edge(self):
        # Differences across {B1, A2} on z2..z5 recover
        # (s1+s2, s2+s3, s3+s4, s4).
        sch = builtin_fig2_scheme()
        fb1 = sch.matrices["B1"][0].data
        fa2 = sch.matrices["A2"][0].data
        # absolute position t lands at row t-1 of B1 and t-2 of A2.
        diffs = [
            ((fb1[t - 1] + fa2[t - 2]) % 2).tolist() for t in (2, 3, 4, 5)
        ]
        assert diffs == [
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
        ]

    def test_every_qualified_edge_overlaps_in_four(self, fig2):
        sch = builtin_fig2_scheme()
        report = alignment_report(fig2, sch)
        assert set(report.noise_overlaps.values()) == {4}
        assert all(report.signal_alignment.values())

    def test_search_rederives_frozen_rows(self):
        assert derive_fig2_secret_rows() == _FIG2_SECRET_ROWS


class TestEndToEnd:
    def test_random_instances_synthesize_verify_and_audit(self):
        rng = random.Random(4242)
        for _ in range(30):
            inst = random_feasible_instance(rng)
            sch = synthesize_half_rate(inst)
            assert verify_linear(inst, sch).passed
            assert oracle_check(inst, sch)
            table = tabulate(sch)
            assert lemma_audit(inst, table, 1).passed
