"""Tests for the entropy LP: elemental cone, CDS constraints, bounds and
certificates."""

import hashlib
import itertools
import time
from fractions import Fraction

import pytest

from cdskit.entropy_lp import (
    CertificateError,
    EntropyLp,
    GroundSetTooLargeError,
    build_entropy_lp,
    cds_constraints,
    dual_certificate,
    elemental_inequalities,
    ground_set,
    lp_dump,
    render_constraint,
    shannon_bound,
    simplex_solve,
    verify_certificate,
)
from cdskit.instance import CdsInstance
from cdskit.oracle import joint_rank, tabulate
from cdskit.simplex import LpSolution
from cdskit.synthesis import (
    builtin_example1_instance,
    builtin_fig2_instance,
    builtin_fig2_scheme,
    synthesize_half_rate,
)

F = Fraction


def certificate_digest(res) -> str:
    """sha256 of the rendered dual certificate."""
    return hashlib.sha256(dual_certificate(res.solution, res.lp).encode()).hexdigest()


def three_vertex() -> CdsInstance:
    return CdsInstance.from_edges([("q", "A1", "B1"), ("u", "A1", "B2")])


class TestElemental:
    def test_counts(self):
        assert len(elemental_inequalities(2)) == 3
        assert len(elemental_inequalities(3)) == 3 + 3 * 2
        assert len(elemental_inequalities(7)) == 7 + 21 * 32

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            elemental_inequalities(1)
        with pytest.raises(ValueError):
            elemental_inequalities(13)

    def test_mutual_information_expansion(self):
        # For n = 3, I(X0;X1|X2) >= 0 is H(02)+H(12)-H(012)-H(2) >= 0.
        cons = elemental_inequalities(3)
        expected = {
            (0b101, F(1)),
            (0b110, F(1)),
            (0b111, F(-1)),
            (0b100, F(-1)),
        }
        assert any(set(c.coeffs) == expected for c in cons)

    def test_conditional_entropy_rows_come_first(self):
        cons = elemental_inequalities(3)
        full = 0b111
        for i in range(3):
            assert set(cons[i].coeffs) == {(full, F(1)), (full ^ (1 << i), F(-1))}


class TestCdsConstraints:
    def test_fig2_counts(self, fig2):
        cons = cds_constraints(fig2)
        eqs = [c for c in cons if c.relation == "="]
        norms = [c for c in cons if c.relation == "<="]
        assert len(eqs) == 9 and len(norms) == 6

    def test_single_edge(self):
        inst = CdsInstance.from_edges([("q", "A1", "B1")])
        cons = cds_constraints(inst)
        assert len([c for c in cons if c.relation == "="]) == 1
        assert len([c for c in cons if c.relation == "<="]) == 2

    def test_empty_instance(self):
        inst = CdsInstance((), (), (), True)
        assert cds_constraints(inst) == ()
        # The LP itself needs at least one signal beside the secret.
        with pytest.raises(ValueError):
            build_entropy_lp(inst)

    def test_ground_limit(self):
        edges = [("q", f"A{i}", f"B{i}") for i in range(1, 8)]
        inst = CdsInstance.from_edges(edges)  # 14 vertices + S = 15 > 12
        with pytest.raises(GroundSetTooLargeError):
            cds_constraints(inst)

    def test_ground_order(self, fig2):
        assert ground_set(fig2) == ("S", "A1", "A2", "A3", "B1", "B2", "B3")


class TestSimplexSolveOnEntropyLps:
    def test_three_vertex_full_lp_direct(self):
        lp = build_entropy_lp(three_vertex())
        sol = simplex_solve(lp)
        assert sol.status == "optimal"
        assert sol.value == 1

    def test_primal_is_mask_indexed(self):
        lp = build_entropy_lp(three_vertex())
        sol = simplex_solve(lp)
        s_mask = lp.subset_mask(["S"])
        assert sol.primal[s_mask - 1] == 1

    def test_fig2_full_lp_direct(self):
        # The whole 695-constraint LP, solved as given.
        lp = build_entropy_lp(builtin_fig2_instance())
        sol = simplex_solve(lp)
        assert sol.status == "optimal"
        assert sol.value == F(5, 6)

    def test_optimal_point_is_monotone(self):
        # Monotonicity is implied by the elemental cone; spot-check it on
        # the solved vertex.
        lp = build_entropy_lp(three_vertex())
        sol = simplex_solve(lp)
        names = lp.ground
        for r in range(1, len(names) + 1):
            for sub in itertools.combinations(names, r):
                for bigger in itertools.combinations(names, min(r + 1, len(names))):
                    if set(sub) <= set(bigger):
                        small = sol.primal[lp.subset_mask(sub) - 1]
                        large = sol.primal[lp.subset_mask(bigger) - 1]
                        assert small <= large


class TestShannonBound:
    def test_three_vertex_is_half(self):
        res = shannon_bound(three_vertex())
        assert res.rate_bound == F(1, 2)
        assert res.entropy_bound == 1
        assert not res.degenerate

    def test_fig2_is_five_twelfths(self):
        res = shannon_bound(builtin_fig2_instance())
        assert res.rate_bound == F(5, 12)
        assert res.entropy_bound == F(5, 6)
        assert not res.degenerate

    def test_no_qualified_edges_degenerate(self):
        inst = CdsInstance.from_edges([("u", "A1", "B1"), ("u", "A2", "B1")])
        res = shannon_bound(inst)
        assert res.degenerate
        assert res.entropy_bound == len(res.lp.ground)

    def test_feasible_instance_bound_is_half(self):
        # A feasible instance admits rate 1/2, and the Shannon bound must
        # agree from above.
        inst = CdsInstance.from_edges(
            [("q", "A1", "B1"), ("u", "A1", "B2"), ("u", "A2", "B1")]
        )
        res = shannon_bound(inst)
        assert res.rate_bound == F(1, 2)
        sch = synthesize_half_rate(inst)
        from cdskit.scheme import rate_report

        assert rate_report(inst, sch).rate <= res.rate_bound

    def test_bound_dominates_achieved_rate(self, fig2):
        res = shannon_bound(fig2)
        assert F(2, 5) <= res.rate_bound

    def test_ground_eight_path_with_chords_certifies_in_time(self):
        # A 7-vertex qualified path with unqualified chords: 255 subset
        # variables and 1819 rows, far past what the rational tableau
        # alone finishes.
        edges = [("q", f"v{i}", f"v{i + 1}") for i in range(1, 7)] + [
            ("u", v, u)
            for v, u in [("v1", "v3"), ("v2", "v5"), ("v4", "v7"), ("v3", "v6"), ("v1", "v7")]
        ]
        inst = CdsInstance.from_edges(edges, bipartite=False)
        t0 = time.monotonic()
        res = shannon_bound(inst)
        elapsed = time.monotonic() - t0
        assert res.rate_bound == F(5, 12)
        assert verify_certificate(res.solution, res.lp) == F(5, 6)
        assert elapsed < 20.0, f"ground 8 took {elapsed:.2f}s"
        assert certificate_digest(res) == (
            "1dd085da3ed1f3084169422d96a721755d693dbdf2f1da127ae954c8087ec524"
        )

    def test_example1_certificate_is_pinned(self):
        # Ground 9.  Like fig2's golden certificate, the digest pins what
        # HiGHS is given and which of its answers the exact checks accept.
        res = shannon_bound(builtin_example1_instance())
        assert res.rate_bound == F(1, 2)
        assert certificate_digest(res) == (
            "b82779887dfd60be47d727dc1e9ac46508af05c935f76a52912935d812cc4123"
        )


class TestCertificates:
    def test_three_vertex_certificate(self):
        res = shannon_bound(three_vertex())
        text = dual_certificate(res.solution, res.lp)
        assert "H(S) <= 1 (verified exactly)" in text
        assert "sum of weighted right-hand sides = 1" in text

    def test_fig2_certificate_recombines(self):
        res = shannon_bound(builtin_fig2_instance())
        assert verify_certificate(res.solution, res.lp) == F(5, 6)
        text = dual_certificate(res.solution, res.lp)
        assert "<= 5/6 (verified exactly)" in text

    def test_tampered_duals_rejected(self):
        res = shannon_bound(three_vertex())
        bad = list(res.solution.duals)
        idx = next(i for i, y in enumerate(bad) if y != 0)
        bad[idx] += 1
        tampered = LpSolution("optimal", res.solution.value, res.solution.primal, tuple(bad))
        with pytest.raises(CertificateError):
            verify_certificate(tampered, res.lp)

    def test_non_optimal_rejected(self):
        res = shannon_bound(three_vertex())
        sol = LpSolution("infeasible")
        with pytest.raises(CertificateError):
            dual_certificate(sol, res.lp)


class TestSchemeVectorFeasibility:
    @pytest.mark.parametrize("which", ["fig2", "example1"])
    def test_verified_scheme_entropies_are_primal_feasible(self, which):
        if which == "fig2":
            inst, sch = builtin_fig2_instance(), builtin_fig2_scheme()
        else:
            inst = builtin_example1_instance()
            sch = synthesize_half_rate(inst)
        table = tabulate(sch)
        lp = build_entropy_lp(inst)
        norm = sch.max_signal_len()
        point = []
        for mask in range(1, lp.n_vars + 1):
            names = lp.subset_names(mask)
            point.append(F(joint_rank(table, names), norm))
        for con in lp.constraints:
            assert con.satisfied(point), render_constraint(lp, con)
        if which == "fig2":
            # The achieved (normalized) secret entropy sits below the bound.
            res = shannon_bound(inst)
            assert point[lp.subset_mask(["S"]) - 1] <= res.entropy_bound


class TestRendering:
    def test_cds_equality_rendering(self, fig2):
        lp = build_entropy_lp(fig2)
        dump = lp_dump(lp)
        assert "H(S,A1,B1) - H(A1,B1) = 0" in dump
        assert "H(A1) <= 1" in dump
        assert dump.splitlines()[0] == "# maximize H(S)"

    def test_unqualified_rendering(self, fig2):
        lp = build_entropy_lp(fig2)
        dump = lp_dump(lp)
        # Unqualified edge {A1, B2}: H(S,A1,B2) - H(A1,B2) - H(S) = 0.
        assert "H(S,A1,B2) - H(S) - H(A1,B2) = 0" in dump

    def test_elemental_rendering(self):
        cons = elemental_inequalities(3)
        lp = EntropyLp(("S", "A1", "B1"), cons, ((1, F(1)),))
        line = render_constraint(lp, cons[0])
        assert line == "H(S,A1,B1) - H(A1,B1) >= 0"
