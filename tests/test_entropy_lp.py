"""Tests for the entropy LP: elemental cone, CDS constraints, bounds and
certificates."""

import dataclasses
import hashlib
import itertools
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from cdskit.entropy_lp import (
    CertificateError,
    Constraint,
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
from cdskit import simplex
from cdskit.instance import CdsInstance, parse_instance
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


# The benchmark's LP ladder: one instance per ground-set size 4 to 9
# (7 is fig2, 9 is example1).
LADDER = {
    4: "q v1 v2\nu v1 v3\nu v2 v3",
    5: "q v1 v2\nq v2 v3\nq v3 v4\nu v1 v3\nu v2 v4\nu v1 v4",
    6: "q v1 v2\nq v2 v3\nq v3 v4\nq v4 v5\nu v1 v3\nu v2 v4\nu v3 v5\nu v1 v4",
    7: "q A1 B1\nq B1 A2\nq A2 B2\nq B2 A3\nq A3 B3\nu B2 A1\nu A1 B3\nu B3 A2\nu B1 A3",
    8: "q v1 v2\nq v2 v3\nq v3 v4\nq v4 v5\nq v5 v6\nq v6 v7\n"
    "u v1 v3\nu v2 v5\nu v4 v7\nu v3 v6\nu v1 v7",
    9: "q A1 B1\nq B1 A2\nq A2 B2\nq B2 A3\nq A3 B3\nq A4 B4\n"
    "u B1 A3\nu A2 B3\nu A1 B4\nu B3 A4\nu B2 A4",
}


def ladder_instance(ground: int) -> CdsInstance:
    general = not LADDER[ground].startswith(("q A", "q B"))
    return parse_instance(
        "cds-instance v1" + (" general" if general else "") + "\n" + LADDER[ground] + "\n"
    )


# The ladder, fig2 and example1, by name.
LP_INSTANCES = {
    **{f"ladder{ground}": partial(ladder_instance, ground) for ground in LADDER},
    "fig2": builtin_fig2_instance,
    "example1": builtin_example1_instance,
}


def reference_elemental(n: int) -> tuple[Constraint, ...]:
    """The elemental inequalities from a nested loop over i < j and the
    sets K, in pick order."""
    out = []
    full = (1 << n) - 1
    for i in range(n):
        out.append(Constraint(((full, 1), (full ^ (1 << i), -1)), ">=", 0))
    for i in range(n):
        for j in range(i + 1, n):
            others = [b for b in range(n) if b not in (i, j)]
            for pick in range(1 << len(others)):
                k = 0
                for t, b in enumerate(others):
                    if pick >> t & 1:
                        k |= 1 << b
                terms = [(k | 1 << i, 1), (k | 1 << j, 1), (k | 1 << i | 1 << j, -1)]
                if k:
                    terms.append((k, -1))
                out.append(Constraint(tuple(terms), ">=", 0))
    return tuple(out)


def reference_entropy_constraints(inst: CdsInstance) -> tuple[Constraint, ...]:
    """The entropy LP's rows, one Constraint at a time: the elemental
    cone, the edge equalities, the normalizations and the cap."""
    ground = ground_set(inst)
    idx = {name: 1 << i for i, name in enumerate(ground)}
    s_mask = idx["S"]
    cds = []
    for v, u in inst.qualified:
        pair = idx[v] | idx[u]
        cds.append(Constraint(((pair | s_mask, 1), (pair, -1)), "=", 0))
    for v, u in inst.unqualified:
        pair = idx[v] | idx[u]
        cds.append(Constraint(((pair | s_mask, 1), (pair, -1), (s_mask, -1)), "=", 0))
    for v in inst.vertices:
        cds.append(Constraint(((idx[v], 1),), "<=", 1))
    cap = Constraint(((1, 1),), "<=", len(ground))
    return reference_elemental(len(ground)) + tuple(cds) + (cap,)


def typed(constraints) -> list:
    """Constraints with the type of every number, which == ignores."""
    return [
        (tuple((m, type(c), c) for m, c in con.coeffs), con.relation, type(con.rhs), con.rhs)
        for con in constraints
    ]


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

    @pytest.mark.parametrize("n", range(2, 13))
    def test_rows_match_the_nested_loop(self, n):
        assert typed(elemental_inequalities(n)) == typed(reference_elemental(n))

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


class TestIntegerRows:
    """The LP is built as one integer matrix; its Constraint view and
    what HiGHS is given are pinned."""

    @pytest.mark.parametrize("name", LP_INSTANCES)
    def test_constraints_match_the_row_by_row_build(self, name):
        inst = LP_INSTANCES[name]()
        lp = build_entropy_lp(inst)
        assert typed(lp.constraints) == typed(reference_entropy_constraints(inst))
        assert lp.rows.m == len(lp.constraints)
        assert lp.objective == ((1, 1),)

    def test_lp_is_a_frozen_value(self):
        """An EntropyLp compares, hashes and prints as its (ground,
        constraints, objective)."""
        fig2 = builtin_fig2_instance()
        lp, again = build_entropy_lp(fig2), build_entropy_lp(fig2)
        assert again == lp and hash(again) == hash(lp)
        assert repr(lp) == (
            f"EntropyLp(ground={lp.ground!r}, constraints={lp.constraints!r}, "
            f"objective={lp.objective!r})"
        )
        # The same ground set without the last unqualified edge's row.
        fewer = CdsInstance(fig2.vertices, fig2.qualified, fig2.unqualified[:-1])
        assert build_entropy_lp(fewer).ground == lp.ground
        assert build_entropy_lp(fewer) != lp
        assert shannon_bound(builtin_fig2_instance()) == shannon_bound(builtin_fig2_instance())
        with pytest.raises(dataclasses.FrozenInstanceError):
            lp.ground = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            del lp.constraints
        # The matrix has no value ==, so comparing two never asks NumPy
        # for the truth of an array.
        assert lp.rows == lp.rows and lp.rows != again.rows

    # sha256 of linprog's arguments, recorded before the LP was held as
    # integer arrays: every primal, dual and certificate follows from them.
    HIGHS_INPUT = {
        "ladder4": "bc6c936b80a705a2662024ef1d2d5d01eff672caafc47375b70cd0c280e95f2d",
        "ladder5": "0d17556748ddcc3734fe7aecc1bd3ed9a7db2012982d6902c7017cc75b603c52",
        "ladder6": "b0915eaad73d48d0b513806481fbea18e676f7e97c49f08b306066be9a13dd92",
        "ladder7": "068d9a945a77140271a5e236abcc3254aed4d6b4afcc7e155a8e228616008b57",
        "ladder8": "11b021c738f00972abc68b2ddb54d4838f96439a0385d4a09dd1d0483272e817",
        "ladder9": "dff0663cac9865e6c747e4bce958e20f6b18d23add6aa7cdb477ab47536648a7",
        "fig2": "068d9a945a77140271a5e236abcc3254aed4d6b4afcc7e155a8e228616008b57",
        "example1": "dff0663cac9865e6c747e4bce958e20f6b18d23add6aa7cdb477ab47536648a7",
    }

    @staticmethod
    def highs_input_digest(c, kwargs) -> str:
        """sha256 over the cost, right-hand sides and CSR arrays (dtype,
        shape and bytes of each), the matrices' type, bounds and method."""
        h = hashlib.sha256()

        def array(x):
            if x is None:
                h.update(b"none")
                return
            a = np.asarray(x)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())

        array(c)
        array(kwargs["b_ub"])
        array(kwargs["b_eq"])
        for key in ("A_ub", "A_eq"):
            m = kwargs[key]
            if m is None:
                h.update(b"none")
                continue
            h.update(f"{type(m).__name__}{m.shape}".encode())
            array(m.data)
            array(m.indices)
            array(m.indptr)
        h.update(repr((kwargs["bounds"], kwargs["method"])).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("name", HIGHS_INPUT)
    def test_highs_input_is_pinned(self, name, monkeypatch):
        import scipy.optimize

        linprog, seen = scipy.optimize.linprog, []

        def spy(c, **kwargs):
            seen.append(self.highs_input_digest(c, kwargs))
            return linprog(c, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", spy)
        shannon_bound(LP_INSTANCES[name]())
        assert seen == [self.HIGHS_INPUT[name]]


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

    def test_tableau_alone_certifies_a_ground_five_lp(self, monkeypatch):
        # The rational tableau, with the HiGHS proposal turned down, on a
        # whole entropy LP.  Its duals are pinned: sha256 of their repr,
        # recorded while the tableau still copied the rows into a
        # separate Fraction form.
        inst = CdsInstance.from_edges(
            [("q", "A1", "B1"), ("u", "A1", "B2"), ("q", "B2", "A2"), ("u", "A2", "B1")]
        )
        lp = build_entropy_lp(inst)
        assert len(lp.ground) == 5 and simplex_solve(lp).value == 1
        monkeypatch.setattr(simplex, "_propose", lambda n_vars, obj, rows: None)
        sol = simplex_solve(lp)
        assert sol.value == 1 == verify_certificate(sol, lp)
        assert sum(1 for y in sol.duals if y) == 8
        assert hashlib.sha256(repr(sol.duals).encode()).hexdigest() == (
            "48f763affe72ddafdc332a3b9b9a7c8e97b936acdf07ffb5f25a89e0e9f2242c"
        )

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

        # The array-built example1 LP (ground 9), one fault at a time.
        res = shannon_bound(builtin_example1_instance())
        sol, lp = res.solution, res.lp
        assert verify_certificate(sol, lp) == 1

        def tampered(changes=(), value=sol.value):
            duals = list(sol.duals)
            for i, y in changes:
                duals[i] = y
            return LpSolution("optimal", value, sol.primal, tuple(duals))

        relations = [con.relation for con in lp.constraints]
        ge, le = relations.index(">="), relations.index("<=")
        with pytest.raises(CertificateError, match="positive weight on a >="):
            verify_certificate(tampered([(ge, F(1))]), lp)
        with pytest.raises(CertificateError, match="negative weight on a <="):
            verify_certificate(tampered([(le, F(-1))]), lp)
        # Row 0 is H(full) - H(full - X_0) >= 0: more weight of its sign
        # leaves y.b alone and lowers only the column of the full set.
        full = (1 << len(lp.ground)) - 1
        assert lp.constraints[0].coeffs == ((full, 1), (full - 1, -1))
        slack = sum(
            (y * c for con, y in zip(lp.constraints, sol.duals) for m, c in con.coeffs if m == full),
            F(0),
        )
        with pytest.raises(CertificateError, match="do not dominate"):
            verify_certificate(tampered([(0, sol.duals[0] - slack - 1)]), lp)
        with pytest.raises(CertificateError, match="weighted right-hand sides give"):
            verify_certificate(tampered(value=sol.value + F(1, 6)), lp)

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
        lp = build_entropy_lp(CdsInstance.from_edges([("q", "A1", "B1")]))
        assert lp.ground == ("S", "A1", "B1")
        line = render_constraint(lp, elemental_inequalities(3)[0])
        assert line == "H(S,A1,B1) - H(A1,B1) >= 0"
