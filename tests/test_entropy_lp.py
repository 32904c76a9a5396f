"""Tests for the entropy LP: elemental cone, CDS constraints, bounds and
certificates."""

import dataclasses
import hashlib
import itertools
import time
from fractions import Fraction
from functools import cache, partial

import numpy as np
import pytest

from cdskit.entropy_lp import (
    CertificateError,
    GroundSetTooLargeError,
    build_entropy_lp,
    cds_constraints,
    dual_certificate,
    elemental_inequalities,
    ground_set,
    lp_dump,
    shannon_bound,
    simplex_solve,
    verify_certificate,
)
from cdskit import entropy_lp, simplex
from cdskit.instance import CdsInstance, parse_instance
from cdskit.oracle import joint_rank, tabulate
from cdskit.simplex import CODE, RELATION, IntRows, LpSolution
from cdskit.synthesis import (
    builtin_example1_instance,
    builtin_fig2_instance,
    builtin_fig2_scheme,
    synthesize_half_rate,
)

F = Fraction


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_digest(res) -> str:
    """sha256 of the rendered dual certificate."""
    return sha256(dual_certificate(res.solution, res.lp))


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


@cache
def solved(name: str):
    """shannon_bound of an LP_INSTANCES entry, solved once per session."""
    return shannon_bound(LP_INSTANCES[name]())


def reference_elemental(n: int) -> list[tuple]:
    """The elemental inequalities from a nested loop over i < j and the
    sets K, in pick order, as (terms over masks, relation, rhs)."""
    out = []
    full = (1 << n) - 1
    for i in range(n):
        out.append((((full, 1), (full ^ (1 << i), -1)), ">=", 0))
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
                out.append((tuple(terms), ">=", 0))
    return out


def reference_entropy_constraints(inst: CdsInstance) -> list[tuple]:
    """The entropy LP's rows, one (terms, relation, rhs) at a time: the
    elemental cone, the edge equalities, the normalizations and the cap."""
    ground = ground_set(inst)
    idx = {name: 1 << i for i, name in enumerate(ground)}
    s_mask = idx["S"]
    cds = []
    for v, u in inst.qualified:
        pair = idx[v] | idx[u]
        cds.append((((pair | s_mask, 1), (pair, -1)), "=", 0))
    for v, u in inst.unqualified:
        pair = idx[v] | idx[u]
        cds.append((((pair | s_mask, 1), (pair, -1), (s_mask, -1)), "=", 0))
    for v in inst.vertices:
        cds.append((((idx[v], 1),), "<=", 1))
    cap = (((1, 1),), "<=", len(ground))
    return reference_elemental(len(ground)) + cds + [cap]


def as_tuples(rows: IntRows) -> list[tuple]:
    """The matrix's rows as (terms over masks, relation, rhs), each term
    a (mask, coefficient) in stored order, numbers as the CSR arrays'
    Python values."""
    ptr, masks, coefs = rows.ptr.tolist(), (rows.col + 1).tolist(), rows.coef.tolist()
    return [
        (tuple(zip(masks[ptr[i] : ptr[i + 1]], coefs[ptr[i] : ptr[i + 1]])), RELATION[code], b)
        for i, (code, b) in enumerate(zip(rows.rel.tolist(), rows.rhs.tolist()))
    ]


def typed(rows) -> list:
    """Rows, from an IntRows matrix or as (terms, relation, rhs) tuples,
    with the type of every number, which == ignores."""
    if isinstance(rows, IntRows):
        rows = as_tuples(rows)
    return [
        (tuple((m, type(c), c) for m, c in terms), relation, type(b), b)
        for terms, relation, b in rows
    ]


class TestElemental:
    def test_counts(self):
        assert elemental_inequalities(2).m == 3
        assert elemental_inequalities(3).m == 3 + 3 * 2
        assert elemental_inequalities(7).m == 7 + 21 * 32

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
        assert any(set(terms) == expected for terms, _, _ in as_tuples(cons))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_rows_match_the_nested_loop(self, n):
        assert typed(elemental_inequalities(n)) == typed(reference_elemental(n))

    def test_conditional_entropy_rows_come_first(self):
        cons = as_tuples(elemental_inequalities(3))
        full = 0b111
        for i in range(3):
            assert set(cons[i][0]) == {(full, F(1)), (full ^ (1 << i), F(-1))}


class TestCdsConstraints:
    def test_fig2_counts(self, fig2):
        rel = cds_constraints(fig2).rel
        eqs = rel == CODE["="]
        norms = rel == CODE["<="]
        assert eqs.sum() == 9 and norms.sum() == 6 and (eqs | norms).all()

    def test_single_edge(self):
        inst = CdsInstance.from_edges([("q", "A1", "B1")])
        rel = cds_constraints(inst).rel
        assert (rel == CODE["="]).sum() == 1
        assert (rel == CODE["<="]).sum() == 2

    def test_empty_instance(self):
        inst = CdsInstance((), (), (), True)
        assert cds_constraints(inst).m == 0
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
    """The LP is built as one integer matrix; its rows, their text and
    what HiGHS is given are pinned."""

    @pytest.mark.parametrize("name", LP_INSTANCES)
    def test_constraints_match_the_row_by_row_build(self, name):
        inst = LP_INSTANCES[name]()
        lp = build_entropy_lp(inst)
        assert typed(lp.rows) == typed(reference_entropy_constraints(inst))
        assert lp.objective == ((1, 1),)

    def test_lp_is_a_frozen_value(self):
        """An EntropyLp compares and hashes by its ground set and rows, and
        prints as its (ground, constraints, objective)."""
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

    def test_lp_compares_without_rendering(self, monkeypatch):
        """== and hash read the ground set and the row arrays, so two
        ground-9 LPs compare with no row rendered, and one coefficient
        changed makes them differ."""
        lp = build_entropy_lp(builtin_example1_instance())
        again = build_entropy_lp(builtin_example1_instance())

        def render(lp, rows):
            raise AssertionError("a row was rendered")

        monkeypatch.setattr(entropy_lp, "_render", render)
        assert len(lp.ground) == 9
        assert lp == again and hash(lp) == hash(again)
        coef = lp.rows.coef.copy()
        coef[-1] += 1
        changed = dataclasses.replace(lp, rows=dataclasses.replace(lp.rows, coef=coef))
        assert changed != lp and hash(changed) == hash(lp)
        with pytest.raises(AssertionError, match="rendered"):
            changed.constraints

    # sha256 digests per LP: (linprog's arguments, lp_dump, dual_certificate).
    # The first was recorded before the LP was held as integer arrays:
    # every primal, dual and certificate follows from it.  The other two
    # were recorded while the renderers still read a second, tuple form
    # of the rows.
    DIGESTS = {
        "ladder4": (
            "bc6c936b80a705a2662024ef1d2d5d01eff672caafc47375b70cd0c280e95f2d",
            "c8196534fe766d490995248d98577832e20bfc0b5b4e21028b86854002cb33f3",
            "0d09b0e09dc2a22595831fa6f20b4e7b55212c1c64046a335a6e224fbd0f92db",
        ),
        "ladder5": (
            "0d17556748ddcc3734fe7aecc1bd3ed9a7db2012982d6902c7017cc75b603c52",
            "3bfaea48f21830ed5fea6927515ae1711dcc06eb515fd50f283e956ebf7fa5d5",
            "c50efa5ce349ec427d5966a981150a3725368cd264515653f0110d7d4cdd3a75",
        ),
        "ladder6": (
            "b0915eaad73d48d0b513806481fbea18e676f7e97c49f08b306066be9a13dd92",
            "23a42c58590c540211963b77a4970f62424a4eb07efb7703fc232027fb2ed7aa",
            "570808615ae528fe79cdeea75970984b0f8ce5d39fe7a2d99ea3b48065bfeb51",
        ),
        "ladder7": (
            "068d9a945a77140271a5e236abcc3254aed4d6b4afcc7e155a8e228616008b57",
            "d79c0aaf70e67e97cd3d6d034309626f484e5d44bbcde844003fa8cf86744581",
            "8aa372e2331b443511a7803777fda1c1b5252fd40a47a8ae64b817089e83ad9c",
        ),
        "ladder8": (
            "11b021c738f00972abc68b2ddb54d4838f96439a0385d4a09dd1d0483272e817",
            "3bf7bbc8ee32461157329ea4808e96a703b8c80e8243c7233b31ebd626c4b055",
            "1dd085da3ed1f3084169422d96a721755d693dbdf2f1da127ae954c8087ec524",
        ),
        "ladder9": (
            "dff0663cac9865e6c747e4bce958e20f6b18d23add6aa7cdb477ab47536648a7",
            "f19b33e5b47fc517bf0312252946d313b8a7699eaeb3a429ac27564977fe4243",
            "b82779887dfd60be47d727dc1e9ac46508af05c935f76a52912935d812cc4123",
        ),
        "fig2": (
            "068d9a945a77140271a5e236abcc3254aed4d6b4afcc7e155a8e228616008b57",
            "d79c0aaf70e67e97cd3d6d034309626f484e5d44bbcde844003fa8cf86744581",
            "8aa372e2331b443511a7803777fda1c1b5252fd40a47a8ae64b817089e83ad9c",
        ),
        "example1": (
            "dff0663cac9865e6c747e4bce958e20f6b18d23add6aa7cdb477ab47536648a7",
            "f19b33e5b47fc517bf0312252946d313b8a7699eaeb3a429ac27564977fe4243",
            "b82779887dfd60be47d727dc1e9ac46508af05c935f76a52912935d812cc4123",
        ),
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

    @pytest.mark.parametrize("name", DIGESTS)
    def test_highs_input_is_pinned(self, name, monkeypatch):
        import scipy.optimize

        linprog, seen = scipy.optimize.linprog, []

        def spy(c, **kwargs):
            seen.append(self.highs_input_digest(c, kwargs))
            return linprog(c, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", spy)
        shannon_bound(LP_INSTANCES[name]())
        assert seen == [self.DIGESTS[name][0]]

    @pytest.mark.parametrize("name", DIGESTS)
    def test_lp_text_is_pinned(self, name):
        res = solved(name)
        assert sha256(lp_dump(res.lp)) == self.DIGESTS[name][1]
        assert certificate_digest(res) == self.DIGESTS[name][2]

    @pytest.mark.parametrize("name", LP_INSTANCES)
    def test_constraints_are_the_rendered_rows(self, name):
        """One line of text per row, as ``lp_dump`` prints them, and one
        weighted line of the certificate per nonzero dual."""
        res = solved(name)
        lp, duals = res.lp, res.solution.duals
        constraints = lp.constraints  # rendered on every read
        assert len(constraints) == lp.rows.m
        assert lp_dump(lp).splitlines()[1:] == list(constraints)
        weighted = dual_certificate(res.solution, lp).splitlines()[2:-1]
        assert weighted == [f"  {y} * [{constraints[i]}]" for i, y in enumerate(duals) if y]


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

        relations = lp.rows.rel.tolist()
        ge, le = relations.index(CODE[">="]), relations.index(CODE["<="])
        with pytest.raises(CertificateError, match="positive weight on a >="):
            verify_certificate(tampered([(ge, F(1))]), lp)
        with pytest.raises(CertificateError, match="negative weight on a <="):
            verify_certificate(tampered([(le, F(-1))]), lp)
        # Row 0 is H(full) - H(full - X_0) >= 0: more weight of its sign
        # leaves y.b alone and lowers only the column of the full set.
        full = (1 << len(lp.ground)) - 1
        rows = as_tuples(lp.rows)
        assert rows[0][0] == ((full, 1), (full - 1, -1))
        slack = sum(
            (y * c for (terms, _, _), y in zip(rows, sol.duals) for m, c in terms if m == full),
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
        # The point is rank / norm; every row is checked times norm, in
        # Python ints.
        norm = sch.max_signal_len()
        ranks = [joint_rank(table, lp.subset_names(m)) for m in range(1, lp.n_vars + 1)]
        rows = lp.rows
        ptr, col, coef = rows.ptr.tolist(), rows.col.tolist(), rows.coef.tolist()
        for i, (code, b) in enumerate(zip(rows.rel.tolist(), rows.rhs.tolist())):
            lhs = sum(coef[k] * ranks[col[k]] for k in range(ptr[i], ptr[i + 1]))
            sign = (lhs > b * norm) - (lhs < b * norm)
            assert sign in (code, 0), lp.constraints[i]
        if which == "fig2":
            # The achieved (normalized) secret entropy sits below the bound.
            res = shannon_bound(inst)
            assert F(ranks[lp.subset_mask(["S"]) - 1], norm) <= res.entropy_bound


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
        # The LP's first row is the first elemental row.
        assert as_tuples(lp.rows)[0] == as_tuples(elemental_inequalities(3))[0]
        assert lp.constraints[0] == "H(S,A1,B1) - H(A1,B1) >= 0"
