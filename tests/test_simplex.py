"""Tests for the exact rational simplex."""

import operator
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from cdskit import simplex
from cdskit.simplex import CertificateError, IntRows, LpSolution, solve_lp

F = Fraction


def int_rows(constraints) -> IntRows:
    """Integer triples (coeffs, relation, rhs) as the rows ``solve_lp``
    takes, entry for entry: no scaling and no checks.  Coefficients and
    right-hand sides are int64, or object arrays where one does not fit."""

    def ints(values):
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return np.array(values, dtype=object)

    ptr, col, coef = [0], [], []
    for coeffs, _, _ in constraints:
        col += [j for j, _ in coeffs]
        coef += [c for _, c in coeffs]
        ptr.append(len(col))
    return IntRows(
        np.array(ptr, dtype=np.int64),
        np.array(col, dtype=np.int64),
        ints(coef),
        np.array([simplex.CODE[r] for _, r, _ in constraints], dtype=np.int8),
        ints([b for _, _, b in constraints]),
    )


def recombine(constraints, duals) -> tuple[dict[int, Fraction], Fraction]:
    """Weighted sum of constraint rows and right-hand sides."""
    combo: dict[int, Fraction] = {}
    total = F(0)
    for (coeffs, _, rhs), y in zip(constraints, duals):
        if y == 0:
            continue
        for j, c in coeffs:
            combo[j] = combo.get(j, F(0)) + y * F(c)
        total += y * F(rhs)
    return combo, total


def assert_certificate(n, objective, constraints, sol: LpSolution) -> None:
    """Exact strong duality: weights valid in sign, dominating the
    objective componentwise, and recombining to the optimum."""
    combo, total = recombine(constraints, sol.duals)
    assert total == sol.value
    obj = dict(objective)
    for j in range(n):
        assert combo.get(j, F(0)) >= obj.get(j, F(0))
    for (_, rel, _), y in zip(constraints, sol.duals):
        if rel == "<=":
            assert y >= 0
        elif rel == ">=":
            assert y <= 0


class TestBasics:
    def test_single_bound(self):
        sol = solve_lp(1, [(0, F(1))], int_rows([([(0, 1)], "<=", 1)]))
        assert sol.status == "optimal"
        assert sol.value == 1
        assert sol.primal == (F(1),)

    def test_two_variable_cap(self):
        cons = [
            ([(0, 2), (1, 2)], "<=", 3),  # x0 + x1 <= 3/2
            ([(0, 1)], "<=", 1),
            ([(1, 1)], "<=", 1),
        ]
        sol = solve_lp(2, [(0, F(1)), (1, F(1))], int_rows(cons))
        assert sol.value == F(3, 2)
        assert_certificate(2, [(0, F(1)), (1, F(1))], cons, sol)

    def test_inactive_constraint(self):
        cons = [
            ([(0, 1), (1, 1)], "<=", 4),
            ([(0, 1)], "<=", 2),
        ]
        sol = solve_lp(2, [(0, F(2)), (1, F(3))], int_rows(cons))
        assert sol.value == 12  # all mass on y
        assert sol.primal == (F(0), F(4))

    def test_equality_and_ge(self):
        # max x + y with x + y = 2, x >= 1/2: optimum 2.
        cons = [
            ([(0, 1), (1, 1)], "=", 2),
            ([(0, 2)], ">=", 1),
        ]
        sol = solve_lp(2, [(0, F(1)), (1, F(1))], int_rows(cons))
        assert sol.status == "optimal" and sol.value == 2
        assert sol.primal[0] >= F(1, 2)
        assert_certificate(2, [(0, F(1)), (1, F(1))], cons, sol)

    def test_negative_rhs_normalization(self):
        # -x <= -3  means x >= 3; minimize x by maximizing -x.
        cons = [([(0, -1)], "<=", -3), ([(0, 1)], "<=", 10)]
        sol = solve_lp(1, [(0, F(-1))], int_rows(cons))
        assert sol.value == -3
        assert sol.primal == (F(3),)
        assert_certificate(1, [(0, F(-1))], cons, sol)

    def test_exact_fractions_survive(self):
        cons = [([(0, 9), (1, 21)], "<=", 1)]  # 3 x0 + 7 x1 <= 1/3
        sol = solve_lp(2, [(0, F(1))], int_rows(cons))
        assert sol.value == F(1, 9)


class TestProposalRounding:
    def test_optimum_beyond_the_denominator_cap(self):
        # x = 1/8191 rounds to no feasible optimal pair under the cap,
        # so the rational tableau must supply the exact optimum.
        cons = [([(0, 8191)], "<=", 1)]
        sol = solve_lp(1, [(0, 1)], int_rows(cons))
        assert sol.status == "optimal"
        assert sol.value == F(1, 8191)
        assert sol.primal == (F(1, 8191),)
        assert_certificate(1, [(0, 1)], cons, sol)

    def test_highs_entries_are_the_rounded_integers(self, monkeypatch):
        # An integer entry goes to HiGHS as float() of the int, also where
        # it has more bits than a float64 holds (int64 rows) or does not
        # fit in int64 (object rows).  An entry beyond float64's range
        # leaves the LP to the tableau.
        import scipy.optimize

        linprog, seen = scipy.optimize.linprog, []

        def spy(c, **kwargs):
            seen.append(kwargs)
            return linprog(c, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", spy)
        num = [1, -7, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, -((1 << 53) + 1), (1 << 62) + 1]
        for entries in (num, num + [(1 << 70) + 1]):
            cons = [([(j, a)], "<=", a) for j, a in enumerate(entries)]
            seen.clear()
            assert solve_lp(len(entries), [], int_rows(cons)).status == "optimal"
            (kwargs,) = seen
            assert kwargs["A_ub"].data.tolist() == [float(a) for a in entries]
            assert kwargs["b_ub"].tolist() == [float(a) for a in entries]
        seen.clear()
        cons = [([(0, 1), (1, 3**700)], "<=", 3**700)]
        sol = solve_lp(2, [(1, 1)], int_rows(cons))
        assert sol.value == 1 and not seen
        assert_certificate(2, [(1, 1)], cons, sol)

    def test_importing_the_package_loads_no_scipy(self):
        code = (
            "import sys, cdskit, cdskit.cli; "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestStatuses:
    def test_infeasible(self):
        cons = [([(0, 1)], ">=", 2), ([(0, 1)], "<=", 1)]
        assert solve_lp(1, [(0, F(1))], int_rows(cons)).status == "infeasible"

    def test_unbounded(self):
        cons = [([(0, 1)], ">=", 1)]
        assert solve_lp(1, [(0, F(1))], int_rows(cons)).status == "unbounded"

    def test_zero_objective_feasible(self):
        sol = solve_lp(1, [], int_rows([([(0, 1)], "<=", 5)]))
        assert sol.status == "optimal" and sol.value == 0


class TestInputChecks:
    GOOD = int_rows([([(0, 1), (1, 1)], "<=", 2), ([(0, 1)], "<=", 1)])

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("rel", [5, -1], id="relation code 5"),
            pytest.param("rel", [-1, -5], id="relation code -5"),
            pytest.param("ptr", [0, 3], id="ptr one short"),
            pytest.param("ptr", [1, 2, 3], id="ptr not from 0"),
            pytest.param("ptr", [0, 4, 3], id="ptr decreasing"),
            pytest.param("ptr", [0, 2, 5], id="ptr past the entries"),
            pytest.param("coef", [1, 1], id="coef shorter than col"),
            pytest.param("rhs", [2], id="rhs shorter than rel"),
            pytest.param("col", [0, 2, 0], id="col past n_vars"),
            pytest.param("col", [0, -1, 0], id="col negative"),
        ],
    )
    def test_malformed_rows_are_rejected(self, field, value):
        assert solve_lp(2, [(0, 1)], self.GOOD).value == 1
        bad = replace(self.GOOD, **{field: np.array(value, dtype=getattr(self.GOOD, field).dtype)})
        with pytest.raises(ValueError):
            solve_lp(2, [(0, 1)], bad)

    @pytest.mark.parametrize("objective", [[(2, 1)], [(-1, 1)]])
    def test_objective_index_out_of_range(self, objective):
        with pytest.raises(ValueError, match="objective"):
            solve_lp(2, objective, self.GOOD)

    @pytest.mark.parametrize(
        "constraints, status, duals",
        [
            ([([], "<=", -1)], "infeasible", None),
            ([([], "<=", 1)], "optimal", (0,)),
            ([], "optimal", ()),
        ],
    )
    def test_no_variables_leave_the_tableau_to_decide(
        self, monkeypatch, constraints, status, duals
    ):
        def propose(*args):
            raise AssertionError("HiGHS called on an LP with no variables")

        monkeypatch.setattr(simplex, "_propose", propose)
        sol = solve_lp(0, [], int_rows(constraints))
        assert sol.status == status and sol.duals == duals
        if status == "optimal":
            assert sol.value == 0 and sol.primal == ()


# Beale's rows, each times 100 to clear its denominators:
#   x0/4 - 60 x1 - x2/25 + 9 x3 <= 0,  x0/2 - 90 x1 - x2/50 + 3 x3 <= 0.
BEALE = [
    ([(0, 25), (1, -6000), (2, -4), (3, 900)], "<=", 0),
    ([(0, 50), (1, -9000), (2, -2), (3, 300)], "<=", 0),
    ([(2, 1)], "<=", 1),
]


class TestDegenerate:
    def test_beale_cycling_example_terminates(self):
        # Beale's classic cycling LP; Bland's rule must terminate at 1/20.
        objective = [(0, F(3, 4)), (1, F(-150)), (2, F(1, 50)), (3, F(-6))]
        cons = BEALE
        sol = solve_lp(4, objective, int_rows(cons))
        assert sol.status == "optimal"
        assert sol.value == F(1, 20)
        assert_certificate(4, objective, cons, sol)

    def test_redundant_equalities(self):
        cons = [
            ([(0, 1), (1, 1)], "=", 1),
            ([(0, 2), (1, 2)], "=", 2),
            ([(0, 1)], "<=", 1),
        ]
        sol = solve_lp(2, [(0, F(1))], int_rows(cons))
        assert sol.status == "optimal" and sol.value == 1


def decline(n_vars, obj, rows):
    """A HiGHS proposal that is always turned down."""
    return None


class TestPureExactEngine:
    """The rational tableau must agree with the accelerated path.  The
    tests reach it by having the HiGHS proposal turned down."""

    @pytest.fixture
    def no_proposal(self, monkeypatch):
        monkeypatch.setattr(simplex, "_propose", decline)

    def test_beale_without_acceleration(self, no_proposal):
        objective = [(0, F(3, 4)), (1, F(-150)), (2, F(1, 50)), (3, F(-6))]
        cons = BEALE
        sol = solve_lp(4, objective, int_rows(cons))
        assert sol.status == "optimal" and sol.value == F(1, 20)
        assert_certificate(4, objective, cons, sol)

    def test_statuses_without_acceleration(self, no_proposal):
        infeasible = int_rows([([(0, 1)], ">=", 2), ([(0, 1)], "<=", 1)])
        assert solve_lp(1, [(0, F(1))], infeasible).status == "infeasible"
        unbounded = int_rows([([(0, 1)], ">=", 1)])
        assert solve_lp(1, [(0, F(1))], unbounded).status == "unbounded"

    def test_wrong_tableau_primal_is_rejected(self, monkeypatch, no_proposal):
        exact = simplex._solve_exact

        def shifted(n_vars, obj, rows):
            sol = exact(n_vars, obj, rows)
            primal = (sol.primal[0] + 1, *sol.primal[1:])
            return LpSolution(sol.status, sol.value, primal, sol.duals)

        monkeypatch.setattr(simplex, "_solve_exact", shifted)
        with pytest.raises(AssertionError):
            solve_lp(1, [(0, F(1))], int_rows([([(0, 1)], "<=", 1)]))

    def test_matches_accelerated_values_on_random_lps(self, monkeypatch):
        rng = random.Random(1618)
        done = 0
        while done < 25:
            n = rng.randrange(1, 4)
            objective = [(j, F(rng.randrange(-3, 4))) for j in range(n)]
            cons = [
                (
                    [(j, rng.randrange(-2, 4)) for j in range(n)],
                    rng.choice(["<=", "=", ">="]),
                    rng.randrange(0, 5),
                )
                for _ in range(rng.randrange(1, 5))
            ]
            for j in range(n):
                cons.append(([(j, 1)], "<=", 8))
            fast = solve_lp(n, objective, int_rows(cons))
            with monkeypatch.context() as patch:
                patch.setattr(simplex, "_propose", decline)
                slow = solve_lp(n, objective, int_rows(cons))
            assert fast.status == slow.status
            if fast.status == "optimal":
                assert fast.value == slow.value
                assert_certificate(n, objective, cons, slow)
            done += 1


class TestRandomized:
    def test_duals_certify_random_lps(self):
        rng = random.Random(314)
        solved = 0
        while solved < 40:
            n = rng.randrange(1, 5)
            objective = [(j, F(rng.randrange(-3, 4))) for j in range(n)]
            cons = []
            for _ in range(rng.randrange(1, 6)):
                coeffs = [(j, rng.randrange(-3, 4)) for j in range(n)]
                rel = rng.choice(["<=", "<=", "=", ">="])
                cons.append((coeffs, rel, rng.randrange(0, 6)))
            # Keep the region bounded so optima exist.
            for j in range(n):
                cons.append(([(j, 1)], "<=", 10))
            sol = solve_lp(n, objective, int_rows(cons))
            if sol.status != "optimal":
                continue
            solved += 1
            for coeffs, rel, rhs in cons:
                lhs = sum(F(c) * sol.primal[j] for j, c in coeffs)
                if rel == "<=":
                    assert lhs <= rhs
                elif rel == ">=":
                    assert lhs >= rhs
                else:
                    assert lhs == rhs
            assert_certificate(n, objective, cons, sol)

    def test_matches_brute_force_on_vertices(self):
        # 2-variable LPs: compare against enumerating constraint
        # intersections (the optimum sits on a vertex of the polygon).
        import itertools

        rng = random.Random(2718)
        done = 0
        while done < 30:
            objective = [(0, F(rng.randrange(-3, 4))), (1, F(rng.randrange(-3, 4)))]
            cons = [
                (
                    [(0, rng.randrange(-2, 4)), (1, rng.randrange(-2, 4))],
                    "<=",
                    rng.randrange(0, 7),
                )
                for _ in range(4)
            ]
            cons.append(([(0, 1)], "<=", 7))
            cons.append(([(1, 1)], "<=", 7))
            rows = [c for c in cons] + [
                ([(0, 1)], ">=", 0),
                ([(1, 1)], ">=", 0),
            ]
            candidates = []
            for (ca, _, ba), (cb, _, bb) in itertools.combinations(rows, 2):
                a = {j: F(c) for j, c in ca}
                b = {j: F(c) for j, c in cb}
                det = a.get(0, F(0)) * b.get(1, F(0)) - a.get(1, F(0)) * b.get(0, F(0))
                if det == 0:
                    continue
                x = (F(ba) * b.get(1, F(0)) - a.get(1, F(0)) * F(bb)) / det
                y = (a.get(0, F(0)) * F(bb) - F(ba) * b.get(0, F(0))) / det
                if x < 0 or y < 0:
                    continue
                if all(
                    sum(F(c) * (x, y)[j] for j, c in cc) <= rr for cc, _, rr in cons
                ):
                    candidates.append((x, y))
            if not candidates:
                continue
            best = max(
                sum(F(c) * pt[j] for j, c in objective) for pt in candidates
            )
            sol = solve_lp(2, objective, int_rows(cons))
            assert sol.status == "optimal"
            assert sol.value == best
            done += 1


def reference_dual_bound(n, objective, constraints, duals):
    """Fraction reference for ``dual_bound``: y.b if every dual has its
    row's sign and the weighted rows dominate the objective, else None."""
    for (_, rel, _), y in zip(constraints, duals):
        if (rel == "<=" and y < 0) or (rel == ">=" and y > 0):
            return None
    combo, total = recombine(constraints, duals)
    obj = dict(objective)
    if any(combo.get(j, F(0)) < obj.get(j, F(0)) for j in range(n)):
        return None
    return total


def reference_certify(n, objective, constraints, primal, duals):
    """Fraction reference for ``_certify``: c.x if (primal, duals) is an
    exactly optimal pair, None otherwise."""
    if any(x < 0 for x in primal):
        return None
    for coeffs, rel, rhs in constraints:
        lhs = sum(F(c) * primal[j] for j, c in coeffs)
        if not {"<=": operator.le, ">=": operator.ge, "=": operator.eq}[rel](lhs, rhs):
            return None
    value = sum(F(c) * primal[j] for j, c in objective)
    return value if reference_dual_bound(n, objective, constraints, duals) == value else None


class TestCertify:
    """Each check of the exact acceptance test, one fault at a time.

    max x0/2 + x1/2 over
      r0  3 x0 + 2 x1 <= 5        r3  x2 = 1
      r1  -3 x0 - 2 x1 >= -5      r4  x3 >= 1
      r2  x0 - x1 = 0             r5  2 x3 <= 4
    with x4 in no row.  r0 and r1 are one half-plane, so weight moves
    between them without changing y^T A or y.b; x2, x3 and x4 touch
    neither the objective nor r0-r2.  Optimum 1 at x = (1, 1, 1, 1, 0)
    with y = (1/5, 0, -1/10, 0, 0, 0).
    """

    N = 5
    OBJECTIVE = [(0, F(1, 2)), (1, F(1, 2))]
    CONSTRAINTS = [
        ([(0, 3), (1, 2)], "<=", 5),
        ([(0, -3), (1, -2)], ">=", -5),
        ([(0, 1), (1, -1)], "=", 0),
        ([(2, 1)], "=", 1),
        ([(3, 1)], ">=", 1),
        ([(3, 2)], "<=", 4),
    ]
    PRIMAL = (F(1), F(1), F(1), F(1), F(0))
    DUALS = (F(1, 5), F(0), F(-1, 10), F(0), F(0), F(0))

    def certify(self, primal=PRIMAL, duals=DUALS):
        obj, cons = self.OBJECTIVE, self.CONSTRAINTS
        rows = int_rows(cons)
        got = simplex._certify(self.N, simplex._sparse(obj), rows, list(primal), list(duals))
        assert got == reference_certify(self.N, obj, cons, tuple(primal), tuple(duals))
        return got

    def test_optimal_pair_is_accepted(self, monkeypatch):
        value = self.certify()
        assert value == 1 and type(value) is Fraction
        # Each engine's duals certify the given rows.
        obj, cons = self.OBJECTIVE, self.CONSTRAINTS
        for propose in (simplex._propose, decline):
            monkeypatch.setattr(simplex, "_propose", propose)
            sol = solve_lp(self.N, obj, int_rows(cons))
            assert sol.value == 1
            assert reference_certify(self.N, obj, cons, sol.primal, sol.duals) == 1

    @pytest.mark.parametrize(
        "index, entry, fault",
        [
            (4, F(-1), "negative primal entry"),
            (3, F(3), "violated <= row (r5)"),
            (3, F(0), "violated >= row (r4)"),
            (2, F(2), "violated = row (r3)"),
        ],
    )
    def test_primal_fault_is_rejected(self, index, entry, fault):
        primal = list(self.PRIMAL)
        primal[index] = entry
        assert self.certify(primal=primal) is None, fault

    @pytest.mark.parametrize(
        "changes, fault",
        [
            ({0: F(-1, 6), 1: F(-11, 30)}, "negative dual on a <= row"),
            ({0: F(11, 30), 1: F(1, 6)}, "positive dual on a >= row"),
            ({3: F(1), 4: F(-1)}, "column x3 has y^T A < c"),
            ({5: F(1, 2)}, "c.x != y.b"),
        ],
    )
    def test_dual_fault_is_rejected(self, changes, fault):
        duals = list(self.DUALS)
        for i, y in changes.items():
            duals[i] = y
        assert self.certify(duals=duals) is None, fault

    @pytest.mark.parametrize(
        "objective, constraints, primal, duals, want",
        [
            # 2^62 * 4 wraps to 0 in int64, which would pass the row.
            ([], [([(0, 1 << 62)], "<=", 1 << 62)], [F(4)], [F(0)], None),
            # The right-hand side 3 * 2^63 does not fit in int64.
            ([(0, 1)], [([(0, 1 << 62)], "<=", 3 << 63)], [F(6)], [F(1, 1 << 62)], F(6)),
            # y.b = 2^62 * 4 = 2^64 wraps to 0 in int64.
            ([(0, 1 << 62)], [([(0, 1)], "<=", 4)], [F(4)], [F(1 << 62)], F(1 << 64)),
        ],
    )
    def test_values_beyond_int64_stay_exact(self, objective, constraints, primal, duals, want):
        n = 1
        got = simplex._certify(n, simplex._sparse(objective), int_rows(constraints), primal, duals)
        assert got == want == reference_certify(n, objective, constraints, primal, duals)

    def test_verdicts_match_the_fraction_reference(self):
        rng = random.Random(577)
        verdicts = {True: 0, False: 0}
        for _ in range(200):
            n = rng.randrange(1, 5)
            objective = [(j, F(rng.randrange(-3, 4), rng.randrange(1, 4))) for j in range(n)]
            cons = []
            for _ in range(rng.randrange(1, 5)):
                coeffs = [(j, F(rng.randrange(-3, 4), rng.randrange(1, 5))) for j in range(n)]
                rel = rng.choice(["<=", "<=", "=", ">="])
                rhs = F(rng.randrange(-1, 6), rng.randrange(1, 4))
                # The drawn row times the lcm of its denominators.
                s = lcm(rhs.denominator, *(c.denominator for _, c in coeffs))
                cons.append(([(j, int(c * s)) for j, c in coeffs], rel, int(rhs * s)))
            cons += [([(j, 1)], "<=", 10) for j in range(n)]
            rows = int_rows(cons)
            sol = solve_lp(n, objective, rows)
            if sol.status == "optimal":
                primal, duals = list(sol.primal), list(sol.duals)
            else:
                primal = [F(rng.randrange(0, 4), rng.randrange(1, 3)) for _ in range(n)]
                duals = [F(rng.randrange(-2, 3), rng.randrange(1, 3)) for _ in cons]
            fault = rng.randrange(6)
            delta = F(rng.choice([-1, 1]), rng.randrange(1, 7))
            if fault == 1:
                primal[rng.randrange(n)] += delta
            elif fault == 2:
                duals[rng.randrange(len(duals))] += delta
            elif fault == 3:
                i = rng.randrange(len(duals))
                duals[i] = -duals[i]
            elif fault == 4:
                i, k = rng.randrange(len(duals)), rng.randrange(len(duals))
                duals[i], duals[k] = duals[k], duals[i]
            elif fault == 5:
                j = rng.randrange(n)
                primal[j] = -primal[j]
            obj = simplex._sparse(objective)
            got = simplex._certify(n, obj, rows, primal, duals)
            assert got == reference_certify(n, objective, cons, tuple(primal), tuple(duals))
            try:
                bound = simplex.dual_bound(n, obj, rows, duals)
            except CertificateError:
                bound = None
            assert bound == reference_dual_bound(n, objective, cons, duals)
            verdicts[got is not None] += 1
        assert min(verdicts.values()) >= 40, verdicts
