"""Tests for the exact rational simplex."""

import operator
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from cdskit import simplex
from cdskit.simplex import CertificateError, LpSolution, solve_lp

F = Fraction


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
        sol = solve_lp(1, [(0, F(1))], [([(0, F(1))], "<=", F(1))])
        assert sol.status == "optimal"
        assert sol.value == 1
        assert sol.primal == (F(1),)

    def test_two_variable_cap(self):
        cons = [
            ([(0, F(1)), (1, F(1))], "<=", F(3, 2)),
            ([(0, F(1))], "<=", F(1)),
            ([(1, F(1))], "<=", F(1)),
        ]
        sol = solve_lp(2, [(0, F(1)), (1, F(1))], cons)
        assert sol.value == F(3, 2)
        assert_certificate(2, [(0, F(1)), (1, F(1))], cons, sol)

    def test_inactive_constraint(self):
        cons = [
            ([(0, F(1)), (1, F(1))], "<=", F(4)),
            ([(0, F(1))], "<=", F(2)),
        ]
        sol = solve_lp(2, [(0, F(2)), (1, F(3))], cons)
        assert sol.value == 12  # all mass on y
        assert sol.primal == (F(0), F(4))

    def test_equality_and_ge(self):
        # max x + y with x + y = 2, x >= 1/2: optimum 2.
        cons = [
            ([(0, F(1)), (1, F(1))], "=", F(2)),
            ([(0, F(1))], ">=", F(1, 2)),
        ]
        sol = solve_lp(2, [(0, F(1)), (1, F(1))], cons)
        assert sol.status == "optimal" and sol.value == 2
        assert sol.primal[0] >= F(1, 2)
        assert_certificate(2, [(0, F(1)), (1, F(1))], cons, sol)

    def test_negative_rhs_normalization(self):
        # -x <= -3  means x >= 3; minimize x by maximizing -x.
        cons = [([(0, F(-1))], "<=", F(-3)), ([(0, F(1))], "<=", F(10))]
        sol = solve_lp(1, [(0, F(-1))], cons)
        assert sol.value == -3
        assert sol.primal == (F(3),)
        assert_certificate(1, [(0, F(-1))], cons, sol)

    def test_exact_fractions_survive(self):
        cons = [([(0, F(3)), (1, F(7))], "<=", F(1, 3))]
        sol = solve_lp(2, [(0, F(1))], cons)
        assert sol.value == F(1, 9)


class TestProposalRounding:
    def test_optimum_beyond_the_denominator_cap(self):
        # x = 1/8191 rounds to no feasible optimal pair under the cap,
        # so the rational tableau must supply the exact optimum.
        cons = [([(0, 8191)], "<=", 1)]
        sol = solve_lp(1, [(0, 1)], cons)
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
            assert solve_lp(len(entries), [], cons).status == "optimal"
            (kwargs,) = seen
            assert kwargs["A_ub"].data.tolist() == [float(a) for a in entries]
            assert kwargs["b_ub"].tolist() == [float(a) for a in entries]
        seen.clear()
        cons = [([(0, F(1, 3**700)), (1, 1)], "<=", 1)]
        sol = solve_lp(2, [(1, 1)], cons)
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
        cons = [([(0, F(1))], ">=", F(2)), ([(0, F(1))], "<=", F(1))]
        assert solve_lp(1, [(0, F(1))], cons).status == "infeasible"

    def test_unbounded(self):
        cons = [([(0, F(1))], ">=", F(1))]
        assert solve_lp(1, [(0, F(1))], cons).status == "unbounded"

    def test_zero_objective_feasible(self):
        sol = solve_lp(1, [], [([(0, F(1))], "<=", F(5))])
        assert sol.status == "optimal" and sol.value == 0


class TestDegenerate:
    def test_beale_cycling_example_terminates(self):
        # Beale's classic cycling LP; Bland's rule must terminate at 1/20.
        objective = [(0, F(3, 4)), (1, F(-150)), (2, F(1, 50)), (3, F(-6))]
        cons = [
            ([(0, F(1, 4)), (1, F(-60)), (2, F(-1, 25)), (3, F(9))], "<=", F(0)),
            ([(0, F(1, 2)), (1, F(-90)), (2, F(-1, 50)), (3, F(3))], "<=", F(0)),
            ([(2, F(1))], "<=", F(1)),
        ]
        sol = solve_lp(4, objective, cons)
        assert sol.status == "optimal"
        assert sol.value == F(1, 20)
        assert_certificate(4, objective, cons, sol)

    def test_redundant_equalities(self):
        cons = [
            ([(0, F(1)), (1, F(1))], "=", F(1)),
            ([(0, F(2)), (1, F(2))], "=", F(2)),
            ([(0, F(1))], "<=", F(1)),
        ]
        sol = solve_lp(2, [(0, F(1))], cons)
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
        cons = [
            ([(0, F(1, 4)), (1, F(-60)), (2, F(-1, 25)), (3, F(9))], "<=", F(0)),
            ([(0, F(1, 2)), (1, F(-90)), (2, F(-1, 50)), (3, F(3))], "<=", F(0)),
            ([(2, F(1))], "<=", F(1)),
        ]
        sol = solve_lp(4, objective, cons)
        assert sol.status == "optimal" and sol.value == F(1, 20)
        assert_certificate(4, objective, cons, sol)

    def test_statuses_without_acceleration(self, no_proposal):
        infeasible = [([(0, F(1))], ">=", F(2)), ([(0, F(1))], "<=", F(1))]
        assert solve_lp(1, [(0, F(1))], infeasible).status == "infeasible"
        unbounded = [([(0, F(1))], ">=", F(1))]
        assert solve_lp(1, [(0, F(1))], unbounded).status == "unbounded"

    def test_wrong_tableau_primal_is_rejected(self, monkeypatch, no_proposal):
        exact = simplex._solve_exact

        def shifted(n_vars, obj, rows):
            sol = exact(n_vars, obj, rows)
            primal = (sol.primal[0] + 1, *sol.primal[1:])
            return LpSolution(sol.status, sol.value, primal, sol.duals)

        monkeypatch.setattr(simplex, "_solve_exact", shifted)
        with pytest.raises(AssertionError):
            solve_lp(1, [(0, F(1))], [([(0, F(1))], "<=", F(1))])

    def test_matches_accelerated_values_on_random_lps(self, monkeypatch):
        rng = random.Random(1618)
        done = 0
        while done < 25:
            n = rng.randrange(1, 4)
            objective = [(j, F(rng.randrange(-3, 4))) for j in range(n)]
            cons = [
                (
                    [(j, F(rng.randrange(-2, 4))) for j in range(n)],
                    rng.choice(["<=", "=", ">="]),
                    F(rng.randrange(0, 5)),
                )
                for _ in range(rng.randrange(1, 5))
            ]
            for j in range(n):
                cons.append(([(j, F(1))], "<=", F(8)))
            fast = solve_lp(n, objective, cons)
            with monkeypatch.context() as patch:
                patch.setattr(simplex, "_propose", decline)
                slow = solve_lp(n, objective, cons)
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
                coeffs = [(j, F(rng.randrange(-3, 4))) for j in range(n)]
                rel = rng.choice(["<=", "<=", "=", ">="])
                cons.append((coeffs, rel, F(rng.randrange(0, 6))))
            # Keep the region bounded so optima exist.
            for j in range(n):
                cons.append(([(j, F(1))], "<=", F(10)))
            sol = solve_lp(n, objective, cons)
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
                    [(0, F(rng.randrange(-2, 4))), (1, F(rng.randrange(-2, 4)))],
                    "<=",
                    F(rng.randrange(0, 7)),
                )
                for _ in range(4)
            ]
            cons.append(([(0, F(1))], "<=", F(7)))
            cons.append(([(1, F(1))], "<=", F(7)))
            rows = [c for c in cons] + [
                ([(0, F(1))], ">=", F(0)),
                ([(1, F(1))], ">=", F(0)),
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
            sol = solve_lp(2, objective, cons)
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


def integer_form(n, constraints, duals):
    """The triples as ``solve_lp`` holds them, integer rows, and the
    given rows' duals as those rows' duals (each over its row's scale)."""
    rows, scales = simplex._parse(n, constraints)
    return rows, [F(y) / s for y, s in zip(duals, scales)]


class TestCertify:
    """Each check of the exact acceptance test, one fault at a time.

    max x0/2 + x1/2 over
      r0  x0/2 + x1/3 <= 5/6      r3  x2/3 = 1/3
      r1  -x0/2 - x1/3 >= -5/6    r4  x3/2 >= 1/2
      r2  x0 - x1 = 0             r5  2 x3/3 <= 4/3
    with x4 in no row.  r0 and r1 are one half-plane, so weight moves
    between them without changing y^T A or y.b; x2, x3 and x4 touch
    neither the objective nor r0-r2.  Optimum 1 at x = (1, 1, 1, 1, 0)
    with y = (6/5, 0, -1/10, 0, 0, 0).
    """

    N = 5
    OBJECTIVE = [(0, F(1, 2)), (1, F(1, 2))]
    CONSTRAINTS = [
        ([(0, F(1, 2)), (1, F(1, 3))], "<=", F(5, 6)),
        ([(0, F(-1, 2)), (1, F(-1, 3))], ">=", F(-5, 6)),
        ([(0, 1), (1, -1)], "=", 0),
        ([(2, F(1, 3))], "=", F(1, 3)),
        ([(3, F(1, 2))], ">=", F(1, 2)),
        ([(3, F(2, 3))], "<=", F(4, 3)),
    ]
    PRIMAL = (F(1), F(1), F(1), F(1), F(0))
    DUALS = (F(6, 5), F(0), F(-1, 10), F(0), F(0), F(0))

    def certify(self, primal=PRIMAL, duals=DUALS):
        obj, cons = self.OBJECTIVE, self.CONSTRAINTS
        rows, int_duals = integer_form(self.N, cons, duals)
        got = simplex._certify(self.N, simplex._sparse(obj), rows, list(primal), int_duals)
        assert got == reference_certify(self.N, obj, cons, tuple(primal), tuple(duals))
        return got

    def test_optimal_pair_is_accepted(self, monkeypatch):
        value = self.certify()
        assert value == 1 and type(value) is Fraction
        # Each engine's duals are those of the given rows, whose scales
        # run up to 6.
        obj, cons = self.OBJECTIVE, self.CONSTRAINTS
        for propose in (simplex._propose, decline):
            monkeypatch.setattr(simplex, "_propose", propose)
            sol = solve_lp(self.N, obj, cons)
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
            ({0: F(-1), 1: F(-11, 5)}, "negative dual on a <= row"),
            ({0: F(11, 5), 1: F(1)}, "positive dual on a >= row"),
            ({3: F(3), 4: F(-2)}, "column x3 has y^T A < c"),
            ({5: F(3, 2)}, "c.x != y.b"),
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
        rows, int_duals = integer_form(n, constraints, duals)
        got = simplex._certify(n, simplex._sparse(objective), rows, primal, int_duals)
        assert got == want == reference_certify(n, objective, constraints, primal, duals)

    def test_verdicts_match_the_fraction_reference(self):
        rng = random.Random(577)
        verdicts = {True: 0, False: 0}
        for _ in range(200):
            n = rng.randrange(1, 5)
            objective = [(j, F(rng.randrange(-3, 4), rng.randrange(1, 4))) for j in range(n)]
            cons = [
                (
                    [(j, F(rng.randrange(-3, 4), rng.randrange(1, 5))) for j in range(n)],
                    rng.choice(["<=", "<=", "=", ">="]),
                    F(rng.randrange(-1, 6), rng.randrange(1, 4)),
                )
                for _ in range(rng.randrange(1, 5))
            ]
            cons += [([(j, 1)], "<=", 10) for j in range(n)]
            sol = solve_lp(n, objective, cons)
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
            rows, int_duals = integer_form(n, cons, duals)
            got = simplex._certify(n, obj, rows, primal, int_duals)
            assert got == reference_certify(n, objective, cons, tuple(primal), tuple(duals))
            try:
                bound = simplex.dual_bound(n, obj, rows, int_duals)
            except CertificateError:
                bound = None
            assert bound == reference_dual_bound(n, objective, cons, duals)
            verdicts[got is not None] += 1
        assert min(verdicts.values()) >= 40, verdicts
