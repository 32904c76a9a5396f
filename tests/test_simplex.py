"""Tests for the exact rational simplex."""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

from cdskit import simplex
from cdskit.simplex import LpSolution, solve_lp

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


class TestPureExactEngine:
    """The rational tableau must agree with the accelerated path."""

    def test_beale_without_acceleration(self):
        objective = [(0, F(3, 4)), (1, F(-150)), (2, F(1, 50)), (3, F(-6))]
        cons = [
            ([(0, F(1, 4)), (1, F(-60)), (2, F(-1, 25)), (3, F(9))], "<=", F(0)),
            ([(0, F(1, 2)), (1, F(-90)), (2, F(-1, 50)), (3, F(3))], "<=", F(0)),
            ([(2, F(1))], "<=", F(1)),
        ]
        sol = solve_lp(4, objective, cons, accelerate=False)
        assert sol.status == "optimal" and sol.value == F(1, 20)

    def test_statuses_without_acceleration(self):
        infeasible = [([(0, F(1))], ">=", F(2)), ([(0, F(1))], "<=", F(1))]
        assert solve_lp(1, [(0, F(1))], infeasible, accelerate=False).status == "infeasible"
        unbounded = [([(0, F(1))], ">=", F(1))]
        assert solve_lp(1, [(0, F(1))], unbounded, accelerate=False).status == "unbounded"

    def test_wrong_tableau_primal_is_rejected(self, monkeypatch):
        exact = simplex._solve_exact

        def shifted(can, obj):
            sol = exact(can, obj)
            primal = (sol.primal[0] + 1, *sol.primal[1:])
            return LpSolution(sol.status, sol.value, primal, sol.duals)

        monkeypatch.setattr(simplex, "_solve_exact", shifted)
        with pytest.raises(AssertionError):
            solve_lp(1, [(0, F(1))], [([(0, F(1))], "<=", F(1))], accelerate=False)

    def test_matches_accelerated_values_on_random_lps(self):
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
            slow = solve_lp(n, objective, cons, accelerate=False)
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
