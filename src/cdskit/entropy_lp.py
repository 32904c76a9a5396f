"""Shannon-type converse bounds by exact linear programming.

One LP variable per nonempty subset of the ground set {S} + vertices
(bitmask-indexed), the elemental Shannon inequalities as the feasible
cone, and the instance's decodability/security equalities as the CDS
constraints.  Maximizing H(S) with all signal entropies normalized to 1
gives an upper bound of optimum/2 on the symmetric communication rate.
Every row has int coefficients and right-hand side.

Solving is exact end to end: a floating-point proposal is only accepted
after exact checks, and the dual multipliers are re-verified as a
standalone converse certificate before they are ever rendered.  On a
2-core machine (Python 3.11, SciPy 1.17) ground sets of seven, eight
and nine variables certify in about 0.04, 0.13 and 0.7 s, most of it in
HiGHS; ``cds bound`` adds about 0.7 s of interpreter start and SciPy
import.  From ten on, the rounded duals can fail the exact check, and
the rational tableau that takes over may then run for minutes.  The hard limit is twelve, and
restricting to a vertex subset (which can only relax the bound) is the
escape hatch for bigger graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import CdsInstance
from .simplex import LpSolution, solve_lp

__all__ = [
    "Constraint",
    "EntropyLp",
    "ShannonBoundResult",
    "CertificateError",
    "GroundSetTooLargeError",
    "ground_set",
    "elemental_inequalities",
    "cds_constraints",
    "build_entropy_lp",
    "simplex_solve",
    "shannon_bound",
    "verify_certificate",
    "dual_certificate",
    "lp_dump",
    "render_constraint",
]

GROUND_LIMIT = 12


class GroundSetTooLargeError(ValueError):
    pass


class CertificateError(AssertionError):
    """The dual weights failed exact re-verification."""


@dataclass(frozen=True)
class Constraint:
    """Sparse rational constraint over subset variables.

    ``coeffs`` maps subset bitmasks (over the ground set) to rational
    coefficients; the relation is one of "<=", "=", ">=".  The entropy
    LP's own rows have int coefficients and right-hand sides.
    """

    coeffs: tuple[tuple[int, int | Fraction], ...]
    relation: str
    rhs: int | Fraction

    def evaluate(self, primal) -> Fraction:
        """Left-hand side at a primal point indexed by mask - 1."""
        return sum((c * primal[m - 1] for m, c in self.coeffs), Fraction(0))

    def satisfied(self, primal) -> bool:
        lhs = self.evaluate(primal)
        if self.relation == "<=":
            return lhs <= self.rhs
        if self.relation == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class EntropyLp:
    """LP over the 2^n - 1 subset-entropy variables of a ground set."""

    ground: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    objective: tuple[tuple[int, int | Fraction], ...]

    @property
    def n_vars(self) -> int:
        return (1 << len(self.ground)) - 1

    def subset_mask(self, names) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.ground.index(name)
        return mask

    def subset_names(self, mask: int) -> tuple[str, ...]:
        return tuple(
            name for i, name in enumerate(self.ground) if mask >> i & 1
        )


def ground_set(inst: CdsInstance) -> tuple[str, ...]:
    """The secret first, then the signals in name order."""
    return ("S",) + tuple(sorted(inst.vertices))


def elemental_inequalities(n: int) -> tuple[Constraint, ...]:
    """The minimal generating Shannon inequalities on n variables.

    n conditional entropies H(X_i | rest) >= 0 followed by the
    C(n,2) * 2^(n-2) conditional mutual informations
    I(X_i; X_j | X_K) >= 0, K over subsets of the complement.
    """
    if n < 2 or n > GROUND_LIMIT:
        raise ValueError(f"ground-set size {n} outside [2, {GROUND_LIMIT}]")
    out: list[Constraint] = []
    full = (1 << n) - 1
    for i in range(n):
        rest = full ^ (1 << i)
        out.append(Constraint(((full, 1), (rest, -1)), ">=", 0))
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


def cds_constraints(inst: CdsInstance) -> tuple[Constraint, ...]:
    """Edge equalities plus per-signal normalizations H(v) <= 1.

    Decodable pair: H(S,v,u) = H(v,u).  Secure pair: H(S,v,u) =
    H(v,u) + H(S).  Signal lengths are normalized to one p-ary symbol,
    so the rate bound is optimum/2.
    """
    ground = ground_set(inst)
    if len(ground) > GROUND_LIMIT:
        raise GroundSetTooLargeError(
            f"ground set has {len(ground)} variables, limit {GROUND_LIMIT}; "
            "restrict to a vertex subset"
        )
    idx = {name: 1 << i for i, name in enumerate(ground)}
    s_mask = idx["S"]
    out: list[Constraint] = []
    for v, u in inst.qualified:
        pair = idx[v] | idx[u]
        out.append(Constraint(((pair | s_mask, 1), (pair, -1)), "=", 0))
    for v, u in inst.unqualified:
        pair = idx[v] | idx[u]
        out.append(Constraint(((pair | s_mask, 1), (pair, -1), (s_mask, -1)), "=", 0))
    for v in inst.vertices:
        out.append(Constraint(((idx[v], 1),), "<=", 1))
    return tuple(out)


def build_entropy_lp(inst: CdsInstance) -> EntropyLp:
    """Elemental cone + CDS constraints + an explicit cap H(S) <= n.

    The cap only binds when no qualified edge ties the secret to the
    normalized signals, which shannon_bound reports as degenerate.
    """
    ground = ground_set(inst)
    n = len(ground)
    # First, so that too large a ground set gets its error with the remedy.
    cds = cds_constraints(inst)
    elemental = elemental_inequalities(n)
    cap = Constraint(((1, 1),), "<=", n)
    objective = ((1, 1),)  # maximize H(S); S is ground bit 0
    return EntropyLp(ground, elemental + cds + (cap,), objective)


def simplex_solve(lp: EntropyLp) -> LpSolution:
    """Solve the LP as given, exactly.  The constraint triples are
    streamed: ``solve_lp`` reads them once, into its integer rows."""
    constraints = (
        ([(m - 1, c) for m, c in con.coeffs], con.relation, con.rhs)
        for con in lp.constraints
    )
    objective = [(m - 1, c) for m, c in lp.objective]
    return solve_lp(lp.n_vars, objective, constraints)


@dataclass(frozen=True)
class ShannonBoundResult:
    rate_bound: Fraction  # optimum / 2
    entropy_bound: Fraction  # the LP optimum, max H(S)
    solution: LpSolution  # duals aligned with lp.constraints
    lp: EntropyLp
    degenerate: bool  # the explicit cap was the binding constraint


def shannon_bound(inst: CdsInstance) -> ShannonBoundResult:
    """Best Shannon-type upper bound on the symmetric rate.

    The primal LP is solved as given.  ``solve_lp`` returns an optimal
    answer only after exact checks of both sides: the point satisfies
    every constraint, the dual weights satisfy the sign and dominance
    conditions, and the two objective values coincide.  The dual weights
    are then re-verified once more, as the certificate, against the LP's
    own constraints.
    """
    lp = build_entropy_lp(inst)
    n = len(lp.ground)
    sol = simplex_solve(lp)
    if sol.status != "optimal":
        raise AssertionError(f"entropy LP came back {sol.status}")
    value = sol.value
    verify_certificate(sol, lp)
    return ShannonBoundResult(
        rate_bound=value / 2,
        entropy_bound=value,
        solution=sol,
        lp=lp,
        degenerate=value >= Fraction(n),
    )


# ---------------------------------------------------------------------------
# Rendering and certificates


def render_constraint(lp: EntropyLp, con: Constraint) -> str:
    """Human-readable form, positive terms first, e.g.
    ``H(S,A1,B1) - H(A1,B1) = 0``."""
    pos = sorted([t for t in con.coeffs if t[1] > 0], key=lambda t: t[0])
    neg = sorted([t for t in con.coeffs if t[1] < 0], key=lambda t: t[0])
    parts: list[str] = []
    for mask, c in pos + neg:
        name = "H(" + ",".join(lp.subset_names(mask)) + ")"
        if not parts:
            prefix = "-" if c < 0 else ""
        else:
            prefix = "- " if c < 0 else "+ "
        mag = abs(c)
        coeff = "" if mag == 1 else f"{mag} "
        parts.append(f"{prefix}{coeff}{name}")
    rel = {"<=": "<=", ">=": ">=", "=": "="}[con.relation]
    return f"{' '.join(parts)} {rel} {con.rhs}"


def lp_dump(lp: EntropyLp) -> str:
    """One constraint per line, for external cross-checking."""
    obj = " + ".join(
        ("" if c == 1 else f"{c} ") + "H(" + ",".join(lp.subset_names(m)) + ")"
        for m, c in lp.objective
    )
    lines = [f"# maximize {obj}"]
    lines += [render_constraint(lp, con) for con in lp.constraints]
    return "\n".join(lines) + "\n"


def verify_certificate(sol: LpSolution, lp: EntropyLp) -> Fraction:
    """Exact converse-certificate check, independent of the solver path.

    The weights must respect the constraint orientations, their combined
    row must dominate the objective on every subset variable, and the
    weighted right-hand sides must recombine to the claimed optimum.
    Returns that optimum; raises CertificateError otherwise.
    """
    if sol.status != "optimal" or sol.duals is None:
        raise CertificateError("certificate requires an optimal solution")
    if len(sol.duals) != len(lp.constraints):
        raise CertificateError("dual vector does not match the constraint list")
    combo: dict[int, Fraction] = {}
    total = Fraction(0)
    for con, y in zip(lp.constraints, sol.duals):
        if y == 0:
            continue
        if con.relation == "<=" and y < 0:
            raise CertificateError("negative weight on a <= constraint")
        if con.relation == ">=" and y > 0:
            raise CertificateError("positive weight on a >= constraint")
        for m, c in con.coeffs:
            combo[m] = combo.get(m, Fraction(0)) + y * c
        total += y * con.rhs
    objective = dict(lp.objective)
    for m in set(combo) | set(objective):
        if combo.get(m, Fraction(0)) < objective.get(m, Fraction(0)):
            raise CertificateError(
                "weighted constraints do not dominate the objective"
            )
    if total != sol.value:
        raise CertificateError(
            f"weighted right-hand sides give {total}, optimum is {sol.value}"
        )
    return total


def dual_certificate(sol: LpSolution, lp: EntropyLp) -> str:
    """Render the dual weights as a converse proof, re-verifying them
    exactly before emitting anything."""
    verify_certificate(sol, lp)
    obj_name = " + ".join(
        "H(" + ",".join(lp.subset_names(m)) + ")" for m, _ in lp.objective
    )
    lines = [
        f"dual certificate: {obj_name} <= {sol.value} (verified exactly)",
        "weighted constraints (weight * constraint):",
    ]
    for con, y in zip(lp.constraints, sol.duals):
        if y != 0:
            lines.append(f"  {y} * [{render_constraint(lp, con)}]")
    lines.append(f"sum of weighted right-hand sides = {sol.value}")
    return "\n".join(lines) + "\n"
