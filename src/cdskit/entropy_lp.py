"""Shannon-type converse bounds by exact linear programming.

One LP variable per nonempty subset of the ground set {S} + vertices
(bitmask-indexed), the elemental Shannon inequalities as the feasible
cone, and the instance's decodability/security equalities as the CDS
constraints.  Maximizing H(S) with all signal entropies normalized to 1
gives an upper bound of optimum/2 on the symmetric communication rate.
Every row has int coefficients and right-hand side, and the LP is held
as one integer matrix (:class:`~cdskit.simplex.IntRows`), built by mask
arithmetic.  That matrix is the LP's only form of its rows: the solver,
the certificate check and the renderers all read it.

Solving is exact end to end: a floating-point proposal is only accepted
after exact checks, and the dual multipliers are re-verified as a
standalone converse certificate before they are ever rendered.  On a
2-core machine (Python 3.11, NumPy 2.4, SciPy 1.17) ground sets of
seven, eight and nine variables are built, solved and certified in
about 0.013, 0.055 and 0.36 s, all but 1.5-4 ms of it inside HiGHS;
``cds bound`` adds about 0.65 s of interpreter start and SciPy import.
Up to ground nine, every LP measured certifies through the proposal.
At ground ten some do not, such as a nine-vertex qualified path with
seven unqualified chords, and 13 of the 28 LPs that add one
common-information variable to example1: their rounded duals fail the
exact check, and the rational tableau that takes over may then run for
minutes.  No ground-eleven LP has been certified.  The hard limit is
twelve, and restricting to a vertex subset (which can only relax the
bound) is the escape hatch for bigger graphs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .instance import CdsInstance
from .simplex import (
    CODE,
    RELATION,
    CertificateError,
    IntRows,
    LpSolution,
    dual_bound,
    solve_lp,
)

__all__ = [
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
]

GROUND_LIMIT = 12


class GroundSetTooLargeError(ValueError):
    pass


@dataclass(frozen=True, eq=False)  # compared by value below; IntRows has no ==
class EntropyLp:
    """The LP max H(S) over the 2^n - 1 subset-entropy variables of a
    ground set, under ``rows``, an :class:`IntRows` matrix over the
    variables mask - 1.  ``constraints`` is the same rows, in order,
    rendered as text.  Two LPs are equal when their ground sets and the
    five arrays of their rows are, and the hash reads the ground set and
    the matrix's size, so neither renders a row.  Shown like the triple
    (ground, constraints, objective).
    """

    ground: tuple[str, ...]
    rows: IntRows
    objective: ClassVar[tuple[tuple[int, int], ...]] = ((1, 1),)  # H(S); S is bit 0

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ground == other.ground and all(
            np.array_equal(getattr(self.rows, k), getattr(other.rows, k))
            for k in ("ptr", "col", "coef", "rel", "rhs")
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.rows.m, len(self.rows.col)))

    def __repr__(self) -> str:
        return (
            f"EntropyLp(ground={self.ground!r}, constraints={self.constraints!r}, "
            f"objective={self.objective!r})"
        )

    @property
    def constraints(self) -> tuple[str, ...]:
        return tuple(_render(self, range(self.rows.m)))

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

    def term(self, mask: int) -> str:
        """The entropy of a subset as rendered, e.g. ``H(S,A1)``."""
        return "H(" + ",".join(self.subset_names(mask)) + ")"


def ground_set(inst: CdsInstance) -> tuple[str, ...]:
    """The secret first, then the signals in name order."""
    return ("S",) + inst.vertices


# A family of rows with a common term pattern: the masks of its terms,
# one row per line; the coefficient of each term column; which terms each
# row has (None: all); the rows' relation and right-hand side.
_Block = tuple[np.ndarray | list, tuple[int, ...], np.ndarray | None, str, int]


def _int_rows(blocks: list[_Block]) -> IntRows:
    """The blocks' rows, in order, as one integer matrix over mask - 1."""
    counts, cols, coefs, rels, rhs = [], [], [], [], []
    for masks, pattern, present, relation, b in blocks:
        masks = np.asarray(masks, dtype=np.int64).reshape(-1, len(pattern))
        if present is None:
            present = np.ones(masks.shape, dtype=bool)
        counts.append(present.sum(axis=1))
        cols.append(masks[present] - 1)  # row-major: term order within a row
        coefs.append(np.broadcast_to(np.array(pattern, dtype=np.int64), masks.shape)[present])
        rels.append(np.full(len(masks), CODE[relation], dtype=np.int8))
        rhs.append(np.full(len(masks), b, dtype=np.int64))
    count = np.concatenate(counts)
    ptr = np.zeros(len(count) + 1, dtype=np.int64)
    np.cumsum(count, out=ptr[1:])
    return IntRows(
        ptr,
        np.concatenate(cols),
        np.concatenate(coefs),
        np.concatenate(rels),
        np.concatenate(rhs),
    )


def _elemental_blocks(n: int) -> list[_Block]:
    """The elemental rows, built from mask arithmetic.

    First H(X_i | rest) = H(full) - H(full - i) for each i.  Then, for
    each i < j, I(X_i; X_j | X_K) with terms (K+i, K+j, K+i+j, K) for
    the 2^(n-2) sets K in pick order: bit t of pick selects the t-th
    smallest index other than i and j, so K is pick with zero bits
    inserted at positions i and j.  The K term is absent when K is empty.
    """
    if n < 2 or n > GROUND_LIMIT:
        raise ValueError(f"ground-set size {n} outside [2, {GROUND_LIMIT}]")
    full = (1 << n) - 1
    bits = 1 << np.arange(n, dtype=np.int64)
    conditional = np.stack([np.full(n, full), full ^ bits], axis=1)
    i, j = np.triu_indices(n, 1)
    bi, bj = bits[i][:, None], bits[j][:, None]
    k = np.arange(1 << (n - 2), dtype=np.int64)[None, :]
    k = (k & (bi - 1)) | (k & ~(bi - 1)) << 1  # a zero bit at i
    k = (k & (bj - 1)) | (k & ~(bj - 1)) << 1  # and at j (j > i)
    mutual = np.stack([k | bi, k | bj, k | bi | bj, k], axis=2).reshape(-1, 4)
    present = np.ones(mutual.shape, dtype=bool)
    present[:, 3] = mutual[:, 3] != 0
    return [
        (conditional, (1, -1), None, ">=", 0),
        (mutual, (1, 1, -1, -1), present, ">=", 0),
    ]


def elemental_inequalities(n: int) -> IntRows:
    """The minimal generating Shannon inequalities on n variables.

    n conditional entropies H(X_i | rest) >= 0 followed by the
    C(n,2) * 2^(n-2) conditional mutual informations
    I(X_i; X_j | X_K) >= 0, K over subsets of the complement, as rows
    over the variables mask - 1.
    """
    return _int_rows(_elemental_blocks(n))


def _cds_blocks(inst: CdsInstance) -> list[_Block]:
    """:func:`cds_constraints` as row blocks."""
    ground = ground_set(inst)
    if len(ground) > GROUND_LIMIT:
        raise GroundSetTooLargeError(
            f"ground set has {len(ground)} variables, limit {GROUND_LIMIT}; "
            "restrict to a vertex subset"
        )
    idx = {name: 1 << i for i, name in enumerate(ground)}
    s_mask = idx["S"]
    qualified = [idx[v] | idx[u] for v, u in inst.qualified]
    unqualified = [idx[v] | idx[u] for v, u in inst.unqualified]
    return [
        ([(pair | s_mask, pair) for pair in qualified], (1, -1), None, "=", 0),
        ([(pair | s_mask, pair, s_mask) for pair in unqualified], (1, -1, -1), None, "=", 0),
        ([idx[v] for v in inst.vertices], (1,), None, "<=", 1),
    ]


def cds_constraints(inst: CdsInstance) -> IntRows:
    """Edge equalities plus per-signal normalizations H(v) <= 1.

    Decodable pair: H(S,v,u) = H(v,u).  Secure pair: H(S,v,u) =
    H(v,u) + H(S).  Signal lengths are normalized to one p-ary symbol,
    so the rate bound is optimum/2.  Rows over the variables mask - 1 of
    the instance's ground set.
    """
    return _int_rows(_cds_blocks(inst))


def build_entropy_lp(inst: CdsInstance) -> EntropyLp:
    """Elemental cone + CDS constraints + an explicit cap H(S) <= n,
    as one integer matrix.

    The cap only binds when no qualified edge ties the secret to the
    normalized signals, which shannon_bound reports as degenerate.
    """
    ground = ground_set(inst)
    n = len(ground)
    # First, so that too large a ground set gets its error with the remedy.
    cds = _cds_blocks(inst)
    cap = ([1], (1,), None, "<=", n)
    return EntropyLp(ground, _int_rows(_elemental_blocks(n) + cds + [cap]))


def simplex_solve(lp: EntropyLp) -> LpSolution:
    """Solve the LP as given, exactly, on its integer rows."""
    objective = [(m - 1, c) for m, c in lp.objective]
    return solve_lp(lp.n_vars, objective, lp.rows)


@dataclass(frozen=True)
class ShannonBoundResult:
    rate_bound: Fraction  # optimum / 2
    entropy_bound: Fraction  # the LP optimum, max H(S)
    solution: LpSolution  # duals aligned with the rows of lp.rows
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


def _render(lp: EntropyLp, which: Iterable[int]) -> list[str]:
    """The selected rows of ``lp.rows`` in human-readable form, positive
    terms first and each sign's terms by mask, e.g.
    ``H(S,A1,B1) - H(A1,B1) = 0``."""
    rows = lp.rows
    ptr, masks, coefs = rows.ptr.tolist(), (rows.col + 1).tolist(), rows.coef.tolist()
    rels, rhs = rows.rel.tolist(), rows.rhs.tolist()
    out = []
    for i in which:
        terms = zip(masks[ptr[i] : ptr[i + 1]], coefs[ptr[i] : ptr[i + 1]])
        parts: list[str] = []
        for mask, c in sorted([t for t in terms if t[1]], key=lambda t: (t[1] < 0, t[0])):
            if not parts:
                prefix = "-" if c < 0 else ""
            else:
                prefix = "- " if c < 0 else "+ "
            mag = abs(c)
            coeff = "" if mag == 1 else f"{mag} "
            parts.append(f"{prefix}{coeff}{lp.term(mask)}")
        out.append(f"{' '.join(parts)} {RELATION[rels[i]]} {rhs[i]}")
    return out


def lp_dump(lp: EntropyLp) -> str:
    """One constraint per line, for external cross-checking."""
    obj = " + ".join(("" if c == 1 else f"{c} ") + lp.term(m) for m, c in lp.objective)
    return "\n".join([f"# maximize {obj}", *lp.constraints]) + "\n"


def verify_certificate(sol: LpSolution, lp: EntropyLp) -> Fraction:
    """Exact converse-certificate check, independent of the solver path.

    The weights must respect the constraint orientations and their
    combined row must dominate the objective on every subset variable
    (:func:`~cdskit.simplex.dual_bound`, in Python ints on the LP's
    integer rows), and the weighted right-hand sides must recombine to
    the claimed optimum.  Returns that optimum; raises CertificateError
    otherwise.
    """
    if sol.status != "optimal" or sol.duals is None:
        raise CertificateError("certificate requires an optimal solution")
    if len(sol.duals) != lp.rows.m:
        raise CertificateError("dual vector does not match the constraint list")
    objective = {m - 1: c for m, c in lp.objective}
    total = dual_bound(lp.n_vars, objective, lp.rows, sol.duals)
    if total != sol.value:
        raise CertificateError(
            f"weighted right-hand sides give {total}, optimum is {sol.value}"
        )
    return total


def dual_certificate(sol: LpSolution, lp: EntropyLp) -> str:
    """Render the dual weights as a converse proof, re-verifying them
    exactly before emitting anything."""
    verify_certificate(sol, lp)
    obj_name = " + ".join(lp.term(m) for m, _ in lp.objective)
    lines = [
        f"dual certificate: {obj_name} <= {sol.value} (verified exactly)",
        "weighted constraints (weight * constraint):",
    ]
    weighted = [i for i, y in enumerate(sol.duals) if y != 0]
    for i, text in zip(weighted, _render(lp, weighted)):
        lines.append(f"  {sol.duals[i]} * [{text}]")
    lines.append(f"sum of weighted right-hand sides = {sol.value}")
    return "\n".join(lines) + "\n"
