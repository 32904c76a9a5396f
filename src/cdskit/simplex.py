"""Exact linear programming over the rationals.

Solves  maximize c.x  subject to mixed <=, =, >= constraints and x >= 0.
Every feasibility and optimality decision is exact; floating point only
proposes.  The constraints come as one integer sparse matrix in CSR
form (:class:`IntRows`), with relation codes and right-hand sides
alongside, checked once on the way in; every engine and check below
reads that one matrix, and the duals they return are those of its rows.
The exact checks run on the matrix as whole-array integer arithmetic in
NumPy object arrays of Python ints, after clearing the denominators of
the primal point and of the duals.

* HiGHS dual simplex (through SciPy) solves the LP in float64 and
  proposes a primal point and row duals.  It is given the inequality
  and equality blocks cut out of the matrix, each integer cast to
  float64, which rounds it correctly (int64 or Python int alike).  Each
  value HiGHS returns is rounded to the nearest rational whose
  denominator is at most ``_DENOM_CAP``, and the pair is accepted only
  if it is an optimal pair exactly: the point is nonnegative and
  satisfies every constraint, every dual has the sign its relation
  requires, the weighted rows dominate the objective on every column,
  and the two objective values coincide.  The dual half of these checks
  is :func:`dual_bound`, which also re-verifies converse certificates.
* Anything else -- a HiGHS status other than optimal, or a rounded pair
  that fails any check -- falls through to a sparse rational tableau
  (:class:`_Tableau`, built straight from the matrix) with Dantzig
  pricing, a lexicographic ratio test, and Bland's rule after degenerate
  stalls, which terminates from any start.  That tableau is the sole
  authority on infeasible and unbounded LPs and on optima the rounding
  cannot reach, so floats never decide anything.  Its optimal answers
  pass the same exact checks before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

__all__ = ["CertificateError", "IntRows", "LpSolution", "dual_bound", "solve_lp"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

LESS = "<="
EQUAL = "="
GREATER = ">="
# Relation codes in IntRows.rel: the sign of (lhs - rhs) a row allows.
CODE = {LESS: -1, EQUAL: 0, GREATER: 1}
RELATION = {code: r for r, code in CODE.items()}

# Consecutive degenerate pivots tolerated before Bland's rule engages.
_STALL_LIMIT = 60
# Largest denominator a rounded HiGHS value may take.  Vertices of the
# entropy polytopes have small denominators; an optimum that needs a
# larger one is left to the exact tableau.
_DENOM_CAP = 1 << 12


class CertificateError(AssertionError):
    """The dual weights failed exact re-verification."""


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a solve.

    ``duals`` are those of the rows ``solve_lp`` was given, one per row,
    oriented with the constraints: nonnegative for <=, nonpositive for
    >=, unrestricted for equalities.  For a maximum, sum(duals[i] *
    rhs[i]) equals ``value``.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None


@dataclass(frozen=True, eq=False)  # no == over NumPy arrays
class IntRows:
    """Constraints as one integer sparse matrix, in CSR form.

    Row i is ``sum(coef[k] * x[col[k]] for k in range(ptr[i], ptr[i+1]))
    rel[i] rhs[i]``, in integers throughout.  ``ptr`` and ``col`` are
    int64 and ``rel`` int8 (the codes of ``CODE``: -1 for <=, 0 for =,
    1 for >=); ``coef`` and ``rhs`` are int64, or object arrays of Python
    ints where a value does not fit.
    """

    ptr: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    rel: np.ndarray
    rhs: np.ndarray

    @property
    def m(self) -> int:
        return len(self.rel)

    def entries(self, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(the positions in col/coef of the selected rows' entries, row
        after row; each selected row's entry count)."""
        starts = self.ptr[sel]
        counts = self.ptr[sel + 1] - starts
        offsets = np.cumsum(counts) - counts  # where each row starts in the output
        return np.arange(counts.sum()) + np.repeat(starts - offsets, counts), counts


def _check_rows(n_vars: int, rows: IntRows) -> None:
    """ValueError unless ``rows`` is a well-formed matrix over ``n_vars``
    variables: relation codes in CODE, row pointers running from 0 to
    the entry count without decreasing, one coefficient per column index
    and one right-hand side per relation, and every column in range."""
    ptr, col, rel = rows.ptr, rows.col, rows.rel
    if ((rel < -1) | (rel > 1)).any():
        raise ValueError("unknown relation code")
    ends = len(ptr) == len(rel) + 1 and ptr[0] == 0 and ptr[-1] == len(col)
    if not ends or (np.diff(ptr) < 0).any():
        raise ValueError("row pointers do not delimit the entries")
    if len(rows.coef) != len(col) or len(rows.rhs) != len(rel):
        raise ValueError("coefficients or right-hand sides do not match their rows")
    if len(col) and (col.min() < 0 or col.max() >= n_vars):
        raise ValueError("constraint references an unknown variable")


# ---------------------------------------------------------------------------
# Exact sparse tableau (the authoritative engine)


class _Tableau:
    """Sparse row tableau with an incrementally maintained price row.

    Built straight from the integer rows in canonical form, so that rows
    whose right-hand side has the correct sign start out slack-basic, and
    artificials (and hence phase 1) only appear for rows that genuinely
    exclude the origin.  An = row becomes a <= row and a >= row, in that
    order; a <= row with rhs < 0, or a >= row with rhs <= 0, is negated
    into the other relation.  Canonical row k has slack column n_vars + k
    (+1 on a <= row, -1 on a >= row), and the >= rows' artificials follow
    in row order.  A slack's reduced cost prices its row's dual, so
    ``parts[i]`` holds (k, sign) for each canonical row k of given row i,
    whose dual is sum(sign * d[n_vars + k]) at an optimal price row d.
    """

    def __init__(self, n_vars: int, rows: IntRows):
        self.rows: list[dict[int, Fraction]] = []
        self.rhs: list[Fraction] = []
        self.basis: list[int] = []
        self.parts: list[list[tuple[int, int]]] = []
        # Past every slack column: an = row makes two canonical rows.
        first_art = n_vars + rows.m + int((rows.rel == CODE[EQUAL]).sum())
        self.ncols = first_art
        ptr, cols, coefs = rows.ptr.tolist(), rows.col.tolist(), rows.coef.tolist()
        for i, (code, b) in enumerate(zip(rows.rel.tolist(), rows.rhs.tolist())):
            own: list[tuple[int, int]] = []
            for r in (CODE[LESS], CODE[GREATER]) if code == CODE[EQUAL] else (code,):
                sign = -1 if (b < 0 if r == CODE[LESS] else b <= 0) else 1
                k = len(self.rows)
                row = {cols[p]: Fraction(sign * coefs[p]) for p in range(ptr[i], ptr[i + 1])}
                if sign * r == CODE[LESS]:
                    row[n_vars + k] = _ONE
                    self.basis.append(n_vars + k)
                else:
                    row[n_vars + k] = -_ONE
                    row[self.ncols] = _ONE
                    self.basis.append(self.ncols)
                    self.ncols += 1
                own.append((k, -r))
                self.rows.append(row)
                self.rhs.append(Fraction(sign * b))
            self.parts.append(own)
        self.artificial = range(first_art, self.ncols)

    @property
    def m(self) -> int:
        return len(self.rows)

    def price(self, cost: list[Fraction]) -> tuple[list[Fraction], Fraction]:
        """d[j] = c_B B^-1 A_j - c_j plus the objective value c_B B^-1 b."""
        d = [-c for c in cost]
        value = _ZERO
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                for j, v in self.rows[i].items():
                    d[j] += cb * v
                value += cb * self.rhs[i]
        return d, value

    def pivot(self, d: list[Fraction], r: int, c: int) -> Fraction:
        prow = self.rows[r]
        piv = prow[c]
        if piv != 1:
            inv = _ONE / piv
            for k in prow:
                prow[k] *= inv
            self.rhs[r] *= inv
        items = list(prow.items())
        prhs = self.rhs[r]
        for i, row in enumerate(self.rows):
            if row is prow:
                continue
            f = row.get(c)
            if not f:
                continue
            for k, v in items:
                new = row.get(k, _ZERO) - f * v
                if new:
                    row[k] = new
                elif k in row:
                    del row[k]
            self.rhs[i] -= f * prhs
        f = d[c]
        gain = _ZERO
        if f:
            for k, v in items:
                d[k] -= f * v
            gain = -f * prhs
        self.basis[r] = c
        return gain

    def _lex_less(self, i: int, j: int, c: int) -> bool:
        """Is row i / a_ic lexicographically below row j / a_jc?"""
        ai = self.rows[i][c]
        aj = self.rows[j][c]
        ri, rj = self.rows[i], self.rows[j]
        for k in sorted(set(ri) | set(rj)):
            vi = ri.get(k, _ZERO) / ai
            vj = rj.get(k, _ZERO) / aj
            if vi != vj:
                return vi < vj
        return False

    def ratio_leave(self, c: int, bland: bool) -> int:
        best: Fraction | None = None
        ties: list[int] = []
        for i, row in enumerate(self.rows):
            a = row.get(c)
            if a is None or a <= 0:
                continue
            ratio = self.rhs[i] / a
            if best is None or ratio < best:
                best = ratio
                ties = [i]
            elif ratio == best:
                ties.append(i)
        if not ties:
            return -1
        if len(ties) == 1:
            return ties[0]
        if bland:
            return min(ties, key=lambda i: self.basis[i])
        leave = ties[0]
        for i in ties[1:]:
            if self._lex_less(i, leave, c):
                leave = i
        return leave

    def run(self, d: list[Fraction], allowed: list[int]) -> str:
        """Dantzig pricing with lexicographic ties; Bland's rule takes
        over after a degenerate stall, which rules out cycling."""
        stalled = 0
        while True:
            bland = stalled >= _STALL_LIMIT
            enter = -1
            if bland:
                for j in allowed:
                    if d[j] < 0:
                        enter = j
                        break
            else:
                worst = _ZERO
                for j in allowed:
                    dj = d[j]
                    if dj < worst:
                        worst = dj
                        enter = j
            if enter < 0:
                return "optimal"
            leave = self.ratio_leave(enter, bland)
            if leave < 0:
                return "unbounded"
            gain = self.pivot(d, leave, enter)
            stalled = 0 if gain > 0 else stalled + 1


def _solve_exact(
    n_vars: int, obj: dict[int, int | Fraction], rows: IntRows
) -> LpSolution:
    tab = _Tableau(n_vars, rows)
    if tab.artificial:
        cost1 = [_ZERO] * tab.ncols
        for c in tab.artificial:
            cost1[c] = -_ONE
        d1, _ = tab.price(cost1)
        status = tab.run(d1, list(range(tab.ncols)))
        # Phase-1 objective is bounded above by zero, so never unbounded.
        assert status == "optimal"
        _, value1 = tab.price(cost1)
        if value1 != 0:
            return LpSolution("infeasible")
        for i in range(tab.m):
            if tab.basis[i] in tab.artificial:
                for j, v in sorted(tab.rows[i].items()):
                    if j not in tab.artificial and v:
                        tab.pivot(d1, i, j)
                        break
    cost2 = [_ZERO] * tab.ncols
    for j, c in obj.items():
        cost2[j] = c
    d2, _ = tab.price(cost2)
    # Every column but the artificials, which come last.
    if tab.run(d2, list(range(tab.artificial.start))) == "unbounded":
        return LpSolution("unbounded")
    primal = [_ZERO] * n_vars
    for i, b in enumerate(tab.basis):
        if b < n_vars:
            primal[b] = tab.rhs[i]
    _, value = tab.price(cost2)
    duals = tuple(
        sum((sign * d2[n_vars + k] for k, sign in own), _ZERO) for own in tab.parts
    )
    return LpSolution("optimal", value, tuple(primal), duals)


# ---------------------------------------------------------------------------
# HiGHS proposal, accepted only after exact checks


def _propose(
    n_vars: int, obj: dict[int, int | Fraction], rows: IntRows
) -> LpSolution | None:
    """Solve in floating point with HiGHS dual simplex, round the primal
    point and the row duals to rationals, and return them only if they
    pass every exact optimality check; None otherwise."""
    # SciPy takes about a second to import, so only this path loads it.
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    def block(sel: np.ndarray):
        """The selected rows as linprog's <= or = block: a >= row negated."""
        if not len(sel):
            return None, None
        idx, counts = rows.entries(sel)
        sign = np.where(rows.rel[sel] == CODE[GREATER], -1.0, 1.0)
        data = np.repeat(sign, counts) * rows.coef[idx].astype(np.float64)
        ptr = np.zeros(len(sel) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        a = csr_matrix((data, rows.col[idx], ptr), shape=(len(sel), n_vars))
        return a, sign * rows.rhs[sel].astype(np.float64)

    ineq = np.flatnonzero(rows.rel != CODE[EQUAL])
    eq = np.flatnonzero(rows.rel == CODE[EQUAL])
    try:
        a_ub, b_ub = block(ineq)
        a_eq, b_eq = block(eq)
        cost = [0.0] * n_vars
        for j, c in obj.items():
            cost[j] = -float(c)  # linprog minimizes
    except OverflowError:  # a value beyond float64's range
        return None
    res = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs-ds",
    )
    if res.status != 0:
        return None
    # A marginal is d(min)/d(rhs); the maximum moves the other way,
    # and a >= row entered linprog negated.
    proposed = np.zeros(rows.m)
    marginals = res.ineqlin.marginals
    proposed[ineq] = np.where(rows.rel[ineq] == CODE[GREATER], marginals, -marginals)
    proposed[eq] = -res.eqlin.marginals
    duals = [_ZERO] * rows.m
    carried = np.flatnonzero(proposed)  # a NaN is nonzero too
    try:
        primal = _rationals(res.x)
        for i, y in zip(carried.tolist(), _rationals(proposed[carried])):
            duals[i] = y
    except (ValueError, OverflowError):  # a NaN or an infinity
        return None
    value = _certify(n_vars, obj, rows, primal, duals)
    if value is None:
        return None
    return LpSolution("optimal", value, tuple(primal), tuple(duals))


def _rationals(values: np.ndarray) -> list[Fraction]:
    """Each value as the nearest rational whose denominator is at most
    _DENOM_CAP, rounded once per distinct value.  The entropy LPs' optima
    repeat few values (the ladder's ground-8 rung: 60 distinct in 255
    primal values, 6 in 77 carried duals), and each limit_denominator
    takes about 20 microseconds."""
    distinct, inverse = np.unique(values, return_inverse=True)
    rounded = [
        Fraction(v).limit_denominator(_DENOM_CAP) if v else _ZERO
        for v in distinct.tolist()
    ]
    return [rounded[i] for i in inverse.tolist()]


def _certify(
    n_vars: int,
    obj: dict[int, int | Fraction],
    rows: IntRows,
    primal: list[Fraction],
    duals: list[Fraction],
) -> Fraction | None:
    """The common optimum if (primal, duals) is an optimal pair, exactly:
    x >= 0, every row holds, the duals pass :func:`dual_bound` and
    y.b = c.x.  None if any check fails.

    The primal checks run in Python ints on the integer rows, as whole
    object arrays, with the point as D x, D the lcm of its denominators.
    """
    d = lcm(*(x.denominator for x in primal))
    xs = [_times(x, d) for x in primal]
    if any(x < 0 for x in xs):
        return None
    # Every row holds at D x: sign(lhs - D b) is one its relation allows.
    terms = rows.coef.astype(object) * np.array(xs, dtype=object)[rows.col]
    sums = np.zeros(len(terms) + 1, dtype=object)
    np.cumsum(terms, out=sums[1:])
    excess = sums[rows.ptr[1:]] - sums[rows.ptr[:-1]] - rows.rhs.astype(object) * d
    if (excess * rows.rel < 0).any() or (excess[rows.rel == CODE[EQUAL]] != 0).any():
        return None
    try:
        bound = dual_bound(n_vars, obj, rows, duals)
    except CertificateError:
        return None
    value = Fraction(sum(c * xs[j] for j, c in obj.items()), d)  # c.x
    return value if value == bound else None


def dual_bound(
    n_vars: int, obj: dict[int, int | Fraction], rows: IntRows, duals
) -> Fraction:
    """y.b, once the duals y are checked exactly to bound max c.x from
    above: every dual has its row's sign, and y^T A >= c on every column.
    CertificateError naming the first check that fails otherwise.

    ``duals`` hold one dual per row of ``rows``, as ``solve_lp`` returns
    them.  The checks run in Python ints, as whole object arrays: each
    dual times E, the lcm of the duals' and the objective's denominators.
    """
    carried = np.array([i for i, y in enumerate(duals) if y], dtype=np.int64)
    weights = [duals[i] for i in carried.tolist()]
    e = lcm(*(c.denominator for c in obj.values()), *(w.denominator for w in weights))
    k = np.array([_times(w, e) for w in weights], dtype=object)
    rel = rows.rel[carried]
    wrong = np.flatnonzero(k * rel > 0)  # a <= row needs y >= 0, a >= row y <= 0
    if len(wrong):
        if rel[wrong[0]] == CODE[LESS]:
            raise CertificateError("negative weight on a <= constraint")
        raise CertificateError("positive weight on a >= constraint")
    reduced = np.zeros(n_vars, dtype=object)  # E (y^T A - c)
    for j, c in obj.items():
        reduced[j] = -_times(c, e)
    idx, counts = rows.entries(carried)
    np.add.at(reduced, rows.col[idx], rows.coef[idx].astype(object) * np.repeat(k, counts))
    if (reduced < 0).any():
        raise CertificateError("weighted constraints do not dominate the objective")
    return Fraction(int((k * rows.rhs[carried].astype(object)).sum()), e)


def _times(q: int | Fraction, m: int) -> int:
    """q * m, for a multiple m of q's denominator."""
    return q.numerator * (m // q.denominator)


def solve_lp(n_vars: int, objective, rows: IntRows) -> LpSolution:
    """Maximize ``objective . x`` over x >= 0 under the integer rows.

    Args:
        n_vars: number of structural variables.
        objective: sparse (var, coeff) pairs, ints or Fractions; a
            variable may repeat, and its coefficients are summed.
        rows: the constraints as an :class:`IntRows` matrix over the
            ``n_vars`` variables.

    Returns:
        LpSolution; primal and duals are present only when optimal, and
        then they have passed the exact checks, whichever engine found
        them, and the duals are those of ``rows``.  ValueError if the
        objective or the rows are malformed; AssertionError if the
        tableau's optimal pair fails the exact checks.
    """
    obj = _sparse(objective)
    if any(j >= n_vars or j < 0 for j in obj):
        raise ValueError("objective references an unknown variable")
    _check_rows(n_vars, rows)
    sol = None
    if n_vars:  # linprog rejects a problem with no variables
        sol = _propose(n_vars, obj, rows)
    if sol is None:
        sol = _solve_exact(n_vars, obj, rows)
        if sol.status == "optimal" and (
            _certify(n_vars, obj, rows, sol.primal, sol.duals) != sol.value
        ):
            raise AssertionError("the rational tableau's answer fails the exact checks")
    return sol


def _sparse(coeffs) -> dict[int, int | Fraction]:
    """(index, value) pairs as a dict: repeats summed, zeros dropped; an
    int stays an int, any other number becomes a Fraction."""
    out: dict[int, int | Fraction] = {}
    for j, c in coeffs:
        if type(c) is not int and type(c) is not Fraction:
            c = Fraction(c)
        if j in out:
            c += out[j]
        if c:
            out[j] = c
        else:
            out.pop(j, None)
    return out
