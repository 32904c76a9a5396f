"""Exact linear programming over the rationals.

Solves  maximize c.x  subject to mixed <=, =, >= constraints and x >= 0.
Every feasibility and optimality decision is exact; floating point only
proposes.  The constraints are held as one integer sparse matrix in CSR
form (:class:`IntRows`): each given row times the positive lcm of its
denominators (1 for a row with integer coefficients and right-hand side,
such as every entropy-LP row), with relation codes and right-hand sides
alongside.  ``solve_lp`` takes that matrix as built by its caller, or
builds it from constraint triples; no step after that turns it back
into per-row Python objects except the rational tableau.  The exact
checks run on it as whole-array integer arithmetic in NumPy object
arrays of Python ints, after clearing the denominators of the primal
point and of the duals.

* HiGHS dual simplex (through SciPy) solves the LP in float64 and
  proposes a primal point and row duals.  Its input is unchanged by the
  integer rows, byte for byte: the inequality and equality blocks are
  cut out of the matrix, and an entry a/s goes in as the quotient of
  the two ints, correctly rounded like ``float()`` of the Fraction.
  Each value HiGHS returns is rounded to the nearest rational whose
  denominator is at most ``_DENOM_CAP``, and the pair is accepted only
  if it is an optimal pair exactly: the point is nonnegative and
  satisfies every constraint, every dual has the sign its relation
  requires, the weighted rows dominate the objective on every column,
  and the two objective values coincide.  The dual half of these checks
  is :func:`dual_bound`, which also re-verifies converse certificates.
* Anything else -- a HiGHS status other than optimal, or a rounded pair
  that fails any check -- falls through to a sparse rational tableau
  with Dantzig pricing, a lexicographic ratio test, and Bland's rule
  after degenerate stalls, which terminates from any start.  That
  tableau is the sole authority on infeasible and unbounded LPs and on
  optima the rounding cannot reach, so floats never decide anything.
  Its optimal answers pass the same exact checks before they are returned.

Constraints are canonicalized for the tableau, as Fraction rows built
only when it runs, so that rows with a right-hand side of the correct
sign start out slack-basic; artificials (and hence phase 1) only appear
for rows that genuinely exclude the origin.
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

    ``duals`` are oriented with the original constraints: nonnegative for
    <=, nonpositive for >=, unrestricted for equalities.  For a maximum,
    sum(duals[i] * rhs[i]) equals ``value``.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None


@dataclass(frozen=True, eq=False)  # no == over NumPy arrays
class IntRows:
    """Constraints as one integer sparse matrix, in CSR form.

    Row i is ``sum(coef[k] * x[col[k]] for k in range(ptr[i], ptr[i+1]))
    rel[i] rhs[i]``: the given constraint times the positive ``scale[i]``
    that cleared its denominators.  ``ptr`` and ``col`` are int64 and
    ``rel`` int8 (the codes of ``CODE``: -1 for <=, 0 for =, 1 for >=);
    ``coef``, ``rhs`` and ``scale`` are int64, or object arrays of Python
    ints where a value does not fit.
    """

    ptr: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    rel: np.ndarray
    rhs: np.ndarray
    scale: np.ndarray

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


def _int_array(values) -> np.ndarray:
    """Python ints as int64, or as an object array if one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass
class _Canonical:
    """<=-rows with rhs >= 0 (slack-basic) and >=-rows with rhs > 0."""

    n_vars: int
    rows: list[dict[int, Fraction]]
    rhs: list[Fraction]
    rel: list[str]
    parts: list[list[tuple[int, int]]]  # original i -> [(canonical row, sign)]
    slack_col: list[int]
    art_col: list[int | None]
    ncols: int
    artificial: set[int]

    @property
    def m(self) -> int:
        return len(self.rows)


def _parse(n_vars: int, constraints) -> IntRows:
    """Validate the constraint triples and gather them into integer rows."""
    ptr, cols, coefs, rels, rhs, scales = [0], [], [], [], [], []
    for coeffs, r, b in constraints:
        if r not in CODE:
            raise ValueError(f"unknown relation {r!r}")
        row = _sparse(coeffs)
        if row and (min(row) < 0 or max(row) >= n_vars):
            raise ValueError("constraint references an unknown variable")
        scale = 1
        if type(b) is not int or any(type(v) is not int for v in row.values()):
            b = Fraction(b)
            scale = lcm(b.denominator, *(v.denominator for v in row.values()))
            row = {j: _times(v, scale) for j, v in row.items()}
            b = _times(b, scale)
        cols += row
        coefs += row.values()
        ptr.append(len(cols))
        rels.append(CODE[r])
        rhs.append(b)
        scales.append(scale)
    return IntRows(
        np.array(ptr, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        _int_array(coefs),
        np.array(rels, dtype=np.int8),
        _int_array(rhs),
        _int_array(scales),
    )


def _canonicalize(n_vars: int, given: IntRows) -> _Canonical:
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    rel: list[str] = []
    parts: list[list[tuple[int, int]]] = []
    ptr, cols, coefs = given.ptr.tolist(), given.col.tolist(), given.coef.tolist()
    for i, (code, b, scale) in enumerate(
        zip(given.rel.tolist(), given.rhs.tolist(), given.scale.tolist())
    ):
        r = RELATION[code]
        row = {cols[k]: Fraction(coefs[k], scale) for k in range(ptr[i], ptr[i + 1])}
        b = Fraction(b, scale)
        pieces = [(row, LESS, b), (row, GREATER, b)] if r == EQUAL else [(row, r, b)]
        own: list[tuple[int, int]] = []
        for a, rr, bb in pieces:
            sign = 1
            if (rr == LESS and bb < 0) or (rr == GREATER and bb <= 0):
                a = {j: -v for j, v in a.items()}
                bb = -bb
                rr = GREATER if rr == LESS else LESS
                sign = -1
            else:
                a = dict(a)
            own.append((len(rows), sign))
            rows.append(a)
            rhs.append(bb)
            rel.append(rr)
        parts.append(own)
    m = len(rows)
    slack_col = [0] * m
    art_col: list[int | None] = [None] * m
    ncols = n_vars
    for i in range(m):
        slack_col[i] = ncols
        ncols += 1
    for i in range(m):
        if rel[i] == GREATER:
            art_col[i] = ncols
            ncols += 1
    artificial = {c for c in art_col if c is not None}
    return _Canonical(
        n_vars, rows, rhs, rel, parts, slack_col, art_col, ncols, artificial
    )


# ---------------------------------------------------------------------------
# Exact sparse tableau (the authoritative engine)


class _Tableau:
    """Sparse row tableau with an incrementally maintained price row."""

    def __init__(self, can: _Canonical):
        self.ncols = can.ncols
        self.rows: list[dict[int, Fraction]] = []
        self.rhs: list[Fraction] = list(can.rhs)
        self.basis: list[int] = []
        for i in range(can.m):
            row = dict(can.rows[i])
            row[can.slack_col[i]] = _ONE if can.rel[i] == LESS else -_ONE
            if can.art_col[i] is not None:
                row[can.art_col[i]] = _ONE
                self.basis.append(can.art_col[i])
            else:
                self.basis.append(can.slack_col[i])
            self.rows.append(row)

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


def _solve_exact(can: _Canonical, obj: dict[int, int | Fraction]) -> LpSolution:
    tab = _Tableau(can)
    ncols = can.ncols
    if can.artificial:
        cost1 = [_ZERO] * ncols
        for c in can.artificial:
            cost1[c] = -_ONE
        d1, _ = tab.price(cost1)
        status = tab.run(d1, list(range(ncols)))
        # Phase-1 objective is bounded above by zero, so never unbounded.
        assert status == "optimal"
        _, value1 = tab.price(cost1)
        if value1 != 0:
            return LpSolution("infeasible")
        for i in range(tab.m):
            if tab.basis[i] in can.artificial:
                for j, v in sorted(tab.rows[i].items()):
                    if j not in can.artificial and v:
                        tab.pivot(d1, i, j)
                        break
    cost2 = [_ZERO] * ncols
    for j, c in obj.items():
        cost2[j] = c
    d2, _ = tab.price(cost2)
    allowed = [j for j in range(ncols) if j not in can.artificial]
    if tab.run(d2, allowed) == "unbounded":
        return LpSolution("unbounded")
    primal = [_ZERO] * can.n_vars
    for i, b in enumerate(tab.basis):
        if b < can.n_vars:
            primal[b] = tab.rhs[i]
    _, value = tab.price(cost2)
    duals: list[Fraction] = []
    for own in can.parts:
        y = _ZERO
        for idx, sign in own:
            # Slack prices the row dual for <= rows; the surplus prices
            # its negation, so both orientations read y_i off d2.
            delta = d2[can.slack_col[idx]]
            if can.rel[idx] == GREATER:
                delta = -delta
            y += sign * delta
        duals.append(y)
    return LpSolution("optimal", value, tuple(primal), tuple(duals))


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
        data = np.repeat(sign, counts) * _quotients(
            rows.coef[idx], np.repeat(rows.scale[sel], counts)
        )
        ptr = np.zeros(len(sel) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        a = csr_matrix((data, rows.col[idx], ptr), shape=(len(sel), n_vars))
        return a, sign * _quotients(rows.rhs[sel], rows.scale[sel])

    ineq = np.flatnonzero(rows.rel != CODE[EQUAL])
    eq = np.flatnonzero(rows.rel == CODE[EQUAL])
    a_ub, b_ub = block(ineq)
    a_eq, b_eq = block(eq)
    cost = [0.0] * n_vars
    for j, c in obj.items():
        cost[j] = -float(c)  # linprog minimizes
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


def _quotients(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise as float64, each correctly rounded like the
    true division of the two Python ints."""
    exact = 1 << 53  # every int up to this is a float64
    if (
        num.dtype == np.int64
        and den.dtype == np.int64
        and max(_magnitude(num), _magnitude(den)) <= exact
    ):
        # Both sides convert to float64 exactly, and one IEEE division
        # rounds their quotient correctly.
        return num / den
    return np.array([a / b for a, b in zip(num.tolist(), den.tolist())], dtype=np.float64)


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

    The checks run in Python ints on the integer rows, as whole object
    arrays: the dual w_i of each integer row (y_i over the row's scale)
    times E, the lcm of these duals' and the objective's denominators.
    """
    carried = np.array([i for i, y in enumerate(duals) if y], dtype=np.int64)
    weights = [
        duals[i] if s == 1 else Fraction(duals[i], s)
        for i, s in zip(carried.tolist(), rows.scale[carried].tolist())
    ]
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


def _magnitude(values: np.ndarray) -> int:
    """The largest absolute value, as a Python int (0 if empty)."""
    return max(abs(int(values.min())), abs(int(values.max()))) if len(values) else 0


def _times(q: int | Fraction, m: int) -> int:
    """q * m, for a multiple m of q's denominator."""
    return q.numerator * (m // q.denominator)


def solve_lp(n_vars: int, objective, constraints) -> LpSolution:
    """Maximize ``objective . x`` over x >= 0 under the constraints.

    Args:
        n_vars: number of structural variables.
        objective: sparse (var, coeff) pairs; a variable may repeat, and
            its coefficients are summed.
        constraints: triples (coeffs, relation, rhs) with coeffs in the
            same form and relation one of "<=", "=", ">="; or the same
            rows already gathered as an :class:`IntRows`.

    Returns:
        LpSolution; primal and duals are present only when optimal, and
        then they have passed the exact checks, whichever engine found
        them.  AssertionError if the tableau's optimal pair fails them.
    """
    obj = _sparse(objective)
    if any(j >= n_vars or j < 0 for j in obj):
        raise ValueError("objective references an unknown variable")
    if isinstance(constraints, IntRows):
        rows = constraints
        if len(rows.col) and (rows.col.min() < 0 or rows.col.max() >= n_vars):
            raise ValueError("constraint references an unknown variable")
    else:
        rows = _parse(n_vars, constraints)
    if n_vars:  # linprog rejects a problem with no variables
        sol = _propose(n_vars, obj, rows)
        if sol is not None:
            return sol
    sol = _solve_exact(_canonicalize(n_vars, rows), obj)
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
