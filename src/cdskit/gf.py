"""Exact dense linear algebra over prime fields GF(p).

Matrices carry their modulus explicitly and are immutable after
construction.  Ranks, of one matrix or of a whole stack, come from one
forward elimination vectorised across the stack (:func:`prefix_ranks`).
Kernels and intersection bases are read off a reduced echelon form from
Gauss-Jordan elimination with the leftmost-pivot / first-qualifying-row
rule, so they are deterministic.  Primes are restricted to p < 2^16;
entries stay machine integers throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_MAX_PRIME = 1 << 16


def is_prime(n: int) -> bool:
    """Trial-division primality check, adequate for the small moduli used here."""
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def check_modulus(p: int) -> None:
    """Raise ValueError unless p is a prime below 2^16."""
    if p >= _MAX_PRIME or not is_prime(p):
        raise ValueError(f"modulus {p} must be a prime below 2^16")


@dataclass(frozen=True, eq=False)
class GfMatrix:
    """A rows x cols matrix of residues over GF(p).

    The backing array is int64 and marked read-only; every operation in
    this module returns a fresh matrix.
    """

    p: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_modulus(self.p)
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.p):
            raise ValueError(f"entries must be residues in [0, {self.p})")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_rows(cls, p: int, rows, cols: int | None = None) -> "GfMatrix":
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), cols) % p
        return cls(p, arr)

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "GfMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "GfMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    def to_lists(self) -> list[list[int]]:
        return self.data.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GfMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self) -> str:
        return f"GfMatrix(p={self.p}, {self.rows}x{self.cols})"


def _check_same_field(a: GfMatrix, b: GfMatrix) -> None:
    if a.p != b.p:
        raise ValueError(f"field mismatch: GF({a.p}) vs GF({b.p})")


def vstack(a: GfMatrix, b: GfMatrix) -> GfMatrix:
    """Stack b below a; column counts must agree."""
    _check_same_field(a, b)
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")
    return GfMatrix(a.p, np.vstack([a.data, b.data]))


def hstack(a: GfMatrix, b: GfMatrix) -> GfMatrix:
    """Augment a with the columns of b; row counts must agree."""
    _check_same_field(a, b)
    if a.rows != b.rows:
        raise ValueError(f"row mismatch: {a.rows} vs {b.rows}")
    return GfMatrix(a.p, np.hstack([a.data, b.data]))


def matmul(a: GfMatrix, b: GfMatrix) -> GfMatrix:
    _check_same_field(a, b)
    if a.cols != b.rows:
        raise ValueError(f"inner dimension mismatch: {a.cols} vs {b.rows}")
    return GfMatrix(a.p, (a.data @ b.data) % a.p)


def neg(a: GfMatrix) -> GfMatrix:
    return GfMatrix(a.p, (-a.data) % a.p)


def _rref_array(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an int64 array mod p.

    Pivot search scans columns left to right and takes the first row with
    a nonzero entry at or below the current pivot row.
    """
    m = arr.copy() % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        # Eliminate the pivot column everywhere else (above and below).
        col = m[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            m[mask] = (m[mask] - np.outer(col[mask], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def prefix_ranks(stack: np.ndarray, p: int) -> np.ndarray:
    """Ranks of the leading column blocks of every matrix in a stack.

    ``stack`` is a (B, R, C) integer array read mod p.  Entry [b, k] of
    the (B, C + 1) result is the rank of ``stack[b, :, :k]``, so the last
    column holds the B ranks.

    One forward elimination per column, vectorised across the batch: each
    matrix takes a free row that is nonzero in the column as its pivot row,
    retires it, and clears the column from its other free rows by
    row <- pivot * row - entry * pivot_row.  That row operation is
    invertible for a nonzero pivot and needs no inverse; entries stay
    below p < 2^16, so products stay below 2^32 in int64.  Free rows are
    zero in every column already eliminated, so the pivots among the
    first k columns number the rank of those columns.
    """
    stack = np.asarray(stack, dtype=np.int64)
    if stack.ndim != 3:
        raise ValueError("a stack of matrices must be three-dimensional")
    a = np.remainder(stack.transpose(2, 0, 1), p, order="C")  # (C, B, R)
    ncols, nmats, nrows = a.shape
    pivots = np.zeros((nmats, ncols + 1), dtype=np.int64)
    free = np.ones((nmats, nrows), dtype=bool)
    batch = np.arange(nmats)
    for c in range(ncols if nrows else 0):
        entry = a[c] * free
        pr = entry.argmax(axis=1)
        pivot = entry[batch, pr]
        none = pivot == 0
        if none.all():
            continue
        pivots[:, c + 1] = ~none
        free[batch, pr] &= none
        if c + 1 == ncols or not free.any():
            break
        pivot += none  # 1 where the column has no pivot: no row changes
        entry[batch, pr] = 0
        rest = a[c + 1 :]
        pivot_row = rest[:, batch, pr]  # (C - c - 1, B)
        rest *= pivot[:, None]
        rest -= entry * pivot_row[:, :, None]
        rest %= p
    return np.cumsum(pivots, axis=1)


def rank(m: GfMatrix) -> int:
    """Dimension of the row space."""
    return int(prefix_ranks(m.data[None], m.p)[0, -1])


def left_kernel(m: GfMatrix) -> GfMatrix:
    """Basis, as rows, of {x : x . m = 0}; row count = rows(m) - rank(m),
    read off the reduced echelon form of m's transpose."""
    red, pivots = _rref_array(m.data.T, m.p)
    n = m.rows
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(red[i, f])) % m.p
    return GfMatrix(m.p, basis)


def rowspace_intersection_dim(a: GfMatrix, b: GfMatrix) -> int:
    """Dimension of the row-space intersection:
    rank(a) + rank(b) - rank([a; b])."""
    _check_same_field(a, b)
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")
    return rank(a) + rank(b) - rank(vstack(a, b))


def rowspace_intersection_basis(a: GfMatrix, b: GfMatrix) -> GfMatrix:
    """Basis of the row-space intersection via the Zassenhaus block trick.

    Row-reducing [[a, a], [b, 0]] leaves the intersection in the right
    half of the rows whose left half vanished.
    """
    _check_same_field(a, b)
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")
    n = a.cols
    block = np.zeros((a.rows + b.rows, 2 * n), dtype=np.int64)
    block[: a.rows, :n] = a.data
    block[: a.rows, n:] = a.data
    block[a.rows :, :n] = b.data
    red, _ = _rref_array(block, a.p)
    zero_left = ~red[:, :n].any(axis=1)
    nonzero_right = red[:, n:].any(axis=1)
    inter = red[zero_left & nonzero_right, n:]
    basis, pivots = _rref_array(inter, a.p)
    out = GfMatrix(a.p, basis[: len(pivots)])
    expected = rowspace_intersection_dim(a, b)
    if out.rows != expected:
        raise AssertionError(
            f"intersection basis rank {out.rows} != expected {expected}"
        )
    return out

