"""Exhaustive ground truth for scheme verification, and the lemma audit.

Every (secret, noise) realization is enumerated into a table of signal
values, so correctness and security become exact combinatorial facts:
the secret is constant on every fiber of a decodable pair, and the joint
(secret, signals) distribution factorizes for a secure pair.  No edge
check in this module relies on the rank identities it is meant to
validate.

The lemma audit is not enumeration ground truth.  For a linear scheme
every entropy it reads is a rank, so the audit of a scheme, or of a table
built from one, reads the ranks of signal blocks
(:func:`cdskit.scheme.block_ranks`) and enumerates nothing; only a table
of arbitrary signal functions is audited through counts.

Both facts are counted in time linear in the pair's grid, with no sort.
A variable reads the noise digits its codes depend on: S reads none, Z
reads all of them, a signal of a linear table reads the nonzero columns
of its H_v, and a signal of arbitrary functions reads every digit; a
linear table works out each signal's digits once, as a bitmask.  The
grid is the table restricted to the secret and the digits the pair
reads, with every other digit at 0.  The unread digits are uniform and
independent of the secret and of the pair, so every fiber of the full
table is a fiber of the grid times each of their values: count(s, w)
and count(w) on the table are those on the grid times the same power of
p, and both facts hold on one iff they hold on the other.  The grid is
a view of the table's codes with one axis for the secret and one per
maximal run of read digits (:func:`_grid`).  In the rate-1/2
construction each signal is the secret plus its own qualified
component's noise, so a pair of signals reads the noise of one or two
components however many there are: its grid stays small however large
the table.
:func:`tabulate` uses the same fact the other way round: it computes
each signal on its own grid and copies the codes along the digits the
signal does not read.

Both checks of a pair (v, u) read one joint count, count(s, w) for every
secret s and pair of values w = (a, b) (:func:`_pair_count`).  The grid
rows are secret-major and the secret is uniform, so a row's secret is
its block: the folded index s |v| |u| + a |u| + b is built from the two
views and counted by one ``np.bincount``.  The pair decodes iff no w
occurs with two secrets, and it is secure iff every secret shows each w
equally often, in exact integers.  The count holds one integer per
secret and w, so it is taken only when that is at most the grid's rows;
past that, the pair's values on each row are labelled (:func:`_labels`),
correctness scatters each row's secret to its label and gathers it back
(a label in two blocks loses one of its secrets), and security first
numbers the labels that occur.

Every array of the table, and every residue, code and label derived from
it, is held in the narrowest unsigned type that holds its largest
possible value (``np.min_scalar_type``): a one-symbol GF(3) signal takes
one byte per realization, not eight.  Memory is what caps the budget.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .gf import GfMatrix, rank
from .instance import CdsInstance, _blocks, _decompose
from .scheme import LinearScheme, block_ranks

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetError",
    "SchemeTable",
    "tabulate",
    "check_correct",
    "check_secure",
    "joint_entropy",
    "joint_rank",
    "LemmaResult",
    "LemmaAuditReport",
    "lemma_audit",
]

DEFAULT_BUDGET = 1 << 20

# Enumerating all subsets of a qualified component is affordable only for
# small components; beyond this, the boundary cases pin the rest by
# monotonicity of conditional entropy.
_SUBSET_ENUM_LIMIT = 64


class BudgetError(ValueError):
    """The (secret, noise) space is too large to enumerate."""


def _realizations(p: int, secret_len: int, noise_len: int, budget: int) -> int:
    """The number of realizations, p^(L+L_Z); BudgetError past ``budget``."""
    total = p ** (secret_len + noise_len)
    if total > budget:
        raise BudgetError(f"p^(L+L_Z) = {total} exceeds the enumeration budget {budget}")
    return total


def _all_vectors(p: int, n: int) -> np.ndarray:
    """All p^n digit vectors as an array of shape (p^n, n), counting with
    the first symbol most significant."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([np.arange(p, dtype=np.int64)] * n), indexing="ij")
    return np.stack(grids, axis=-1).reshape(p**n, n)


def _images(m: np.ndarray, p: int) -> np.ndarray:
    """m x mod p for every digit vector x, first symbol most significant,
    as residues of shape (rows of m, p^(columns of m)), in the narrowest
    unsigned type that holds 2p - 2 (uint8 for p <= 128).

    Built by digit doubling from the last column to the first: each
    column multiplies the images so far by p, as the new most significant
    symbol, adding every multiple of that column to all of them.  So the
    long axis stays innermost in every broadcast sum.
    """
    rows = m.shape[0]
    residue = np.min_scalar_type(2 * p - 2)
    out = np.zeros((rows, 1), dtype=residue)
    for col in m.T[::-1]:
        multiples = ((col[:, None] * np.arange(p)) % p).astype(residue)
        out = _add_mod(multiples[:, :, None], out[:, None, :], p)
        out = out.reshape(rows, p * out.shape[2])
    return out


def _add_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a + b) mod p for residues a and b of an unsigned type that holds
    2p - 2: their sum t is below 2p, so (a + b) mod p is the smaller of
    t and t - p, much faster than a division.  For t < p the subtraction
    wraps to 2^k - p + t, which is above t since the type holds p."""
    total = a + b
    np.minimum(total, total - total.dtype.type(p), out=total)
    return total


_WORD = 1 << 64


def _renumber(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(each value's index among the distinct values, as uint64; their count)."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.uint64), len(distinct)


def _number_rows(columns, radices) -> np.ndarray:
    """Each row of the columns numbered by identity: its index among the
    distinct rows in lexicographic order, in the narrowest unsigned type
    that holds the row count - 1.  Every value of a column is below its
    radix.

    The columns are packed big-endian, in mixed radix, into one uint64
    word per row for as long as it can hold them.  When the next column
    would overflow it, the word is replaced by its rank among the distinct
    words, which orders the rows like their digits so far, and packing
    goes on.  So a wide row costs a few one-dimensional sorts, one per
    word, instead of one sort of all its columns.
    """
    word, bound = None, 1  # every packed value is below bound
    for col, radix in zip(columns, radices):
        if bound * radix > _WORD:
            word, bound = _renumber(word)
            if bound * radix > _WORD:
                col, radix = _renumber(col)
        if word is None:
            word = col.astype(np.uint64)
        else:
            word *= radix
            word += col
        bound *= radix
    numbers, _ = _renumber(word)
    return numbers.astype(np.min_scalar_type(len(numbers) - 1))


def _encode(columns, n: int, p: int, rows: int, size: int) -> np.ndarray:
    """One scalar per row of n digit columns of length ``rows``: its
    base-p value (big-endian), accumulated one digit at a time from the
    first, in the narrowest unsigned type that holds p^n - 1, while that
    fits in 62 bits; otherwise the row's index among the distinct rows,
    in the narrowest unsigned type that holds ``size`` - 1: the
    realizations of the table whose grid these rows are."""
    if n * math.log2(p) > 62:
        numbers = _number_rows(columns, [p] * n)
        return numbers.astype(np.min_scalar_type(size - 1), copy=False)
    if n == 0:
        return np.zeros(rows, dtype=np.uint8)
    columns = iter(columns)
    code = next(columns).astype(np.min_scalar_type(p**n - 1))
    for digit in columns:
        code *= p
        code += digit
    return code


@dataclass(frozen=True)
class SchemeTable:
    """Total map from every (secret, noise) pair to all signal values.

    Rows are secret-major: row s * p^L_Z + z holds the realization with
    secret s and noise z, both counted big-endian, so each secret owns one
    contiguous block of p^L_Z rows and the secret is uniform.  The
    counting checks rely on this layout.

    Signal values are stored as codes, one array of length p^(L+L_Z) per
    vertex: base-p encoded, in the narrowest unsigned type that holds
    p^N - 1, or numbered by identity for signals too wide for that, in
    the narrowest unsigned type that holds p^(L+L_Z) - 1.  The secret
    and noise codes follow the same rule.  ``scheme`` is set when the
    table came from a linear scheme, which unlocks exact integer
    entropies via ranks.
    """

    p: int
    secret_len: int
    noise_len: int
    signal_lens: dict[str, int]
    values: dict[str, np.ndarray] = field(repr=False)
    scheme: LinearScheme | None = None

    @cached_property
    def _read_masks(self) -> dict[str, int]:
        """Each signal's read noise digits, the nonzero columns of its H_v,
        as a bitmask (:func:`_reads`), worked out once per linear table."""
        return {
            v: int("0" + "".join("01"[r] for r in h.data.any(axis=0).tolist()), 2)
            for v, (_, h) in self.scheme.matrices.items()
        }

    @property
    def size(self) -> int:
        return self.p ** (self.secret_len + self.noise_len)

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.values))

    def secret_codes(self) -> np.ndarray:
        n, reps = self.p**self.secret_len, self.p**self.noise_len
        return np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1)), reps)

    def noise_codes(self) -> np.ndarray:
        n, reps = self.p**self.noise_len, self.p**self.secret_len
        return np.tile(np.arange(n, dtype=np.min_scalar_type(n - 1)), reps)

    def column(self, name: str) -> tuple[np.ndarray, int]:
        """(codes, alphabet size) for a variable name: S, Z or a vertex;
        ValueError for any other name."""
        if name == "S":
            return self.secret_codes(), self.p**self.secret_len
        if name == "Z":
            return self.noise_codes(), self.p**self.noise_len
        try:
            codes = self.values[name]
        except KeyError:
            raise ValueError(f"unknown variable {name}") from None
        return codes, self.p ** self.signal_lens[name]

    @classmethod
    def from_functions(
        cls, p: int, secret_len: int, noise_len: int, signals, budget: int = DEFAULT_BUDGET
    ) -> "SchemeTable":
        """Tabulate arbitrary (possibly non-linear) signal functions.

        ``signals`` maps each vertex to a callable taking (s, z) digit
        tuples and returning the signal digit tuple.
        """
        if secret_len < 1:
            raise ValueError("secret length must be at least 1")
        total = _realizations(p, secret_len, noise_len, budget)
        s_vecs = _all_vectors(p, secret_len)
        z_vecs = _all_vectors(p, noise_len)
        values: dict[str, np.ndarray] = {}
        lens: dict[str, int] = {}
        for name, fn in signals.items():
            out = []
            width = None
            for s in s_vecs:
                for z in z_vecs:
                    val = tuple(fn(tuple(int(x) for x in s), tuple(int(x) for x in z)))
                    if width is None:
                        width = len(val)
                    elif len(val) != width:
                        raise ValueError(f"signal {name} changes length")
                    if any(d < 0 or d >= p for d in val):
                        raise ValueError(f"signal {name} produced a non-residue")
                    out.append(val)
            digits = np.array(out, dtype=np.min_scalar_type(p - 1))
            digits = digits.reshape(total, width or 0)
            values[name] = _encode(digits.T, width or 0, p, total, total)
            lens[name] = width or 0
        return cls(p, secret_len, noise_len, lens, values, scheme=None)


def tabulate(sch: LinearScheme, budget: int = DEFAULT_BUDGET) -> SchemeTable:
    """Enumerate v = F_v s + H_v z for every vertex and every (s, z).

    Each signal is computed on its own grid, the secret and the noise
    digits it reads (the nonzero columns of H_v), and then spread to the
    table (:func:`_spread`): its codes are constant along every other
    digit.  F_v s for every secret and H_v z for every value of the read
    digits come from digit doubling (:func:`_images`).  Signal digit i of
    a grid row is their sum mod p, so each digit is one broadcast sum over
    the grid, folded into the vertex's code before the next is formed.
    """
    p = sch.p
    total = _realizations(p, sch.secret_len, sch.noise_len, budget)

    def digits(fs: np.ndarray, hz: np.ndarray, rows: int):
        for a, b in zip(fs, hz):
            yield _add_mod(a[:, None], b, p).reshape(rows)

    values: dict[str, np.ndarray] = {}
    lens: dict[str, int] = {}
    for v, (f, h) in sch.matrices.items():
        read = h.data.any(axis=0)
        fs, hz = _images(f.data, p), _images(h.data[:, read], p)
        rows = p ** (sch.secret_len + int(read.sum()))
        codes = _encode(digits(fs, hz, rows), f.rows, p, rows, total)
        values[v], lens[v] = _spread(codes, read, p), f.rows
    return SchemeTable(p, sch.secret_len, sch.noise_len, lens, values, sch)


def _spread(codes: np.ndarray, read: np.ndarray, p: int) -> np.ndarray:
    """Codes on the grid of the secret and the ``read`` noise digits,
    spread to every noise digit: constant along each unread one.

    The rows are built from the last digit outward as an (outer, inner)
    array whose inner axis spans the digits done so far.  An unread digit
    first repeats every inner block p times in place (``np.repeat`` copies
    whole blocks); then each digit, read or not, moves from the outer
    axis into the inner one.
    """
    out = codes.reshape(-1, 1)
    for r in read[::-1].tolist():
        if not r:
            out = np.repeat(out, p, axis=0)
        out = out.reshape(-1, p * out.shape[1])
    return out.reshape(-1)


def _reads(table: SchemeTable, name: str) -> int:
    """The noise digits a variable's codes depend on, as a bitmask whose
    binary digits are the noise digits, the first most significant like
    in the rows, 1 where read: none for S, all for Z and for a signal of
    arbitrary functions, and the nonzero columns of H_v for a signal of a
    linear table."""
    if name == "S":
        return 0
    if name == "Z" or table.scheme is None:
        return (1 << table.noise_len) - 1
    return table._read_masks[name]


def _require_names(table: SchemeTable, names) -> None:
    """ValueError unless ``names`` is a nonempty list of the table's
    variables: S, Z or a vertex."""
    if not names:
        raise ValueError("subset must be nonempty")
    for name in names:
        if name not in ("S", "Z") and name not in table.values:
            raise ValueError(f"unknown variable {name}")


def _grid(table: SchemeTable, names) -> list[tuple[np.ndarray, int]]:
    """[(codes, alphabet size)] of the selected variables on the grid of
    the secret and the noise digits they read, each a view of the
    table's codes.

    The noise digits fall into maximal runs of consecutive digits that
    are all read or all unread.  Each code array is viewed with one axis
    for the secret and one per run, and the rows at 0 on every unread run
    are taken: a view of one axis for the secret and one per read run,
    p^(L + read digits) entries in all, secret-major like the table.  The
    selected codes are constant along every unread digit, so no value is
    lost.  When they read every digit the grid is the table.  ValueError
    unless ``names`` is a nonempty list of the table's variables.
    """
    if not names:
        raise ValueError("subset must be nonempty")
    cols = [table.column(name) for name in names]
    read = 0
    for name in names:
        read |= _reads(table, name)
    shape, at = _run_axes(read, table.noise_len, table.p, table.p**table.secret_len)
    return [(codes.reshape(shape)[at], size) for codes, size in cols]


def _run_axes(read: int, digits: int, p: int, secrets: int) -> tuple[list[int], tuple]:
    """(shape, index) of the grid of the secret and the ``read`` noise
    digits (:func:`_grid`): one axis for the secret and one per run, and
    at 0 on every unread run."""
    shape, at = [secrets], [slice(None)]
    # The first digit left is the mask's most significant bit.  Its run
    # ends at the first digit left that differs from it: at the bit length
    # of the digits left, flipped when the run is read.
    while digits:
        mask = (1 << digits) - 1
        bit = read >> (digits - 1) & 1
        end = ((read & mask) ^ (mask if bit else 0)).bit_length()
        shape.append(p ** (digits - end))
        at.append(slice(None) if bit else 0)
        digits = end
    return shape, tuple(at)


def _labels(cols) -> tuple[np.ndarray, int]:
    """(codes, width): the joint value of the grid views ``cols``
    (:func:`_grid`) on every row of their grid, as a new array of labels
    in [0, width), where width is at most the grid's rows.

    The code columns are combined in mixed radix, in the narrowest
    unsigned type that holds width - 1, when the product of their
    alphabet sizes is at most the grid's rows.  Otherwise (wide signals,
    or a joint alphabet larger than the grid) the rows' joint values are
    numbered by identity, which sorts, in the narrowest unsigned type
    that holds the grid's rows - 1.
    """
    rows = cols[0][0].size
    width = math.prod(size for _, size in cols)
    if width > rows:
        codes = [col.reshape(rows) for col, _ in cols]
        numbers = _number_rows(codes, [int(col.max()) + 1 for col in codes])
        return numbers, int(numbers.max()) + 1
    label = np.min_scalar_type(width - 1)
    # A constant column adds nothing; without one, every multiplier is
    # below width and so fits the label type.
    cols = [(col, size) for col, size in cols if size > 1]
    if not cols:
        return np.zeros(rows, dtype=label), width
    # Cast before multiplying: the product wraps in a narrower type.
    codes = cols[0][0].astype(label)
    for col, size in cols[1:]:
        codes *= size
        codes += col
    return codes.reshape(rows), width


def _pair_count(table: SchemeTable, cols) -> np.ndarray | None:
    """count(s, w) of a pair's grid views ``cols`` = [(a, |v|), (b, |u|)],
    for every secret s and joint value w = a |u| + b, as a
    (secrets, |v| |u|) matrix; None when it would hold more integers
    than the grid has rows.

    The folded index s |v| |u| + w is built straight from the two views
    in the narrowest unsigned type that holds it, with one multiply and
    two adds, and counted by one ``np.bincount``.
    """
    (a, size_a), (b, size_b) = cols
    secrets, width = table.p**table.secret_len, size_a * size_b
    if secrets * width > a.size:
        return None
    joint = a.astype(np.min_scalar_type(secrets * width - 1))
    joint *= size_b
    joint += b
    return _count(joint.reshape(secrets, -1), width, secrets)


def _count(joint: np.ndarray, width: int, secrets: int) -> np.ndarray:
    """count(s, w): how many grid rows of secret s have label w, as a
    (secrets, width) matrix, from the labels in [0, width) of each
    secret's block, a row of ``joint``, in a type that holds
    secrets * width - 1.  The labels are overwritten with the folded
    index s * width + w."""
    joint += np.arange(0, secrets * width, width, dtype=joint.dtype)[:, None]
    count = np.bincount(joint.reshape(-1), minlength=secrets * width)
    return count.reshape(secrets, width)


def check_correct(table: SchemeTable, v: str, u: str) -> bool:
    """Decodability, combinatorially: the secret is constant on every
    fiber of the pair (v, u).

    Counted on the pair's grid: each fiber of the table is a fiber of
    the grid times every value of the unread noise digits, so it holds
    the same secrets.  The pair decodes iff no pair of values w occurs
    with two secrets: iff the joint count (:func:`_pair_count`) has as
    many nonzero entries as there are values w that occur.  When the
    count would outgrow the grid, each row's secret is instead scattered
    to the row's label (:func:`_labels`) and gathered back; a fiber
    holding two secrets keeps only one, so some row of it reads back
    another secret.
    """
    cols = _grid(table, [v, u])
    count = _pair_count(table, cols)
    if count is not None:
        return np.count_nonzero(count) == np.count_nonzero(count.any(axis=0))
    pair, width = _labels(cols)
    secrets = table.p**table.secret_len
    # Fancy indexing is faster with intp indices than with narrow ones.
    blocks = pair.astype(np.intp).reshape(secrets, -1)
    # The narrowest type that holds a secret keeps the gathered copy small.
    secret = np.arange(secrets, dtype=np.min_scalar_type(secrets - 1))[:, None]
    seen = np.empty(width, dtype=secret.dtype)
    seen[blocks] = secret
    return bool((seen[blocks] == secret).all())


def check_secure(table: SchemeTable, v: str, u: str) -> bool:
    """Zero leakage, combinatorially: the joint (secret, pair)
    distribution factorizes exactly, in integer arithmetic.

    With S uniform over p^L secret-major blocks, P(s, w) = P(s) P(w)
    holds iff every secret block holds each value w equally often: iff
    every row of the joint count (:func:`_pair_count`) equals the
    first.  Counted on the pair's grid: the counts on the table are
    those on the grid times the same power of p, so the identity holds
    on one iff it holds on the other.  When the count would outgrow the
    grid, the labels that occur (:func:`_labels`) are numbered
    first and counted per secret (:func:`_count`).
    """
    cols = _grid(table, [v, u])
    count = _pair_count(table, cols)
    if count is None:
        pair, width = _labels(cols)
        secrets = table.p**table.secret_len
        # A secure pair shows each value that occurs in every block, so
        # it cannot take more values than a block has rows.
        present = np.bincount(pair, minlength=width) > 0
        width = int(present.sum())
        if secrets * width > pair.size:
            return False
        numbered = (np.cumsum(present) - 1)[pair]
        count = _count(numbered.reshape(secrets, -1), width, secrets)
    return not np.count_nonzero(count - count[0])


def _precoding(sch: LinearScheme, name: str) -> np.ndarray:
    """Joint precoding [F | H] rows of one variable: S, Z or a vertex."""
    L, LZ = sch.secret_len, sch.noise_len
    if name == "S":
        return np.eye(L, L + LZ, dtype=np.int64)
    if name == "Z":
        return np.eye(LZ, L + LZ, k=L, dtype=np.int64)
    f, h = sch.matrices[name]
    return np.hstack([f.data, h.data])


def joint_rank(table: SchemeTable, subset) -> int:
    """Exact joint entropy (p-ary) of a subset of a linear table, as the
    rank of the stacked precoding."""
    names = sorted(set(subset))
    _require_names(table, names)
    if table.scheme is None:
        raise ValueError("joint_rank requires a table built from a linear scheme")
    sch = table.scheme
    rows = [_precoding(sch, name) for name in names]
    return rank(GfMatrix(sch.p, np.vstack(rows)))


def joint_entropy(table: SchemeTable, subset) -> float:
    """Shannon entropy, base p, of the selected variables.

    For linear tables the combinatorial value must equal the precoding
    rank exactly and the integer is returned; otherwise a float.  The
    values are counted on the variables' grid: a linear table's counts
    there are uniform with count * p^rank = the grid's rows iff they are
    on the table.  The float is computed from the table's counts, the
    grid's times p^(unread digits), so it is the table's value exactly.
    """
    names = sorted(set(subset))
    codes, _ = _labels(_grid(table, names))
    counts = np.bincount(codes)
    counts = counts[counts > 0]
    if table.scheme is not None:
        r = joint_rank(table, names)
        if counts.min() != counts.max() or int(counts[0]) * table.p**r != codes.size:
            raise AssertionError(
                f"linear table entropy of {names} does not match rank {r}"
            )
        return float(r)
    total = table.size
    counts = counts * (total // codes.size)
    log_p = math.log(table.p)
    return float(
        math.log(total) / log_p
        - sum(int(c) * math.log(int(c)) for c in counts) / (total * log_p)
    )


# ---------------------------------------------------------------------------
# Lemma audit


@dataclass(frozen=True)
class LemmaResult:
    name: str
    checked: int
    failures: tuple[tuple[tuple[str, ...], str], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def vacuous(self) -> bool:
        return self.checked == 0


@dataclass(frozen=True)
class LemmaAuditReport:
    lemmas: tuple[LemmaResult, ...]

    @property
    def passed(self) -> bool:
        return all(l.passed for l in self.lemmas)

    def lemma(self, name: str) -> LemmaResult:
        for l in self.lemmas:
            if l.name == name:
                return l
        raise KeyError(name)


def _entropies(table: SchemeTable | LinearScheme, names, plain, given_s):
    """(H(X) for X in ``plain``, H(X|S) for X in ``given_s``, tolerance),
    both dicts keyed by the sets X, each a sorted tuple of blocks.

    A linear scheme's blocks are its signal blocks, and its entropies are
    exact ranks of X's blocks stacked, one stack per distinct set,
    eliminated in batches of sets of one size: H(X) is rank [F_X|H_X],
    and since H(X,S) = L + rank H_X and H(S) = L, H(X|S) is rank H_X.
    Otherwise each vertex id is its own block, named by ``names``, and
    the entropies are combinatorial, compared within 1e-9 (p-ary units).
    """
    sch = table if isinstance(table, LinearScheme) else table.scheme
    if sch is None:
        hs = joint_entropy(table, ["S"])
        h = {x: joint_entropy(table, [names[k] for k in x]) for x in set(plain)}
        given = {
            x: joint_entropy(table, [*(names[k] for k in x), "S"]) - hs
            for x in set(given_s)
        }
        return h, given, 1e-9

    groups = {*plain, *given_s}
    ranks = {}
    for size in {len(g) for g in groups}:
        same = [g for g in groups if len(g) == size]
        ranks.update(zip(same, block_ranks(sch, same)))
    h = {x: ranks[x][1] for x in plain}
    return h, {x: ranks[x][0] for x in given_s}, 0


def lemma_audit(
    inst: CdsInstance, table: SchemeTable | LinearScheme, L: int
) -> LemmaAuditReport:
    """Audit the five rate-1/2 entropy identities of a linear scheme, or
    of an oracle table.

    A scheme, or a table built from one, is audited by exact ranks of its
    signal blocks and nothing is enumerated; a table of arbitrary signal
    functions is audited through its counts.  Requires N = L for every
    signal (the identities presuppose rate 1/2): signal size, edge and
    component noise alignment (conditional on the secret), and edge and
    path signal alignment.  Every entropy the audit reads is computed up
    front, in one batch.

    A subject's entropy depends only on its set of blocks.  Each vertex
    id is mapped to its block once, each distinct set is ranked once, and
    the path pairs of an unqualified component are keyed by the blocks
    its vertices lie in: a block holding two of them, or two of its
    blocks.  Pairs are listed only in a component where some set fails.
    """
    if isinstance(table, LinearScheme):
        sch, kind = table, "scheme"
        lens = {v: f.rows for v, (f, _) in table.matrices.items()}
    else:
        sch, kind, lens = table.scheme, "table", table.signal_lens
    if L != table.secret_len:
        raise ValueError(f"L = {L} does not match the {kind}'s secret length")
    for v in inst.vertices:
        if v not in lens:
            raise ValueError(f"{kind} is missing vertex {v}")
        if lens[v] != L:
            raise ValueError(
                f"vertex {v} has signal length {lens[v]} != L = {L}; "
                "the audited identities presuppose rate 1/2"
            )
    names = inst.vertices
    blk = list(range(len(names))) if sch is None else [sch.block_of[v] for v in names]
    qroot, uroot = _decompose(inst)
    q, ends = 2 * len(inst.qualified), inst._ends

    def pair(a: int, b: int) -> tuple[int, ...]:
        """The sorted blocks of the vertex ids a and b."""
        x, y = blk[a], blk[b]
        return (x,) if x == y else (x, y) if x < y else (y, x)

    singles = [(k,) for k in sorted(set(ends[:q]))]
    edges = list(zip(ends[0:q:2], ends[1:q:2]))
    inner = zip(ends[q::2], ends[q + 1 :: 2])
    in_component = [(a, b) for a, b in inner if qroot[a] == qroot[b]]
    component_subsets: list[tuple[int, ...]] = []
    for block in _blocks(qroot):
        if len(block) < 2:
            continue  # trivial component: no qualified edge to anchor the lemma
        if 2 ** len(block) <= _SUBSET_ENUM_LIMIT:
            for mask in range(1, 2 ** len(block)):
                component_subsets.append(
                    tuple(v for i, v in enumerate(block) if mask >> i & 1)
                )
        else:
            # Boundary cases; intermediate subsets follow by monotonicity.
            component_subsets += [(v,) for v in block] + [tuple(block)]
    # Unqualified components grouped by qualified component, each by least
    # id, so that failures are listed component by component; with the
    # distinct block sets of their vertex pairs.
    on_paths = []
    for sub in sorted(_blocks(uroot), key=lambda b: (qroot[b[0]], b[0])):
        count = Counter(blk[k] for k in sub)
        distinct = sorted(count)
        sets = [(b,) for b in distinct if count[b] > 1]
        on_paths.append((sub, sets + list(combinations(distinct, 2))))

    single_keys = [(blk[k],) for (k,) in singles]
    edge_keys = [pair(a, b) for a, b in edges]
    inner_keys = [pair(a, b) for a, b in in_component]
    subset_keys = [tuple(sorted({blk[k] for k in x})) for x in component_subsets]
    h, h_s, tol = _entropies(
        table,
        names,
        single_keys + inner_keys + [s for _, sets in on_paths for s in sets],
        single_keys + edge_keys + subset_keys,
    )
    # The sets whose entropy is not L, or exceeds L.
    h_off = {x for x, val in h.items() if abs(val - L) > tol}
    h_over = {x for x, val in h.items() if val > L + tol}
    h_s_off = {x for x, val in h_s.items() if abs(val - L) > tol}

    def failure(x, val, given="", fails="!="):
        x = tuple(names[k] for k in x)
        return (x, f"H({','.join(x)}{given}) = {val} {fails} {L}")

    def lemma(name, subjects, keys, values, bad, given=""):
        keyed = zip(subjects, keys)
        found = tuple(failure(x, values[k], given) for x, k in keyed if k in bad)
        return LemmaResult(name, len(subjects), found)

    size = [
        failure(x, h[k]) if k in h_off else failure(x, h_s[k], "|S")
        for x, k in zip(singles, single_keys)
        if k in h_off or k in h_s_off
    ]
    over = []
    for sub, sets in on_paths:
        if not h_over.isdisjoint(sets):
            for i, a in enumerate(sub):
                over += [
                    failure((a, b), h[pair(a, b)], fails=">")
                    for b in sub[i + 1 :]
                    if pair(a, b) in h_over
                ]
    checked = sum(len(sub) * (len(sub) - 1) // 2 for sub, _ in on_paths)
    return LemmaAuditReport(
        (
            LemmaResult("signal_size", len(singles), tuple(size)),
            lemma("edge_noise_alignment", edges, edge_keys, h_s, h_s_off, "|S"),
            lemma(
                "component_noise_alignment",
                component_subsets,
                subset_keys,
                h_s,
                h_s_off,
                "|S",
            ),
            lemma("edge_signal_alignment", in_component, inner_keys, h, h_off),
            LemmaResult("path_signal_alignment", checked, tuple(over)),
        )
    )
