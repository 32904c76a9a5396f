"""Linear CDS schemes over GF(p) and their rank-based verification.

A scheme assigns every vertex v the signal  v = F_v s + H_v z  for a
shared secret s and common noise z.  Because (s, z) is uniform, every
entropy in the model is a matrix rank, so decodability, security and the
two alignment phenomena (noise-space overlap on qualified edges, forced
secret-row agreement on unqualified edges) all reduce to exact rank
computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gf import (
    GfMatrix,
    check_modulus,
    left_kernel,
    matmul,
    neg,
    prefix_ranks,
    rowspace_intersection_dim,
    vstack,
)
from .gf import rank  # noqa: F401  perfbench/spans.py traces it here
from .instance import QUALIFIED, UNQUALIFIED, CdsInstance

__all__ = [
    "LinearScheme",
    "EdgeVerdict",
    "VertexVerdict",
    "VerificationReport",
    "AlignmentReport",
    "RateReport",
    "SchemeFormatError",
    "VerificationFailedError",
    "block_ranks",
    "verify_linear",
    "noise_overlap_dim",
    "check_signal_alignment",
    "path_overlap_lower_bound",
    "alignment_report",
    "verify_and_align",
    "rate_report",
    "parse_scheme",
    "format_scheme",
]


class SchemeFormatError(ValueError):
    """Malformed scheme text; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VerificationFailedError(ValueError):
    """Raised when an operation requires a scheme that verifies."""


@dataclass(frozen=True)
class LinearScheme:
    """Per-vertex secret/noise precoding pairs over a common field.

    ``matrices[v] = (F_v, H_v)`` with F_v of shape N_v x L and H_v of
    shape N_v x L_Z, in vertex-name order.  Vertices may share one pair
    of (immutable) matrices, as the vertices of one signal block do in a
    synthesized or parsed scheme.  ``blocks`` lists the distinct pairs in
    the order of their first vertex and ``block_of[v]`` is the index of
    v's pair in it; each block is validated once, and equality, ranks
    and the scheme file read the blocks rather than the vertices.
    """

    p: int
    secret_len: int
    noise_len: int
    matrices: dict[str, tuple[GfMatrix, GfMatrix]] = field(repr=False)
    blocks: tuple[tuple[GfMatrix, GfMatrix], ...] = field(
        init=False, repr=False, compare=False
    )
    block_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.secret_len < 1:
            raise ValueError("secret length must be at least 1")
        if self.noise_len < 0:
            raise ValueError("noise length cannot be negative")
        ordered: dict[str, tuple[GfMatrix, GfMatrix]] = {}
        blocks: list[tuple[GfMatrix, GfMatrix]] = []
        block_of: dict[str, int] = {}
        index: dict[tuple[int, int], int] = {}  # (id F, id H) -> block
        for v in sorted(self.matrices):
            f, h = ordered[v] = tuple(self.matrices[v])
            k = block_of[v] = index.setdefault((id(f), id(h)), len(blocks))
            if k < len(blocks):
                continue
            if f.p != self.p or h.p != self.p:
                raise ValueError(f"vertex {v}: matrices must be over GF({self.p})")
            if f.rows != h.rows:
                raise ValueError(
                    f"vertex {v}: F has {f.rows} rows but H has {h.rows}"
                )
            if f.cols != self.secret_len:
                raise ValueError(
                    f"vertex {v}: F has {f.cols} columns, expected {self.secret_len}"
                )
            if h.cols != self.noise_len:
                raise ValueError(
                    f"vertex {v}: H has {h.cols} columns, expected {self.noise_len}"
                )
            blocks.append(ordered[v])
        object.__setattr__(self, "matrices", ordered)
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "block_of", block_of)

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(self.matrices)

    def signal_len(self, v: str) -> int:
        return self.matrices[v][0].rows

    def max_signal_len(self) -> int:
        """The longest signal; 0 for a scheme without vertices."""
        return max((f.rows for f, _ in self.blocks), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearScheme):
            return NotImplemented
        if (self.p, self.secret_len, self.noise_len) != (
            other.p,
            other.secret_len,
            other.noise_len,
        ) or self.block_of.keys() != other.block_of.keys():
            return False
        # Both indexes list the same vertices in name order.
        pairs = set(zip(self.block_of.values(), other.block_of.values()))
        return all(self.blocks[i] == other.blocks[j] for i, j in pairs)


def _require_vertices(inst_vertices, sch: LinearScheme) -> None:
    missing = [v for v in inst_vertices if v not in sch.matrices]
    if missing:
        raise ValueError(f"scheme is missing matrices for: {', '.join(missing)}")


@dataclass(frozen=True)
class VertexVerdict:
    secure: bool
    leak_rank: int  # rank([F|H]) - rank(H), in p-ary symbols


@dataclass(frozen=True)
class EdgeVerdict:
    kind: str
    ok: bool
    rank_delta: int  # information rank on qualified edges, leakage on unqualified


@dataclass(frozen=True)
class VerificationReport:
    vertex_verdicts: dict[str, VertexVerdict]
    edge_verdicts: dict[tuple[str, str], EdgeVerdict]
    passed: bool


# Cells (rows x columns, summed over the batch) per elimination: bounds
# the memory the stacks take at any one time.
_CHUNK_CELLS = 1 << 14


def block_ranks(sch: LinearScheme, groups) -> list[tuple[int, int]]:
    """(rank of H, rank of [F|H]) of each group's signal blocks stacked.

    ``groups`` is a (G, k) array of indices into ``sch.blocks``, one
    group of k blocks per row; a block listed twice changes no rank.
    Each block's [H | F] is padded with zero rows to the longest signal,
    which changes no rank either, and a group's stack is its padded
    blocks stacked.  The stacks are eliminated in chunks of at most
    ``_CHUNK_CELLS`` cells, and both ranks are read off the noise-first
    prefix ranks: in a leftmost-pivot echelon form the pivots among the
    first L_Z columns number rank(H) and all pivots rank([F|H]).
    """
    groups = np.asarray(groups, dtype=np.intp)
    lz = sch.noise_len
    width = lz + sch.secret_len
    n = sch.max_signal_len()
    table = np.zeros((len(sch.blocks), n, width), dtype=np.int64)
    for k, (f, h) in enumerate(sch.blocks):
        table[k, : f.rows, :lz] = h.data
        table[k, : f.rows, lz:] = f.data
    count, size = groups.shape
    chunk = max(1, _CHUNK_CELLS // max(1, size * n * width))
    out: list[tuple[int, int]] = []
    for start in range(0, count, chunk):
        part = groups[start : start + chunk]
        prefix = prefix_ranks(table[part].reshape(len(part), size * n, width), sch.p)
        out += zip(prefix[:, lz].tolist(), prefix[:, -1].tolist())
    return out


def _ids(inst: CdsInstance) -> np.ndarray:
    """A read-only int64 view of the vertex ids at both ends of each edge
    of ``inst.qualified + inst.unqualified``, shape (E, 2); id k is
    ``inst.vertices[k]``."""
    ends = np.frombuffer(inst._ends, dtype=np.int64).reshape(-1, 2)
    ends.flags.writeable = False
    return ends


def _rank_table(inst: CdsInstance, sch: LinearScheme):
    """(rank of H, rank of [F|H]) for every vertex and every edge's pair.

    Ranks depend only on the matrices, so the vertices of one block share
    its ranks, and edges whose ends lie in the same two blocks share
    theirs: :func:`block_ranks` eliminates, in one call, each block
    (stacked on itself) and each distinct pair of blocks.  Each vertex is
    mapped to its block once, in id order, and one index with the edge
    ends gives the blocks at both ends of every edge.  Returns two int
    arrays of rank pairs: (V, 2) by vertex id, which is ``inst.vertices``
    order, and (E, 2) in ``inst.qualified + inst.unqualified`` order.
    """
    _require_vertices(inst.vertices, sch)
    block = np.array([sch.block_of[v] for v in inst.vertices], dtype=np.int64)
    ends = block[_ids(inst)]
    base = max(1, len(sch.blocks))
    combos, inverse = np.unique(ends[:, 0] * base + ends[:, 1], return_inverse=True)
    combos = np.stack(np.divmod(combos, base), axis=1)
    nblocks = len(sch.blocks)
    selves = np.arange(nblocks).repeat(2).reshape(nblocks, 2)
    ranks = block_ranks(sch, np.concatenate([selves, combos]))
    ranks = np.array(ranks, dtype=np.int64).reshape(-1, 2)
    return ranks[block], ranks[nblocks + inverse]


def verify_linear(inst: CdsInstance, sch: LinearScheme) -> VerificationReport:
    """Check correctness and security of a scheme by matrix ranks.

    For a pair (v, u), the secret information exposed is
    rank(stacked [F|H]) - rank(stacked H): a qualified edge must expose
    exactly L symbols, an unqualified edge none, and each vertex alone
    none.

    Both ranks come from one elimination of [H | F], noise columns first:
    in a leftmost-pivot echelon form the pivots among the first L_Z
    columns number rank(H) and all pivots rank([F|H]).  The blocks of
    the scheme and the distinct edge stacks are eliminated in batches
    across the instance (:func:`block_ranks`).
    The same two ranks give signal alignment: an edge's noise agreements
    (x, y with x.H_v = y.H_u) force equal secret rows (x.F_v = y.F_u)
    exactly when rank(stacked [F|H]) = rank(stacked H).

    The verdicts are frozen, so vertices or edges with the same verdict
    share one verdict object.
    """
    return _verification(inst, sch, *_rank_table(inst, sch))


def _verification(
    inst: CdsInstance, sch: LinearScheme, vertex_ranks, edge_ranks
) -> VerificationReport:
    """The report on :func:`_rank_table`'s arrays: one verdict object per
    distinct verdict, vertices keyed in id order, which is ``inst.vertices``
    order, and edges in ``inst.edges`` order, which is their ends' ids in order."""
    leak = vertex_ranks[:, 1] - vertex_ranks[:, 0]
    values, which = np.unique(leak, return_inverse=True)
    vertex = [VertexVerdict(x == 0, x) for x in values.tolist()]
    vertex_verdicts = dict(zip(inst.vertices, map(vertex.__getitem__, which.tolist())))
    # Each edge's kind (1 if unqualified) and rank delta, as one code.
    unqualified = np.arange(len(edge_ranks)) >= len(inst.qualified)
    delta = edge_ranks[:, 1] - edge_ranks[:, 0]
    values, which = np.unique(2 * delta + unqualified, return_inverse=True)
    L = sch.secret_len
    edge = [
        EdgeVerdict(UNQUALIFIED, d == 0, d) if u else EdgeVerdict(QUALIFIED, d == L, d)
        for d, u in zip((values >> 1).tolist(), (values & 1).tolist())
    ]
    ends = _ids(inst)
    by_name = np.argsort(ends[:, 0] * len(inst.vertices) + ends[:, 1], kind="stable")
    pairs = inst.qualified + inst.unqualified
    edge_verdicts = dict(
        zip(
            map(pairs.__getitem__, by_name.tolist()),
            map(edge.__getitem__, which[by_name].tolist()),
        )
    )
    passed = all(w.secure for w in vertex) and all(w.ok for w in edge)
    return VerificationReport(vertex_verdicts, edge_verdicts, passed)


def _matrices(sch: LinearScheme, v: str) -> tuple[GfMatrix, GfMatrix]:
    """(F_v, H_v); ValueError if the scheme has no vertex v."""
    if v not in sch.matrices:
        raise ValueError(f"scheme has no vertex {v}")
    return sch.matrices[v]


def noise_overlap_dim(sch: LinearScheme, v: str, u: str) -> int:
    """Dimension of the intersection of the two noise row spaces."""
    return rowspace_intersection_dim(_matrices(sch, v)[1], _matrices(sch, u)[1])


def check_signal_alignment(
    sch: LinearScheme, v: str, u: str
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Wherever the noise precodings coincide, the secret ones must too.

    Basis-free form: every (x, y) with x.H_v = y.H_u must satisfy
    x.F_v = y.F_u.  Checked on a kernel basis of [H_v; -H_u]; returns the
    first violating (x, y) combination otherwise.

    No command calls it: :func:`alignment_report` decides the verdict from
    ranks, and the tests hold those to this kernel-based reference.
    """
    fv, hv = _matrices(sch, v)
    fu, hu = _matrices(sch, u)
    kernel = left_kernel(vstack(hv, neg(hu)))
    if kernel.rows == 0:
        return True, None
    diffs = matmul(kernel, vstack(fv, neg(fu)))
    for i in range(kernel.rows):
        if any(diffs.data[i]):
            combo = kernel.data[i]
            x = tuple(int(c) for c in combo[: fv.rows])
            y = tuple(int(c) for c in combo[fv.rows :])
            return False, (x, y)
    return True, None


def path_overlap_lower_bound(
    sch: LinearScheme, path, instance: CdsInstance | None = None
) -> int:
    """Chain bound on the common noise overlap along a path.

    Consecutive overlaps of width alpha inside signals of length N force
    a joint overlap of at least sum(alpha) - (edges - 1) * N; the value
    may be negative, in which case it certifies nothing.
    """
    path = list(path)
    if len(path) < 2:
        raise ValueError("path needs at least two vertices")
    lengths = {_matrices(sch, v)[0].rows for v in path}
    if len(lengths) != 1:
        raise ValueError(f"signals along the path differ in length: {sorted(lengths)}")
    n = lengths.pop()
    if instance is not None:
        for a, b in zip(path, path[1:]):
            if not instance.has_edge(a, b):
                raise ValueError(f"consecutive vertices {a}, {b} are not adjacent")
    total = sum(noise_overlap_dim(sch, a, b) for a, b in zip(path, path[1:]))
    return total - (len(path) - 2) * n


@dataclass(frozen=True)
class AlignmentReport:
    """Noise overlaps per qualified edge and signal alignment per
    unqualified edge."""

    noise_overlaps: dict[tuple[str, str], int]
    signal_alignment: dict[tuple[str, str], bool]


def alignment_report(inst: CdsInstance, sch: LinearScheme) -> AlignmentReport:
    """Aggregate the alignment diagnostics for a (verified) scheme.

    Read from the same batched ranks as :func:`verify_linear`: the noise
    overlap on a qualified edge is rank(H_v) + rank(H_u) - rank([H_v; H_u]),
    and an unqualified edge is signal-aligned iff its pair's
    rank([F|H]) equals rank(H), since the left kernel of [H_v; -H_u] lies
    inside that of [F_v; -F_u] exactly when the two ranks agree.
    """
    return _alignment(inst, *_rank_table(inst, sch))


def verify_and_align(
    inst: CdsInstance, sch: LinearScheme
) -> tuple[VerificationReport, AlignmentReport]:
    """:func:`verify_linear` and :func:`alignment_report` from one rank
    table, as ``cds audit`` prints them."""
    ranks = _rank_table(inst, sch)
    return _verification(inst, sch, *ranks), _alignment(inst, *ranks)


def _alignment(inst: CdsInstance, vertex_ranks, edge_ranks) -> AlignmentReport:
    ends = _ids(inst)
    q = len(inst.qualified)
    noise = vertex_ranks[:, 0]
    overlap = noise[ends[:q, 0]] + noise[ends[:q, 1]] - edge_ranks[:q, 0]
    aligned = edge_ranks[q:, 1] == edge_ranks[q:, 0]
    return AlignmentReport(
        dict(zip(inst.qualified, overlap.tolist())),
        dict(zip(inst.unqualified, aligned.tolist())),
    )


@dataclass(frozen=True)
class RateReport:
    rate: Fraction  # L / (2 max N_v), v over the instance's vertices
    randomness_rate: Fraction | None  # L / L_Z, None when noiseless
    bounds: tuple[Fraction, Fraction]


def rate_report(
    inst: CdsInstance, sch: LinearScheme, converse: Fraction | None = None
) -> RateReport:
    """Exact rates plus the capacity interval [achieved, converse].

    The scheme must verify against the instance; without an explicit
    converse the generic non-degenerate bound 1/2 is used.  The instance
    needs a qualified edge: without one no pair must decode, so no rate
    bound applies and signals may even be empty.
    """
    if not inst.qualified:
        raise ValueError(
            "rate_report requires an instance with a qualified edge; "
            "without one no rate is defined"
        )
    if not verify_linear(inst, sch).passed:
        raise VerificationFailedError(
            "rate_report requires a scheme that passes verification"
        )
    return _rates(inst, sch, converse)


def _rates(
    inst: CdsInstance, sch: LinearScheme, converse: Fraction | None = None
) -> RateReport:
    """:func:`rate_report` of a scheme already known to pass verification
    over an instance with a qualified edge.  The rate reads only the
    instance's signals: verification ignores any other vertex of ``sch``."""
    rate = Fraction(sch.secret_len, 2 * max(map(sch.signal_len, inst.vertices)))
    rz = Fraction(sch.secret_len, sch.noise_len) if sch.noise_len else None
    upper = converse if converse is not None else Fraction(1, 2)
    if rate > upper:
        raise ValueError(f"achieved rate {rate} exceeds converse bound {upper}")
    return RateReport(rate, rz, (rate, upper))


# ---------------------------------------------------------------------------
# Scheme file format


def format_scheme(sch: LinearScheme) -> str:
    """The scheme file text; each block of ``sch`` is rendered once."""
    lines = [
        "cds-scheme v1",
        f"field {sch.p}",
        f"secret {sch.secret_len}",
        f"noise {sch.noise_len}",
    ]
    rendered = [
        [
            f"F: {' '.join(map(str, fr))} | H: {' '.join(map(str, hr))}".rstrip()
            for fr, hr in zip(f.data.tolist(), h.data.tolist())
        ]
        for f, h in sch.blocks
    ]
    for v, k in sch.block_of.items():
        lines.append(f"signal {v} {sch.blocks[k][0].rows}")
        lines += rendered[k]
    return "\n".join(lines) + "\n"


def parse_scheme(text: str) -> LinearScheme:
    """Parse the scheme file format written by :func:`format_scheme`.

    Signals whose row lines have the same text share one (F, H) pair of
    immutable matrices: a block of rows is validated and built the first
    time it appears, and only a block that passed every check is reused.
    Every check :class:`LinearScheme` makes is made here first, on the
    offending line, so building the scheme at the end raises nothing.
    """
    lines = []
    for no, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            lines.append((no, ln))
    if not lines:
        raise SchemeFormatError("missing 'cds-scheme v1' header", 1)
    if lines[0][1].split() != ["cds-scheme", "v1"]:
        raise SchemeFormatError("expected header 'cds-scheme v1'", lines[0][0])
    idx = 1

    def take_keyword(word: str) -> int:
        nonlocal idx
        if idx >= len(lines):
            raise SchemeFormatError(f"missing '{word} <n>' line", lines[-1][0])
        no, ln = lines[idx]
        parts = ln.split()
        if len(parts) != 2 or parts[0] != word:
            raise SchemeFormatError(f"expected '{word} <n>'", no)
        try:
            value = int(parts[1])
        except ValueError:
            raise SchemeFormatError(f"bad integer in '{word}'", no) from None
        idx += 1
        return value

    p = take_keyword("field")
    try:
        check_modulus(p)
    except ValueError as exc:
        raise SchemeFormatError(str(exc), lines[idx - 1][0]) from None
    secret_len = take_keyword("secret")
    if secret_len < 1:
        raise SchemeFormatError("secret length must be at least 1", lines[idx - 1][0])
    noise_len = take_keyword("noise")
    if noise_len < 0:
        raise SchemeFormatError("noise length cannot be negative", lines[idx - 1][0])
    matrices: dict[str, tuple[GfMatrix, GfMatrix]] = {}
    blocks: dict[tuple[str, ...], tuple[GfMatrix, GfMatrix]] = {}  # row texts -> pair
    while idx < len(lines):
        no, ln = lines[idx]
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "signal":
            raise SchemeFormatError("expected 'signal <name> <rows>'", no)
        name = parts[1]
        if name in matrices:
            raise SchemeFormatError(f"duplicate signal {name}", no)
        try:
            nrows = int(parts[2])
        except ValueError:
            raise SchemeFormatError("bad row count", no) from None
        if nrows < 0:
            raise SchemeFormatError("row count cannot be negative", no)
        idx += 1
        key = tuple(row for _, row in lines[idx : idx + nrows])
        if len(key) == nrows and key in blocks:
            matrices[name] = blocks[key]
            idx += nrows
            continue
        f_rows, h_rows = [], []
        for _ in range(nrows):
            if idx >= len(lines):
                raise SchemeFormatError(f"signal {name}: missing matrix rows", no)
            rno, row = lines[idx]
            if not row.startswith("F:") or "| H:" not in row:
                raise SchemeFormatError("expected 'F: ... | H: ...'", rno)
            f_part, h_part = row[2:].split("| H:", 1)
            try:
                f_vals = [int(t) for t in f_part.split()]
                h_vals = [int(t) for t in h_part.split()]
            except ValueError:
                raise SchemeFormatError("bad residue", rno) from None
            if len(f_vals) != secret_len or len(h_vals) != noise_len:
                raise SchemeFormatError(
                    f"expected {secret_len} secret and {noise_len} noise residues",
                    rno,
                )
            if any(x < 0 or x >= p for x in f_vals + h_vals):
                raise SchemeFormatError(f"residues must lie in [0, {p})", rno)
            f_rows.append(f_vals)
            h_rows.append(h_vals)
            idx += 1
        matrices[name] = blocks[key] = (
            GfMatrix.from_rows(p, f_rows, secret_len),
            GfMatrix.from_rows(p, h_rows, noise_len),
        )
    return LinearScheme(p, secret_len, noise_len, matrices)
