"""Property tests: the component pass against a brute-force reference,
the one-pass degenerate-vertex sweep against iteration to a fixpoint,
the batched rank kernel and the reports it feeds against per-matrix
eliminations, the oracle's linear-time counts and tables against
sort-based references, the two file formats against their own writers
and arbitrary text, and the command line's exit codes on arbitrary
files."""

import io
import itertools
import math
import pickle
import tempfile
import tracemalloc
from array import array
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cdskit.cli import run
from cdskit.gf import GfMatrix, _rref_array, hstack, prefix_ranks, rank, vstack
from cdskit.instance import (
    QUALIFIED,
    UNQUALIFIED,
    CdsInstance,
    DegenerateInstanceError,
    InstanceFormatError,
    PathWitness,
    decompose,
    format_instance,
    half_rate_feasible,
    is_non_degenerate,
    normalize_degenerate,
    parse_instance,
    qualified_components,
    unqualified_components_within,
)
from cdskit.oracle import (
    SchemeTable,
    _grid,
    _labels,
    _number_rows,
    _pair_count,
    check_correct,
    check_secure,
    joint_entropy,
    joint_rank,
    tabulate,
)
from cdskit.scheme import (
    EdgeVerdict,
    LinearScheme,
    SchemeFormatError,
    VertexVerdict,
    alignment_report,
    block_ranks,
    check_signal_alignment,
    format_scheme,
    noise_overlap_dim,
    parse_scheme,
    verify_linear,
)
from cdskit.synthesis import plan_synthesis
from gen import random_feasible_instance

PRIMES = (2, 3, 5, 7, 11, 13)
RANK_PRIMES = (2, 3, 5, 7, 11, 65521)


@st.composite
def general_instances(draw) -> CdsInstance:
    """Non-degenerate general instances of varied density.  About two in
    five are infeasible, most of those with several qualified edges inside
    unqualified paths, some in more than one qualified component.

    Qualified edges stay inside groups of shuffled vertices, so that the
    qualified components' least members interleave; names v0..v11 sort
    differently from their numbers.  The choices come from one seeded
    generator, which spreads them more evenly than per-edge draws.
    """
    rng = draw(st.randoms(use_true_random=True))
    n = rng.randint(2, 12)
    names = [f"v{k}" for k in range(n)]
    rng.shuffle(names)
    size = rng.randint(4, 7)
    densities = ["qu", "qqu", "quu", "qu.", "q.", "u."]
    inside = [rng.choice(densities) for _ in range(0, n, size)]
    seen: dict[tuple[str, str], str] = {}
    for k, v in enumerate(names):  # one unqualified edge at each vertex
        u = names[(k + rng.randint(1, n - 1)) % n]
        seen.setdefault((v, u) if v < u else (u, v), "u")
    for k, v in enumerate(names):
        for j in range(k + 1, n):
            kinds = inside[k // size] if k // size == j // size else "u.."
            u = names[j]
            seen.setdefault((v, u) if v < u else (u, v), rng.choice(kinds))
    return CdsInstance.from_edges(
        [(t, v, u) for (v, u), t in seen.items() if t != "."], bipartite=False
    )


@st.composite
def direct_instances(draw) -> CdsInstance:
    """General instances built with ``CdsInstance(...)`` directly from a
    shuffled vertex tuple, which ``from_edges`` never passes, with up to
    three isolated vertices in it: the constructor must sort the tuple
    into name order."""
    inst = draw(general_instances())
    rng = draw(st.randoms(use_true_random=True))
    vertices = [*inst.vertices, *(f"w{k}" for k in range(rng.randint(0, 3)))]
    rng.shuffle(vertices)
    return CdsInstance(tuple(vertices), inst.qualified, inst.unqualified, False)


def distances(start: str, edges) -> dict[str, int]:
    """Breadth-first distances from start over the given edges."""
    dist, queue = {start: 0}, deque([start])
    while queue:
        x = queue.popleft()
        for a, b in edges:
            for y, z in ((a, b), (b, a)):
                if y == x and z not in dist:
                    dist[z] = dist[x] + 1
                    queue.append(z)
    return dist


def reference_components(inst):
    """Qualified components by least member, and the unqualified
    components inside each, from one reachability search per vertex."""
    comps = []
    for v in inst.vertices:
        if not any(v in c for c in comps):
            comps.append(tuple(sorted(distances(v, inst.qualified))))
    inner = []
    for comp in comps:
        edges = [e for e in inst.unqualified if e[0] in comp and e[1] in comp]
        blocks = []
        for v in comp:
            if not any(v in b for b in blocks):
                blocks.append(tuple(sorted(distances(v, edges))))
        inner.append(tuple(blocks))
    return tuple(comps), tuple(inner)


def reference_witness(inst):
    """First qualified edge, in (component, edge) order, whose ends an
    unqualified path inside the component joins; oriented larger first."""
    comps, _ = reference_components(inst)
    for comp in comps:
        edges = [e for e in inst.unqualified if e[0] in comp and e[1] in comp]
        for v, u in sorted(e for e in inst.qualified if e[0] in comp):
            if u in distances(v, edges):
                return (max(v, u), min(v, u)), comp, edges
    return None, None, None


@settings(max_examples=200, deadline=None)
@given(general_instances())
def test_feasibility_matches_reference(inst):
    edge, comp, edges = reference_witness(inst)
    res = half_rate_feasible(inst)
    assert res.feasible == (edge is None)
    assert res.witness_edge == edge
    if edge is not None:
        path = res.witness_path
        assert path.vertices[0] == edge[0] and path.vertices[-1] == edge[1]
        assert path.internal_edge == edge
        assert path.is_valid_for(inst) and set(path.vertices) <= set(comp)
        assert len(path) == distances(edge[0], edges)[edge[1]]  # shortest


@settings(max_examples=200, deadline=None)
@given(st.one_of(general_instances(), direct_instances()))
def test_unqualified_blocks_partition_and_refine(inst):
    ordered = replace(inst, vertices=tuple(sorted(inst.vertices)))
    comps, inner = reference_components(ordered)
    qualified = qualified_components(inst)
    assert qualified.blocks == comps
    all_blocks = []
    for k, block in enumerate(qualified.blocks):
        unq = unqualified_components_within(inst, block)
        assert unq.blocks == inner[k]
        for sub in unq.blocks:
            assert set(sub) <= set(block)
        all_blocks.extend(unq.blocks)
    flat = [v for b in all_blocks for v in b]
    assert sorted(flat) == sorted(inst.vertices) and len(set(flat)) == len(flat)


@settings(max_examples=200, deadline=None)
@given(direct_instances())
def test_degenerate_vertices_match_is_non_degenerate(inst):
    # The feasibility pass finds the vertices without an unqualified edge
    # while it decomposes; they must be is_non_degenerate's, in order.
    ok, violators = is_non_degenerate(inst)
    if ok:
        assert half_rate_feasible(inst).feasible in (True, False)
        return
    for decide in (half_rate_feasible, plan_synthesis):
        with pytest.raises(DegenerateInstanceError) as caught:
            decide(inst)
        assert caught.value.violators == violators


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=True).map(random_feasible_instance))
def test_plan_groups_the_blocks_of_decompose(inst):
    # The plan reads its components off the union-find's roots; decompose's
    # two Partitions must give the same grouping of names: for each
    # qualified block in order, the unqualified blocks whose first member
    # falls in it.
    qualified, unqualified = decompose(inst)
    index = {v: k for k, b in enumerate(qualified.blocks) for v in b}
    want = tuple(
        tuple(b for b in unqualified.blocks if index[b[0]] == k)
        for k in range(len(qualified.blocks))
    )
    plan = plan_synthesis(inst)
    assert plan.components == want
    assert plan.u_counts == tuple(map(len, want))


@st.composite
def instances(draw) -> CdsInstance:
    """Bipartite or general instances with at least one edge."""
    bipartite = draw(st.booleans())
    if bipartite:
        side_a = st.integers(1, 6).map(lambda k: f"A{k}")
        side_b = st.integers(1, 6).map(lambda k: f"B{k}")
        pair = st.tuples(side_a, side_b)
    else:
        name = st.sampled_from(["a", "b", "v1", "v10", "v2", "x_2", "_q", "Zed", "A1"])
        pair = st.tuples(name, name).filter(lambda p: p[0] != p[1])
    edge = st.tuples(st.sampled_from("qu"), pair)
    edges = draw(st.lists(edge, min_size=1, max_size=15))
    seen: dict[tuple[str, str], str] = {}
    for kind, (v, u) in edges:
        seen.setdefault((v, u) if v < u else (u, v), kind)
    return CdsInstance.from_edges(
        [(kind, v, u) for (v, u), kind in seen.items()], bipartite=bipartite
    )


def reference_normalize(inst):
    """Drop every vertex with no unqualified edge, and its edges, again
    and again until no such vertex is left."""
    vertices, qualified, unqualified = inst.vertices, inst.qualified, inst.unqualified
    eliminated: list[str] = []
    while True:
        touched = {x for e in unqualified for x in e}
        gone = [v for v in vertices if v not in touched]
        if not gone:
            return vertices, qualified, unqualified, tuple(eliminated)
        eliminated += gone
        vertices = tuple(v for v in vertices if v in touched)
        qualified = tuple(e for e in qualified if set(e) <= touched)
        unqualified = tuple(e for e in unqualified if set(e) <= touched)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_one_pass_normalization_reaches_the_fixpoint(inst):
    core, eliminated = normalize_degenerate(inst)
    vertices, qualified, unqualified, gone = reference_normalize(inst)
    assert (core.vertices, core.qualified, core.unqualified) == (
        vertices,
        qualified,
        unqualified,
    )
    assert eliminated == gone and core.bipartite == inst.bipartite
    assert is_non_degenerate(core) == (True, ())


def residues(p: int):
    """Residues mod p, with 0, 1 and -1 common enough that rows often
    depend on one another even in a large field."""
    return st.one_of(st.sampled_from(sorted({0, 1, p - 1})), st.integers(0, p - 1))


def residue_array(rng, p: int, rows: int, cols: int) -> np.ndarray:
    """Residues mod p from one seeded generator, each entry drawn as
    :func:`residues` draws it: from {0, 1, p - 1} or from all residues,
    with even odds.  Several times cheaper than an entry-wise Hypothesis
    draw."""
    special = sorted({0, 1, p - 1})
    entries = [
        rng.choice(special) if rng.random() < 0.5 else rng.randrange(p)
        for _ in range(rows * cols)
    ]
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


@st.composite
def schemes(draw, names=None, primes=PRIMES) -> LinearScheme:
    """A scheme over the given vertex names, or over drawn ones.  Signal
    lengths and entries come from one seeded generator."""
    p = draw(st.sampled_from(primes))
    secret_len = draw(st.integers(1, 3))
    noise_len = draw(st.integers(0, 3))
    name = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)
    rng = draw(st.randoms(use_true_random=True))
    matrices = {}
    for v in draw(st.sets(name, max_size=4)) if names is None else names:
        rows = rng.randint(0, 3)
        matrices[v] = tuple(
            GfMatrix(p, residue_array(rng, p, rows, cols)) for cols in (secret_len, noise_len)
        )
    return LinearScheme(p, secret_len, noise_len, matrices)


@st.composite
def instance_schemes(draw) -> tuple[CdsInstance, LinearScheme]:
    """An instance and a scheme with matrices for each of its vertices."""
    inst = draw(instances())
    return inst, draw(schemes(inst.vertices, RANK_PRIMES))


def outcome(decide, inst):
    """decide(inst), or the vertices of the DegenerateInstanceError it raises."""
    try:
        return decide(inst)
    except DegenerateInstanceError as exc:
        return exc.violators


@settings(max_examples=100, deadline=None)
@given(direct_instances(), st.randoms(use_true_random=True))
def test_edge_lookups_match_a_set_of_pairs(inst, rng):
    # has_edge and is_valid_for bisect the sorted edge tuples; a set of
    # unordered pairs is the reference, for pairs either way round, for
    # names outside the instance, and for walks that sometimes step off
    # the edges of their kind or go back over one.
    kinds = {QUALIFIED: inst.qualified, UNQUALIFIED: inst.unqualified}
    pairs = {kind: set(map(frozenset, edges)) for kind, edges in kinds.items()}
    names = [*inst.vertices, "S", "v99", "zz"]
    for v in names:
        for u in names:
            assert inst.has_edge(v, u) == any(frozenset((v, u)) in p for p in pairs.values())
    for _ in range(20):
        kind = rng.choice(list(kinds))
        walk = [rng.choice(names)]
        for _ in range(rng.randint(0, 5)):
            near = [u for u in names if frozenset((walk[-1], u)) in pairs[kind]]
            walk.append(rng.choice(near if near and rng.random() < 0.8 else names))
        steps = [frozenset(p) for p in zip(walk, walk[1:])]
        valid = len(set(steps)) == len(steps) and all(p in pairs[kind] for p in steps)
        assert PathWitness(tuple(walk), kind).is_valid_for(inst) == valid


@settings(max_examples=100, deadline=None)
@given(direct_instances(), st.data())
def test_vertex_ids_do_not_depend_on_input_order(inst, data):
    # An instance sorts its vertices into name order when it is built; the
    # order they were given in must not show through the answers, the key
    # order of the reports, or equality, hashing and repr.
    keep = data.draw(st.sets(st.sampled_from(inst.vertices)))
    sch = data.draw(schemes(inst.vertices, RANK_PRIMES))
    for x in (inst, inst.induced(keep), pickle.loads(pickle.dumps(inst))):
        edges = [(kind, v, u) for kind, (v, u) in x.edges]
        ordered = replace(
            CdsInstance.from_edges(edges, bipartite=False), vertices=tuple(sorted(x.vertices))
        )
        assert decompose(x) == decompose(ordered)
        feasible = outcome(half_rate_feasible, x)
        if isinstance(feasible, tuple):  # degenerate: violators in x.vertices order
            assert feasible == tuple(v for v in x.vertices if v in outcome(half_rate_feasible, ordered))
        else:
            assert feasible == half_rate_feasible(ordered)
        report, alignment = verify_linear(x, sch), alignment_report(x, sch)
        assert report == verify_linear(ordered, sch)
        assert alignment == alignment_report(ordered, sch)
        assert list(report.vertex_verdicts) == list(x.vertices)
        assert list(report.edge_verdicts) == [e for _, e in x.edges]
        assert list(alignment.noise_overlaps) == list(x.qualified)
        assert list(alignment.signal_alignment) == list(x.unqualified)
    assert inst.vertices == tuple(sorted(inst.vertices))
    ordered = CdsInstance(tuple(sorted(inst.vertices)), inst.qualified, inst.unqualified, False)
    assert ordered == inst and hash(ordered) == hash(inst) and repr(ordered) == repr(inst)
    twin = pickle.loads(pickle.dumps(inst))
    assert twin._ends == inst._ends
    object.__setattr__(twin, "_ends", array("q"))
    assert twin == inst and hash(twin) == hash(inst) and repr(twin) == repr(inst)
    assert "_ends" not in repr(inst)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RANK_PRIMES), st.tuples(*[st.integers(0, 5)] * 3), st.data())
def test_prefix_ranks_match_reference_elimination(p, shape, data):
    stack = data.draw(arrays(np.int64, shape, elements=residues(p)))
    got = prefix_ranks(stack, p)
    assert got.shape == (shape[0], shape[2] + 1)
    for b, matrix in enumerate(stack):
        want = [len(_rref_array(matrix[:, :k], p)[1]) for k in range(shape[2] + 1)]
        assert got[b].tolist() == want
    assert [rank(GfMatrix(p, matrix)) for matrix in stack] == got[:, -1].tolist()


def test_ranks_of_empty_stacks():
    assert prefix_ranks(np.zeros((0, 3, 2), dtype=np.int64), 5)[:, -1].shape == (0,)
    assert prefix_ranks(np.zeros((4, 3, 0), dtype=np.int64), 5)[:, -1].tolist() == [0] * 4
    assert prefix_ranks(np.zeros((2, 0, 3), dtype=np.int64), 65521)[:, -1].tolist() == [0, 0]


def reference_verdicts(inst, sch):
    """Vertex and edge verdicts from one rank call per explicitly stacked
    matrix."""
    joint = {v: hstack(*sch.matrices[v]) for v in inst.vertices}
    vertices = {}
    for v in inst.vertices:
        leak = rank(joint[v]) - rank(sch.matrices[v][1])
        vertices[v] = VertexVerdict(leak == 0, leak)
    edges = {}
    for kind, (v, u) in inst.edges:
        hv, hu = sch.matrices[v][1], sch.matrices[u][1]
        delta = rank(vstack(joint[v], joint[u])) - rank(vstack(hv, hu))
        want = sch.secret_len if kind == QUALIFIED else 0
        edges[(v, u)] = EdgeVerdict(kind, delta == want, delta)
    return vertices, edges


@settings(max_examples=200, deadline=None)
@given(instance_schemes())
def test_batched_reports_match_per_pair_ranks(pair):
    inst, sch = pair
    vertices, edges = reference_verdicts(inst, sch)
    report = verify_linear(inst, sch)
    assert report.vertex_verdicts == vertices and report.edge_verdicts == edges
    secure = all(w.secure for w in vertices.values())
    assert report.passed == (secure and all(e.ok for e in edges.values()))
    align = alignment_report(inst, sch)
    assert align.noise_overlaps == {
        e: noise_overlap_dim(sch, *e) for e in inst.qualified
    }
    assert align.signal_alignment == {
        e: check_signal_alignment(sch, *e)[0] for e in inst.unqualified
    }


# The oracle against the sort-based counting it replaced.

ORACLE_PRIMES = (2, 3, 5, 7)


def sorted_numbering(rows: np.ndarray) -> np.ndarray:
    """Each row's index among the distinct rows in lexicographic order,
    which is ``np.unique(rows, axis=0, return_inverse=True)[1]``, from one
    ``lexsort`` of the columns: several times faster than the structured
    sort that ``np.unique`` makes of the rows."""
    n = len(rows)
    if n == 0 or rows.shape[1] == 0:
        return np.zeros(n, dtype=np.int64)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.zeros(n, dtype=np.int64)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    out = np.empty(n, dtype=np.int64)
    out[order] = np.cumsum(new)
    return out


def test_sorted_numbering_is_the_inverse_of_unique():
    rng = np.random.default_rng(0)
    for shape, high in (((0, 3), 2), ((4, 0), 2), ((50, 1), 3), ((300, 3), 4), ((200, 70), 2)):
        rows = rng.integers(0, high, size=shape)
        want = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
        assert sorted_numbering(rows).tolist() == want.tolist()


def reference_encode(digits: np.ndarray, p: int) -> np.ndarray:
    """Base-p value of each digit row, or its index among distinct rows
    when that overflows int64."""
    n = digits.shape[1]
    if n * math.log2(p) > 62:
        return sorted_numbering(digits)
    return digits @ (p ** np.arange(n - 1, -1, -1, dtype=np.int64))


def code_type(p: int, n: int, size: int) -> np.dtype:
    """The narrowest unsigned type of an n-digit signal's codes in a table
    of ``size`` rows: it holds p^n - 1, or size - 1 once the signal is
    numbered by identity."""
    return np.min_scalar_type(size - 1 if n * math.log2(p) > 62 else p**n - 1)


def word_digits(p: int) -> int:
    """The most base-p digits whose values all fit one 64-bit word."""
    k = 0
    while p ** (k + 1) <= 1 << 64:
        k += 1
    return k


def test_packed_numbering_matches_sorted_numbering():
    """Rows of 1 to 3 words' worth of digits, drawn from a few distinct
    rows that differ in single digits, so that ties and near-ties fall
    on both sides of every word boundary."""
    rng = np.random.default_rng(1)
    for p in ORACLE_PRIMES:
        per_word = word_digits(p)
        for n in (1, per_word, per_word + 1, 2 * per_word + 3, 3 * per_word):
            base = rng.integers(0, p, size=(1, n))
            distinct = np.repeat(base, 24, axis=0)
            flips = rng.integers(0, n, size=24)
            distinct[np.arange(24), flips] = rng.integers(0, p, size=24)
            rows = distinct[rng.integers(0, 24, size=300)]
            got = _number_rows(list(rows.T.astype(np.uint8)), [p] * n)
            assert got.dtype == np.uint16
            assert got.tolist() == sorted_numbering(rows).tolist()
    # Codes of up to 60 bits, as a base-p signal's: even the 24 distinct
    # prefixes times the next radix overflow a word.
    radix = 1 << 60
    distinct = rng.integers(0, radix, size=(24, 3), dtype=np.uint64)
    distinct[::2, 0] = distinct[0, 0]
    rows = distinct[rng.integers(0, 24, size=300)]
    got = _number_rows(list(rows.T), [radix] * 3)
    assert got.tolist() == sorted_numbering(rows).tolist()


def digit_vectors(p: int, n: int) -> np.ndarray:
    """All p^n digit vectors, first digit most significant, as (p^n, n)."""
    vectors = list(itertools.product(range(p), repeat=n))
    return np.array(vectors, dtype=np.int64).reshape(p**n, n)


def reference_tabulate(sch: LinearScheme) -> dict:
    """Every vertex's codes from the full (p^L, p^L_Z, N) digit array."""
    s, z = (digit_vectors(sch.p, n) for n in (sch.secret_len, sch.noise_len))
    out = {}
    for v, (f, h) in sch.matrices.items():
        full = ((s @ f.data.T)[:, None, :] + (z @ h.data.T)[None, :, :]) % sch.p
        out[v] = reference_encode(full.reshape(len(s) * len(z), f.rows), sch.p)
    return out


class ReferenceCodes:
    """The joint value of a set of variables on every row of one table,
    numbered by sorting: each row's index among the distinct joint values,
    so the numbers run densely from 0.  Each variable's codes are
    flattened once, and each set of names is numbered once, however many
    references read it."""

    def __init__(self, table):
        self.table = table
        self._flat: dict[str, np.ndarray] = {}
        self._numbered: dict[tuple[str, ...], np.ndarray] = {}

    def __call__(self, *names: str) -> np.ndarray:
        if names not in self._numbered:
            for name in names:
                if name not in self._flat:
                    self._flat[name] = self.table.column(name)[0].reshape(-1)
            columns = np.column_stack([self._flat[name] for name in names])
            self._numbered[names] = sorted_numbering(columns)
        return self._numbered[names]


def reference_correct(codes: ReferenceCodes, v, u) -> bool:
    """No pair of values occurs with two secrets: adding S to the pair
    adds no distinct joint value."""
    return codes(v, u).max() == codes("S", v, u).max()


def reference_secure(codes: ReferenceCodes, v, u) -> bool:
    """P(s, w) = P(s) P(w) on every present pair, with each secret's mass
    exhausted so that absent pairs have a zero product too."""
    pair, s = codes(v, u), codes("S")
    pair_counts, s_counts = np.bincount(pair), np.bincount(s)
    joint = s * len(pair_counts) + pair
    joint_vals, joint_counts = np.unique(joint, return_counts=True)
    lhs = joint_counts.astype(object) * codes.table.size
    rhs = s_counts[joint_vals // len(pair_counts)].astype(object) * pair_counts[
        joint_vals % len(pair_counts)
    ].astype(object)
    if not (lhs == rhs).all():
        return False
    per_secret = np.zeros(len(s_counts), dtype=np.int64)
    np.add.at(per_secret, joint_vals // len(pair_counts), joint_counts)
    return bool((per_secret == s_counts).all())


def reference_entropy(codes: ReferenceCodes, names) -> float:
    counts = np.bincount(codes(*names))
    total, log_p = codes.table.size, math.log(codes.table.p)
    return float(
        math.log(total) / log_p
        - sum(int(c) * math.log(int(c)) for c in counts) / (total * log_p)
    )


@st.composite
def oracle_schemes(draw) -> LinearScheme:
    """Linear schemes over small tables.  Vertex w's signal, when drawn
    wide, repeats its rows past 62 bits, so that it is numbered by
    identity and its pairs are labelled by sorting.  GF(2) signals of 8
    and 9 rows have alphabets of 256 and 512, on either side of the
    uint8/uint16 boundary of the codes.  Each vertex reads no noise digit
    of a drawn set, so that a pair's reads can leave gaps and the oracle
    counts on grids smaller than the table.  Vertex b may share a's
    matrices, as the vertices of one signal block do.  The entries come
    from one seeded generator."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    secret_len, noise_len = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    assume(p ** (secret_len + noise_len) <= 1 << 12)
    cols = secret_len + noise_len
    row_counts = st.integers(0, 4)
    if p == 2:
        row_counts |= st.sampled_from((8, 9))
    rng = draw(st.randoms(use_true_random=True))
    matrices = {}
    for v in ("a", "b", "w"):
        if v == "b" and draw(st.booleans()):
            matrices["b"] = matrices["a"]
            continue
        rows = draw(row_counts)
        m = residue_array(rng, p, rows, cols)
        if v == "w" and draw(st.booleans()):
            wide = int(62 / math.log2(p)) + 1
            m = np.resize(m, (wide, cols)) if rows else np.zeros((wide, cols), np.int64)
        unread = draw(st.sets(st.integers(0, noise_len - 1))) if noise_len else set()
        m[:, [secret_len + j for j in sorted(unread)]] = 0
        f, h = GfMatrix(p, m[:, :secret_len]), GfMatrix(p, m[:, secret_len:])
        matrices[v] = (f, h)
    return LinearScheme(p, secret_len, noise_len, matrices)


@st.composite
def function_tables(draw) -> SchemeTable:
    """Non-linear tables: each signal is a random function of a drawn
    subset of the secret and noise digits."""
    p = draw(st.sampled_from(ORACLE_PRIMES[:2]))
    secret_len, noise_len = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    signals = {}
    for v in ("a", "b", "w"):
        width = draw(st.integers(0, 3))
        reads = draw(st.sets(st.integers(0, secret_len + noise_len - 1)))
        keys = sorted(itertools.product(range(p), repeat=len(reads)))
        outputs = draw(
            st.lists(
                st.tuples(*[st.integers(0, p - 1)] * width),
                min_size=len(keys),
                max_size=len(keys),
            )
        )
        lut = dict(zip(keys, outputs))
        signals[v] = lambda s, z, lut=lut, reads=sorted(reads): lut[
            tuple((s + z)[i] for i in reads)
        ]
    return SchemeTable.from_functions(p, secret_len, noise_len, signals)


def check_oracle_against_references(table):
    names = ("a", "b", "w")
    codes = ReferenceCodes(table)
    for v, u in itertools.combinations_with_replacement(names, 2):
        assert check_correct(table, v, u) == reference_correct(codes, v, u)
        assert check_secure(table, v, u) == reference_secure(codes, v, u)
    subsets = [("S",), ("Z",), ("S", "Z")] + [
        sub for r in (1, 2, 3) for sub in itertools.combinations(("S",) + names, r)
    ]
    for sub in subsets:
        got = joint_entropy(table, sub)
        if table.scheme is None:
            assert got == reference_entropy(codes, sub)
        else:
            counts = np.bincount(codes(*sub))
            assert counts.min() == counts.max()
            assert int(counts[0]) * table.p ** int(got) == table.size


def precoded_scheme(p: int, secret_len: int, noise_len: int, **precodings) -> LinearScheme:
    """A scheme from each vertex's precoding [F | H], given as a list of
    rows of secret_len + noise_len residues; an empty list is a zero-row
    signal."""
    matrices = {}
    for v, rows in precodings.items():
        m = np.array(rows, dtype=np.int64).reshape(len(rows), secret_len + noise_len)
        matrices[v] = (GfMatrix(p, m[:, :secret_len]), GfMatrix(p, m[:, secret_len:]))
    return LinearScheme(p, secret_len, noise_len, matrices)


# 63 rows over GF(2) are past 62 bits, so w is numbered by identity.  It
# reads z1 and z3 of eight noise digits: numbered on its 2^3-row grid its
# numbers fit a byte, but the 2^9-row table's codes are uint16.
_WIDE_ON_A_SMALL_GRID = precoded_scheme(
    2, 1, 8,
    a=[[1, 1, 0, 0, 0, 0, 0, 0, 0]],
    b=[[0, 0, 1, 0, 0, 0, 0, 0, 1]],
    w=[[1, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 0, 0]] * 21,
)


@settings(max_examples=200, deadline=None)
@given(oracle_schemes())
# The one read digit first (a), in the middle (b) and last (w).
@example(precoded_scheme(3, 1, 3, a=[[1, 1, 0, 0]], b=[[1, 0, 2, 0]], w=[[0, 0, 0, 1], [2, 0, 0, 1]]))
# No noise digit read (a), every digit read (b), and a zero-row signal (w).
@example(precoded_scheme(2, 2, 3, a=[[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], b=[[0, 1, 1, 1, 1]], w=[]))
@example(_WIDE_ON_A_SMALL_GRID)
def test_linear_oracle_matches_sort_based_reference(sch):
    table = tabulate(sch)
    want = reference_tabulate(sch)
    assert sorted(table.values) == sorted(want)
    for v, codes in want.items():
        assert table.values[v].dtype == code_type(sch.p, table.signal_lens[v], table.size)
        assert table.values[v].tolist() == codes.tolist()
    # One read-only array per signal block, shared by its vertices.
    arrays = {(k, id(table.values[v])) for v, k in sch.block_of.items()}
    assert len(arrays) == len({a for _, a in arrays}) == len(sch.blocks)
    assert not any(codes.flags.writeable for codes in table.values.values())
    check_oracle_against_references(table)


@settings(max_examples=100, deadline=None)
@given(oracle_schemes())
def test_codes_vary_along_exactly_the_read_digits(sch):
    """A vertex's codes are constant along every noise digit it does not
    read, and change at every row along every digit it reads."""
    table = tabulate(sch)
    shape = (sch.p**sch.secret_len,) + (sch.p,) * sch.noise_len
    for v in sch.vertices:
        codes = table.values[v].reshape(shape)
        # The mask's bits are the noise digits, the first most significant.
        read = table.column(v)[2]
        for digit in range(1, sch.noise_len + 1):
            if read >> (sch.noise_len - digit) & 1:
                assert (codes != np.roll(codes, 1, axis=digit)).all()
            else:
                assert (codes == codes.take([0], axis=digit)).all()


def per_digit_labels(table, names) -> tuple[np.ndarray, int]:
    """(labels, width) of the variables on their grid, with the grid cut
    out one noise digit at a time: an axis per digit, at 0 on each digit
    none of them reads.  The joint values are combined in mixed radix, or
    numbered by sorting when the alphabets outgrow the grid's rows."""
    read = np.zeros(table.noise_len, dtype=bool)
    for name in names:
        if name == "Z" or (name != "S" and table.scheme is None):
            read[:] = True
        elif name != "S":
            read |= table.scheme.matrices[name][1].data.any(axis=0)
    secrets = table.p**table.secret_len
    shape = (secrets,) + (table.p,) * table.noise_len
    at = (slice(None),) + tuple(slice(None) if r else 0 for r in read.tolist())
    rows = secrets * table.p ** int(read.sum())
    cols = [(col.reshape(shape)[at].reshape(rows), size) for col, size, _ in map(table.column, names)]
    width = math.prod(size for _, size in cols)
    if width > rows:
        numbers = sorted_numbering(np.column_stack([col for col, _ in cols]))
        return numbers, int(numbers.max()) + 1
    labels = np.zeros(rows, dtype=np.int64)
    for col, size in cols:
        labels = labels * size + col
    return labels, width


def check_labels_against_per_digit_grid(table, names) -> None:
    labels, width = _labels(_grid(table, names))
    want, want_width = per_digit_labels(table, names)
    assert (labels.tolist(), width) == (want.tolist(), want_width), names
    if width == math.prod(table.column(name)[1] for name in names):
        assert labels.dtype == np.min_scalar_type(width - 1), names


@settings(max_examples=100, deadline=None)
@given(st.one_of(oracle_schemes().map(tabulate), function_tables()), st.data())
def test_labels_on_digit_runs_match_the_per_digit_grid(table, data):
    """The grid viewed with one axis per run of read or unread noise
    digits gives each row the labels of the grid cut digit by digit, for
    drawn subsets alone and with S or Z added."""
    names = data.draw(
        st.lists(st.sampled_from(["S", "Z", *table.vertices]), min_size=1, max_size=4, unique=True)
    )
    for extra in ([], ["S"], ["Z"]):
        check_labels_against_per_digit_grid(table, list(dict.fromkeys(names + extra)))


@pytest.mark.parametrize(
    "mask, runs",
    [
        ("000000", 0),
        ("111111", 1),
        ("110000", 1),
        ("001100", 1),
        ("000011", 1),
        ("101010", 3),
        ("010101", 3),
    ],
)
def test_grid_views_one_axis_per_read_run(mask, runs):
    """a = s + the noise digits marked 1 in ``mask``, over GF(3) with six
    noise digits: its grid view has one axis for the secret and one per
    run of read digits, and the labels of the per-digit grid, alone, with
    S, with Z, and paired with b, which reads no noise digit."""
    read = [int(r) for r in mask]
    table = tabulate(precoded_scheme(3, 1, 6, a=[[1, *read]], b=[[2] + [0] * 6]))
    (view, _), = _grid(table, ["a"])
    assert view.ndim == 1 + runs and view.size == 3 ** (1 + sum(read))
    for names in (["a"], ["a", "S"], ["a", "Z"], ["a", "b"], ["b", "a", "S"]):
        check_labels_against_per_digit_grid(table, names)


@settings(max_examples=100, deadline=None)
@given(oracle_schemes(), st.data())
def test_block_ranks_match_joint_ranks(sch, data):
    """One elimination of X's blocks gives H(X|S) = rank H_X without the
    secret's rows, and H(X) = rank [F_X|H_X]: the per-subset stacked
    precodings agree, for several subsets of one size at once (a vertex
    listed twice changes no rank)."""
    size = data.draw(st.integers(1, 4))
    vertices = st.lists(st.sampled_from(sch.vertices), min_size=size, max_size=size)
    subsets = data.draw(st.lists(vertices, min_size=1, max_size=5))
    table = tabulate(sch)
    got = block_ranks(sch, [[sch.block_of[v] for v in names] for names in subsets])
    L = sch.secret_len
    want = [
        (joint_rank(table, [*names, "S"]) - L, joint_rank(table, names))
        for names in subsets
    ]
    assert got == want


def two_byte_table() -> SchemeTable:
    """Three 9-row GF(2) signals over 2^18 realizations:
    a = (s + z1, z2..z9), b = (z1, ..., z9) and w = (z10..z17, z10 + z11)."""
    L, LZ = 1, 17
    eye = np.eye(LZ, dtype=np.int64)
    f = np.zeros((9, L), dtype=np.int64)
    f[0, 0] = 1
    w = np.vstack([eye[9:17], eye[9] + eye[10]])
    return tabulate(LinearScheme(2, L, LZ, {
        "a": (GfMatrix(2, f), GfMatrix(2, eye[:9])),
        "b": (GfMatrix(2, np.zeros_like(f)), GfMatrix(2, eye[:9])),
        "w": (GfMatrix(2, np.zeros_like(f)), GfMatrix(2, w)),
    }))


def test_pair_labels_past_two_bytes_match_references():
    """a and w read all 17 noise digits, so their grid is the table's
    2^18 rows and their pair width 2^18: uint32 labels.  a and b read
    z1..z9, a grid of 2^10 rows, so their 2^18 joint values are numbered
    by identity, below 2^10, in uint16.  a and b decode; a and w are
    secure."""
    table = two_byte_table()
    assert table.size == 1 << 18
    assert all(codes.dtype == np.uint16 for codes in table.values.values())
    labels, width = _labels(_grid(table, ["a", "w"]))
    assert width == 1 << 18 and labels.dtype == np.uint32
    labels, width = _labels(_grid(table, ["a", "b"]))
    assert width <= 1 << 10 and labels.dtype == np.uint16
    # Both pairs are wider than their grids can count per secret: a and w
    # over 2 x 2^18 joint counts on 2^18 rows, a and b over 2 x 2^18 on
    # 2^10.  So correctness scatters and gathers, and security numbers
    # the values that occur: a and w show 2^17 of them, which 2 x 2^17
    # counts hold, and a and b 2^10, which is more than a block's rows.
    assert not counts_jointly(table, "a", "w") and not counts_jointly(table, "a", "b")
    assert check_correct(table, "a", "b") and not check_secure(table, "a", "b")
    assert check_secure(table, "a", "w") and not check_correct(table, "a", "w")
    # Both checks of every pair, these two included, against the references.
    check_oracle_against_references(table)


def counts_jointly(table, v, u) -> bool:
    """Whether the checks of (v, u) take the folded joint count of every
    secret and pair of values: when it holds at most one integer per grid
    row."""
    return _pair_count(table, _grid(table, [v, u])) is not None


def test_correctness_from_the_joint_count_and_from_the_scatter():
    """Each verdict of both checks on each of their routes, against the
    sort-based references.  c = s + z1 + z2 and d = z1 + z2 read a
    2^3-row grid and take 2 x 2 values, so their 2 x 4 joint counts fit
    it; f = (s + z1, z2) and g = z1 take 4 x 2, so 2 x 8 do not, and
    correctness scatters while security numbers the values that occur:
    f, g show 8 of them, more than a block's 4 rows, and f, h = z2 show
    4.  c, d and f, g decode; c, e = z1 and f, h do not, and are secure."""
    table = tabulate(precoded_scheme(
        2, 1, 2,
        c=[[1, 1, 1]], d=[[0, 1, 1]], e=[[0, 1, 0]],
        f=[[1, 1, 0], [0, 0, 1]], g=[[0, 1, 0]], h=[[0, 0, 1]],
    ))
    codes = ReferenceCodes(table)
    for v, u, joint, decodes, secure in (
        ("c", "d", True, True, False),
        ("c", "e", True, False, True),
        ("f", "g", False, True, False),
        ("f", "h", False, False, True),
    ):
        assert counts_jointly(table, v, u) == joint, (v, u)
        assert check_correct(table, v, u) == decodes == reference_correct(codes, v, u), (v, u)
        assert check_secure(table, v, u) == secure == reference_secure(codes, v, u), (v, u)


def test_pair_checks_of_a_1024_row_grid_stay_small():
    """a and b are checked on their 2^10-row grid, with no array as wide
    as their 2^18 joint alphabet: one int64 count per joint value alone
    would take 2 MiB."""
    table = two_byte_table()
    for check in (check_correct, check_secure):
        tracemalloc.start()
        try:
            check(table, "a", "b")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, (check.__name__, peak)


@settings(max_examples=100, deadline=None)
@given(function_tables())
def test_nonlinear_oracle_matches_sort_based_reference(table):
    check_oracle_against_references(table)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_instance_round_trip(inst):
    assert parse_instance(format_instance(inst)) == inst


_FAULTS = ("bad name", "reserved name", "self-loop", "same side", "duplicate")


@settings(max_examples=200, deadline=None)
@given(instances(), st.data())
def test_one_faulty_line_is_reported_at_its_line(inst, data):
    """A valid file, shuffled and with comments, gets one faulty line at a
    random place.  The error gives the fault's message at the line where
    it went in; for a duplicate, at the later line of the pair."""
    rng = data.draw(st.randoms(use_true_random=True))
    fault = data.draw(st.sampled_from([f for f in _FAULTS if inst.bipartite or f != "same side"]))
    body = [f"{kind} {v} {u}" if rng.random() < 0.5 else f"{kind} {u} {v}"
            for kind, (v, u) in inst.edges]
    rng.shuffle(body)
    for _ in range(rng.randint(0, 3)):
        body.insert(rng.randint(0, len(body)), rng.choice(["# note", "", "  # q A1 A1"]))
    head = ["# a faulty file"] * rng.randint(0, 2) + [format_instance(inst).splitlines()[0]]
    at = faulty = rng.randint(0, len(body))
    v = rng.choice(inst.vertices)
    if fault in ("bad name", "reserved name"):
        if fault == "reserved name":
            bad = rng.choice(["S", "Z"])
        else:
            bad = rng.choice(["C7", "a1", "A", "1x", "A1b"] if inst.bipartite else ["1x", "x-y", "a.b"])
        ends = rng.sample([v, bad], 2)
        if inst.bipartite:
            message = f"vertex {bad!r} has no side label; bipartite names match [AB][0-9]+"
        elif fault == "reserved name":
            message = f"vertex name {bad!r} is reserved"
        else:
            message = f"invalid vertex name {bad!r}"
    elif fault == "self-loop":
        ends = [v, v]
        message = f"self-loop on {v}"
    elif fault == "same side":
        u = rng.choice([u for u in inst.vertices if u[0] == v[0] and u != v] + [v[0] + "99"])
        ends = rng.sample([v, u], 2)
        message = f"edge {{{ends[0]}, {ends[1]}}} joins two {v[0]}-side vertices"
    else:  # a copy of an edge, before or after it, of either kind and either way round
        pair = rng.choice(inst.qualified + inst.unqualified)
        ends = rng.sample(pair, 2)
        message = f"duplicate edge {{{pair[0]}, {pair[1]}}}"
        original = next(k for k, line in enumerate(body) if sorted(line.split()[1:]) == list(pair))
        faulty = max(at, original + (at <= original))
    body.insert(at, f"{rng.choice('qu')} {ends[0]} {ends[1]}")
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("\n".join(head + body) + "\n")
    line = len(head) + faulty + 1
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@settings(max_examples=100, deadline=None)
@given(schemes())
def test_scheme_round_trip(sch):
    assert parse_scheme(format_scheme(sch)) == sch


# Schemes that repeat signal blocks, as synthesized schemes do, against
# the per-distinct-block work of parsing, formatting and comparing.


@st.composite
def shared_schemes(draw) -> LinearScheme:
    """Vertices v0..v7 over a few signal blocks, one matrix pair per block
    shared by its vertices; v0 and v1 always share the first block, which
    has a row.  Some later vertices get a near-repeat instead: a copy of a
    block with one residue changed, in matrices of its own."""
    p = draw(st.sampled_from(PRIMES))
    secret_len, noise_len = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    cols = secret_len + noise_len

    def pair(block: np.ndarray) -> tuple[GfMatrix, GfMatrix]:
        return GfMatrix(p, block[:, :secret_len]), GfMatrix(p, block[:, secret_len:])

    blocks = [
        draw(arrays(np.int64, (draw(st.integers(int(k == 0), 3)), cols), elements=residues(p)))
        for k in range(draw(st.integers(1, 3)))
    ]
    pairs = [pair(b) for b in blocks]
    matrices = {"v0": pairs[0], "v1": pairs[0]}
    for k in range(2, draw(st.integers(2, 8))):
        i = draw(st.integers(0, len(blocks) - 1))
        if blocks[i].size and draw(st.booleans()):
            near = blocks[i].copy()
            r = draw(st.integers(0, near.shape[0] - 1))
            c = draw(st.integers(0, cols - 1))
            near[r, c] = (near[r, c] + draw(st.integers(1, p - 1))) % p
            matrices[f"v{k}"] = pair(near)
        else:
            matrices[f"v{k}"] = pairs[i]
    return LinearScheme(p, secret_len, noise_len, matrices)


def block_texts(text: str) -> dict[str, tuple[str, ...]]:
    """Each signal's row lines in a file written by format_scheme."""
    out: dict[str, tuple[str, ...]] = {}
    for line in text.splitlines()[4:]:
        if line.startswith("signal "):
            name = line.split()[1]
            out[name] = ()
        else:
            out[name] += (line,)
    return out


@settings(max_examples=100, deadline=None)
@given(shared_schemes())
def test_identical_blocks_share_one_matrix_pair(sch):
    text = format_scheme(sch)
    back = parse_scheme(text)
    assert back == sch and sch == back
    assert format_scheme(back) == text
    texts = block_texts(text)
    for v, u in itertools.combinations(back.matrices, 2):
        same = [a is b for a, b in zip(back.matrices[v], back.matrices[u])]
        assert same == [texts[v] == texts[u]] * 2
    # The block index: each distinct pair once, numbered in first-vertex
    # order, and each vertex mapped to its own pair.
    for s in (sch, back):
        assert list(s.block_of) == list(s.matrices)
        assert list(dict.fromkeys(s.block_of.values())) == list(range(len(s.blocks)))
        assert len({(id(f), id(h)) for f, h in s.blocks}) == len(s.blocks)
        for v, k in s.block_of.items():
            assert all(a is b for a, b in zip(s.blocks[k], s.matrices[v]))
    assert len(back.blocks) == len(set(texts.values()))
    # Equality reads the matrices, not how the vertices share them.
    unshared = LinearScheme(
        sch.p,
        sch.secret_len,
        sch.noise_len,
        {
            v: (GfMatrix(sch.p, f.data.copy()), GfMatrix(sch.p, h.data.copy()))
            for v, (f, h) in sch.matrices.items()
        },
    )
    assert len(unshared.blocks) == len(unshared.matrices)
    assert unshared == sch and sch == unshared


@settings(max_examples=100, deadline=None)
@given(shared_schemes(), st.data())
def test_one_changed_vertex_of_a_shared_block_compares_unequal(sch, data):
    back = parse_scheme(format_scheme(sch))
    v = data.draw(st.sampled_from(["v0", "v1"]))
    f, h = back.matrices[v]
    changed = np.hstack([f.data, h.data])
    r = data.draw(st.integers(0, f.rows - 1))
    c = data.draw(st.integers(0, changed.shape[1] - 1))
    changed[r, c] = (changed[r, c] + data.draw(st.integers(1, back.p - 1))) % back.p
    pair = GfMatrix(back.p, changed[:, : f.cols]), GfMatrix(back.p, changed[:, f.cols :])
    other = LinearScheme(back.p, back.secret_len, back.noise_len, {**back.matrices, v: pair})
    assert back != other and other != back
    assert parse_scheme(format_scheme(other)) == other


@settings(max_examples=100, deadline=None)
@given(
    shared_schemes(),
    st.sampled_from(["F: x | H:", "F: 1 1 1 1 | H:", "1 | H: 1", "F: -1 | H:", "signal"]),
    st.booleans(),
)
def test_malformed_row_after_repeated_block_keeps_its_line(sch, bad, inside):
    """A third copy of v0's block, then a bad line: inside that copy (one
    row more than the block) or after it.  The error is the one the bad
    line gives alone, at the bad line's number."""
    text = format_scheme(sch)
    rows = block_texts(text)["v0"]
    head = "\n".join(text.splitlines()[:4])
    alone = f"{head}\n{'signal zz 1' if inside else ''}\n{bad}\n"
    with pytest.raises(SchemeFormatError) as want:
        parse_scheme(alone)
    copy = [f"signal zz {len(rows) + inside}", *rows, bad]
    with pytest.raises(SchemeFormatError) as got:
        parse_scheme(text + "\n".join(copy) + "\n")
    assert got.value.line == len(text.splitlines()) + len(copy)
    assert str(got.value).split(": ", 1)[1] == str(want.value).split(": ", 1)[1]


# Arbitrary text, and lines that look like the formats with random parts,
# so that the checks past the header are reached too.
_token = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["A1", "B1", "A2", "B2", "S", "v1", "v_2", "1x", "q", "|", "H:"]),
    st.integers(-3, 70000).map(str),
)
_instance_line = st.one_of(
    st.text(max_size=20),
    st.sampled_from(
        ["cds-instance v1", "cds-instance v1 general", "cds-instance v2", "# note", ""]
    ),
    st.tuples(st.sampled_from(["q", "u", "x"]), _token, _token).map(" ".join),
)
_scheme_line = st.one_of(
    st.text(max_size=20),
    st.sampled_from(
        ["cds-scheme v1", "field 2", "field 3", "secret 1", "noise 0", "noise 1", "# x"]
    ),
    st.tuples(st.sampled_from(["field", "secret", "noise"]), _token).map(" ".join),
    st.tuples(st.just("signal"), _token, _token).map(" ".join),
    st.lists(_token, max_size=6).map(
        lambda ts: "F: " + " ".join(ts[:3]) + " | H: " + " ".join(ts[3:])
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_instance_line, max_size=8).map("\n".join))
def test_instance_text_parses_or_raises_format_error(text):
    try:
        parse_instance(text)
    except InstanceFormatError as exc:
        assert exc.line is not None


@settings(max_examples=200, deadline=None)
@given(st.lists(_scheme_line, max_size=8).map("\n".join))
def test_scheme_text_parses_or_raises_format_error(text):
    try:
        parse_scheme(text)
    except SchemeFormatError as exc:
        assert exc.line is not None


# The command line on arbitrary files: format-like text, well-formed files,
# instance/scheme pairs that match, so that every stage is reached, and
# bytes that are not UTF-8.
_NON_UTF8_INSTANCE = b"cds-instance v1\nq A1 B1\n\xff"
_NON_UTF8_SCHEME = b"cds-scheme v1\nfield 2\n\xff"
_instance_file = st.one_of(
    st.lists(_instance_line, max_size=8).map("\n".join),
    instances().map(format_instance),
    st.just(_NON_UTF8_INSTANCE),
)
_scheme_file = st.one_of(
    st.lists(_scheme_line, max_size=8).map("\n".join),
    schemes().map(format_scheme),
    st.just(_NON_UTF8_SCHEME),
)
_files = st.one_of(
    st.tuples(_instance_file, _scheme_file),
    instance_schemes().map(lambda t: (format_instance(t[0]), format_scheme(t[1]))),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["check", "verify", "audit", "synth"]),
    _files,
    st.sets(st.sampled_from(["--json", "--reduce-randomness"])),
)
@example("check", (_NON_UTF8_INSTANCE, ""), set())
@example("verify", ("cds-instance v1\nq A1 B1\n", _NON_UTF8_SCHEME), {"--json"})
def test_cli_exit_codes(command, files, flags):
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, sch_path = Path(tmp) / "x.cds", Path(tmp) / "x.scheme"
        for path, data in ((inst_path, files[0]), (sch_path, files[1])):
            path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        argv = [command, str(inst_path)]
        if command in ("verify", "audit"):
            argv.append(str(sch_path))
        argv += sorted(f for f in flags if command == "synth" or f == "--json")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
