"""CDS instances as labeled graphs, plus the capacity-1/2 feasibility test.

An instance is an undirected graph whose vertices are the signals and
whose edges are tagged qualified (the secret must be decodable from the
pair) or unqualified (the pair must leak nothing).  Bipartite mode is the
default: vertex names look like ``A3`` / ``B1`` and every edge joins the
two sides.  General mode lifts both restrictions.

The feasibility test reduces the path-based obstruction to a component
computation: the capacity is 1/2 iff no qualified edge joins two vertices
of one unqualified component inside its qualified component.  Those
components come from two union-find passes: one over the qualified
edges, then one over the unqualified edges whose ends share a qualified
component.  Each instance holds its vertices in name order, so vertex
id k is ``vertices[k]``, and keeps the ends of its edges as those ids:
both passes run on integers without looking up a name.
A union keeps the smaller root and finds halve their paths, so every
root is its component's least id.  Without union by size, path halving
still bounds each pass by O(V + E log V) (Tarjan and van Leeuwen, 1984),
so feasibility, synthesis and the lemma audit scale with the size of the
graph.  Breadth-first search is used only to render a witness path.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import eq

__all__ = [
    "CdsInstance",
    "Partition",
    "PathWitness",
    "FeasibilityResult",
    "InstanceFormatError",
    "DegenerateInstanceError",
    "parse_instance",
    "format_instance",
    "is_non_degenerate",
    "normalize_degenerate",
    "decompose",
    "qualified_components",
    "unqualified_components_within",
    "half_rate_feasible",
    "unqualified_path",
]

QUALIFIED = "q"
UNQUALIFIED = "u"

_BIPARTITE_NAME = re.compile(r"[AB][0-9]+")
_GENERAL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = {"S", "Z"}  # entropy variable names; vertices may not shadow them


class InstanceFormatError(ValueError):
    """A malformed instance, parsed or built: ``line`` is the 1-based
    offending line of parsed text, else None.  ``vertex`` is the vertex at
    fault, or ``edges`` the positions of the faulty edge, or of both
    copies of a duplicate, among the qualified then unqualified edges."""

    def __init__(self, message: str, line: int | None = None, vertex=None, edges=()):
        self.line, self.vertex, self.edges = line, vertex, edges
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateInstanceError(ValueError):
    """Raised when an operation requires a non-degenerate instance."""

    def __init__(self, violators: tuple[str, ...]):
        self.violators = violators
        super().__init__(
            "instance is degenerate; vertices without an unqualified edge: "
            + ", ".join(violators)
        )


@dataclass(frozen=True)
class CdsInstance:
    """Immutable labeled graph of signals.

    Building an instance sorts ``vertices`` into name order, so vertex id
    k is ``vertices[k]``, puts the ends of each edge in name order, and
    sorts ``qualified`` and ``unqualified``: an instance built from
    shuffled tuples equals its sorted twin.  ``_ends`` lists the ids at
    both ends of every qualified edge, then of every unqualified edge, as
    a flat int64 array.  Equality, hashing and repr read only the four
    public fields.  Building validates every instance, parsed or not, and
    raises InstanceFormatError on the first of: a repeated vertex; a bad
    name, in name order (``A<i>``/``B<i>`` in bipartite mode, an
    identifier otherwise, never S or Z); an edge, in order, that is not a
    pair of vertex names, a self-loop, same-sided or a duplicate.
    """

    vertices: tuple[str, ...]
    qualified: tuple[tuple[str, str], ...]
    unqualified: tuple[tuple[str, str], ...]
    bipartite: bool = True
    _ends: array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = tuple(sorted(self.vertices))
        n = len(vertices)
        ids = dict(zip(vertices, range(n)))
        if len(ids) < n:
            twice = next(v for v, u in zip(vertices, vertices[1:]) if v == u)
            raise InstanceFormatError(f"vertex {twice!r} is listed twice", vertex=twice)
        for name in vertices:
            _check_name(name, self.bipartite)
        edges = [*self.qualified, *self.unqualified]
        try:
            ends = [(ids[v], ids[u]) for v, u in edges]
        except (KeyError, TypeError, ValueError):
            raise _edge_fault(edges, ids, self.bipartite) from None
        # Each edge as one integer a n + b, from the ids a <= b of its ends:
        # ids follow the names, so these sort like the pairs in name order.
        keys = [a * n + b if a < b else b * n + a for a, b in ends]
        q = len(self.qualified)
        keys = sorted(keys[:q]) + sorted(keys[q:])
        lo, hi = [k // n for k in keys], [k % n for k in keys]
        if self.bipartite:  # ids below split are the A side
            split = bisect_left(vertices, "B")
            faulty = max(lo, default=-1) >= split or min(hi, default=n) < split
        else:
            faulty = any(map(eq, lo, hi))
        if faulty or len(set(keys)) < len(keys):
            raise _edge_fault(edges, ids, self.bipartite)
        pairs = tuple(zip(map(vertices.__getitem__, lo), map(vertices.__getitem__, hi)))
        ends = array("q", bytes(16 * len(keys)))
        ends[0::2], ends[1::2] = array("q", lo), array("q", hi)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "qualified", pairs[:q])
        object.__setattr__(self, "unqualified", pairs[q:])
        object.__setattr__(self, "_ends", ends)

    @classmethod
    def from_edges(cls, edges, bipartite: bool = True) -> "CdsInstance":
        """An instance from (kind, v, u) triples; the constructor validates it."""
        kinds: dict[str, list] = {QUALIFIED: [], UNQUALIFIED: []}
        for kind, *pair in edges:
            if kind not in kinds:
                raise InstanceFormatError(f"unknown edge kind {kind!r}")
            kinds[kind].append(tuple(pair))
        names = {v for pair in chain(*kinds.values()) for v in pair if isinstance(v, str)}
        return cls(tuple(names), *map(tuple, kinds.values()), bipartite)

    @cached_property
    def edges(self) -> tuple[tuple[str, tuple[str, str]], ...]:
        """All edges as (kind, pair), pairs canonical and sorted; computed
        once, in the instance's ``__dict__``, which the frozen dataclass's
        equality and hash never read."""
        tagged = [(QUALIFIED, e) for e in self.qualified] + [
            (UNQUALIFIED, e) for e in self.unqualified
        ]
        return tuple(sorted(tagged, key=lambda t: t[1]))

    def has_edge(self, v: str, u: str) -> bool:
        return any(_edge_index(e, v, u) >= 0 for e in (self.qualified, self.unqualified))

    def induced(self, keep) -> "CdsInstance":
        """Sub-instance on the given vertices, keeping internal edges."""
        keep = set(keep)
        if not keep.issubset(self.vertices):
            raise ValueError(f"unknown vertices: {sorted(keep.difference(self.vertices))}")
        return CdsInstance(
            tuple(v for v in self.vertices if v in keep),
            tuple(e for e in self.qualified if e[0] in keep and e[1] in keep),
            tuple(e for e in self.unqualified if e[0] in keep and e[1] in keep),
            self.bipartite,
        )


def _check_name(name: str, bipartite: bool) -> None:
    if bipartite:
        if not (isinstance(name, str) and _BIPARTITE_NAME.fullmatch(name)):
            message = f"vertex {name!r} has no side label; bipartite names match [AB][0-9]+"
            raise InstanceFormatError(message, vertex=name)
    elif not (isinstance(name, str) and _GENERAL_NAME.fullmatch(name)):
        raise InstanceFormatError(f"invalid vertex name {name!r}", vertex=name)
    if name in _RESERVED:
        raise InstanceFormatError(f"vertex name {name!r} is reserved", vertex=name)


def _edge_fault(edges: list, ids: dict, bipartite: bool) -> InstanceFormatError:
    """The error of the first faulty edge, taking each edge's rules in order."""
    first: dict[tuple[str, str], int] = {}
    for k, edge in enumerate(edges):
        try:
            v, u = edge
        except (TypeError, ValueError):
            v = u = None
        names = isinstance(v, str) and isinstance(u, str)
        pair = (v, u) if names and v <= u else (u, v)
        j = first.setdefault(pair, k) if names else k
        if not names:
            message = f"edge {edge!r} is not a pair of vertex names"
        elif v not in ids or u not in ids:
            message = f"edge end {v if v not in ids else u!r} is not a vertex"
        elif v == u:
            message = f"self-loop on {v}"
        elif bipartite and v[0] == u[0]:
            message = f"edge {{{v}, {u}}} joins two {v[0]}-side vertices"
        elif j < k:
            message = f"duplicate edge {{{pair[0]}, {pair[1]}}}"
        else:
            continue
        return InstanceFormatError(message, edges=(j, k) if j < k else (k,))
    raise AssertionError("no faulty edge")


def _edge_index(edges: tuple, v: str, u: str) -> int:
    """The position of {v, u} in ``edges``, sorted pairs in name order, or -1."""
    pair = (v, u) if v <= u else (u, v)
    k = bisect_left(edges, pair)
    return k if k < len(edges) and edges[k] == pair else -1


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering a vertex subset; blocks and members sorted."""

    blocks: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class PathWitness:
    """A path given as its vertex sequence, with the edge type it uses.

    ``internal_edge`` records a qualified edge joining two path vertices,
    oriented to match the path ends.
    """

    vertices: tuple[str, ...]
    kind: str
    internal_edge: tuple[str, str] | None = None

    def __len__(self) -> int:
        return max(len(self.vertices) - 1, 0)

    def is_valid_for(self, inst: CdsInstance) -> bool:
        edges = inst.qualified if self.kind == QUALIFIED else inst.unqualified
        found = [_edge_index(edges, v, u) for v, u in zip(self.vertices, self.vertices[1:])]
        return -1 not in found and len(set(found)) == len(found)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the capacity-1/2 test; witness present iff infeasible."""

    feasible: bool
    witness_edge: tuple[str, str] | None = None
    witness_path: PathWitness | None = None


def parse_instance(text: str) -> CdsInstance:
    """Parse the line-based instance format.

    Comment lines start with ``#``; the header is ``cds-instance v1``
    with an optional trailing ``general`` token; edges are ``q <v> <u>``
    or ``u <v> <u>``.
    """
    bipartite = None  # until the header
    edges: dict[str, list] = {QUALIFIED: [], UNQUALIFIED: []}
    lines: dict[str, list] = {QUALIFIED: [], UNQUALIFIED: []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if bipartite is None:
            if tokens[:2] != ["cds-instance", "v1"] or len(tokens) > 3:
                message = "expected header 'cds-instance v1 [general]'"
                raise InstanceFormatError(message, lineno)
            if len(tokens) == 3 and tokens[2] != "general":
                raise InstanceFormatError(f"unknown header token {tokens[2]!r}", lineno)
            bipartite = len(tokens) == 2
            continue
        if len(tokens) != 3 or tokens[0] not in edges:
            raise InstanceFormatError("expected 'q <v> <u>' or 'u <v> <u>'", lineno)
        edges[tokens[0]].append((tokens[1], tokens[2]))
        lines[tokens[0]].append(lineno)
    if bipartite is None:
        raise InstanceFormatError("missing 'cds-instance v1' header", 1)
    q, u = edges.values()
    try:
        return CdsInstance(set(chain.from_iterable(q + u)), tuple(q), tuple(u), bipartite)
    except InstanceFormatError as exc:
        pairs, at = q + u, lines[QUALIFIED] + lines[UNQUALIFIED]
        if exc.vertex is not None:  # the first line that names it
            line = min(k for pair, k in zip(pairs, at) if exc.vertex in pair)
        else:  # the edge's own line; of a duplicate, the later one
            line = max(map(at.__getitem__, exc.edges))
        raise InstanceFormatError(str(exc), line) from None


def format_instance(inst: CdsInstance) -> str:
    """Serialize an instance back into the file format."""
    header = "cds-instance v1" + ("" if inst.bipartite else " general")
    return "\n".join([header, *(f"{kind} {v} {u}" for kind, (v, u) in inst.edges)]) + "\n"


def is_non_degenerate(inst: CdsInstance) -> tuple[bool, tuple[str, ...]]:
    """Every vertex must meet at least one unqualified edge; the vertices
    that meet none are listed in name order."""
    names, q = inst.vertices, 2 * len(inst.qualified)
    missed = set(range(len(names))).difference(inst._ends[q:])
    violators = tuple(map(names.__getitem__, sorted(missed)))
    return (not violators, violators)


def normalize_degenerate(inst: CdsInstance) -> tuple[CdsInstance, tuple[str, ...]]:
    """Strip the vertices with no unqualified edge.

    Removed vertices have no security constraint; their signal is defined
    to be the secret itself.  Removal deletes only their edges, which are
    all qualified, so every kept vertex keeps its unqualified edges: one
    pass leaves a non-degenerate core.
    """
    _, violators = is_non_degenerate(inst)
    if not violators:
        return inst, ()
    gone = set(violators)
    return inst.induced([v for v in inst.vertices if v not in gone]), violators


def decompose(inst: CdsInstance) -> tuple[Partition, Partition]:
    """The qualified components and the unqualified components inside them.

    Both partitions cover every vertex (isolated vertices are singleton
    blocks), with sorted members and blocks ordered by least member; the
    second refines the first.  They are read off :func:`_decompose`'s
    roots in one sweep in id order, since ids follow the names.
    """
    qroot, uroot = _decompose(inst)
    return _partition(inst, qroot), _partition(inst, uroot)


def _decompose(inst: CdsInstance) -> tuple[list[int], list[int]]:
    """The root of every vertex id under the qualified edges, and under
    the unqualified edges whose ends share a qualified component.

    Two union-find passes over the edge ends ``inst`` keeps as ids, with
    no sort and no name lookup.  A union hangs the larger root under the
    smaller and finds halve their paths, so a parent id never exceeds its
    child's and every root is its component's least id; one sweep in id
    order then resolves each id to its root.
    """
    n, q, ends = len(inst.vertices), 2 * len(inst.qualified), inst._ends

    def roots(edges) -> list[int]:
        parent = list(range(n))
        for a, b in edges:
            # Path halving: point each visited id at its grandparent, go there.
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
        for i, p in enumerate(parent):
            parent[i] = parent[p]
        return parent

    qroot = roots(zip(ends[0:q:2], ends[1:q:2]))
    inner = zip(ends[q::2], ends[q + 1 :: 2])
    return qroot, roots([(a, b) for a, b in inner if qroot[a] == qroot[b]])


def _partition(inst: CdsInstance, root: list[int]) -> Partition:
    """The blocks of vertices that share a root, as names."""
    names = inst.vertices
    return Partition(tuple(tuple(map(names.__getitem__, b)) for b in _blocks(root)))


def _blocks(root: list[int]) -> list[list[int]]:
    """The ids grouped by their :func:`_decompose` root: each block in
    ascending order, the blocks in order of their least id, their root."""
    blocks: dict[int, list[int]] = {k: [] for k, r in enumerate(root) if k == r}
    for k, r in enumerate(root):
        blocks[r].append(k)
    return list(blocks.values())


def qualified_components(inst: CdsInstance) -> Partition:
    """Connected components under qualified edges; isolated vertices are
    singleton blocks."""
    return decompose(inst)[0]


def unqualified_components_within(inst: CdsInstance, block) -> Partition:
    """Unqualified components of the subgraph induced on one qualified
    component."""
    block = tuple(sorted(block))
    qualified, unqualified = decompose(inst)
    if block not in qualified.blocks:
        raise ValueError(f"{block} is not a qualified component of the instance")
    # Unqualified blocks refine qualified ones, so a block lies in this
    # component iff its least vertex does.
    inside = set(block)
    return Partition(tuple(b for b in unqualified.blocks if b[0] in inside))


def unqualified_path(inst: CdsInstance, block, s: str, t: str) -> PathWitness:
    """Shortest unqualified path from s to t inside one qualified component.

    Breadth-first with neighbors visited in name order, so the returned
    path is deterministic.
    """
    block = set(block)
    if s not in block or t not in block:
        raise ValueError("endpoints must lie in the block")
    if s == t:
        return PathWitness((s,), UNQUALIFIED)
    names = inst.vertices
    inside = [v in block for v in names]
    adj: dict[int, list[int]] = {k: [] for k, x in enumerate(inside) if x}
    q, ends = 2 * len(inst.qualified), inst._ends
    for a, b in zip(ends[q::2], ends[q + 1 :: 2]):
        if inside[a] and inside[b]:
            adj[a].append(b)
            adj[b].append(a)
    for k in adj:
        adj[k].sort()  # ids follow the names
    ids = {names[k]: k for k in adj}
    source, target = ids.get(s, -1), ids.get(t, -2)  # -1, -2: not a vertex
    parent: dict[int, int] = {source: source}
    queue = deque([source] if source in adj else [])
    while queue:
        x = queue.popleft()
        if x == target:
            break
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if target not in parent:
        raise ValueError(f"no unqualified path from {s} to {t} inside the block")
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return PathWitness(tuple(names[k] for k in reversed(path)), UNQUALIFIED)


def half_rate_feasible(inst: CdsInstance) -> FeasibilityResult:
    """Decide whether the instance admits capacity 1/2.

    Infeasibility is witnessed by a qualified edge whose endpoints are
    joined by an unqualified path inside the same qualified component;
    the path runs from the larger-named endpoint to the smaller so that
    rendered witnesses are reproducible.
    """
    return _feasibility(inst, *_decompose(inst))


def _feasibility(inst: CdsInstance, qroot: list[int], uroot: list[int]) -> FeasibilityResult:
    """:func:`half_rate_feasible` on the instance's :func:`_decompose`.

    The witness is the first internal qualified edge by (qualified
    component, edge): components are ordered by their least id, and
    since ids follow the names, edges by their ends' ids.
    """
    ok, violators = is_non_degenerate(inst)
    if not ok:
        raise DegenerateInstanceError(violators)
    q, ends = 2 * len(inst.qualified), inst._ends
    pairs = zip(ends[0:q:2], ends[1:q:2])
    internal = [(qroot[a], a, b) for a, b in pairs if uroot[a] == uroot[b]]
    if not internal:
        return FeasibilityResult(True)
    root, a, b = min(internal)
    names = inst.vertices
    v, u = names[a], names[b]
    start, end = (v, u) if v > u else (u, v)
    block = [x for x, r in zip(names, qroot) if r == root]
    path = unqualified_path(inst, block, start, end)
    witness = PathWitness(path.vertices, UNQUALIFIED, (start, end))
    return FeasibilityResult(False, (start, end), witness)
