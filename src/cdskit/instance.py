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
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

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

_BIPARTITE_NAME = re.compile(r"^[AB][0-9]+$")
_GENERAL_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RESERVED = {"S", "Z"}  # entropy variable names; vertices may not shadow them


class InstanceFormatError(ValueError):
    """Malformed instance text; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
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


def _canon(v: str, u: str) -> tuple[str, str]:
    return (v, u) if v <= u else (u, v)


@dataclass(frozen=True)
class CdsInstance:
    """Immutable labeled graph of signals.

    Building an instance sorts ``vertices`` into name order, so an
    instance built from a shuffled tuple equals its sorted twin, and
    vertex id k is ``vertices[k]``.  ``_ends`` lists the ids at both ends
    of every qualified edge, then of every unqualified edge, as a flat
    int64 array.  Equality, hashing and repr read only the four public
    fields.
    """

    vertices: tuple[str, ...]
    qualified: tuple[tuple[str, str], ...]
    unqualified: tuple[tuple[str, str], ...]
    bipartite: bool = True
    _ends: array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = tuple(sorted(self.vertices))
        ids = dict(zip(vertices, range(len(vertices))))
        if len(ids) < len(vertices):
            twice = next(v for v, u in zip(vertices, vertices[1:]) if v == u)
            raise ValueError(f"vertex {twice!r} is listed twice")
        ends = chain.from_iterable(chain(self.qualified, self.unqualified))
        try:
            ends = array("q", map(ids.__getitem__, ends))
        except KeyError as exc:
            raise ValueError(f"edge end {exc.args[0]!r} is not a vertex") from None
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_ends", ends)

    @classmethod
    def from_edges(cls, edges, bipartite: bool = True) -> "CdsInstance":
        """Build and validate an instance from (kind, v, u) triples."""
        seen: dict[tuple[str, str], str] = {}
        names: set[str] = set()
        for kind, v, u in edges:
            _add_edge(seen, names, kind, v, u, bipartite)
        return _build(seen, names, bipartite)

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
        key = _canon(v, u)
        return key in self.qualified or key in self.unqualified

    def induced(self, keep) -> "CdsInstance":
        """Sub-instance on the given vertices, keeping internal edges."""
        keep = set(keep)
        unknown = keep - set(self.vertices)
        if unknown:
            raise ValueError(f"unknown vertices: {sorted(unknown)}")
        return CdsInstance(
            tuple(v for v in self.vertices if v in keep),
            tuple(e for e in self.qualified if e[0] in keep and e[1] in keep),
            tuple(e for e in self.unqualified if e[0] in keep and e[1] in keep),
            self.bipartite,
        )


def _check_name(name: str, bipartite: bool, line: int | None) -> None:
    if bipartite:
        if not _BIPARTITE_NAME.match(name):
            raise InstanceFormatError(
                f"vertex {name!r} has no side label; bipartite names match [AB][0-9]+",
                line,
            )
    elif not _GENERAL_NAME.match(name):
        raise InstanceFormatError(f"invalid vertex name {name!r}", line)
    if name in _RESERVED:
        raise InstanceFormatError(f"vertex name {name!r} is reserved", line)


def _add_edge(
    seen: dict, names: set, kind: str, v: str, u: str, bipartite: bool, line: int | None = None
) -> None:
    """Validate one edge against the edges in ``seen``, then record it;
    ``names`` holds the vertex names already validated, and takes in
    each new one.

    The single validation routine for instances, whether built from
    triples or parsed from text; ``line`` tags the error when known.
    """
    if kind not in (QUALIFIED, UNQUALIFIED):
        raise InstanceFormatError(f"unknown edge kind {kind!r}", line)
    for name in (v, u):
        if name not in names:
            _check_name(name, bipartite, line)
            names.add(name)
    if v == u:
        raise InstanceFormatError(f"self-loop on {v}", line)
    if bipartite and v[0] == u[0]:
        raise InstanceFormatError(
            f"edge {{{v}, {u}}} joins two {v[0]}-side vertices", line
        )
    key = _canon(v, u)
    if key in seen:
        raise InstanceFormatError(f"duplicate edge {{{key[0]}, {key[1]}}}", line)
    seen[key] = kind


def _build(seen: dict[tuple[str, str], str], names: set, bipartite: bool) -> CdsInstance:
    qualified = tuple(sorted(k for k, kind in seen.items() if kind == QUALIFIED))
    unqualified = tuple(sorted(k for k, kind in seen.items() if kind == UNQUALIFIED))
    return CdsInstance(names, qualified, unqualified, bipartite)


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering a vertex subset; blocks and members sorted."""

    blocks: tuple[tuple[str, ...], ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {v: i for i, b in enumerate(self.blocks) for v in b}
        object.__setattr__(self, "_index", index)

    def index_of(self, v: str) -> int:
        return self._index[v]


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

    def edge_pairs(self) -> list[tuple[str, str]]:
        return [
            _canon(self.vertices[i], self.vertices[i + 1])
            for i in range(len(self.vertices) - 1)
        ]

    def is_valid_for(self, inst: CdsInstance) -> bool:
        edge_set = inst.qualified if self.kind == QUALIFIED else inst.unqualified
        pairs = self.edge_pairs()
        return len(pairs) == len(set(pairs)) and all(p in edge_set for p in pairs)


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
    header_seen = False
    bipartite = True
    seen: dict[tuple[str, str], str] = {}
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            tokens = line.split()
            if tokens[:2] != ["cds-instance", "v1"] or len(tokens) > 3:
                raise InstanceFormatError(
                    "expected header 'cds-instance v1 [general]'", lineno
                )
            if len(tokens) == 3:
                if tokens[2] != "general":
                    raise InstanceFormatError(
                        f"unknown header token {tokens[2]!r}", lineno
                    )
                bipartite = False
            header_seen = True
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[0] not in (QUALIFIED, UNQUALIFIED):
            raise InstanceFormatError("expected 'q <v> <u>' or 'u <v> <u>'", lineno)
        kind, v, u = tokens
        _add_edge(seen, names, kind, v, u, bipartite, lineno)
    if not header_seen:
        raise InstanceFormatError("missing 'cds-instance v1' header", 1)
    return _build(seen, names, bipartite)


def format_instance(inst: CdsInstance) -> str:
    """Serialize an instance back into the file format."""
    lines = ["cds-instance v1" + ("" if inst.bipartite else " general")]
    for kind, (v, u) in inst.edges:
        lines.append(f"{kind} {v} {u}")
    return "\n".join(lines) + "\n"


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
    k = qualified.index_of(block[0])
    inner = (b for b in unqualified.blocks if qualified.index_of(b[0]) == k)
    return Partition(tuple(inner))


def unqualified_path(
    inst: CdsInstance, block, s: str, t: str
) -> PathWitness:
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


def _feasibility(
    inst: CdsInstance, qroot: list[int], uroot: list[int]
) -> FeasibilityResult:
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
