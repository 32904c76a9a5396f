"""CDS instances as labeled graphs, plus the capacity-1/2 feasibility test.

An instance is an undirected graph whose vertices are the signals and
whose edges are tagged qualified (the secret must be decodable from the
pair) or unqualified (the pair must leak nothing).  Bipartite mode is the
default: vertex names look like ``A3`` / ``B1`` and every edge joins the
two sides.  General mode lifts both restrictions.

The feasibility test reduces the path-based obstruction to a component
computation: the capacity is 1/2 iff no qualified edge joins two vertices
of one unqualified component inside its qualified component.  Those
components come from :func:`decompose` alone: one union-find pass over
the qualified edges, then one over the unqualified edges whose ends share
a qualified component.  Both passes run on integer vertex ids (the rank
of each name in sorted order), with path halving and a union that keeps
the smaller root, so every root is its component's least id.  Without
union by size, path halving still bounds each pass by O(V + E log V)
(Tarjan and van Leeuwen, 1984), so feasibility, synthesis and the lemma
audit scale with the size of the graph.  Breadth-first search is used
only to render a witness path.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

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
    """Immutable labeled graph of signals."""

    vertices: tuple[str, ...]
    qualified: tuple[tuple[str, str], ...]
    unqualified: tuple[tuple[str, str], ...]
    bipartite: bool = True

    @classmethod
    def from_edges(cls, edges, bipartite: bool = True) -> "CdsInstance":
        """Build and validate an instance from (kind, v, u) triples."""
        seen: dict[tuple[str, str], str] = {}
        for kind, v, u in edges:
            _add_edge(seen, kind, v, u, bipartite)
        return _build(seen, bipartite)

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
    seen: dict, kind: str, v: str, u: str, bipartite: bool, line: int | None = None
) -> None:
    """Validate one edge against the edges in ``seen``, then record it.

    The single validation routine for instances, whether built from
    triples or parsed from text; ``line`` tags the error when known.
    """
    if kind not in (QUALIFIED, UNQUALIFIED):
        raise InstanceFormatError(f"unknown edge kind {kind!r}", line)
    _check_name(v, bipartite, line)
    _check_name(u, bipartite, line)
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


def _build(seen: dict[tuple[str, str], str], bipartite: bool) -> CdsInstance:
    qualified = tuple(sorted(k for k, kind in seen.items() if kind == QUALIFIED))
    unqualified = tuple(sorted(k for k, kind in seen.items() if kind == UNQUALIFIED))
    names = sorted({x for pair in seen for x in pair})
    return CdsInstance(tuple(names), qualified, unqualified, bipartite)


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering a vertex subset; blocks and members sorted."""

    blocks: tuple[tuple[str, ...], ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {v: i for i, b in enumerate(self.blocks) for v in b}
        object.__setattr__(self, "_index", index)

    def block_of(self, v: str) -> tuple[str, ...]:
        return self.blocks[self._index[v]]

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
        _add_edge(seen, kind, v, u, bipartite, lineno)
    if not header_seen:
        raise InstanceFormatError("missing 'cds-instance v1' header", 1)
    return _build(seen, bipartite)


def format_instance(inst: CdsInstance) -> str:
    """Serialize an instance back into the file format."""
    lines = ["cds-instance v1" + ("" if inst.bipartite else " general")]
    for kind, (v, u) in inst.edges:
        lines.append(f"{kind} {v} {u}")
    return "\n".join(lines) + "\n"


def is_non_degenerate(inst: CdsInstance) -> tuple[bool, tuple[str, ...]]:
    """Every vertex must meet at least one unqualified edge."""
    touched = {x for pair in inst.unqualified for x in pair}
    violators = tuple(v for v in inst.vertices if v not in touched)
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

    The sorted vertices are numbered 0..n-1, and two union-find passes
    run on those integer ids: one joins the ends of every qualified edge,
    the other the ends of every unqualified edge whose ends share a
    qualified component.  A union hangs the larger root under the smaller
    and finds halve their paths, so a parent id never exceeds its child's
    and every root is its component's least id; one sweep in id order
    then resolves each vertex to its root.  Both partitions cover every
    vertex (isolated vertices are singleton blocks), with sorted members
    and blocks ordered by least member; the second refines the first.
    """
    return _decompose(inst)[:2]


def _decompose(inst: CdsInstance) -> tuple[Partition, Partition, tuple[str, ...]]:
    """:func:`decompose`, plus the vertices that meet no unqualified edge
    (in ``inst.vertices`` order), marked in the pass that maps every
    unqualified edge to ids."""
    vertices = sorted(inst.vertices)
    ids = {v: i for i, v in enumerate(vertices)}

    def roots(edges) -> list[int]:
        parent = list(range(len(vertices)))
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

    def partition(root: list[int]) -> Partition:
        blocks: dict[int, list[str]] = {}
        for v, r in zip(vertices, root):
            blocks.setdefault(r, []).append(v)
        return Partition(tuple(map(tuple, blocks.values())))

    qroot = roots((ids[v], ids[u]) for v, u in inst.qualified)
    touched = bytearray(len(vertices))
    inner = []
    for v, u in inst.unqualified:
        a, b = ids[v], ids[u]
        touched[a] = touched[b] = 1
        if qroot[a] == qroot[b]:
            inner.append((a, b))
    violators = () if all(touched) else tuple(v for v in inst.vertices if not touched[ids[v]])
    return partition(qroot), partition(roots(inner)), violators


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
    adj: dict[str, list[str]] = {v: [] for v in block}
    for a, b in inst.unqualified:
        if a in block and b in block:
            adj[a].append(b)
            adj[b].append(a)
    for v in adj:
        adj[v].sort()
    parent: dict[str, str] = {s: s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        if x == t:
            break
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if t not in parent:
        raise ValueError(f"no unqualified path from {s} to {t} inside the block")
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    return PathWitness(tuple(path), UNQUALIFIED)


def half_rate_feasible(inst: CdsInstance) -> FeasibilityResult:
    """Decide whether the instance admits capacity 1/2.

    Infeasibility is witnessed by a qualified edge whose endpoints are
    joined by an unqualified path inside the same qualified component;
    the path runs from the larger-named endpoint to the smaller so that
    rendered witnesses are reproducible.
    """
    return _feasibility(inst, *_decompose(inst))


def _feasibility(
    inst: CdsInstance,
    qualified: Partition,
    unqualified: Partition,
    violators: tuple[str, ...],
) -> FeasibilityResult:
    """:func:`half_rate_feasible` on the instance's :func:`_decompose`."""
    if violators:
        raise DegenerateInstanceError(violators)
    ublock, qblock = unqualified._index, qualified._index
    internal = (e for e in inst.qualified if ublock[e[0]] == ublock[e[1]])
    first = min(internal, key=lambda e: (qblock[e[0]], e), default=None)
    if first is None:
        return FeasibilityResult(True)
    v, u = first
    start, end = (v, u) if v > u else (u, v)
    path = unqualified_path(inst, qualified.block_of(v), start, end)
    witness = PathWitness(path.vertices, UNQUALIFIED, (start, end))
    return FeasibilityResult(False, (start, end), witness)
