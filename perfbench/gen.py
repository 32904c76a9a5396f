"""Seeded input generators for the benchmark workloads.

Everything here is plain Python with no dependency on ``cdskit``: the
inputs, and the answers they must produce, follow from how they are
built, so the benchmark can check the program against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def next_prime_above(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = max(n + 1, 2)
    while any(c % d == 0 for d in range(2, int(c**0.5) + 1)):
        c += 1
    return c


# ---------------------------------------------------------------------------
# graph-scale: layered instances with a known component structure


@dataclass(frozen=True)
class GraphSpec:
    """Fixed shape of one generated instance: ``components`` qualified
    components, each split into ``blocks`` unqualified blocks of equal
    size, padded with random extra edges up to ``edges`` in total."""

    vertices: int
    components: int
    blocks: int
    edges: int


# About 10^2, 10^3 and 10^4 edges; the shape is fixed so that every seed
# does the same amount of work and only the wiring changes.  Each tier has
# a number of feasible/infeasible pairs (7 operations a pair).  The small
# tiers have several, so that the median and the tail of the operation
# times fall inside clusters of like operations, not on the edge between
# two: the median among the e100 reductions and, with the two passes every
# run makes, the tail among the e10000 checks and alignments.
GRAPH_SPECS = {
    "e100": (GraphSpec(36, 3, 3, 100), 21),
    "e1000": (GraphSpec(360, 6, 5, 1000), 5),
    "e10000": (GraphSpec(3600, 12, 6, 10000), 1),
}


@dataclass(frozen=True)
class GraphCase:
    name: str
    text: str  # instance file contents
    spec: GraphSpec
    feasible: bool
    chord: tuple[str, str] | None  # planted qualified edge, (larger, smaller)
    chord_block: frozenset | None  # the unqualified block the chord lies in


def graph_case(rng: random.Random, name: str, spec: GraphSpec, feasible: bool) -> GraphCase:
    """A non-degenerate instance of the given shape.

    Qualified edges only ever join different blocks of one component, so
    the instance admits rate 1/2.  The infeasible variant swaps one extra
    edge for a qualified chord inside a block, which is then the only
    qualified edge internal to an unqualified component.
    """
    ids = list(range(spec.vertices))
    rng.shuffle(ids)
    names = [f"v{i}" for i in ids]
    comp_size = spec.vertices // spec.components
    block_size = comp_size // spec.blocks
    comps = [names[c * comp_size : (c + 1) * comp_size] for c in range(spec.components)]
    block_of: dict[str, int] = {}
    blocks: list[list[str]] = []
    for comp in comps:
        for b in range(spec.blocks):
            blk = comp[b * block_size : (b + 1) * block_size]
            for v in blk:
                block_of[v] = len(blocks)
            blocks.append(blk)

    edges: dict[tuple[str, str], str] = {}

    def add(kind: str, v: str, u: str) -> bool:
        key = (v, u) if v <= u else (u, v)
        if v == u or key in edges:
            return False
        edges[key] = kind
        return True

    for blk in blocks:  # unqualified spanning tree of every block
        for i in range(1, len(blk)):
            add("u", blk[i], blk[rng.randrange(i)])
    for comp in comps:  # qualified spanning tree across the blocks
        order = comp[:]
        rng.shuffle(order)
        first = order[0]
        second = next(v for v in order if block_of[v] != block_of[first])
        order.remove(second)
        order.insert(1, second)
        for i in range(1, len(order)):
            v = order[i]
            while True:
                u = order[rng.randrange(i)]
                if block_of[u] != block_of[v] and add("q", v, u):
                    break
    chord = None
    chord_block = None
    if not feasible:
        # The chord goes into the component whose least vertex name is the
        # greatest, the last one a scan in name order reaches: where the
        # chord sits would otherwise set the cost of an early-exit scan.
        last = max(range(spec.components), key=lambda c: min(comps[c]))
        blk = blocks[last * spec.blocks + rng.randrange(spec.blocks)]
        while True:
            v, u = rng.sample(blk, 2)
            if add("q", v, u):
                break
        chord = (v, u) if v > u else (u, v)
        chord_block = frozenset(blk)
    while len(edges) < spec.edges:
        roll = rng.random()
        comp = comps[rng.randrange(spec.components)]
        if roll < 0.4:
            v, u = rng.sample(comp, 2)
            if block_of[v] != block_of[u]:
                add("q", v, u)
        elif roll < 0.85:
            blk = blocks[block_of[comp[rng.randrange(comp_size)]]]
            v, u = rng.sample(blk, 2)
            add("u", v, u)
        else:
            c1, c2 = rng.sample(range(spec.components), 2)
            add("u", rng.choice(comps[c1]), rng.choice(comps[c2]))
    lines = [f"{kind} {v} {u}" for (v, u), kind in edges.items()]
    rng.shuffle(lines)
    text = "cds-instance v1 general\n" + "\n".join(lines) + "\n"
    return GraphCase(name, text, spec, feasible, chord, chord_block)


# ---------------------------------------------------------------------------
# oracle-sweep: linear schemes with exact rank answers computed here


@dataclass(frozen=True)
class SchemeCase:
    """An instance, a scheme over it, and the rank answer for every edge:
    ``deltas[(v, u)]`` = rank([F|H] of the pair) - rank(H of the pair)."""

    name: str
    instance_text: str
    scheme_text: str
    p: int
    secret_len: int
    noise_len: int
    deltas: dict
    rate_half: bool  # every signal has one symbol per secret symbol
    known_defect: str | None = None
    grouped: bool = False  # small table: all edge checks form one operation


def _scheme_text(p: int, L: int, LZ: int, signals: dict) -> str:
    lines = ["cds-scheme v1", f"field {p}", f"secret {L}", f"noise {LZ}"]
    for v in sorted(signals):
        rows = signals[v]
        lines.append(f"signal {v} {len(rows)}")
        for f, h in rows:
            lines.append(f"F: {' '.join(map(str, f))} | H: {' '.join(map(str, h))}".rstrip())
    return "\n".join(lines) + "\n"


def _instance_text(edges) -> str:
    return "cds-instance v1 general\n" + "".join(f"{k} {v} {u}\n" for k, v, u in edges)


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                k = rows[i][c]
                rows[i] = [(x - k * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _deltas(p: int, signals: dict, edges) -> dict:
    out = {}
    for _, v, u in edges:
        pair = signals[v] + signals[u]
        aug = _rank_mod_p([f + h for f, h in pair], p)
        noise = _rank_mod_p([h for _, h in pair], p) if pair[0][1] else 0
        out[(v, u) if v <= u else (u, v)] = aug - noise
    return out


def random_gf2_case(rng: random.Random, name: str) -> SchemeCase:
    """Fully random GF(2) matrices over 2^20 realizations; typically not a
    valid scheme, which is what the cross-check wants: both verdicts vary."""
    p, L, LZ = 2, 2, 18
    names = [f"x{i}" for i in range(5)]
    signals = {
        v: [
            ([rng.randrange(p) for _ in range(L)], [rng.randrange(p) for _ in range(LZ)])
            for _ in range(3)
        ]
        for v in names
    }
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    edges = [(rng.choice("qu"), a, b) for a, b in rng.sample(pairs, 6)]
    return SchemeCase(
        name, _instance_text(edges), _scheme_text(p, L, LZ, signals), p, L, LZ,
        _deltas(p, signals, edges), rate_half=False,
    )


def half_rate_cases(rng: random.Random, components: int, name: str) -> tuple[SchemeCase, SchemeCase]:
    """The rate-1/2 construction on a random instance of ``components``
    qualified components with two single-vertex blocks each: every
    signal is s + i*z_m over GF(3).  Returns the scheme and its
    randomness-reduced form (two base noise symbols over a larger field).
    """
    M = components
    ids = list(range(2 * M))
    rng.shuffle(ids)
    comp = [(f"w{ids[2 * m]}", f"w{ids[2 * m + 1]}") for m in range(M)]
    edges = [("q", a, b) for a, b in comp]
    # Each vertex needs an unqualified edge; they can only cross components.
    # Every vertex adds one, so there are always 2M of them.
    cross = set()
    for m, (a, b) in enumerate(comp):
        for v in (a, b):
            while True:
                other = comp[(m + 1 + rng.randrange(M - 1)) % M][rng.randrange(2)]
                key = (v, other) if v <= other else (other, v)
                if key not in cross:
                    cross.add(key)
                    break
    edges += [("u", a, b) for a, b in sorted(cross)]
    rng.shuffle(edges)
    U = 2
    p = next_prime_above(U)
    full = {}
    for m, pair in enumerate(comp):
        for i, v in enumerate(pair, start=1):
            h = [0] * M
            h[m] = i % p
            full[v] = [([1], h)]
    p2 = next_prime_above(max(U, M - 2))
    reduced = {}
    for m, pair in enumerate(comp, start=1):
        for i, v in enumerate(pair, start=1):
            row = [i % p2, 0] if m == 1 else [0, i % p2] if m == 2 else [i % p2, i * (m - 2) % p2]
            reduced[v] = [([1], row)]
    inst = _instance_text(edges)
    deltas = {(a, b) if a <= b else (b, a): (1 if k == "q" else 0) for k, a, b in edges}
    if _deltas(p, full, edges) != deltas or _deltas(p2, reduced, edges) != deltas:
        raise AssertionError("the rate-1/2 construction does not give the intended ranks")
    return (
        SchemeCase(name, inst, _scheme_text(p, 1, M, full), p, 1, M, deltas, True),
        SchemeCase(name + "-reduced", inst, _scheme_text(p2, 1, 2, reduced), p2, 1, 2, deltas, True,
                   grouped=True),
    )


WIDE_ROWS = 70  # p^N >= 2^63 once N > 63 rows over GF(2)


def wide_signal_case(rng: random.Random, name: str) -> SchemeCase:
    """GF(2) signals of 70 rows.  Vertex a sends s + z1 in its first row,
    b and c send z1; every other row is zero or a mix of z2..z11.  Ranks
    say {a, b} decodes and {a, c} leaks.  The oracle's base-p codes of
    70-digit signals overflow int64 and drop the first rows, so it sees
    neither."""
    p, L, LZ = 2, 1, 11
    a, b, c = (f"y{i}" for i in rng.sample(range(100), 3))

    def signal(first_f: int, first_h1: int) -> list:
        rows = [([first_f], [first_h1] + [0] * (LZ - 1))]
        for _ in range(WIDE_ROWS - 1):
            mix = [0] + [rng.randrange(2) for _ in range(LZ - 1)] if rng.random() < 0.5 else [0] * LZ
            rows.append(([0], mix))
        return rows

    signals = {a: signal(1, 1), b: signal(0, 1), c: signal(0, 1)}
    edges = [("q", a, b), ("u", a, c)]
    return SchemeCase(
        name, _instance_text(edges), _scheme_text(p, L, LZ, signals), p, L, LZ,
        _deltas(p, signals, edges), rate_half=False,
        known_defect="oracle base-p codes overflow int64 for signals over 63 digits",
    )


# ---------------------------------------------------------------------------
# lp-ladder: one instance per ground-set size (signals + the secret)

# Qualified paths with unqualified chords.  Ground 7 is the paper's fig2
# and ground 9 its example1, exactly as the package ships them.  The names
# stay fixed: the exact simplex's path depends on the variable order, and
# relabeling fig2 can turn a 4 s solve into one of minutes.
LP_LADDER = {
    4: "q v1 v2\nu v1 v3\nu v2 v3",
    5: "q v1 v2\nq v2 v3\nq v3 v4\nu v1 v3\nu v2 v4\nu v1 v4",
    6: "q v1 v2\nq v2 v3\nq v3 v4\nq v4 v5\nu v1 v3\nu v2 v4\nu v3 v5\nu v1 v4",
    7: "q A1 B1\nq B1 A2\nq A2 B2\nq B2 A3\nq A3 B3\nu B2 A1\nu A1 B3\nu B3 A2\nu B1 A3",
    8: "q v1 v2\nq v2 v3\nq v3 v4\nq v4 v5\nq v5 v6\nq v6 v7\n"
    "u v1 v3\nu v2 v5\nu v4 v7\nu v3 v6\nu v1 v7",
    9: "q A1 B1\nq B1 A2\nq A2 B2\nq B2 A3\nq A3 B3\nq A4 B4\n"
    "u B1 A3\nu A2 B3\nu A1 B4\nu B3 A4\nu B2 A4",
}


def lp_instance_text(rng: random.Random, ground: int) -> str:
    """The rung's instance file, edge lines in seeded order."""
    lines = LP_LADDER[ground].split("\n")
    rng.shuffle(lines)
    general = not lines[0].split()[1].startswith(("A", "B"))
    return "cds-instance v1" + (" general" if general else "") + "\n" + "\n".join(lines) + "\n"
