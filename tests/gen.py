"""Random generators shared by the property suites.

``random_feasible_instance`` builds non-degenerate instances that satisfy
the capacity-1/2 condition by construction: qualified edges only ever
join different unqualified blocks; ``layered_feasible_instance`` builds
the 10^4-edge shape of acceptance criteria 10 and 12 the same way.  The
scheme transforms produce diverse verified schemes from synthesized ones
without disturbing any rank.
"""

import random

from cdskit.gf import GfMatrix, hstack, matmul, rank, vstack
from cdskit.instance import CdsInstance
from cdskit.scheme import LinearScheme


def random_feasible_instance(
    rng: random.Random,
    max_vertices: int = 10,
    max_components: int = 3,
    max_blocks: int = 4,
) -> CdsInstance:
    n = rng.randrange(2, max_vertices + 1)
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)

    # Partition vertices into qualified components, then into unqualified
    # blocks.  A multi-vertex component needs >= 2 blocks (qualified edges
    # must cross blocks); singleton blocks need a second component to host
    # their unqualified partner, so m = 1 forces every block size >= 2.
    lo = 1 if n >= 4 else 2
    m = rng.randrange(lo, min(max_components, n) + 1)
    cuts = sorted(rng.sample(range(1, n), m - 1)) if m > 1 else []
    components = []
    prev = 0
    for cut in cuts + [n]:
        components.append(names[prev:cut])
        prev = cut

    def split_blocks(comp: list[str]) -> list[list[str]]:
        if len(comp) == 1:
            return [comp]
        if m == 1:
            k = rng.randrange(2, min(len(comp) // 2, max_blocks) + 1)
            blocks = [comp[2 * i : 2 * i + 2] for i in range(k)]
            for v in comp[2 * k :]:
                blocks[rng.randrange(k)].append(v)
            return blocks
        k = rng.randrange(2, min(len(comp), max_blocks) + 1)
        idx = sorted(rng.sample(range(1, len(comp)), k - 1))
        blocks, prev = [], 0
        for cut in idx + [len(comp)]:
            blocks.append(comp[prev:cut])
            prev = cut
        return blocks

    edges: list[tuple[str, str, str]] = []
    all_blocks: list[list[list[str]]] = []
    for comp in components:
        blocks = split_blocks(comp)
        all_blocks.append(blocks)
        block_of = {v: i for i, blk in enumerate(blocks) for v in blk}
        if len(comp) > 1:
            # Grow a qualified spanning tree whose edges cross blocks.
            start = [blocks[0][0], blocks[1][0]]
            edges.append(("q", start[0], start[1]))
            connected = list(start)
            for v in comp:
                if v in connected:
                    continue
                choices = [u for u in connected if block_of[u] != block_of[v]]
                edges.append(("q", v, rng.choice(choices)))
                connected.append(v)
            # Extra qualified edges across blocks.
            for _ in range(rng.randrange(0, len(comp))):
                v, u = rng.sample(comp, 2)
                if block_of[v] != block_of[u]:
                    edges.append(("q", v, u))
        # Unqualified spanning tree plus extras inside each block.
        for blk in blocks:
            for i, v in enumerate(blk[1:], start=1):
                edges.append(("u", v, blk[rng.randrange(i)]))
            for _ in range(rng.randrange(0, len(blk))):
                v, u = rng.sample(blk, 2)
                edges.append(("u", v, u))

    # Cross-component unqualified partners for singleton blocks, plus noise.
    for ci, blocks in enumerate(all_blocks):
        for blk in blocks:
            if len(blk) == 1:
                others = [v for cj, comp in enumerate(components) if cj != ci for v in comp]
                edges.append(("u", blk[0], rng.choice(others)))
    if len(components) > 1:
        for _ in range(rng.randrange(0, n)):
            ci, cj = rng.sample(range(len(components)), 2)
            edges.append(("u", rng.choice(components[ci]), rng.choice(components[cj])))

    dedup: dict[tuple[str, str], str] = {}
    for kind, v, u in edges:
        dedup.setdefault((v, u) if v <= u else (u, v), kind)
    return CdsInstance.from_edges(
        [(kind, v, u) for (v, u), kind in dedup.items()], bipartite=False
    )


def layered_feasible_instance(rng, comps=12, blocks=6, size=50, edges=10_000):
    """Feasible by construction: unqualified edges stay inside blocks and
    qualified edges cross blocks of one component."""
    kinds: dict[tuple[str, str], str] = {}

    def add(kind, v, u):
        if v != u:
            kinds.setdefault((v, u) if v < u else (u, v), kind)

    grid = [
        [[f"c{m}b{i}v{k}" for k in range(size)] for i in range(blocks)]
        for m in range(comps)
    ]
    for comp in grid:
        for i, blk in enumerate(comp):
            for k in range(1, size):
                add("u", blk[k - 1], blk[k])
            if i + 1 < blocks:
                for k in range(size):
                    add("q", blk[k], comp[i + 1][k])
        for k in range(1, size):
            add("q", comp[0][k - 1], comp[1][k])
    while len(kinds) < edges:
        comp = rng.choice(grid)
        i, j = rng.sample(range(blocks), 2)
        if rng.random() < 0.5:
            add("u", rng.choice(comp[i]), rng.choice(comp[i]))
        else:
            add("q", rng.choice(comp[i]), rng.choice(comp[j]))
    return CdsInstance.from_edges(
        [(kind, v, u) for (v, u), kind in kinds.items()], bipartite=False
    )


def random_matrix(rng: random.Random, p: int, rows: int, cols: int) -> GfMatrix:
    return GfMatrix.from_rows(
        p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], cols
    )


def random_invertible(rng: random.Random, p: int, n: int) -> GfMatrix:
    while True:
        m = random_matrix(rng, p, n, n)
        if rank(m) == n:
            return m


def random_scheme(
    rng: random.Random, vertices, p: int, secret_len: int, noise_len: int, max_n: int = 3
) -> LinearScheme:
    """Fully random matrices; typically not a valid scheme."""
    matrices = {}
    for v in vertices:
        n = rng.randrange(1, max_n + 1)
        matrices[v] = (
            random_matrix(rng, p, n, secret_len),
            random_matrix(rng, p, n, noise_len),
        )
    return LinearScheme(p, secret_len, noise_len, matrices)


def direct_sum(a: LinearScheme, b: LinearScheme) -> LinearScheme:
    """Parallel composition: secrets, noises and signals concatenate."""
    assert a.p == b.p and a.vertices == b.vertices
    p = a.p
    matrices = {}
    for v in a.vertices:
        fa, ha = a.matrices[v]
        fb, hb = b.matrices[v]
        f = vstack(
            hstack(fa, GfMatrix.zeros(p, fa.rows, fb.cols)),
            hstack(GfMatrix.zeros(p, fb.rows, fa.cols), fb),
        )
        h = vstack(
            hstack(ha, GfMatrix.zeros(p, ha.rows, hb.cols)),
            hstack(GfMatrix.zeros(p, hb.rows, ha.cols), hb),
        )
        matrices[v] = (f, h)
    return LinearScheme(p, a.secret_len + b.secret_len, a.noise_len + b.noise_len, matrices)


def shuffle_scheme(rng: random.Random, sch: LinearScheme) -> LinearScheme:
    """Rank-preserving disguises: per-vertex invertible row operations and
    global changes of basis on the secret and the noise."""
    p = sch.p
    secret_basis = random_invertible(rng, p, sch.secret_len)
    noise_basis = random_invertible(rng, p, sch.noise_len) if sch.noise_len else None
    matrices = {}
    for v in sch.vertices:
        f, h = sch.matrices[v]
        t = random_invertible(rng, p, f.rows) if f.rows else GfMatrix.zeros(p, 0, 0)
        f = matmul(t, matmul(f, secret_basis)) if f.rows else f
        if h.rows and noise_basis is not None:
            h = matmul(t, matmul(h, noise_basis))
        elif h.rows:
            h = matmul(t, h)
        matrices[v] = (f, h)
    return LinearScheme(p, sch.secret_len, sch.noise_len, matrices)


def append_redundant_row(rng: random.Random, sch: LinearScheme, v: str) -> LinearScheme:
    """Give one vertex an extra signal row that is a combination of its
    existing rows, which no rank computation can notice."""
    f, h = sch.matrices[v]
    coeffs = [rng.randrange(sch.p) for _ in range(f.rows)]
    joint = hstack(f, h)
    new_row = [
        sum(c * int(joint.data[i][j]) for i, c in enumerate(coeffs)) % sch.p
        for j in range(joint.cols)
    ]
    f2 = vstack(f, GfMatrix.from_rows(sch.p, [new_row[: f.cols]], f.cols))
    h2 = vstack(h, GfMatrix.from_rows(sch.p, [new_row[f.cols :]], h.cols))
    matrices = dict(sch.matrices)
    matrices[v] = (f2, h2)
    return LinearScheme(sch.p, sch.secret_len, sch.noise_len, matrices)
