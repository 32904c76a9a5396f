"""Constructive side of the capacity results: the rate-1/2 scheme, its
randomness reduction, and the two built-in demo instances.

The rate-1/2 construction assigns every vertex one symbol  s + i * z_m
over the smallest prime field that keeps the coefficients i distinct and
nonzero, where m indexes the vertex's qualified component and i its
unqualified component inside it.  The randomness reduction replaces the
per-component noise symbols by generic combinations of two base symbols.

The built-in 6-vertex instance additionally ships a rate-2/5 scheme with
4 secret bits, 9 noise bits and 5-bit signals arranged in sliding noise
windows.  Its secret rows are frozen here as data, and the scheme is
verified by ranks every time it is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import GfMatrix, is_prime
from .instance import (
    CdsInstance,
    FeasibilityResult,
    _blocks,
    _decompose,
    _feasibility,
)
from .instance import half_rate_feasible  # noqa: F401  perfbench/spans.py traces it here
from .scheme import LinearScheme, verify_linear

__all__ = [
    "SynthesisPlan",
    "InfeasibleInstanceError",
    "plan_synthesis",
    "synthesize_half_rate",
    "reduce_randomness",
    "builtin_fig2_instance",
    "builtin_fig2_scheme",
    "builtin_example1_instance",
    "builtin_instance",
    "FIG2_PATH_ORDER",
]


class InfeasibleInstanceError(ValueError):
    """The instance does not admit capacity 1/2; carries the witness."""

    def __init__(self, result: FeasibilityResult):
        self.result = result
        edge = result.witness_edge
        path = result.witness_path
        super().__init__(
            f"capacity 1/2 is not achievable: qualified edge "
            f"{{{edge[0]}, {edge[1]}}} is internal to the unqualified path "
            f"({', '.join(path.vertices)})"
        )


def next_prime_above(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = max(n + 1, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


@dataclass(frozen=True)
class SynthesisPlan:
    """The plan the rate-1/2 scheme is read from: ``components[m - 1]``
    holds the unqualified blocks of qualified component m, as tuples of
    names, each in order of least vertex.  Block i of component m sends
    s + i z_m, so p > max(U_1, ..., U_M) keeps each i distinct and nonzero."""

    components: tuple[tuple[tuple[str, ...], ...], ...]
    p: int

    @property
    def m_count(self) -> int:
        return len(self.components)

    @property
    def u_counts(self) -> tuple[int, ...]:
        return tuple(map(len, self.components))


def plan_synthesis(inst: CdsInstance) -> SynthesisPlan:
    """The plan of a non-degenerate, feasible instance: the unqualified
    blocks of one :func:`_decompose`, grouped by their least id's qualified root."""
    qroot, uroot = _decompose(inst)
    result = _feasibility(inst, qroot, uroot)
    if not result.feasible:
        raise InfeasibleInstanceError(result)
    names = inst.vertices
    comps: dict[int, list[tuple[str, ...]]] = {}
    for blk in _blocks(uroot):
        comps.setdefault(qroot[blk[0]], []).append(tuple(map(names.__getitem__, blk)))
    u_max = max(map(len, comps.values()), default=0)
    return SynthesisPlan(tuple(map(tuple, comps.values())), next_prime_above(u_max))


def _scheme_from_plan(plan: SynthesisPlan, p: int, bases) -> LinearScheme:
    """Assemble the L = 1 scheme in which every vertex of block i in
    component m sends s + i * (bases[m - 1] . z)."""
    noise_len = len(bases[0]) if bases else 0
    secret = GfMatrix.from_rows(p, [[1]], 1)
    matrices = {}
    for comp, base in zip(plan.components, bases):
        for i, blk in enumerate(comp, start=1):
            pair = (secret, GfMatrix.from_rows(p, [[i * b for b in base]], noise_len))
            for v in blk:
                matrices[v] = pair
    return LinearScheme(p, 1, noise_len, matrices)


def _is_half_rate_scheme(sch: LinearScheme, plan: SynthesisPlan) -> bool:
    """``sch == synthesize_half_rate(inst)``, for the ``inst`` whose plan
    this is, without building that scheme: equal vertex counts, and every
    vertex of plan block (m, i) in a block of ``sch`` whose pair is
    (1, i e_m).  Distinct plan blocks have distinct pairs (i < p), so no
    block of ``sch`` passes for two."""
    m_count = plan.m_count
    if (sch.p, sch.secret_len, sch.noise_len) != (plan.p, 1, m_count):
        return False
    if len(sch.block_of) != sum(len(blk) for comp in plan.components for blk in comp):
        return False
    for m, comp in enumerate(plan.components):
        for i, blk in enumerate(comp, start=1):
            owners = {sch.block_of.get(v) for v in blk}
            if None in owners:
                return False
            noise = [0] * m_count
            noise[m] = i
            for k in owners:
                f, h = sch.blocks[k]
                if f.to_lists() != [[1]] or h.to_lists() != [noise]:
                    return False
    return True


def synthesize_half_rate(inst: CdsInstance) -> LinearScheme:
    """Build the rate-1/2 scheme: one secret symbol, one noise symbol per
    qualified component, every signal a single symbol s + i * z_m."""
    plan = plan_synthesis(inst)
    m_count = plan.m_count
    identity = [[int(k == m) for k in range(m_count)] for m in range(m_count)]
    return _scheme_from_plan(plan, plan.p, identity)


def reduce_randomness(inst: CdsInstance, sch: LinearScheme) -> LinearScheme:
    """Rewrite the synthesized scheme over two base noise symbols.

    Noise symbol z_m for m >= 3 becomes z_1 + (m - 2) z_2; the field may
    grow so the generic combinations stay pairwise independent
    (p > max(U_1, ..., U_M, M - 2)).  Schemes with at most two components
    are already randomness-optimal and are returned unchanged.
    """
    plan = plan_synthesis(inst)
    if not _is_half_rate_scheme(sch, plan):
        raise ValueError("scheme was not produced by synthesize_half_rate for inst")
    m_count = plan.m_count
    if m_count <= 2:
        return sch
    p = next_prime_above(max(max(plan.u_counts), m_count - 2))
    bases = [[1, 0], [0, 1]] + [[1, m - 2] for m in range(3, m_count + 1)]
    return _scheme_from_plan(plan, p, bases)


# ---------------------------------------------------------------------------
# Built-in instances


def builtin_fig2_instance() -> CdsInstance:
    """The 6-vertex instance whose qualified edges form a path and whose
    edge {A2, B2} is internal to an unqualified path; capacity below 1/2."""
    return CdsInstance.from_edges(
        [
            ("q", "A1", "B1"),
            ("q", "B1", "A2"),
            ("q", "A2", "B2"),
            ("q", "B2", "A3"),
            ("q", "A3", "B3"),
            ("u", "B2", "A1"),
            ("u", "A1", "B3"),
            ("u", "B3", "A2"),
            ("u", "B1", "A3"),
        ]
    )


def builtin_example1_instance() -> CdsInstance:
    """An 8-vertex feasible instance with two qualified components."""
    return CdsInstance.from_edges(
        [
            ("q", "A1", "B1"),
            ("q", "B1", "A2"),
            ("q", "A2", "B2"),
            ("q", "B2", "A3"),
            ("q", "A3", "B3"),
            ("q", "A4", "B4"),
            ("u", "B1", "A3"),
            ("u", "A2", "B3"),
            ("u", "A1", "B4"),
            ("u", "B3", "A4"),
            ("u", "B2", "A4"),
        ]
    )


def builtin_instance(name: str) -> CdsInstance:
    builders = {"fig2": builtin_fig2_instance, "example1": builtin_example1_instance}
    if name not in builders:
        raise ValueError(f"unknown built-in instance {name!r}; choose from fig2, example1")
    return builders[name]()


# ---------------------------------------------------------------------------
# The built-in rate-2/5 scheme
#
# Vertices along the qualified path, position k = 0..5; bit j of vertex k
# combines secret row c(k, k + j) with noise bit z_{(k + j) mod 9}.  The
# secret rows below satisfy the alignment constraints: noise shared across
# an unqualified edge carries equal secret rows, B1's last two bits carry
# s4 and then no secret, and the differences across {B1, A2}
# decode (s1+s2, s2+s3, s3+s4, s4).  builtin_fig2_scheme() rejects them
# unless every edge verifies.

FIG2_PATH_ORDER = ("A1", "B1", "A2", "B2", "A3", "B3")
_FIG2_L = 4
_FIG2_LZ = 9
_FIG2_N = 5

# Secret-row table keyed by (path position k, absolute position t),
# rows encoded as 4-bit integers, secret symbol s1 in the high bit.
_FIG2_SECRET_ROWS: dict[tuple[int, int], int] = {
    (0, 0): 0b0000, (0, 1): 0b0000, (0, 2): 0b0000, (0, 3): 0b0000, (0, 4): 0b0000,
    (1, 1): 0b0010, (1, 2): 0b0100, (1, 3): 0b1000, (1, 4): 0b0001, (1, 5): 0b0000,
    (2, 2): 0b1000, (2, 3): 0b1110, (2, 4): 0b0010, (2, 5): 0b0001, (2, 6): 0b0000,
    (3, 3): 0b0000, (3, 4): 0b0000, (3, 5): 0b0010, (3, 6): 0b0100, (3, 7): 0b0000,
    (4, 4): 0b0001, (4, 5): 0b0000, (4, 6): 0b0010, (4, 7): 0b1000, (4, 8): 0b0000,
    (5, 5): 0b0001, (5, 6): 0b0000, (5, 7): 0b0000, (5, 8): 0b0100, (5, 9): 0b0000,
}


def _window(k: int) -> list[int]:
    return [k + j for j in range(_FIG2_N)]


def _row_bits(row: int) -> list[int]:
    return [(row >> (3 - i)) & 1 for i in range(_FIG2_L)]


def builtin_fig2_scheme() -> LinearScheme:
    """The rate-2/5 scheme for the built-in 6-vertex instance."""
    matrices = {}
    for k, v in enumerate(FIG2_PATH_ORDER):
        f_rows, h_rows = [], []
        for t in _window(k):
            f_rows.append(_row_bits(_FIG2_SECRET_ROWS[(k, t)]))
            h_row = [0] * _FIG2_LZ
            h_row[t % _FIG2_LZ] = 1
            h_rows.append(h_row)
        matrices[v] = (
            GfMatrix.from_rows(2, f_rows, _FIG2_L),
            GfMatrix.from_rows(2, h_rows, _FIG2_LZ),
        )
    sch = LinearScheme(2, _FIG2_L, _FIG2_LZ, matrices)
    report = verify_linear(builtin_fig2_instance(), sch)
    if not report.passed:
        raise AssertionError("built-in rate-2/5 scheme failed verification")
    return sch
