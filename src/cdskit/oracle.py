"""Exhaustive ground truth for scheme verification and the lemma audits.

Every (secret, noise) realization is enumerated into a table of signal
values, so correctness and security become exact combinatorial facts:
the secret is constant on every fiber of a decodable pair, and the joint
(secret, signals) distribution factorizes for a secure pair.  No check in
this module relies on the rank identities it is meant to validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gf import GfMatrix, hstack, rank, vstack
from .instance import CdsInstance, decompose
from .scheme import LinearScheme

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


def _all_vectors(p: int, n: int) -> np.ndarray:
    """All p^n digit vectors as an array of shape (p^n, n), counting with
    the first symbol most significant."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([np.arange(p, dtype=np.int64)] * n), indexing="ij")
    return np.stack(grids, axis=-1).reshape(p**n, n)


def _encode(digits: np.ndarray, p: int) -> np.ndarray:
    """One scalar per digit row: its base-p value (big-endian) while that
    fits in int64, otherwise the row's index among the distinct rows."""
    n = digits.shape[1]
    if n * math.log2(p) > 62:
        _, inverse = np.unique(digits, axis=0, return_inverse=True)
        return inverse.reshape(-1).astype(np.int64)
    weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return digits @ weights


@dataclass(frozen=True)
class SchemeTable:
    """Total map from every (secret, noise) pair to all signal values.

    Signal values are stored as int64 codes, one array of length
    p^(L+L_Z) per vertex: base-p encoded, or numbered by identity for
    signals too wide for that.  ``scheme`` is set when the table came
    from a linear scheme, which unlocks exact integer entropies via ranks.
    """

    p: int
    secret_len: int
    noise_len: int
    signal_lens: dict[str, int]
    values: dict[str, np.ndarray] = field(repr=False)
    scheme: LinearScheme | None = None

    @property
    def size(self) -> int:
        return self.p ** (self.secret_len + self.noise_len)

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.values))

    def secret_codes(self) -> np.ndarray:
        reps = self.p**self.noise_len
        return np.repeat(np.arange(self.p**self.secret_len, dtype=np.int64), reps)

    def noise_codes(self) -> np.ndarray:
        reps = self.p**self.secret_len
        return np.tile(np.arange(self.p**self.noise_len, dtype=np.int64), reps)

    def column(self, name: str) -> tuple[np.ndarray, int]:
        """(codes, alphabet size) for a variable name: S, Z or a vertex."""
        if name == "S":
            return self.secret_codes(), self.p**self.secret_len
        if name == "Z":
            return self.noise_codes(), self.p**self.noise_len
        return self.values[name], self.p ** self.signal_lens[name]

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
        total = p ** (secret_len + noise_len)
        if total > budget:
            raise BudgetError(
                f"p^(L+L_Z) = {total} exceeds the enumeration budget {budget}"
            )
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
            digits = np.array(out, dtype=np.int64).reshape(total, width or 0)
            values[name] = _encode(digits, p)
            lens[name] = width or 0
        return cls(p, secret_len, noise_len, lens, values, scheme=None)


def tabulate(sch: LinearScheme, budget: int = DEFAULT_BUDGET) -> SchemeTable:
    """Enumerate v = F_v s + H_v z for every vertex and every (s, z)."""
    total = sch.p ** (sch.secret_len + sch.noise_len)
    if total > budget:
        raise BudgetError(
            f"p^(L+L_Z) = {total} exceeds the enumeration budget {budget}"
        )
    p = sch.p
    s_vecs = _all_vectors(p, sch.secret_len)
    z_vecs = _all_vectors(p, sch.noise_len)
    values: dict[str, np.ndarray] = {}
    lens: dict[str, int] = {}
    for v, (f, h) in sch.matrices.items():
        fs = (s_vecs @ f.data.T) % p  # (p^L, N)
        hz = (z_vecs @ h.data.T) % p  # (p^L_Z, N)
        full = (fs[:, None, :] + hz[None, :, :]) % p
        values[v] = _encode(full.reshape(total, f.rows), p)
        lens[v] = f.rows
    return SchemeTable(p, sch.secret_len, sch.noise_len, lens, values, scheme=sch)


def _joint_codes(table: SchemeTable, names) -> np.ndarray:
    """Mixed-radix combination of the selected variables' code columns."""
    names = list(names)
    cols = [table.column(name) for name in names]
    bits = sum(math.log2(size) for _, size in cols if size > 1)
    if bits <= 62:
        combined = np.zeros(table.size, dtype=np.int64)
        for codes, size in cols:
            combined = combined * size + codes
        return combined
    stacked = np.column_stack([codes for codes, _ in cols])
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    return inverse.astype(np.int64)


def check_correct(table: SchemeTable, v: str, u: str) -> bool:
    """Decodability, combinatorially: the secret is constant on every
    fiber of the pair (v, u)."""
    pair = _joint_codes(table, [v, u])
    with_secret = _joint_codes(table, ["S", v, u])
    return len(np.unique(pair)) == len(np.unique(with_secret))


def check_secure(table: SchemeTable, v: str, u: str) -> bool:
    """Zero leakage, combinatorially: the joint (secret, pair)
    distribution factorizes exactly, in integer arithmetic."""
    pair = _joint_codes(table, [v, u])
    s = table.column("S")[0]
    total = table.size
    pair_vals, pair_inv, pair_counts = np.unique(
        pair, return_inverse=True, return_counts=True
    )
    s_vals, s_inv, s_counts = np.unique(s, return_inverse=True, return_counts=True)
    joint = s_inv.astype(np.int64) * len(pair_vals) + pair_inv
    joint_vals, joint_counts = np.unique(joint, return_counts=True)
    lhs = joint_counts.astype(object) * total
    rhs = s_counts[joint_vals // len(pair_vals)].astype(object) * pair_counts[
        joint_vals % len(pair_vals)
    ].astype(object)
    if not (lhs == rhs).all():
        return False
    # Present pairs satisfying the product rule force absent pairs to have
    # a zero marginal product, but only if each secret's mass is exhausted.
    per_secret = np.zeros(len(s_vals), dtype=np.int64)
    np.add.at(per_secret, joint_vals // len(pair_vals), joint_counts)
    return bool((per_secret == s_counts).all())


def _subset_precoding(sch: LinearScheme, names) -> GfMatrix:
    """Stacked joint precoding [F | H] rows of the selected variables."""
    L, LZ = sch.secret_len, sch.noise_len
    blocks = []
    for name in names:
        if name == "S":
            blocks.append(
                hstack(GfMatrix.identity(sch.p, L), GfMatrix.zeros(sch.p, L, LZ))
            )
        elif name == "Z":
            blocks.append(
                hstack(GfMatrix.zeros(sch.p, LZ, L), GfMatrix.identity(sch.p, LZ))
            )
        else:
            f, h = sch.matrices[name]
            blocks.append(hstack(f, h))
    out = blocks[0]
    for b in blocks[1:]:
        out = vstack(out, b)
    return out


def joint_rank(table: SchemeTable, subset) -> int:
    """Exact joint entropy (p-ary) of a subset of a linear table, as the
    rank of the stacked precoding."""
    if table.scheme is None:
        raise ValueError("joint_rank requires a table built from a linear scheme")
    return rank(_subset_precoding(table.scheme, sorted(set(subset))))


def joint_entropy(table: SchemeTable, subset) -> float:
    """Shannon entropy, base p, of the selected variables.

    For linear tables the combinatorial value must equal the precoding
    rank exactly and the integer is returned; otherwise a float.
    """
    names = sorted(set(subset))
    if not names:
        raise ValueError("subset must be nonempty")
    for name in names:
        if name not in ("S", "Z") and name not in table.values:
            raise ValueError(f"unknown variable {name}")
    codes = _joint_codes(table, names)
    counts = np.unique(codes, return_counts=True)[1]
    total = table.size
    if table.scheme is not None:
        r = joint_rank(table, names)
        if counts.min() != counts.max() or int(counts[0]) * table.p**r != total:
            raise AssertionError(
                f"linear table entropy of {names} does not match rank {r}"
            )
        return float(r)
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


def _entropy_cmp(table: SchemeTable):
    """Entropy accessor plus equality/le predicates, exact for linear
    tables and 1e-9-tolerant (p-ary units) otherwise."""
    if table.scheme is not None:
        h = lambda names: joint_rank(table, names)
        return h, lambda a, b: a == b, lambda a, b: a <= b
    h = lambda names: joint_entropy(table, names)
    return h, (lambda a, b: abs(a - b) <= 1e-9), (lambda a, b: a <= b + 1e-9)


def lemma_audit(inst: CdsInstance, table: SchemeTable, L: int) -> LemmaAuditReport:
    """Audit the five rate-1/2 entropy identities on a tabulated scheme.

    Requires N = L for every signal (the identities presuppose rate 1/2):
    signal size, edge and component noise alignment (conditional on the
    secret), and edge and path signal alignment.
    """
    if L != table.secret_len:
        raise ValueError(f"L = {L} does not match the table's secret length")
    for v in inst.vertices:
        if v not in table.values:
            raise ValueError(f"table is missing vertex {v}")
        if table.signal_lens[v] != L:
            raise ValueError(
                f"vertex {v} has signal length {table.signal_lens[v]} != L = {L}; "
                "the audited identities presuppose rate 1/2"
            )
    h, eq, le = _entropy_cmp(table)
    hs = h(["S"])

    def h_given_s(names) -> float:
        return h(list(names) + ["S"]) - hs

    on_qualified_edge = sorted({x for e in inst.qualified for x in e})
    parts, unqualified = decompose(inst)

    failures1 = []
    for v in on_qualified_edge:
        if not eq(h([v]), L):
            failures1.append(((v,), f"H({v}) = {h([v])} != {L}"))
        elif not eq(h_given_s([v]), L):
            failures1.append(((v,), f"H({v}|S) = {h_given_s([v])} != {L}"))
    lemma1 = LemmaResult("signal_size", len(on_qualified_edge), tuple(failures1))

    failures2 = []
    for v, u in inst.qualified:
        val = h_given_s([v, u])
        if not eq(val, L):
            failures2.append(((v, u), f"H({v},{u}|S) = {val} != {L}"))
    lemma2 = LemmaResult("edge_noise_alignment", len(inst.qualified), tuple(failures2))

    failures3 = []
    checked3 = 0
    for block in parts.blocks:
        if len(block) < 2:
            continue  # trivial component: no qualified edge to anchor the lemma
        subsets: list[tuple[str, ...]]
        if 2 ** len(block) <= _SUBSET_ENUM_LIMIT:
            subsets = []
            for mask in range(1, 2 ** len(block)):
                subsets.append(
                    tuple(v for i, v in enumerate(block) if mask >> i & 1)
                )
        else:
            # Boundary cases; intermediate subsets follow by monotonicity.
            subsets = [(v,) for v in block] + [block]
        for names in subsets:
            checked3 += 1
            val = h_given_s(names)
            if not eq(val, L):
                failures3.append((names, f"H({','.join(names)}|S) = {val} != {L}"))
    lemma3 = LemmaResult("component_noise_alignment", checked3, tuple(failures3))

    failures4 = []
    checked4 = 0
    for v, u in inst.unqualified:
        if parts.index_of(v) != parts.index_of(u):
            continue
        checked4 += 1
        val = h([v, u])
        if not eq(val, L):
            failures4.append(((v, u), f"H({v},{u}) = {val} != {L}"))
    lemma4 = LemmaResult("edge_signal_alignment", checked4, tuple(failures4))

    failures5 = []
    checked5 = 0
    # Blocks grouped by qualified component (the sort is stable), so that
    # failures are listed component by component.
    for sub in sorted(unqualified.blocks, key=lambda b: parts.index_of(b[0])):
        for i, v in enumerate(sub):
            for w in sub[i + 1 :]:
                checked5 += 1
                val = h([v, w])
                if not le(val, L):
                    failures5.append(((v, w), f"H({v},{w}) = {val} > {L}"))
    lemma5 = LemmaResult("path_signal_alignment", checked5, tuple(failures5))

    return LemmaAuditReport((lemma1, lemma2, lemma3, lemma4, lemma5))
