"""Tests for the exhaustive enumeration oracle and the lemma audit."""

import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from cdskit.gf import GfMatrix
from cdskit.instance import CdsInstance
from cdskit.oracle import (
    BudgetError,
    SchemeTable,
    _add_mod,
    _grid,
    check_correct,
    check_secure,
    joint_entropy,
    joint_rank,
    lemma_audit,
    tabulate,
)
from cdskit.scheme import LinearScheme, verify_linear
from cdskit.synthesis import (
    builtin_example1_instance,
    builtin_fig2_instance,
    builtin_fig2_scheme,
    synthesize_half_rate,
)
from gen import random_feasible_instance, random_scheme


def pad_scheme() -> LinearScheme:
    return LinearScheme(
        2,
        1,
        1,
        {
            "A1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1]])),
            "B1": (GfMatrix.from_rows(2, [[0]]), GfMatrix.from_rows(2, [[1]])),
        },
    )


@pytest.fixture(scope="module")
def fig2_table():
    return tabulate(builtin_fig2_scheme())


class TestTabulate:
    def test_pad_table_has_four_rows(self):
        table = tabulate(pad_scheme())
        assert table.size == 4
        # A1 = s + z runs through 0,1,1,0 for (s,z) = 00,01,10,11.
        assert table.values["A1"].tolist() == [0, 1, 1, 0]
        assert table.values["B1"].tolist() == [0, 1, 0, 1]

    def test_fig2_table_size(self, fig2_table):
        assert fig2_table.size == 2**13

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            tabulate(builtin_fig2_scheme(), budget=2**12)

    def test_zero_secret_rejected_at_construction(self):
        with pytest.raises(ValueError, match="secret"):
            LinearScheme(2, 0, 1, {})
        with pytest.raises(ValueError, match="secret"):
            SchemeTable.from_functions(2, 0, 1, {})

    def test_tables_compare_by_content(self, fig2_table):
        again = tabulate(builtin_fig2_scheme())
        assert again == fig2_table and not again != fig2_table
        values = {**again.values, "A1": again.values["A1"].copy()}
        assert dataclasses.replace(again, values=values) == fig2_table
        values["A1"][5] ^= 1
        assert dataclasses.replace(again, values=values) != fig2_table
        with pytest.raises(TypeError, match="unhashable"):
            hash(fig2_table)

    @pytest.mark.parametrize(
        "fn, message",
        [
            (lambda s, z: z * (1 + s[0]), "changes length"),
            (lambda s, z: (s[0] - z[0],), "produced a non-residue"),
            (lambda s, z: (s[0] + 2 * z[0],), "produced a non-residue"),
            (lambda s, z: (np.int64(s[0] - z[0]),), "produced a non-residue"),
            # Both faults: the width is checked first.
            (lambda s, z: (-1,) * (1 + s[0]), "changes length"),
        ],
        ids=["length", "negative", "past-p", "numpy", "both"],
    )
    def test_function_values_are_checked(self, fn, message):
        with pytest.raises(ValueError, match=f"signal u {message}"):
            SchemeTable.from_functions(2, 1, 1, {"u": fn})

    @pytest.mark.parametrize("name", ["S", "Z"])
    def test_signal_names_s_and_z_are_reserved(self, name):
        # A signal named S would be looked up as the secret: the pair of
        # two copies of z would read as (s, z), which leaks.
        z = (GfMatrix.from_rows(2, [[0]]), GfMatrix.from_rows(2, [[1]]))
        message = f"signal name '{name}' is reserved"
        with pytest.raises(ValueError, match=message):
            tabulate(LinearScheme(2, 1, 1, {name: z, "u": z}))
        with pytest.raises(ValueError, match=message):
            SchemeTable.from_functions(2, 1, 1, {"u": lambda s, z: z, name: lambda s, z: z})


class TestAddMod:
    """``_add_mod`` against ``(a + b) % p``, in value and in type."""

    @staticmethod
    def check(a: np.ndarray, b: np.ndarray, p: int) -> None:
        residue = np.min_scalar_type(2 * p - 2)
        a, b = a.astype(residue), b.astype(residue)
        got = _add_mod(a[:, None], b[None, :], p)
        want = (a.astype(np.int64)[:, None] + b.astype(np.int64)[None, :]) % p
        assert got.dtype == residue
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("p", [2, 3, 127, 128, 129, 257])
    def test_every_residue_pair(self, p):
        residues = np.arange(p)
        self.check(residues, residues, p)

    def test_boundary_and_sampled_residues_of_a_16_bit_prime(self):
        p = 65521
        edges = np.array([0, 1, 2, p // 2, p // 2 + 1, p - 2, p - 1])
        sample = np.random.default_rng(65521).integers(0, p, 4000)
        values = np.concatenate([edges, sample])
        self.check(values, values, p)


class TestCheckCorrect:
    def test_pad_decodes(self):
        table = tabulate(pad_scheme())
        assert check_correct(table, "A1", "B1")

    def test_duplicate_signal_does_not_decode(self):
        sch = LinearScheme(
            2,
            1,
            1,
            {
                "A1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1]])),
                "B1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1]])),
            },
        )
        table = tabulate(sch)
        assert not check_correct(table, "A1", "B1")

    def test_fig2_middle_edge_decodes(self, fig2_table):
        assert check_correct(fig2_table, "B1", "A2")


class TestCheckSecure:
    def test_identical_pads_leak_nothing(self):
        sch = LinearScheme(
            2,
            1,
            1,
            {
                "A1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1]])),
                "B1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1]])),
            },
        )
        table = tabulate(sch)
        assert check_secure(table, "A1", "B1")

    def test_plain_secret_leaks(self):
        sch = LinearScheme(
            2,
            1,
            1,
            {
                "A1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[0]])),
                "B1": (GfMatrix.from_rows(2, [[0]]), GfMatrix.from_rows(2, [[1]])),
            },
        )
        table = tabulate(sch)
        assert not check_secure(table, "A1", "B1")

    def test_fig2_unqualified_edge_secure(self, fig2_table):
        assert check_secure(fig2_table, "A2", "B3")


class TestJointEntropy:
    def test_secret_entropy(self, fig2_table):
        assert joint_entropy(fig2_table, ["S"]) == 4.0

    def test_secret_and_noise_are_independent(self, fig2_table):
        assert joint_entropy(fig2_table, ["S", "Z"]) == 13.0

    def test_single_signal_is_full_length(self, fig2_table):
        assert joint_entropy(fig2_table, ["A1"]) == 5.0

    def test_matches_rank_on_every_pair(self, fig2_table):
        for pair in itertools.combinations(fig2_table.vertices, 2):
            assert joint_entropy(fig2_table, pair) == joint_rank(fig2_table, pair)

    def test_monotone_and_submodular_spot_checks(self, fig2_table):
        names = ["S", "A1", "B1", "A2"]
        for r in range(1, len(names)):
            for sub in itertools.combinations(names, r):
                h_sub = joint_entropy(fig2_table, sub)
                h_all = joint_entropy(fig2_table, names)
                assert h_sub <= h_all
        # Subadditivity, plus submodularity on overlapping pairs.
        for a, b in itertools.combinations(["A1", "B1", "A2", "B2"], 2):
            assert joint_entropy(fig2_table, [a, b]) <= joint_entropy(
                fig2_table, [a]
            ) + joint_entropy(fig2_table, [b])
        for a, b, c in itertools.combinations(["S", "A1", "B1", "A2"], 3):
            assert joint_entropy(fig2_table, [a, b]) + joint_entropy(
                fig2_table, [b, c]
            ) >= joint_entropy(fig2_table, [a, b, c]) + joint_entropy(fig2_table, [b])

    def test_empty_subset_rejected(self, fig2_table):
        with pytest.raises(ValueError, match="nonempty"):
            joint_entropy(fig2_table, [])

    def test_secret_adds_nothing_to_decodable_pairs(self, fig2_table):
        inst = builtin_fig2_instance()
        for v, u in inst.qualified:
            with_s = joint_entropy(fig2_table, ["S", v, u])
            without = joint_entropy(fig2_table, [v, u])
            assert with_s == without

    def test_nonlinear_table_entropy(self):
        # v = s AND z over GF(2): P(v=1) = 1/4.
        table = SchemeTable.from_functions(
            2, 1, 1, {"A1": lambda s, z: (s[0] * z[0],)}
        )
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert abs(joint_entropy(table, ["A1"]) - expected) < 1e-12

    def test_nonlinear_leak_detected(self):
        # v = s AND z is correlated with s even though H(v|s=0) = 0.
        table = SchemeTable.from_functions(
            2, 1, 1, {"A1": lambda s, z: (s[0] * z[0],), "B1": lambda s, z: (0,)}
        )
        assert not check_secure(table, "A1", "B1")
        assert not check_correct(table, "A1", "B1")


@pytest.mark.parametrize("kind", ["linear", "functions"])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: check_correct(t, "A1", "X9"), "unknown variable X9"),
        (lambda t: check_secure(t, "X9", "A1"), "unknown variable X9"),
        (lambda t: joint_rank(t, ["S", "X9"]), "unknown variable X9"),
        (lambda t: joint_rank(t, []), "subset must be nonempty"),
        (lambda t: joint_entropy(t, ["X9", "A1"]), "unknown variable X9"),
        (lambda t: joint_entropy(t, []), "subset must be nonempty"),
    ],
    ids=["correct", "secure", "rank", "rank-empty", "entropy", "entropy-empty"],
)
def test_unknown_names_rejected(kind, call, message):
    if kind == "linear":
        table = tabulate(pad_scheme())
    else:
        table = SchemeTable.from_functions(
            2, 1, 1, {"A1": lambda s, z: ((s[0] + z[0]) % 2,), "B1": lambda s, z: z}
        )
    with pytest.raises(ValueError, match=message):
        call(table)


class TestOracleEquivalence:
    def test_verdicts_match_rank_checks(self):
        rng = random.Random(2024)
        agree = 0
        for _ in range(120):
            n_vertices = rng.randrange(2, 5)
            names = [f"v{i}" for i in range(n_vertices)]
            edges = []
            for a, b in itertools.combinations(names, 2):
                roll = rng.random()
                if roll < 0.4:
                    edges.append(("q", a, b))
                elif roll < 0.8:
                    edges.append(("u", a, b))
            if not edges:
                continue
            inst = CdsInstance.from_edges(edges, bipartite=False)
            p = rng.choice([2, 3, 5])
            sch = random_scheme(
                rng, inst.vertices, p, rng.randrange(1, 3), rng.randrange(0, 4)
            )
            report = verify_linear(inst, sch)
            table = tabulate(sch)
            for kind, (v, u) in inst.edges:
                verdict = report.edge_verdicts[(v, u)]
                if kind == "q":
                    assert verdict.ok == check_correct(table, v, u)
                else:
                    assert verdict.ok == check_secure(table, v, u)
                agree += 1
        assert agree > 100

    def test_wide_signals_match_rank_checks(self):
        # 70-row GF(2) signals have no int64 base-2 code.  Every row that
        # matters comes first: a sends z1 and z2, b sends s + z1 and c
        # sends s + z2, so {a, b} decodes and {a, c} leaks.
        rows, noise = 70, 3

        def signal(first: list[list[int]]) -> tuple[GfMatrix, GfMatrix]:
            f = [r[:1] for r in first] + [[0]] * (rows - len(first))
            h = [r[1:] for r in first] + [[0, 0, 1]] * (rows - len(first))
            return GfMatrix.from_rows(2, f), GfMatrix.from_rows(2, h)

        sch = LinearScheme(2, 1, noise, {
            "a": signal([[0, 1, 0, 0], [0, 0, 1, 0]]),
            "b": signal([[1, 1, 0, 0]]),
            "c": signal([[1, 0, 1, 0]]),
        })
        inst = CdsInstance.from_edges([("q", "a", "b"), ("u", "a", "c")], bipartite=False)
        report = verify_linear(inst, sch)
        table = tabulate(sch)
        assert report.edge_verdicts[("a", "b")].ok
        assert not report.edge_verdicts[("a", "c")].ok
        assert check_correct(table, "a", "b")
        assert not check_secure(table, "a", "c")
        assert joint_entropy(table, ["a"]) == 3


def half_rate_scheme(components: int) -> LinearScheme:
    """The rate-1/2 construction over GF(3) components: vertex w{m}_{i}
    of component m sends s + i*z_m, a one-symbol code of alphabet 3."""
    noise = np.eye(components, dtype=np.int64)
    matrices = {
        f"w{m}_{i}": (GfMatrix.from_rows(3, [[1]]), GfMatrix(3, i * noise[m : m + 1]))
        for m in range(components)
        for i in (1, 2)
    }
    return LinearScheme(3, 1, components, matrices)


def half_rate_functions(components: int) -> dict:
    """:func:`half_rate_scheme` as Python signal functions."""
    return {
        f"w{m}_{i}": lambda s, z, m=m, i=i: ((s[0] + i * z[m]) % 3,)
        for m in range(components)
        for i in (1, 2)
    }


class TestMemory:
    def test_half_rate_table_takes_one_byte_per_realization(self):
        # 11 components: 22 vertices over 3^12 realizations were 89 MiB
        # of int64 codes.
        sch = half_rate_scheme(11)
        tracemalloc.start()
        try:
            table = tabulate(sch)
            assert check_secure(table, "w0_1", "w1_2")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_byte_each = len(sch.matrices) * table.size
        assert table.size == 3**12
        assert sum(codes.nbytes for codes in table.values.values()) <= one_byte_each
        assert peak <= 2 * one_byte_each


class TestPairGrid:
    """A pair of signals is counted on the secret and the noise digits it
    reads, not on the whole table."""

    def test_pairs_of_a_3_to_the_12_table_count_27_and_9_rows(self):
        table = tabulate(half_rate_scheme(11))
        cross, inner = ("w0_1", "w1_2"), ("w3_1", "w3_2")
        assert _grid(table, cross)[0][0].size == 3**3
        assert _grid(table, inner)[0][0].size == 3**2
        tracemalloc.start()
        try:
            correct, secure = check_correct(table, *cross), check_secure(table, *cross)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not correct and secure
        # One byte per realization of one signal is 519 KiB; a 27-row
        # grid takes a few hundred bytes plus NumPy's fixed overhead.
        assert peak < 8 * 1024 < table.size
        assert check_correct(table, *inner) and not check_secure(table, *inner)

    def test_secret_and_noise_are_views_of_one_arange(self):
        table = tabulate(half_rate_scheme(11))
        s, secrets, s_reads = table.column("S")
        z, noises, z_reads = table.column("Z")
        assert s.shape == z.shape == (3, 3**11) and s.strides[1] == z.strides[0] == 0
        assert (secrets, s_reads, noises, z_reads) == (3, 0, 3**11, 2**11 - 1)
        tracemalloc.start()
        try:
            (secret, _), _ = _grid(table, ["S", "w0_1"])
            entropy = joint_entropy(table, ["S", "w0_1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # w0_1 = s + z_0 reads one digit: a 9-row grid, and no array as
        # long as the table's 3^12 rows (the rank takes a few KiB).
        assert secret.tolist() == [[0, 0, 0], [1, 1, 1], [2, 2, 2]] and entropy == 2
        assert peak < 64 * 1024 < table.size

    def test_joint_rank_checks_names_without_codes(self):
        # 2^20 realizations, 2^18 noise values: Z's codes would take
        # 256 KiB in the narrowest type, and its precoding 18 rows.
        noise = np.eye(2, 18, dtype=np.int64)
        sch = LinearScheme(2, 2, 18, {
            "a": (GfMatrix.identity(2, 2), GfMatrix(2, noise)),
            "b": (GfMatrix.identity(2, 2), GfMatrix(2, noise[:, ::-1])),
        })
        table = tabulate(sch)
        assert table.size == 1 << 20
        tracemalloc.start()
        try:
            ranks = joint_rank(table, ["Z", "a"]), joint_rank(table, ["a", "b"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ranks == (20, 4)
        assert peak < 64 * 1024

    def test_a_table_built_from_its_fields_reads_the_same_grids(self):
        # The read digits follow from the scheme, not from how the table
        # was built, and take no part in equality.
        made = tabulate(half_rate_scheme(11))
        table = SchemeTable(3, 1, 11, made.signal_lens, made.values, made.scheme)
        assert table == made and repr(table) == repr(made)
        assert _grid(table, ("w0_1", "w1_2"))[0][0].size == 3**3
        assert _grid(table, ("w3_1", "w3_2"))[0][0].size == 3**2

    def test_function_table_matches_the_linear_grids(self):
        # Every signal of a table of functions reads every digit, so its
        # checks count the whole table; the linear table's count grids.
        components = 3
        linear = tabulate(half_rate_scheme(components))
        table = SchemeTable.from_functions(3, 1, components, half_rate_functions(components))
        assert table.scheme is None and table.values.keys() == linear.values.keys()
        for v, u in itertools.combinations(table.vertices, 2):
            same = v.split("_")[0] == u.split("_")[0]
            assert check_correct(table, v, u) == check_correct(linear, v, u) == same
            assert check_secure(table, v, u) == check_secure(linear, v, u) == (not same)
            for names in ([v, u], ["S", v], ["S", v, u]):
                want = joint_entropy(linear, names)
                assert joint_entropy(table, names) == pytest.approx(want, abs=1e-12)


# Example 1's rate-1/2 scheme over GF(5), as synthesized: vertex v sends
# s + a z1 + b z2 with these (a, b).
EXAMPLE1_NOISE = {
    "A1": (1, 0), "A2": (2, 0), "A3": (3, 0), "A4": (0, 1),
    "B1": (3, 0), "B2": (4, 0), "B3": (2, 0), "B4": (0, 2),
}


def example1_functions(constant=()) -> dict:
    """Example 1's scheme as Python signal functions; the vertices in
    ``constant`` send 0 instead."""

    def signal(a, b):
        return lambda s, z: ((s[0] + a * z[0] + b * z[1]) % 5,)

    return {
        v: (lambda s, z: (0,)) if v in constant else signal(a, b)
        for v, (a, b) in EXAMPLE1_NOISE.items()
    }


class TestLemmaAudit:
    def test_synthesized_example1_passes_all(self):
        inst = builtin_example1_instance()
        sch = synthesize_half_rate(inst)
        report = lemma_audit(inst, tabulate(sch), 1)
        assert report.passed
        for name in (
            "signal_size",
            "edge_noise_alignment",
            "component_noise_alignment",
            "edge_signal_alignment",
            "path_signal_alignment",
        ):
            assert report.lemma(name).passed

    def test_fig2_scheme_violates_precondition(self, fig2_table):
        with pytest.raises(ValueError, match="rate 1/2"):
            lemma_audit(builtin_fig2_instance(), fig2_table, 4)

    def test_three_vertex_pad(self):
        # a = s + z decodes with b = z; c = 0 is an isolated pad partner.
        inst = CdsInstance.from_edges(
            [("q", "a", "b"), ("u", "a", "c"), ("u", "b", "c")], bipartite=False
        )
        sch = LinearScheme(
            2,
            1,
            1,
            {
                "a": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1]])),
                "b": (GfMatrix.from_rows(2, [[0]]), GfMatrix.from_rows(2, [[1]])),
                "c": (GfMatrix.from_rows(2, [[0]]), GfMatrix.from_rows(2, [[0]])),
            },
        )
        assert verify_linear(inst, sch).passed
        report = lemma_audit(inst, tabulate(sch), 1)
        assert report.passed
        assert report.lemma("signal_size").checked == 2
        assert report.lemma("edge_noise_alignment").checked == 1
        # c sits in its own trivial component: both unqualified edges cross
        # components and there is no in-component unqualified pair.
        assert report.lemma("edge_signal_alignment").vacuous
        assert report.lemma("path_signal_alignment").vacuous

    def test_detects_broken_identities(self):
        # B1 = s (not a rate-1/2 scheme in spirit): lemma 1 must fail.
        inst = CdsInstance.from_edges(
            [("q", "A1", "B1"), ("u", "A1", "B2"), ("u", "A2", "B1"), ("u", "A2", "B2")]
        )
        sch = LinearScheme(
            2,
            1,
            1,
            {
                "A1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1]])),
                "B1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[0]])),
                "A2": (GfMatrix.from_rows(2, [[0]]), GfMatrix.from_rows(2, [[1]])),
                "B2": (GfMatrix.from_rows(2, [[0]]), GfMatrix.from_rows(2, [[1]])),
            },
        )
        report = lemma_audit(inst, tabulate(sch), 1)
        assert not report.passed
        assert not report.lemma("signal_size").passed

    def test_scheme_audits_like_its_table(self):
        rng = random.Random(4242)
        for _ in range(10):
            inst = random_feasible_instance(rng, max_vertices=8)
            sch = synthesize_half_rate(inst)
            assert lemma_audit(inst, sch, 1) == lemma_audit(inst, tabulate(sch), 1)

    def test_scheme_missing_a_vertex_is_rejected(self):
        inst = builtin_example1_instance()
        sch = synthesize_half_rate(inst)
        partial = LinearScheme(5, 1, 2, {v: m for v, m in sch.matrices.items() if v != "B4"})
        with pytest.raises(ValueError, match="scheme is missing vertex B4"):
            lemma_audit(inst, partial, 1)

    def test_counts_path_audits_example1_like_the_linear_table(self):
        inst = builtin_example1_instance()
        sch = synthesize_half_rate(inst)
        noise = {v: tuple(h.data[0].tolist()) for v, (_, h) in sch.matrices.items()}
        assert noise == EXAMPLE1_NOISE
        linear = lemma_audit(inst, tabulate(sch), 1)
        table = SchemeTable.from_functions(5, 1, 2, example1_functions())
        assert table.scheme is None
        counted = lemma_audit(inst, table, 1)
        assert linear.passed and counted.passed
        assert [l.checked for l in counted.lemmas] == [l.checked for l in linear.lemmas]

    def test_counts_path_flags_a_constant_signal(self):
        inst = builtin_example1_instance()
        table = SchemeTable.from_functions(5, 1, 2, example1_functions(constant={"A1"}))
        report = lemma_audit(inst, table, 1)
        assert not report.passed
        assert [s for s, _ in report.lemma("signal_size").failures] == [("A1",)]

    def test_random_synthesized_schemes_pass(self):
        rng = random.Random(31337)
        for _ in range(25):
            inst = random_feasible_instance(rng, max_vertices=8)
            sch = synthesize_half_rate(inst)
            report = lemma_audit(inst, tabulate(sch), 1)
            assert report.passed, report
