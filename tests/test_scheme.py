"""Tests for rank-based scheme verification and alignment analysis."""

import random
from fractions import Fraction

import pytest

from cdskit.cli import run
from cdskit.gf import GfMatrix
from cdskit.instance import CdsInstance, format_instance
from cdskit.scheme import (
    LinearScheme,
    SchemeFormatError,
    VerificationFailedError,
    alignment_report,
    check_signal_alignment,
    format_scheme,
    noise_overlap_dim,
    parse_scheme,
    path_overlap_lower_bound,
    rate_report,
    verify_linear,
)
from cdskit.synthesis import (
    FIG2_PATH_ORDER,
    builtin_example1_instance,
    builtin_fig2_scheme,
    reduce_randomness,
    synthesize_half_rate,
)
from gen import random_feasible_instance, shuffle_scheme


def pad_scheme() -> tuple[CdsInstance, LinearScheme]:
    """One-time pad on a single qualified edge: A1 = s + z, B1 = z."""
    inst = CdsInstance.from_edges([("q", "A1", "B1")])
    sch = LinearScheme(
        2,
        1,
        1,
        {
            "A1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1]])),
            "B1": (GfMatrix.from_rows(2, [[0]]), GfMatrix.from_rows(2, [[1]])),
        },
    )
    return inst, sch


class TestConstruction:
    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            LinearScheme(
                2,
                1,
                1,
                {"A1": (GfMatrix.from_rows(2, [[1], [0]]), GfMatrix.from_rows(2, [[1]]))},
            )

    def test_zero_secret_rejected(self):
        with pytest.raises(ValueError, match="secret"):
            LinearScheme(2, 0, 1, {})

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError, match="GF"):
            LinearScheme(
                3,
                1,
                1,
                {"A1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1]]))},
            )


class TestVerifyLinear:
    def test_one_time_pad(self):
        inst, sch = pad_scheme()
        report = verify_linear(inst, sch)
        assert report.passed
        assert report.edge_verdicts[("A1", "B1")].ok
        assert report.edge_verdicts[("A1", "B1")].rank_delta == 1
        assert report.vertex_verdicts["A1"].secure
        assert report.vertex_verdicts["B1"].secure

    def test_zero_secret_precoding_fails_qualified_edges(self, fig2):
        sch = builtin_fig2_scheme()
        zeroed = LinearScheme(
            sch.p,
            sch.secret_len,
            sch.noise_len,
            {
                v: (GfMatrix.zeros(sch.p, f.rows, f.cols), h)
                for v, (f, h) in sch.matrices.items()
            },
        )
        report = verify_linear(fig2, zeroed)
        assert not report.passed
        for edge, verdict in report.edge_verdicts.items():
            if verdict.kind == "q":
                assert not verdict.ok and verdict.rank_delta == 0
            else:
                assert verdict.ok

    def test_fig2_scheme_passes(self, fig2):
        report = verify_linear(fig2, builtin_fig2_scheme())
        assert report.passed
        for verdict in report.edge_verdicts.values():
            if verdict.kind == "q":
                assert verdict.rank_delta == 4

    def test_missing_vertex_rejected(self, fig2):
        _, sch = pad_scheme()
        with pytest.raises(ValueError, match="missing"):
            verify_linear(fig2, sch)

    def test_rank_checks_invariant_under_disguise(self):
        rng = random.Random(99)
        for _ in range(20):
            inst = random_feasible_instance(rng, max_vertices=6)
            sch = synthesize_half_rate(inst)
            disguised = shuffle_scheme(rng, sch)
            a = verify_linear(inst, sch)
            b = verify_linear(inst, disguised)
            assert a.passed and b.passed
            assert a.edge_verdicts == b.edge_verdicts


class TestNoiseOverlap:
    def test_fig2_first_edge_shares_four(self):
        sch = builtin_fig2_scheme()
        assert noise_overlap_dim(sch, "A1", "B1") == 4

    def test_identical_noise(self):
        _, sch = pad_scheme()
        assert noise_overlap_dim(sch, "A1", "B1") == 1

    def test_disjoint_windows(self):
        sch = LinearScheme(
            2,
            1,
            4,
            {
                "A1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1, 0, 0, 0]])),
                "B1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[0, 0, 1, 0]])),
            },
        )
        assert noise_overlap_dim(sch, "A1", "B1") == 0

    def test_unknown_vertex(self):
        _, sch = pad_scheme()
        with pytest.raises(ValueError, match="no vertex"):
            noise_overlap_dim(sch, "A1", "B9")


class TestSignalAlignment:
    def test_trivial_kernel_is_vacuous(self):
        sch = LinearScheme(
            2,
            1,
            2,
            {
                "A1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1, 0]])),
                "B1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[0, 1]])),
            },
        )
        ok, witness = check_signal_alignment(sch, "A1", "B1")
        assert ok and witness is None

    def test_same_vertex_aligns_with_itself(self):
        sch = builtin_fig2_scheme()
        for v in sch.vertices:
            assert check_signal_alignment(sch, v, v)[0]

    def test_fig2_shared_window_edge(self):
        # B1 and A3 share z4, z5 and carry the same secret rows there.
        sch = builtin_fig2_scheme()
        assert check_signal_alignment(sch, "B1", "A3")[0]

    def test_violation_reports_combination(self):
        # Same noise on both sides but different secret rows leaks s.
        sch = LinearScheme(
            2,
            1,
            1,
            {
                "A1": (GfMatrix.from_rows(2, [[1]]), GfMatrix.from_rows(2, [[1]])),
                "B1": (GfMatrix.from_rows(2, [[0]]), GfMatrix.from_rows(2, [[1]])),
            },
        )
        ok, witness = check_signal_alignment(sch, "A1", "B1")
        assert not ok
        x, y = witness
        assert x == (1,) and y == (1,)


class TestPathOverlap:
    def test_single_edge_path(self):
        sch = builtin_fig2_scheme()
        assert path_overlap_lower_bound(sch, ["A1", "B1"]) == 4

    def test_fig2_qualified_path_bound_is_zero(self):
        # Five overlaps of 4 inside signals of length 5: 20 - 4*5 = 0.
        sch = builtin_fig2_scheme()
        assert path_overlap_lower_bound(sch, FIG2_PATH_ORDER) == 0

    def test_identical_noise_spaces_keep_full_overlap(self):
        matrices = {
            v: (
                GfMatrix.from_rows(3, [[1], [0]]),
                GfMatrix.from_rows(3, [[1, 0], [0, 1]]),
            )
            for v in ("A1", "B1", "A2", "B2")
        }
        sch = LinearScheme(3, 1, 2, matrices)
        assert path_overlap_lower_bound(sch, ["A1", "B1", "A2", "B2"]) == 2

    def test_unequal_lengths_rejected(self):
        inst, sch = pad_scheme()
        bigger = dict(sch.matrices)
        bigger["B1"] = (
            GfMatrix.from_rows(2, [[0], [0]]),
            GfMatrix.from_rows(2, [[1], [0]]),
        )
        sch2 = LinearScheme(2, 1, 1, bigger)
        with pytest.raises(ValueError, match="length"):
            path_overlap_lower_bound(sch2, ["A1", "B1"])

    def test_adjacency_checked_against_instance(self, fig2):
        sch = builtin_fig2_scheme()
        with pytest.raises(ValueError, match="not adjacent"):
            path_overlap_lower_bound(sch, ["A1", "A2"], fig2)

    def test_unknown_vertex(self):
        sch = builtin_fig2_scheme()
        with pytest.raises(ValueError, match="no vertex X9"):
            path_overlap_lower_bound(sch, ["A1", "X9"])

    def test_bound_never_exceeds_true_intersection(self):
        # Cross-check the chain bound against iterated intersections.
        from cdskit.gf import rowspace_intersection_basis

        rng = random.Random(7)
        for _ in range(30):
            inst = random_feasible_instance(rng, max_vertices=6)
            sch = shuffle_scheme(rng, synthesize_half_rate(inst))
            path = list(sch.vertices)[:3]
            if len(path) < 3:
                continue
            common = sch.matrices[path[0]][1]
            for v in path[1:]:
                common = rowspace_intersection_basis(common, sch.matrices[v][1])
            assert path_overlap_lower_bound(sch, path) <= common.rows


class TestAlignmentReport:
    def test_fig2_report(self, fig2):
        sch = builtin_fig2_scheme()
        report = alignment_report(fig2, sch)
        assert set(report.noise_overlaps.values()) == {4}
        assert all(report.signal_alignment.values())
        assert path_overlap_lower_bound(sch, FIG2_PATH_ORDER, fig2) == 0

    def test_synthesized_scheme_overlaps_equal_secret_len(self):
        inst = builtin_example1_instance()
        sch = synthesize_half_rate(inst)
        report = alignment_report(inst, sch)
        assert set(report.noise_overlaps.values()) == {1}
        assert all(report.signal_alignment.values())

    def test_empty_instance(self):
        inst = CdsInstance((), (), (), True)
        sch = LinearScheme(2, 1, 0, {})
        report = alignment_report(inst, sch)
        assert report.noise_overlaps == {} and report.signal_alignment == {}


def extra_signal_scheme() -> tuple[CdsInstance, LinearScheme]:
    """A rate-1/2 scheme on two qualified edges, plus a 3-row signal C9
    on a vertex the instance lacks, which verification ignores."""
    inst = CdsInstance.from_edges(
        [("q", "A1", "B1"), ("u", "A1", "B2"), ("u", "A2", "B1"), ("q", "A2", "B2")]
    )
    rows = {"A1": (1, [1, 0]), "A2": (1, [0, 1]), "B1": (2, [1, 0]), "B2": (2, [0, 1])}
    matrices = {
        v: (GfMatrix.from_rows(3, [[f]], 1), GfMatrix.from_rows(3, [h], 2))
        for v, (f, h) in rows.items()
    }
    matrices["C9"] = (
        GfMatrix.from_rows(3, [[1], [0], [0]], 1),
        GfMatrix.from_rows(3, [[0, 0], [1, 0], [0, 1]], 2),
    )
    return inst, LinearScheme(3, 1, 2, matrices)


class TestRateReport:
    def test_fig2_rates(self, fig2):
        report = rate_report(fig2, builtin_fig2_scheme(), converse=Fraction(5, 12))
        assert report.rate == Fraction(2, 5)
        assert report.randomness_rate == Fraction(4, 9)
        assert report.bounds == (Fraction(2, 5), Fraction(5, 12))

    def test_example1_after_reduction(self):
        inst = builtin_example1_instance()
        sch = reduce_randomness(inst, synthesize_half_rate(inst))
        report = rate_report(inst, sch)
        assert report.rate == Fraction(1, 2)
        assert report.randomness_rate == Fraction(1, 2)
        assert report.bounds == (Fraction(1, 2), Fraction(1, 2))

    def test_pad_rate(self):
        for inst, sch in (pad_scheme(), extra_signal_scheme()):
            report = rate_report(inst, sch)
            assert report.rate == Fraction(1, 2)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_no_qualified_edge_rejected(self, rows):
        # Both schemes verify, since nothing must decode.  Empty signals
        # used to divide by zero, and 1-symbol zero signals under a
        # 3-symbol secret to report rate 3/2 above the bound 1/2.
        inst = CdsInstance.from_edges([("u", "A1", "B1")])
        zero = (GfMatrix.zeros(2, rows, 3), GfMatrix.zeros(2, rows, 0))
        sch = LinearScheme(2, 3, 0, {"A1": zero, "B1": zero})
        assert verify_linear(inst, sch).passed
        with pytest.raises(ValueError, match="requires an instance with a qualified edge"):
            rate_report(inst, sch)

    def test_unverified_scheme_rejected(self, fig2):
        sch = builtin_fig2_scheme()
        broken = dict(sch.matrices)
        _, h = broken["A1"]
        # All-ones secret rows on A1 leak on its unqualified edges.
        broken["A1"] = (GfMatrix.from_rows(2, [[1] * 4] * 5), h)
        sch2 = LinearScheme(2, 4, 9, broken)
        assert not verify_linear(fig2, sch2).passed
        with pytest.raises(VerificationFailedError):
            rate_report(fig2, sch2)


class TestSchemeFiles:
    def test_roundtrip_fig2(self):
        sch = builtin_fig2_scheme()
        assert parse_scheme(format_scheme(sch)) == sch

    def test_roundtrip_synthesized(self):
        inst = builtin_example1_instance()
        sch = synthesize_half_rate(inst)
        assert parse_scheme(format_scheme(sch)) == sch

    def test_header_required(self):
        with pytest.raises(SchemeFormatError, match="header"):
            parse_scheme("field 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# a\n\n# b\ncds-scheme v2\nfield 2\n", "line 4: expected header 'cds-scheme v1'"),
            ("cds-scheme v1 extra\nfield 2\n", "line 1: expected header 'cds-scheme v1'"),
            ("cds-scheme v2\nfield 2\n", "line 1: expected header 'cds-scheme v1'"),
            ("cds-schemev1\nfield 2\n", "line 1: expected header 'cds-scheme v1'"),
            ("# only a comment\n\n", "line 1: missing 'cds-scheme v1' header"),
        ],
    )
    def test_wrong_header_cited_on_its_line(self, fig2, tmp_path, capsys, text, message):
        with pytest.raises(SchemeFormatError, match=message):
            parse_scheme(text)
        inst, bad = tmp_path / "fig2.cds", tmp_path / "bad.scheme"
        inst.write_text(format_instance(fig2))
        bad.write_text(text)
        assert run(["verify", str(inst), str(bad)]) == 2
        assert capsys.readouterr().err == f"cds: error: {bad}: {message}\n"

    @pytest.mark.parametrize("header", ["cds-scheme   v1", "cds-scheme\tv1", "  cds-scheme v1 "])
    def test_header_read_as_tokens(self, fig2, tmp_path, capsys, header):
        # The header splits into tokens like the keyword lines and the
        # instance header: any run of blanks separates them.
        text = format_scheme(builtin_fig2_scheme())
        assert text.startswith("cds-scheme v1\n")
        spaced = text.replace("cds-scheme v1", header, 1)
        assert parse_scheme(spaced) == parse_scheme(text)
        inst = tmp_path / "fig2.cds"
        inst.write_text(format_instance(fig2))
        outputs = []
        for name, body in (("plain.scheme", text), ("spaced.scheme", spaced)):
            (tmp_path / name).write_text(body)
            code = run(["verify", str(inst), str(tmp_path / name)])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0][0] == 0 and outputs[0] == outputs[1]

    def test_residue_range_checked(self):
        text = "cds-scheme v1\nfield 2\nsecret 1\nnoise 1\nsignal A1 1\nF: 2 | H: 0\n"
        with pytest.raises(SchemeFormatError, match="residues"):
            parse_scheme(text)

    def test_row_count_mismatch(self):
        text = "cds-scheme v1\nfield 2\nsecret 1\nnoise 1\nsignal A1 2\nF: 1 | H: 0\n"
        with pytest.raises(SchemeFormatError, match="missing matrix rows"):
            parse_scheme(text)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("secret 0\nnoise 0\n", "line 3: secret length must be at least 1"),
            ("secret 1\nnoise -1\n", "line 4: noise length cannot be negative"),
            ("secret 1\nnoise 1\nsignal A1 1\nF: 1 0 | H: 1\n", "line 6: expected 1 secret"),
            ("secret 1\nnoise 1\nsignal A1 1\nF: 1 | H:\n", "line 6: expected 1 secret"),
            ("secret 1\nnoise 1\nsignal A1 1\nF: 2 | H: 1\n", "line 6: residues"),
        ],
    )
    def test_checks_precede_the_scheme(self, monkeypatch, body, message):
        # LinearScheme checks the lengths and each block's field and shape;
        # parse_scheme builds every block over its own field with one row
        # per line, and checks the rest on the offending line before it
        # builds the scheme, so no scheme is built from a bad file.
        import cdskit.scheme

        built = []

        def spy(*args):
            built.append(args)
            return LinearScheme(*args)

        monkeypatch.setattr(cdskit.scheme, "LinearScheme", spy)
        with pytest.raises(SchemeFormatError, match=message):
            parse_scheme("cds-scheme v1\nfield 2\n" + body)
        assert built == []
        parse_scheme("cds-scheme v1\nfield 2\nsecret 1\nnoise 1\nsignal A1 0\n")
        assert len(built) == 1

    def test_non_prime_field_rejected_with_line(self):
        text = "cds-scheme v1\n# GF(4) is not a prime field\nfield 4\nsecret 1\nnoise 0\n"
        with pytest.raises(SchemeFormatError, match="line 3: modulus 4 must be a prime"):
            parse_scheme(text)

    def test_negative_row_count_rejected_with_line(self):
        text = "cds-scheme v1\nfield 2\nsecret 1\nnoise 1\nsignal A1 -1\n"
        with pytest.raises(SchemeFormatError, match="line 5: row count cannot be negative"):
            parse_scheme(text)

    def test_zero_secret_rejected_with_line(self):
        text = "cds-scheme v1\nfield 2\nsecret 0\nnoise 1\n"
        with pytest.raises(SchemeFormatError, match="secret length must be at least 1") as err:
            parse_scheme(text)
        assert err.value.line == 3

    def test_negative_noise_rejected_with_line(self):
        text = "cds-scheme v1\n\nfield 2\nsecret 1\nnoise -1\nsignal A1 1\nF: 1 | H:\n"
        with pytest.raises(SchemeFormatError, match="noise length cannot be negative") as err:
            parse_scheme(text)
        assert err.value.line == 5

    def test_huge_prime_field_rejected_without_trial_division(self):
        # 10^18 + 3 is prime: trial division up to its square root would
        # run for hours, so the range check has to come first.
        text = "cds-scheme v1\nfield 1000000000000000003\nsecret 1\nnoise 0\n"
        with pytest.raises(SchemeFormatError, match="line 2: modulus") as err:
            parse_scheme(text)
        assert err.value.line == 2

    def test_noiseless_scheme_roundtrip(self):
        sch = LinearScheme(
            3, 1, 0, {"A1": (GfMatrix.from_rows(3, [[2]]), GfMatrix.zeros(3, 1, 0))}
        )
        assert parse_scheme(format_scheme(sch)) == sch
