"""Tests for the instance graph model and the capacity-1/2 condition."""

import itertools
import pickle
import random

import pytest

from cdskit.instance import (
    CdsInstance,
    DegenerateInstanceError,
    InstanceFormatError,
    format_instance,
    half_rate_feasible,
    is_non_degenerate,
    normalize_degenerate,
    parse_instance,
    qualified_components,
    unqualified_components_within,
    unqualified_path,
)
from conftest import FIG2_EDGES


def trail_connects(inst, block, v, u) -> bool:
    """Literal path-based oracle: is there a sequence of distinct
    connecting unqualified edges inside the block visiting both v and u?

    Exhaustive DFS over edge trails; only usable on small instances.
    """
    block = set(block)
    inner = [e for e in inst.unqualified if e[0] in block and e[1] in block]

    def extend(end: str, used: frozenset, visited: frozenset) -> bool:
        if v in visited and u in visited:
            return True
        for edge in inner:
            if edge in used or end not in edge:
                continue
            nxt = edge[1] if edge[0] == end else edge[0]
            if extend(nxt, used | {edge}, visited | {nxt}):
                return True
        return False

    return any(
        extend(b if a == start else a, frozenset([(a, b)]), frozenset([a, b]))
        for start in block
        for a, b in inner
        if start in (a, b)
    )


def brute_force_feasible(inst) -> bool:
    parts = qualified_components(inst)
    for blk in parts.blocks:
        for v, u in inst.qualified:
            if v in blk and trail_connects(inst, blk, v, u):
                return False
    return True


class TestParsing:
    def test_single_edge(self):
        inst = parse_instance("cds-instance v1\nq A1 B1\n")
        assert inst.vertices == ("A1", "B1")
        assert inst.qualified == (("A1", "B1"),)
        assert inst.unqualified == ()

    def test_fig2_file_matches_fixture(self, fig2):
        lines = ["# demo instance", "cds-instance v1"]
        lines += [f"{kind} {v} {u}" for kind, v, u in FIG2_EDGES]
        assert parse_instance("\n".join(lines)) == fig2

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance("cds-instance v1\nq A1 A1\n")
        assert err.value.line == 2
        assert "self-loop" in str(err.value)

    @pytest.mark.parametrize(
        "general, edge, message",
        [
            (False, "q C1 B1", "vertex 'C1' has no side label"),
            (True, "q 1x y", "invalid vertex name '1x'"),
            (True, "q S x", "vertex name 'S' is reserved"),
            (False, "q A2 A2", "self-loop on A2"),
            (False, "q A1 A2", "edge {A1, A2} joins two A-side vertices"),
            (False, "u B1 A1", "duplicate edge {A1, B1}"),
        ],
    )
    def test_parse_and_from_edges_share_messages(self, general, edge, message):
        header = "cds-instance v1" + (" general" if general else "")
        with pytest.raises(InstanceFormatError) as parsed:
            parse_instance(f"# note\n{header}\n\nq A1 B1\n{edge}\n")
        assert parsed.value.line == 5
        assert str(parsed.value).startswith(f"line 5: {message}")
        with pytest.raises(InstanceFormatError) as built:
            CdsInstance.from_edges([("q", "A1", "B1"), tuple(edge.split())], not general)
        assert built.value.line is None
        assert str(parsed.value) == f"line 5: {built.value}"

    def test_each_name_is_checked_once(self, monkeypatch):
        from cdskit import instance

        checked, check = [], instance._check_name

        def spy(name, bipartite, line):
            checked.append(name)
            check(name, bipartite, line)

        monkeypatch.setattr(instance, "_check_name", spy)
        edges = "q A1 B1\nu A1 B2\nq A2 B2\nu B1 A2\n"
        assert parse_instance(f"cds-instance v1\n{edges}").vertices == ("A1", "A2", "B1", "B2")
        assert checked == ["A1", "B1", "B2", "A2"]
        checked.clear()
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(f"cds-instance v1\n{edges}q C1 B1\nq A3 C1\n")
        assert str(err.value).startswith("line 6: vertex 'C1' has no side label")
        assert checked == ["A1", "B1", "B2", "A2", "C1"]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InstanceFormatError, match="duplicate"):
            parse_instance("cds-instance v1\nq A1 B1\nu B1 A1\n")

    def test_bipartite_violation(self):
        with pytest.raises(InstanceFormatError, match="side"):
            parse_instance("cds-instance v1\nq A1 A2\n")

    def test_unknown_side_label(self):
        with pytest.raises(InstanceFormatError, match="side label"):
            parse_instance("cds-instance v1\nq C1 B1\n")

    def test_general_mode_allows_free_names(self):
        inst = parse_instance("cds-instance v1 general\nq left right\nu left mid\n")
        assert not inst.bipartite
        assert inst.vertices == ("left", "mid", "right")

    def test_reserved_names_rejected(self):
        with pytest.raises(InstanceFormatError, match="reserved"):
            parse_instance("cds-instance v1 general\nq S x\n")

    def test_missing_header(self):
        with pytest.raises(InstanceFormatError, match="header"):
            parse_instance("q A1 B1\n")

    def test_edges_computed_once(self, fig2):
        fresh = parse_instance(format_instance(fig2))
        edges = fig2.edges
        assert fig2.edges is edges
        assert [e for _, e in edges] == sorted(fig2.qualified + fig2.unqualified)
        # The cache changes neither equality nor hashing nor pickling.
        assert fresh == fig2 and hash(fresh) == hash(fig2)
        copy = pickle.loads(pickle.dumps(fig2))
        assert copy == fig2 and hash(copy) == hash(fig2) and copy.edges == edges

    def test_roundtrip(self, fig2, example1):
        for inst in (fig2, example1):
            assert parse_instance(format_instance(inst)) == inst

    def test_edge_end_must_be_a_vertex(self):
        with pytest.raises(ValueError, match="edge end 'B2' is not a vertex"):
            CdsInstance(("A1", "B1"), (("A1", "B1"),), (("A1", "B2"),), True)

    def test_repeated_vertex_rejected(self):
        # A repeat would leave an id that no edge touches, so A1 would pass
        # for degenerate although it has an unqualified edge.
        with pytest.raises(ValueError, match="vertex 'A1' is listed twice"):
            CdsInstance(
                ("A1", "B2", "A1", "B1"), (("A1", "B1"),), (("A1", "B2"), ("B1", "B2")), False
            )


class TestNonDegenerate:
    def test_fig2_is_non_degenerate(self, fig2):
        ok, violators = is_non_degenerate(fig2)
        assert ok and violators == ()

    def test_single_qualified_edge(self):
        inst = CdsInstance.from_edges([("q", "A1", "B1")])
        ok, violators = is_non_degenerate(inst)
        assert not ok
        assert violators == ("A1", "B1")

    def test_partial_coverage(self):
        inst = CdsInstance.from_edges([("q", "A1", "B1"), ("u", "A1", "B2")])
        ok, violators = is_non_degenerate(inst)
        assert not ok
        assert violators == ("B1",)


class TestNormalize:
    def test_non_degenerate_unchanged(self, fig2):
        normalized, eliminated = normalize_degenerate(fig2)
        assert normalized == fig2 and eliminated == ()

    def test_single_edge_collapses(self):
        inst = CdsInstance.from_edges([("q", "A1", "B1")])
        normalized, eliminated = normalize_degenerate(inst)
        assert normalized.vertices == ()
        assert eliminated == ("A1", "B1")

    def test_cascade_stops_when_unqualified_survives(self):
        inst = CdsInstance.from_edges([("q", "A1", "B1"), ("u", "B1", "A2")])
        normalized, eliminated = normalize_degenerate(inst)
        assert eliminated == ("A1",)
        assert normalized.vertices == ("A2", "B1")
        assert normalized.qualified == ()

    def test_path_of_qualified_edges_goes_in_one_pass(self):
        # A1 and B1 have no unqualified edge from the start; A2/B2 keep
        # each other alive, and A2 loses only its qualified edge.
        inst = CdsInstance.from_edges(
            [("q", "A1", "B1"), ("q", "B1", "A2"), ("u", "A2", "B2")]
        )
        normalized, eliminated = normalize_degenerate(inst)
        assert eliminated == ("A1", "B1")
        assert normalized.vertices == ("A2", "B2")


class TestComponents:
    def test_fig2_single_qualified_component(self, fig2):
        parts = qualified_components(fig2)
        assert parts.blocks == (("A1", "A2", "A3", "B1", "B2", "B3"),)

    def test_no_qualified_edges_all_singletons(self):
        inst = CdsInstance.from_edges([("u", "A1", "B1"), ("u", "A2", "B1")])
        parts = qualified_components(inst)
        assert parts.blocks == (("A1",), ("A2",), ("B1",))

    def test_example1_two_components(self, example1):
        parts = qualified_components(example1)
        assert parts.blocks == (
            ("A1", "A2", "A3", "B1", "B2", "B3"),
            ("A4", "B4"),
        )

    def test_fig2_unqualified_components_within(self, fig2):
        block = qualified_components(fig2).blocks[0]
        unq = unqualified_components_within(fig2, block)
        assert unq.blocks == (("A1", "A2", "B2", "B3"), ("A3", "B1"))

    def test_no_internal_unqualified_edges(self):
        inst = CdsInstance.from_edges([("q", "A1", "B1"), ("u", "A1", "B2")])
        unq = unqualified_components_within(inst, ("A1", "B1"))
        assert unq.blocks == (("A1",), ("B1",))

    def test_example1_component_b(self, example1):
        unq = unqualified_components_within(example1, ("A4", "B4"))
        assert unq.blocks == (("A4",), ("B4",))

    def test_rejects_non_component_block(self, fig2):
        with pytest.raises(ValueError, match="not a qualified component"):
            unqualified_components_within(fig2, ("A1", "B1"))

    def test_blocks_cover_and_respect_qualified_edges(self, fig2, example1):
        for inst in (fig2, example1):
            parts = qualified_components(inst)
            assert tuple(sorted(v for b in parts.blocks for v in b)) == inst.vertices
            for v, u in inst.qualified:
                assert parts.index_of(v) == parts.index_of(u)


class TestPaths:
    def test_zero_length_path(self, fig2):
        block = qualified_components(fig2).blocks[0]
        path = unqualified_path(fig2, block, "B2", "B2")
        assert path.vertices == ("B2",) and len(path) == 0

    def test_fig2_witness_path(self, fig2):
        block = qualified_components(fig2).blocks[0]
        path = unqualified_path(fig2, block, "B2", "A2")
        assert path.vertices == ("B2", "A1", "B3", "A2")
        assert path.is_valid_for(fig2)

    def test_fig2_direct_edge(self, fig2):
        block = qualified_components(fig2).blocks[0]
        path = unqualified_path(fig2, block, "B1", "A3")
        assert path.vertices == ("B1", "A3")

    def test_unreachable_raises(self, fig2):
        block = qualified_components(fig2).blocks[0]
        with pytest.raises(ValueError, match="no unqualified path"):
            unqualified_path(fig2, block, "B2", "B1")


class TestHalfRateFeasible:
    def test_example1_feasible(self, example1):
        assert half_rate_feasible(example1).feasible

    def test_fig2_infeasible_with_pinned_witness(self, fig2):
        res = half_rate_feasible(fig2)
        assert not res.feasible
        assert res.witness_edge == ("B2", "A2")
        assert res.witness_path.vertices == ("B2", "A1", "B3", "A2")
        assert res.witness_path.internal_edge == ("B2", "A2")
        assert res.witness_path.is_valid_for(fig2)

    def test_qualified_path_without_unqualified_edges(self):
        inst = CdsInstance.from_edges(
            [
                ("q", "A1", "B1"),
                ("q", "B1", "A2"),
                ("u", "A1", "B9"),
                ("u", "B1", "A9"),
                ("u", "A2", "B9"),
                ("u", "A9", "B9"),
            ]
        )
        assert half_rate_feasible(inst).feasible

    def test_degenerate_rejected(self):
        inst = CdsInstance.from_edges([("q", "A1", "B1")])
        with pytest.raises(DegenerateInstanceError):
            half_rate_feasible(inst)


def random_general_instance(rng: random.Random, max_vertices: int = 8):
    n = rng.randrange(3, max_vertices + 1)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for a, b in itertools.combinations(names, 2):
        roll = rng.random()
        if roll < 0.35:
            edges.append(("q", a, b))
        elif roll < 0.70:
            edges.append(("u", a, b))
    if not edges:
        edges.append(("u", names[0], names[1]))
    return CdsInstance.from_edges(edges, bipartite=False)


class TestAgainstBruteForce:
    def test_feasibility_matches_path_enumeration(self):
        rng = random.Random(71)
        checked = 0
        while checked < 60:
            inst = random_general_instance(rng)
            if not is_non_degenerate(inst)[0]:
                continue
            checked += 1
            res = half_rate_feasible(inst)
            assert res.feasible == brute_force_feasible(inst)
            if not res.feasible:
                # The witness must be a genuine internal qualified edge.
                assert res.witness_path.is_valid_for(inst)
                s, t = res.witness_edge
                assert tuple(sorted((s, t))) in inst.qualified
                assert res.witness_path.vertices[0] == s
                assert res.witness_path.vertices[-1] == t
