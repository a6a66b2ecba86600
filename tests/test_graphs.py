"""Commutation graphs: construction, neighborhoods, stable sets, windows."""

from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from heappieces import (
    Coloring,
    CommutationGraph,
    GraphError,
    build_graph,
    format_graph_literal,
    heap_from_json,
    heap_of_word,
    heap_to_json,
    linear_window,
    parse_graph_literal,
)


def all_vertex_subsets(n):
    """Every subset of 0..n-1, for brute-force cross-checks."""
    for size in range(n + 1):
        yield from combinations(range(n), size)


def small_graphs(max_vertices=6):
    """Strategy: random simple graphs up to max_vertices vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_vertices))
        labels = [chr(ord("a") + i) for i in range(n)]
        pairs = list(combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return build_graph(labels, [(labels[i], labels[j]) for i, j in chosen])

    return build()


@st.composite
def labelled_graph_specs(draw):
    """Strategy: (labels, label pairs) with any text as labels, for
    `build_graph` to accept or reject."""
    labels = draw(st.lists(st.text(max_size=3), max_size=5))
    pairs = list(combinations(range(len(labels)), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return labels, [(labels[i], labels[j]) for i, j in chosen]


class TestBuild:
    def test_path3(self, path3):
        assert path3.vertex_count == 3
        assert path3.edges == frozenset({(0, 1), (1, 2)})

    def test_single_vertex(self):
        g = build_graph(["x"], [])
        assert g.vertex_count == 1 and not g.edges

    def test_duplicate_label(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(["a", "a"], [])

    def test_loop_edge(self):
        with pytest.raises(GraphError, match="loop"):
            build_graph(["a", "b"], [("a", "a")])

    def test_unknown_endpoint(self):
        with pytest.raises(GraphError, match="unknown"):
            build_graph(["a", "b"], [("a", "z")])

    def test_direct_construction_checks_edges(self):
        with pytest.raises(GraphError, match="loop edge at vertex 1"):
            CommutationGraph(("a", "b"), frozenset({(1, 1)}))
        with pytest.raises(GraphError, match=r"edge endpoint out of range: \(0,2\)"):
            CommutationGraph(("a", "b"), frozenset({(0, 2)}))
        with pytest.raises(GraphError, match="label 7 is not a word"):
            CommutationGraph((7,), frozenset())

    @pytest.mark.parametrize(
        "labels", [("x", "y z"), ("", "a"), ("a\tb",), (" a",), ("a\n",), ("a\u2028b",)]
    )
    def test_labels_the_literal_cannot_write(self, labels):
        with pytest.raises(GraphError, match="is not a word"):
            build_graph(labels, [])
        with pytest.raises(GraphError, match="is not a word"):
            CommutationGraph(labels, frozenset())


class TestNeighborhood:
    def test_middle_of_path(self, path3):
        assert path3.neighborhood(1) == {0, 1, 2}

    def test_end_of_path(self, path3):
        assert path3.neighborhood(0) == {0, 1}

    def test_isolated(self):
        g = build_graph(["x"], [])
        assert g.neighborhood(0) == {0}

    def test_out_of_range(self, path3):
        with pytest.raises(GraphError):
            path3.neighborhood(3)

    @given(small_graphs())
    def test_self_inclusion(self, g):
        for v in range(g.vertex_count):
            assert v in g.neighborhood(v)


class TestConfigurations:
    def test_path3_examples(self, path3):
        assert path3.is_configuration({0, 2})
        assert not path3.is_configuration({0, 1})
        assert path3.is_configuration(set())

    def test_out_of_range(self, path3):
        with pytest.raises(GraphError):
            path3.is_configuration({5})

    def test_negative_max_size(self, path3):
        with pytest.raises(ValueError, match="max_size must be >= 0"):
            path3.configurations(-1)

    @given(small_graphs())
    def test_matches_pairwise_scan(self, g):
        adjacency = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
        for subset in all_vertex_subsets(g.vertex_count):
            brute = all(
                (u, v) not in adjacency for u, v in combinations(subset, 2)
            )
            assert g.is_configuration(subset) == brute

    def test_path3_enumeration(self, path3):
        got = path3.configurations(3)
        assert got == [(), (0,), (1,), (2,), (0, 2)]

    def test_isolated_max_zero(self):
        g = build_graph(["x"], [])
        assert g.configurations(0) == [()]

    def test_five_cycle_sizes(self):
        g = build_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
        confs = g.configurations(2)
        by_size = [sum(1 for c in confs if len(c) == k) for k in range(3)]
        assert by_size == [1, 5, 5]

    @given(small_graphs())
    def test_counts_match_subset_brute_force(self, g):
        confs = g.configurations(g.vertex_count)
        brute = [s for s in all_vertex_subsets(g.vertex_count) if g.is_configuration(s)]
        assert sorted(confs, key=lambda c: (len(c), c)) == confs
        assert set(confs) == set(brute)

    @given(small_graphs(), st.data())
    def test_lister_matches_subsets_of_within(self, g, data):
        """The stable-set lister on any `within` (None: every vertex) and cap
        is brute force over the subsets of `within`, in (size, members) order."""
        n = g.vertex_count
        within = data.draw(st.none() | st.integers(0, (1 << n) - 1))
        most = data.draw(st.integers(0, n + 1))
        inside = [v for v in range(n) if within is None or within >> v & 1]
        brute = [
            (k, s)
            for k in range(min(most, len(inside)) + 1)
            for s in combinations(inside, k)
            if not any(g.are_neighbors(u, v) for u, v in combinations(s, 2))
        ]
        got = g._stable_sets(most, within)
        assert [
            (k, tuple(v for v in range(n) if d >> v & 1))
            for k, sets in enumerate(got)
            for d in sets
        ] == brute

    def test_sorted_by_size_then_lex(self, path5):
        confs = path5.configurations(5)
        assert confs == sorted(confs, key=lambda c: (len(c), c))

    def test_twelve_vertex_brute_force(self):
        labels = [chr(ord("a") + i) for i in range(12)]
        edges = [(labels[i], labels[(i + 1) % 12]) for i in range(12)]  # 12-cycle
        g = build_graph(labels, edges)
        confs = g.configurations(12)
        brute = [s for s in all_vertex_subsets(12) if g.is_configuration(s)]
        by_size = {}
        for c in brute:
            by_size[len(c)] = by_size.get(len(c), 0) + 1
        got = {}
        for c in confs:
            got[len(c)] = got.get(len(c), 0) + 1
        assert got == by_size


class TestLinearWindow:
    def test_radius_one(self):
        g, coloring = linear_window(1)
        assert g.labels == ("-1", "0", "1")
        assert g.edges == frozenset({(0, 1), (1, 2)})
        coloring.validate(g)

    def test_radius_zero(self):
        g, _ = linear_window(0)
        assert g.labels == ("0",) and not g.edges

    def test_radius_two_alternates(self):
        g, coloring = linear_window(2)
        assert g.vertex_count == 5 and len(g.edges) == 4
        assert coloring.colors == (1, 2, 1, 2, 1)

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            linear_window(-1)

    def test_coloring_checks_length_and_range(self):
        g, _ = linear_window(1)
        with pytest.raises(GraphError, match="coloring length does not match vertex count"):
            Coloring((1, 2), 2).validate(g)
        with pytest.raises(GraphError, match="color out of range"):
            Coloring((1, 3, 1), 2).validate(g)


class TestLiteralFormat:
    def test_round_trip(self, cycle4):
        text = format_graph_literal(cycle4)
        assert parse_graph_literal(text) == cycle4

    def test_parse(self):
        g = parse_graph_literal("vertices: a b c\nedge: a b\nedge: b c\n")
        assert g.labels == ("a", "b", "c")
        assert g.edges == frozenset({(0, 1), (1, 2)})
        # comment lines and blank lines are skipped
        text = "# path\nvertices: a b c\n\n  # middle\nedge: a b\n   \nedge: b c\n"
        assert parse_graph_literal(text) == g

    def test_parse_errors(self):
        with pytest.raises(GraphError):
            parse_graph_literal("edge: a b\n")
        with pytest.raises(GraphError):
            parse_graph_literal("vertices: a b\nedge: a\n")
        with pytest.raises(GraphError, match="multiple vertices: lines"):
            parse_graph_literal("vertices: a b\nvertices: c\n")
        with pytest.raises(GraphError, match="unknown line: 'color: a 1'"):
            parse_graph_literal("vertices: a b\ncolor: a 1\n")

    @given(spec=labelled_graph_specs())
    @example(spec=(["x", "y z"], [("x", "y z")]))
    @example(spec=(["", "a"], []))
    def test_every_built_graph_round_trips(self, spec):
        try:
            g = build_graph(*spec)
        except GraphError:
            return
        assert parse_graph_literal(format_graph_literal(g)) == g
        h = heap_of_word(g, [*range(g.vertex_count)] * 2)
        assert heap_from_json(heap_to_json(h)) == h
