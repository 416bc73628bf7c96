"""Tests for the graph-database substrate and path machinery."""

import random
import re

import pytest

from repro.graphdb import graph as graph_module
from repro.graphdb.graph import Edge, GraphDatabase
from repro.graphdb.paths import (
    Path,
    all_paths_up_to,
    search,
    simple_cycles_through,
    simple_paths,
)
from repro.graphdb import generators
from repro.regular.parser import parse_regex


class TestGraphDatabase:
    def test_add_edge_adds_nodes(self):
        g = GraphDatabase()
        g.add_edge(1, "a", 2)
        assert g.nodes == {1, 2}
        assert g.has_edge(1, "a", 2)

    def test_duplicate_edges_are_set_semantics(self):
        g = GraphDatabase()
        g.add_edge(1, "a", 2)
        g.add_edge(1, "a", 2)
        assert g.edge_count() == 1

    def test_parallel_labels_allowed(self):
        g = GraphDatabase()
        g.add_edge(1, "a", 2)
        g.add_edge(1, "b", 2)
        assert g.edge_count() == 2
        assert g.alphabet == {"a", "b"}

    def test_successors_predecessors(self):
        g = GraphDatabase(edges=[(1, "a", 2), (1, "b", 3), (2, "a", 3)])
        assert g.successors(1) == {2, 3}
        assert g.successors(1, label="a") == {2}
        assert g.predecessors(3) == {1, 2}

    def test_add_path(self):
        g = GraphDatabase()
        g.add_path(["x", "y", "z"], ["a", "b"])
        assert g.has_edge("x", "a", "y")
        assert g.has_edge("y", "b", "z")

    def test_add_path_arity_check(self):
        g = GraphDatabase()
        with pytest.raises(ValueError):
            g.add_path(["x", "y"], ["a", "b"])

    def test_rename_nodes_merges(self):
        g = GraphDatabase(edges=[(1, "a", 2), (2, "a", 3)])
        merged = g.rename_nodes({3: 1})
        assert merged.nodes == {1, 2}
        assert merged.has_edge(2, "a", 1)

    def test_induced_subgraph(self):
        g = GraphDatabase(edges=[(1, "a", 2), (2, "b", 3)])
        sub = g.induced_subgraph({1, 2})
        assert sub.edges == {Edge(1, "a", 2)}

    def test_disjoint_union(self):
        g = GraphDatabase(edges=[(1, "a", 2)])
        h = GraphDatabase(edges=[(1, "b", 2)])
        u = g.disjoint_union(h)
        assert u.node_count() == 4
        assert u.edge_count() == 2

    def test_equality_and_hash(self):
        g = GraphDatabase(edges=[(1, "a", 2)])
        h = GraphDatabase(edges=[(1, "a", 2)])
        assert g == h
        assert hash(g) == hash(h)

    def test_copy_is_independent(self):
        g = GraphDatabase(edges=[(1, "a", 2)])
        c = g.copy()
        c.add_edge(2, "a", 3)
        assert g.edge_count() == 1

    def test_accessors_return_immutable_snapshots(self):
        # Regression: out_edges/in_edges/edges_with_label used to hand out
        # the live internal set for existing keys, so callers could
        # silently corrupt the graph by mutating the return value.
        g = GraphDatabase(edges=[(1, "a", 2)])
        for view in (g.out_edges(1), g.in_edges(2), g.edges_with_label("a"),
                     g.out_edges(99), g.in_edges(99), g.edges_with_label("z")):
            assert isinstance(view, frozenset)
        snapshot = g.out_edges(1)
        with pytest.raises(AttributeError):
            snapshot.add(Edge(1, "b", 3))
        with pytest.raises(AttributeError):
            g.edges_with_label("a").clear()
        assert g.out_edges(1) == {Edge(1, "a", 2)}
        assert g.edge_count() == 1

    def test_version_counter_tracks_effective_mutations(self):
        g = GraphDatabase()
        start = g.version
        g.add_node(1)
        assert g.version == start + 1
        g.add_node(1)  # no-op: already present
        assert g.version == start + 1
        g.add_edge(1, "a", 2)
        after_edge = g.version
        assert after_edge > start + 1
        g.add_edge(1, "a", 2)  # duplicate edge: no-op
        assert g.version == after_edge


class TestRemoval:
    def test_remove_edge(self):
        g = GraphDatabase(edges=[(1, "a", 2), (1, "b", 2)])
        before = g.version
        g.remove_edge(1, "a", 2)
        assert not g.has_edge(1, "a", 2)
        assert g.has_edge(1, "b", 2)
        assert g.nodes == {1, 2}  # endpoints stay
        assert g.version == before + 1

    def test_remove_missing_edge_raises(self):
        g = GraphDatabase(edges=[(1, "a", 2)])
        with pytest.raises(KeyError, match="missing edge"):
            g.remove_edge(1, "b", 2)

    def test_remove_edge_cleans_indexes_completely(self):
        # Regression guard: a node or label whose last edge disappears
        # must leave no empty-set residue in the internal indexes.
        g = GraphDatabase(edges=[(1, "a", 2), (2, "a", 3)])
        g.remove_edge(1, "a", 2)
        assert 1 not in g._out
        assert 2 not in g._in
        assert "a" in g._by_label  # still carried by (2, a, 3)
        g.remove_edge(2, "a", 3)
        assert not g._out and not g._in and not g._by_label
        assert g.alphabet == frozenset()
        assert g.out_edges(1) == frozenset()

    def test_remove_node_refuses_incident_edges_without_cascade(self):
        g = GraphDatabase(edges=[(1, "a", 2)])
        with pytest.raises(ValueError, match="cascade=True"):
            g.remove_node(2)
        assert g.has_edge(1, "a", 2)

    def test_remove_node_cascade(self):
        g = GraphDatabase(edges=[(1, "a", 2), (2, "b", 3), (3, "c", 3)])
        g.remove_node(3, cascade=True)
        assert g.nodes == {1, 2}
        assert g.edges == {Edge(1, "a", 2)}
        assert 3 not in g._out and 3 not in g._in
        assert "b" not in g._by_label and "c" not in g._by_label

    def test_remove_isolated_node(self):
        g = GraphDatabase(nodes=[1])
        g.remove_node(1)
        assert g.nodes == frozenset()

    def test_remove_missing_node_raises(self):
        g = GraphDatabase()
        with pytest.raises(KeyError, match="missing node"):
            g.remove_node(42)

    def test_removal_bumps_version(self):
        g = GraphDatabase(edges=[(1, "a", 2)])
        before = g.version
        g.remove_edge(1, "a", 2)
        g.remove_node(1)
        assert g.version == before + 2


class TestChangeLog:
    def test_delta_since_current_version_is_empty(self):
        g = GraphDatabase(edges=[(1, "a", 2)])
        delta = g.delta_since(g.version)
        assert delta.is_empty() and delta.insert_only

    def test_delta_since_reports_net_changes(self):
        g = GraphDatabase()
        start = g.version
        g.add_edge(1, "a", 2)
        g.add_node(3)
        g.remove_edge(1, "a", 2)
        delta = g.delta_since(start)
        # The edge was added then removed inside the window: net zero.
        assert delta.added_edges == frozenset()
        assert delta.removed_edges == frozenset()
        assert delta.added_nodes == {1, 2, 3}
        assert delta.insert_only

    def test_delta_folds_remove_then_readd(self):
        g = GraphDatabase(edges=[(1, "a", 2)])
        mark = g.version
        g.remove_edge(1, "a", 2)
        g.add_edge(1, "a", 2)
        assert g.delta_since(mark).is_empty()

    def test_delta_records_deletions(self):
        g = GraphDatabase(edges=[(1, "a", 2), (2, "a", 3)])
        mark = g.version
        g.remove_node(3, cascade=True)
        g.add_edge(1, "b", 2)
        delta = g.delta_since(mark)
        assert delta.removed_nodes == {3}
        assert delta.removed_edges == {Edge(2, "a", 3)}
        assert delta.added_edges == {Edge(1, "b", 2)}
        assert not delta.insert_only
        assert delta.size() == 3

    def test_window_exceeded_returns_none(self, monkeypatch):
        monkeypatch.setattr(graph_module, "CHANGELOG_CAP", 4)
        g = GraphDatabase()
        mark = g.version
        for index in range(10):
            g.add_node(index)
        assert g.delta_since(mark) is None
        # Recent versions are still inside the window.
        recent = g.delta_since(g.version - 2)
        assert recent is not None and len(recent.added_nodes) == 2

    def test_future_version_raises(self):
        g = GraphDatabase()
        with pytest.raises(ValueError, match="ahead"):
            g.delta_since(g.version + 1)


    @pytest.mark.parametrize("seed", range(4))
    def test_delta_since_matches_state_difference(self, seed, monkeypatch):
        """Random add/remove sequences: every ``delta_since(v)`` is the
        net difference between the recorded state at ``v`` and now, or
        ``None`` exactly when more entries than the cap are newer
        than ``v`` (counted on an uncapped record of every logged
        entry's version)."""
        rng = random.Random(seed)
        cap = 12
        monkeypatch.setattr(graph_module, "CHANGELOG_CAP", cap)
        graph = GraphDatabase()
        logged = []
        log = graph._log

        def record(op, payload):
            logged.append(graph.version)
            log(op, payload)

        monkeypatch.setattr(graph, "_log", record)
        states = {graph.version: (frozenset(), frozenset())}
        for _ in range(80):
            roll = rng.random()
            edges = sorted(graph.edges)
            nodes = sorted(graph.nodes)
            if roll < 0.5 or not edges:
                edge = (rng.randrange(6), rng.choice("ab"), rng.randrange(6))
                graph.add_edge(*edge)
            elif roll < 0.8:
                edge = rng.choice(edges)
                graph.remove_edge(edge.source, edge.label, edge.target)
            elif roll < 0.9:
                graph.add_node(rng.randrange(8))
            else:
                graph.remove_node(rng.choice(nodes), cascade=True)
            states[graph.version] = (graph.nodes, graph.edges)
            for version, (nodes_then, edges_then) in states.items():
                newer = sum(1 for entry in logged if entry > version)
                delta = graph.delta_since(version)
                if newer > cap:
                    assert delta is None
                    continue
                assert delta.added_nodes == graph.nodes - nodes_then
                assert delta.removed_nodes == nodes_then - graph.nodes
                assert delta.added_edges == graph.edges - edges_then
                assert delta.removed_edges == edges_then - graph.edges


class TestSnapshots:
    def test_snapshots_follow_every_mutation(self):
        g = GraphDatabase(edges=[(1, "a", 2), (2, "b", 3), (3, "a", 1)])
        assert g.out_edges(1) == {Edge(1, "a", 2)}
        assert g.in_edges(1) == {Edge(3, "a", 1)}
        assert g.edges_with_label("a") == {Edge(1, "a", 2), Edge(3, "a", 1)}
        g.add_edge(1, "b", 3)
        assert g.out_edges(1) == {Edge(1, "a", 2), Edge(1, "b", 3)}
        assert g.in_edges(3) == {Edge(2, "b", 3), Edge(1, "b", 3)}
        assert g.edges_with_label("b") == {Edge(2, "b", 3), Edge(1, "b", 3)}
        g.remove_edge(1, "a", 2)
        assert g.out_edges(1) == {Edge(1, "b", 3)}
        assert g.in_edges(2) == frozenset()
        assert g.edges_with_label("a") == {Edge(3, "a", 1)}
        g.remove_node(3, cascade=True)
        assert g.out_edges(1) == frozenset()
        assert g.out_edges(2) == frozenset()
        assert g.in_edges(1) == frozenset()
        assert g.out_edges(3) == frozenset() and g.in_edges(3) == frozenset()
        assert g.edges_with_label("a") == frozenset()
        assert g.edges_with_label("b") == frozenset()
        g.add_edge(3, "a", 1)
        assert g.out_edges(3) == {Edge(3, "a", 1)}
        assert g.in_edges(1) == {Edge(3, "a", 1)}

    def test_untouched_snapshot_survives_a_version_bump(self):
        g = GraphDatabase(edges=[(1, "a", 2), (3, "b", 4)])
        out, into, label = g.out_edges(3), g.in_edges(4), \
            g.edges_with_label("b")
        touched = g.out_edges(1)
        g.add_edge(1, "a", 5)
        g.remove_edge(1, "a", 2)
        g.add_node(6)
        assert g.out_edges(3) is out
        assert g.in_edges(4) is into
        assert g.edges_with_label("b") is label
        assert g.out_edges(1) is not touched
        assert g.out_edges(1) == {Edge(1, "a", 5)}


class TestPath:
    def test_label_and_internal_nodes(self):
        p = Path(("x", "y", "z"), ("a", "b"))
        assert p.label == ("a", "b")
        assert p.internal_nodes() == {"y"}
        assert p.source == "x" and p.target == "z"

    def test_simple_path_detection(self):
        assert Path(("x", "y"), ("a",)).is_simple_path()
        assert not Path(("x", "y", "x"), ("a", "b")).is_simple_path()

    def test_simple_cycle_detection(self):
        assert Path(("x", "y", "x"), ("a", "b")).is_simple_cycle()
        assert not Path(("x", "y", "z"), ("a", "b")).is_simple_cycle()
        assert not Path(("x", "y", "y", "x"), ("a", "b", "c")).is_simple_cycle()

    def test_arity_check(self):
        with pytest.raises(ValueError):
            Path(("x",), ("a",))


class TestSimplePaths:
    def graph(self):
        # u -a-> v -b-> w with a shortcut u -c-> w and a back edge w -a-> u.
        return GraphDatabase(
            edges=[("u", "a", "v"), ("v", "b", "w"), ("u", "c", "w"),
                   ("w", "a", "u")]
        )

    def test_unconstrained(self):
        paths = list(simple_paths(self.graph(), "u", "w"))
        labels = {p.label for p in paths}
        assert labels == {("a", "b"), ("c",)}

    def test_language_constrained(self):
        paths = list(simple_paths(self.graph(), "u", "w",
                                  language=parse_regex("ab")))
        assert [p.label for p in paths] == [("a", "b")]

    def test_empty_path_only_for_equal_endpoints(self):
        paths = list(simple_paths(self.graph(), "u", "u",
                                  language=parse_regex("a*")))
        assert [p.label for p in paths] == [()]

    def test_no_empty_when_language_lacks_epsilon(self):
        paths = list(simple_paths(self.graph(), "u", "u",
                                  language=parse_regex("a^+")))
        assert paths == []

    def test_forbidden_nodes(self):
        paths = list(simple_paths(self.graph(), "u", "w", forbidden={"v"}))
        assert {p.label for p in paths} == {("c",)}

    def test_forbidden_endpoint_kills_search(self):
        assert list(simple_paths(self.graph(), "u", "w", forbidden={"u"})) == []

    def test_paths_are_simple(self):
        big = generators.two_lane_road(3)
        for p in simple_paths(big, ("src",), ("dst",)):
            assert p.is_simple_path()


class TestSimpleCycles:
    def test_cycle_through_node(self):
        g = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "u")])
        cycles = list(simple_cycles_through(g, "u", include_empty=False))
        assert [c.label for c in cycles] == [("a", "b")]
        assert cycles[0].is_simple_cycle()

    def test_empty_cycle_included_when_epsilon(self):
        g = GraphDatabase(nodes=["u"])
        cycles = list(
            simple_cycles_through(g, "u", language=parse_regex("a*"))
        )
        assert [c.label for c in cycles] == [()]

    def test_language_filters_cycles(self):
        g = GraphDatabase(
            edges=[("u", "a", "v"), ("v", "b", "u"), ("u", "c", "u")]
        )
        cycles = list(
            simple_cycles_through(g, "u", language=parse_regex("c"),
                                  include_empty=False)
        )
        assert [c.label for c in cycles] == [("c",)]

    def test_forbidden_internal(self):
        g = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "u")])
        assert list(
            simple_cycles_through(g, "u", forbidden={"v"}, include_empty=False)
        ) == []


class TestReachedHarvest:
    """``search(..., reached=)`` collects nodes that end an accepted
    simple path from the source, checked against an engine-free
    enumeration of node sequences (labels matched with :mod:`re`)."""

    LANGUAGES = [
        ("(ab)^+", r"(ab)+"),
        ("a(a+b)*", r"a[ab]*"),
        ("a^+b", r"a+b"),
        ("(a+b)b", r"[ab]b"),
    ]

    @staticmethod
    def accepted_ends(graph, source, blocked, pattern):
        """Last nodes of the nonempty simple paths from ``source`` that
        avoid ``blocked`` and whose label fully matches ``pattern``."""
        ends = set()

        def extend(path, word):
            for edge in graph.out_edges(path[-1]):
                if edge.target in path or edge.target in blocked:
                    continue
                spelled = word + edge.label
                if re.fullmatch(pattern, spelled):
                    ends.add(edge.target)
                extend(path + [edge.target], spelled)

        extend([source], "")
        return ends

    @pytest.mark.parametrize("seed", range(10))
    def test_harvest_ends_accepted_simple_paths(self, seed):
        rng = random.Random(seed)
        size = rng.randint(4, 8)
        graph = generators.uniform_random(size, 2 * size, {"a", "b"},
                                          seed=seed)
        nodes = sorted(graph.nodes)
        for regex, pattern in self.LANGUAGES:
            language = parse_regex(regex)
            for source in rng.sample(nodes, 3):
                # Two path-mode targets and cycle mode (target == source).
                others = [node for node in nodes if node != source]
                for target in rng.sample(others, 2) + [source]:
                    blocked = {node for node in others
                               if node != target and rng.random() < 0.25}
                    expected = self.accepted_ends(graph, source, blocked,
                                                  pattern)
                    plain = [
                        (tuple(n), tuple(l)) for n, l in
                        search(graph, language, source, target, blocked)
                    ]
                    reached = set()
                    hits = [
                        (tuple(n), tuple(l)) for n, l in
                        search(graph, language, source, target, blocked,
                               reached=reached)
                    ]
                    assert hits == plain
                    assert source not in reached
                    assert reached <= expected
                    early = set()
                    found = any(search(graph, language, source, target,
                                       blocked, reached=early))
                    assert found == bool(plain)
                    assert source not in early
                    assert early <= reached

    def test_harvest_reaches_past_the_target_not_the_source(self):
        graph = GraphDatabase(edges=[
            ("u", "a", "v"), ("v", "b", "w"), ("w", "a", "x"),
            ("x", "b", "y"), ("v", "b", "u"),
        ])
        language = parse_regex("(ab)^+")
        reached = set()
        assert any(search(graph, language, "u", "y", reached=reached))
        assert reached == {"w", "y"}
        # Cycle mode: the edge v -b-> w is stepped over (w cannot return
        # to u), yet it spells ab, so w is harvested; u never is.
        reached = set()
        assert len(list(search(graph, language, "u", "u",
                               reached=reached))) == 1
        assert reached == {"w"}
        # A blocked node cuts the paths through it.
        reached = set()
        assert not any(search(graph, language, "u", "y", {"x"},
                              reached=reached))
        assert reached == {"w"}

    def test_edge_injective_refuses_reached(self):
        graph = GraphDatabase(edges=[("u", "a", "v")])
        with pytest.raises(ValueError, match="node-injective"):
            next(search(graph, None, "u", "v", edge_injective=True,
                        reached=set()))


class TestAllPaths:
    def test_counts_walks(self):
        g = GraphDatabase(edges=[("u", "a", "u")])
        walks = list(all_paths_up_to(g, "u", 3))
        assert len(walks) == 4  # lengths 0..3


class TestGenerators:
    def test_labeled_path(self):
        g = generators.labeled_path("abc")
        assert g.node_count() == 4 and g.edge_count() == 3

    def test_labeled_cycle(self):
        g = generators.labeled_cycle("ab")
        assert g.node_count() == 2 and g.edge_count() == 2

    def test_uniform_random_deterministic(self):
        a = generators.uniform_random(5, 8, {"a", "b"}, seed=3)
        b = generators.uniform_random(5, 8, {"a", "b"}, seed=3)
        assert a == b

    def test_grid(self):
        g = generators.grid(3, 2)
        assert g.node_count() == 6
        assert g.edge_count() == 2 * 2 + 3 * 1  # rights + downs

    def test_social_graph_alphabet(self):
        g = generators.social_knowledge_graph()
        assert {"knows", "wrote", "cites", "lives", "near"} <= set(g.alphabet)
