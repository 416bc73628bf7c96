"""Tests for the trail (edge-injective) semantics extension (§7)."""

import pytest
from hypothesis import given, settings

from repro.graphdb.graph import Edge, GraphDatabase
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.semantics.evaluation import evaluate
from repro.semantics.trails import (
    TrailSemantics,
    closed_trail_nodes,
    evaluate_trails,
    trail_pairs,
    trails,
)

from tests.test_hierarchy import small_graphs, small_queries


class TestTrailSearch:
    def figure_eight(self):
        """Two triangles sharing node m: a trail can cross m twice, a
        simple path cannot."""
        g = GraphDatabase()
        g.add_edge("m", "a", "p")
        g.add_edge("p", "a", "q")
        g.add_edge("q", "a", "m")
        g.add_edge("m", "a", "r")
        g.add_edge("r", "a", "s")
        g.add_edge("s", "a", "t")
        return g

    def test_trails_may_revisit_nodes(self):
        g = self.figure_eight()
        labels = {p.label for p in trails(g, "p", "t")}
        # p → q → m → r → s → t revisits nothing... but q→m→p→? the long
        # route crosses m once; extend the graph so a node revisit is
        # genuinely needed:
        assert ("a",) * 5 in labels

    def test_node_revisit_allowed_edge_revisit_not(self):
        g = GraphDatabase()
        g.add_edge("u", "a", "m")
        g.add_edge("m", "b", "m2")
        g.add_edge("m2", "c", "m")
        g.add_edge("m", "d", "v")
        # u -a-> m -b-> m2 -c-> m -d-> v revisits node m but no edge.
        labels = {p.label for p in trails(g, "u", "v")}
        assert ("a", "b", "c", "d") in labels
        from repro.graphdb.paths import simple_paths

        simple_labels = {p.label for p in simple_paths(g, "u", "v")}
        assert ("a", "b", "c", "d") not in simple_labels
        assert ("a", "d") in simple_labels

    def test_no_edge_repeats(self):
        g = GraphDatabase()
        g.add_edge("u", "a", "u")  # a loop edge can be used once only
        labels = {p.label for p in trails(g, "u", "u")}
        assert labels == {(), ("a",)}

    def test_language_constraint(self):
        g = self.figure_eight()
        labels = {
            p.label
            for p in trails(g, "m", "m", language=parse_regex("aaa"),
                            require_nonempty=True)
        }
        assert labels == {("a", "a", "a")}

    def test_forbidden_edges(self):
        g = GraphDatabase(edges=[("u", "a", "v"), ("u", "b", "v")])
        blocked = {Edge("u", "a", "v")}
        labels = {p.label for p in trails(g, "u", "v",
                                          forbidden_edges=blocked)}
        assert labels == {("b",)}


class TestTrailRelations:
    def test_trail_pairs(self):
        g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "u")])
        pairs = trail_pairs(g, parse_regex("aa"))
        assert ("u", "u") in pairs and ("v", "v") in pairs

    def test_closed_trail_nodes(self):
        g = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "u")])
        assert closed_trail_nodes(g, parse_regex("ab")) == {"u"}
        assert closed_trail_nodes(g, parse_regex("ba")) == {"v"}


class TestTrailEvaluation:
    def test_atom_trail_separates_from_simple_path(self):
        # The node-revisiting trail: answered under atom-trail, not a-inj.
        g = GraphDatabase()
        g.add_edge("u", "a", "m")
        g.add_edge("m", "b", "m2")
        g.add_edge("m2", "c", "m")
        g.add_edge("m", "d", "v")
        q = parse_query("Q(x, y) :- x -[abcd]-> y")
        assert ("u", "v") in evaluate_trails(q, g, "atom-trail")
        assert ("u", "v") not in evaluate(q, g, "a-inj")

    def test_query_trail_blocks_shared_edges(self):
        # Two atoms demanding the same single edge.
        g = GraphDatabase(edges=[("u", "a", "v")])
        q = parse_query("Q() :- x -[a]-> y, z -[a]-> w")
        assert evaluate_trails(q, g, "atom-trail") == {()}
        assert evaluate_trails(q, g, "query-trail") == frozenset()

    def test_query_trail_allows_shared_nodes(self):
        # Two a-edges out of the same node: q-inj forbids (μ not
        # injective on x,z? actually x,z can be same var image... the
        # endpoints y,w must differ under q-inj), query-trail allows.
        g = GraphDatabase(edges=[("u", "a", "v"), ("u", "a", "w")])
        q = parse_query("Q() :- x -[a]-> y, x -[a]-> z")
        assert evaluate_trails(q, g, "query-trail") == {()}

    def test_loop_atom_closed_trail(self):
        g = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "u")])
        q = parse_query("Q(x) :- x -[ab]-> x")
        assert evaluate_trails(q, g, "atom-trail") == {("u",)}
        assert evaluate_trails(q, g, "query-trail") == {("u",)}

    def test_epsilon_handling(self):
        g = GraphDatabase(edges=[("u", "a", "v")])
        q = parse_query("Q(x, y) :- x -[a*]-> y")
        answers = evaluate_trails(q, g, "atom-trail")
        assert ("u", "u") in answers and ("u", "v") in answers

    def test_coerce(self):
        assert TrailSemantics.coerce("atom-trail") is TrailSemantics.ATOM_TRAIL
        with pytest.raises(ValueError):
            TrailSemantics.coerce("nope")


class TestTrailHierarchy:
    """query-trail ⊆ atom-trail ⊆ st; a-inj ⊆ atom-trail; and
    q-inj ⊆ query-trail for queries without parallel atoms."""

    @given(small_queries(), small_graphs())
    @settings(max_examples=25, deadline=None)
    def test_sandwich(self, query, graph):
        ainj = evaluate(query, graph, "a-inj")
        qtrail = evaluate_trails(query, graph, "query-trail")
        atrail = evaluate_trails(query, graph, "atom-trail")
        standard = evaluate(query, graph, "st")
        assert qtrail <= atrail <= standard
        assert ainj <= atrail

    @given(small_queries(), small_graphs())
    @settings(max_examples=25, deadline=None)
    def test_qinj_within_query_trail_without_parallel_atoms(self, query, graph):
        endpoint_pairs = [(a.source, a.target) for a in query.atoms]
        if len(set(endpoint_pairs)) != len(endpoint_pairs):
            return  # parallel atoms: the inclusion legitimately fails
        qinj = evaluate(query, graph, "q-inj")
        qtrail = evaluate_trails(query, graph, "query-trail")
        assert qinj <= qtrail

    def test_parallel_atom_divergence(self):
        """The documented counterexample: two parallel atoms may share a
        single edge under q-inj (no internal nodes exist to clash, and
        the expansion collapses the duplicate atoms) but not under the
        path-based edge-disjoint reading of query-trail semantics."""
        g = GraphDatabase(edges=[("u", "a", "v")])
        q = parse_query("Q() :- x -[a]-> y, x -[a]-> y")
        assert evaluate(q, g, "q-inj") == {()}
        assert evaluate_trails(q, g, "query-trail") == frozenset()

    def test_parallel_atom_divergence_distinct_languages(self):
        """The failure needs only parallel *endpoints*, not duplicate
        atoms: distinct languages both matched by the single edge
        diverge the same way — and the non-Boolean head pins exactly
        which tuple q-inj produces and query-trail refuses.  (This is
        the regression guard for the divergence the trails module
        docstring documents; it must survive the relation-guided q-inj
        evaluator, whose pruning keeps parallel atoms as two separate
        candidate tables over one edge.)"""
        g = GraphDatabase(edges=[("u", "a", "v")])
        q = parse_query("Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y")
        assert evaluate(q, g, "q-inj") == {("u", "v")}
        assert evaluate_trails(q, g, "query-trail") == frozenset()
        from repro.semantics.evaluation import in_evaluation

        assert in_evaluation(q, g, ("u", "v"), "q-inj")

    def test_no_divergence_once_a_second_edge_exists(self):
        """Sanity inverse: give the graph a second parallel a-edge via
        an intermediate node and query-trail admits the tuple too — the
        divergence is exactly about *sharing* one edge."""
        g = GraphDatabase(edges=[
            ("u", "a", "v"), ("u", "b", "m"), ("m", "a", "v"),
        ])
        q = parse_query("Q(x, y) :- x -[a]-> y, x -[(a+ba)]-> y")
        assert ("u", "v") in evaluate(q, g, "q-inj")
        assert ("u", "v") in evaluate_trails(q, g, "query-trail")


class TestExplicitStackDFS:
    """The seed's recursive ``extend`` closures died with RecursionError
    on trails longer than the interpreter stack; the explicit-stack DFS
    must not, and must obey the execution governor at ``trails.dfs``."""

    def long_chain(self):
        import sys

        length = sys.getrecursionlimit() + 500
        g = GraphDatabase()
        nodes = [f"n{i:05d}" for i in range(length + 1)]
        g.add_path(nodes, ["a"] * length)
        return g, nodes, length

    def test_trails_survive_chain_past_recursion_limit(self):
        g, nodes, length = self.long_chain()
        found = list(
            trails(g, nodes[0], nodes[-1], language=parse_regex("a*"))
        )
        assert len(found) == 1
        assert len(found[0]) == length

    def test_simple_paths_survive_chain_past_recursion_limit(self):
        from repro.graphdb.paths import simple_paths

        g, nodes, length = self.long_chain()
        found = list(
            simple_paths(g, nodes[0], nodes[-1], language=parse_regex("a^+"))
        )
        assert len(found) == 1
        assert found[0].nodes == tuple(nodes)

    def test_simple_cycles_survive_cycle_past_recursion_limit(self):
        from repro.graphdb.paths import simple_cycles_through

        g, nodes, length = self.long_chain()
        g.add_edge(nodes[-1], "a", nodes[0])
        found = list(
            simple_cycles_through(g, nodes[0], language=parse_regex("a^+"),
                                  include_empty=False)
        )
        assert len(found) == 1
        assert len(found[0]) == length + 1
        assert found[0].is_simple_cycle()

    def test_qinj_membership_survives_chain_past_recursion_limit(self):
        from repro.semantics.evaluation import in_evaluation

        g, nodes, _length = self.long_chain()
        # The closing b keeps the planner's walk relation linear in the
        # chain (a^+ alone would hold every ordered pair of the chain).
        g.add_edge(nodes[-1], "b", "end")
        query = parse_query("Q(x, y) :- x -[a^+b]-> y")
        assert in_evaluation(query, g, (nodes[0], "end"), "q-inj")

    def test_reachable_targets_survive_chain_past_recursion_limit(self):
        from repro.semantics.trails import _reachable_trail_targets

        g, nodes, _length = self.long_chain()
        found = _reachable_trail_targets(g, nodes[0], parse_regex("a*"))
        assert found == set(nodes)

    def test_trails_checkpoint_obeys_timeout(self):
        from repro.engine.runtime import (
            ExecutionContext,
            ResourceBudget,
            active_context,
        )
        from repro.errors import EvaluationTimeout

        g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
        ctx = ExecutionContext(ResourceBudget(timeout=0.0), interval=1)
        with active_context(ctx):
            with pytest.raises(EvaluationTimeout):
                list(trails(g, "u", "w"))
