"""Join-planner edge cases: shapes, short-circuits, fallbacks, explain.

The planner (:mod:`repro.engine.planner`) replaces the CSP glue on the
st / a-inj hot path.  These tests pin the corners the differential
suite's random queries may miss: disconnected queries, repeated
variables in atoms and heads, loop atoms as unary relations, empty atom
relations, Boolean queries, the overflow ladder's matcher fallback, and
the ``--explain`` surfaces.
"""

import pytest

from repro.cli import main
from repro.engine import planner
from repro.engine.planner import (
    ComponentPlan,
    explain_query,
    min_degree_order,
    plan_eps_free,
)
from repro.engine.backend import BACKEND_NAMES, use_backend
from repro.engine.incremental import incremental_store
from repro.engine.join import TupleRelation, natural_join, true_relation
from repro.engine.runtime import ExecutionContext, ResourceBudget
from repro.errors import ResourceExhausted
from repro.graphdb.generators import uniform_random
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.semantics.base import Semantics
from repro.semantics.evaluation import evaluate, in_evaluation
from repro.semantics.rpq import simple_cycle_nodes


def _diamond_graph():
    graph = GraphDatabase()
    graph.add_edge("u", "a", "v")
    graph.add_edge("u", "a", "w")
    graph.add_edge("v", "b", "t")
    graph.add_edge("w", "b", "t")
    graph.add_edge("t", "c", "u")
    return graph


# ----------------------------------------------------------------------
# Elimination orders
# ----------------------------------------------------------------------


class TestGYO:
    """Elimination orders (the class keeps the name of the GYO
    reduction the planner no longer runs)."""

    def test_min_degree_order_skips_kept_variables(self):
        order = min_degree_order(
            "wxyz", [("x", "y"), ("y", "z"), ("z", "x"), ("z", "w")],
            keep=("x",),
        )
        assert "x" not in order
        assert set(order) == {"w", "y", "z"}
        assert order[0] == "w"  # degree 1 beats the triangle vertices


# ----------------------------------------------------------------------
# Plan shapes
# ----------------------------------------------------------------------


class TestPlanShapes:
    def test_chain_plans_acyclic(self):
        """An acyclic chain runs the same elimination as a cycle: its
        one inner variable is the whole order."""
        query = parse_query("Q(x, z) :- x -[a]-> y, y -[b]-> z")
        plan = plan_eps_free(query, _diamond_graph(), Semantics.STANDARD)
        assert [c.kind for c in plan.components] == [ComponentPlan.JOIN]
        assert plan.components[0].elimination_order == ("y",)
        assert "min-degree elimination (order: y; out: x, z)" \
            in plan.explain()

    def test_triangle_plans_cyclic(self):
        query = parse_query(
            "Q(x) :- x -[a]-> y, y -[b]-> z, z -[c]-> x"
        )
        plan = plan_eps_free(query, _diamond_graph(), Semantics.STANDARD)
        assert [c.kind for c in plan.components] == [ComponentPlan.JOIN]
        assert plan.components[0].elimination_order == ("y", "z")
        text = plan.explain()
        assert "min-degree elimination (order: y, z; out: x)" in text
        assert (f"past {planner.ELIMINATION_ROW_CAP} rows in a join: "
                f"semijoin reduction, then elimination again, then the "
                f"matcher") in text

    def test_explain_reports_relation_sizes(self):
        query = parse_query("Q(x, z) :- x -[a]-> y, y -[b]-> z")
        text = explain_query(query, _diamond_graph(), "st")
        assert "|R| = 2" in text  # both the a- and b-relations have 2 pairs

    def test_explain_qinj_reports_joint_search(self):
        query = parse_query("Q(x, z) :- x -[a]-> y, y -[b]-> z")
        text = explain_query(query, _diamond_graph(), "q-inj")
        assert "joint backtracking" in text


# ----------------------------------------------------------------------
# Edge-case evaluation through the planner
# ----------------------------------------------------------------------


class TestPlannerEdgeCases:
    def test_disconnected_query_is_cartesian_product(self):
        graph = _diamond_graph()
        query = parse_query("Q(x, p) :- x -[a]-> y, p -[b]-> q")
        a_sources = {"u"}
        b_sources = {"v", "w"}
        want = frozenset(
            (s1, s2) for s1 in a_sources for s2 in b_sources
        )
        assert evaluate(query, graph, "st") == want

    def test_disconnected_boolean_component_gates_answers(self):
        graph = _diamond_graph()
        # The d-component is unsatisfiable, so the satisfiable a-side
        # must still produce nothing.
        query = parse_query("Q(x) :- x -[a]-> y, p -[d]-> q")
        assert evaluate(query, graph, "st") == frozenset()

    def test_repeated_head_variable(self):
        graph = _diamond_graph()
        query = parse_query("Q(x, x, y) :- x -[a]-> y")
        assert evaluate(query, graph, "st") == {
            ("u", "u", "v"), ("u", "u", "w")
        }

    def test_repeated_head_variable_membership(self):
        graph = _diamond_graph()
        query = parse_query("Q(x, x) :- x -[a]-> y")
        assert in_evaluation(query, graph, ("u", "u"), "st")
        # Conflicting repetition: must be False, not an error.
        assert not in_evaluation(query, graph, ("u", "v"), "st")

    def test_loop_atom_is_a_unary_relation_standard(self):
        graph = _diamond_graph()
        query = parse_query("Q(x) :- x -[(abc)*]-> x")
        # ε makes every node qualify in one disjunct; without ε only u
        # closes an (abc)-labelled cycle (u→v→t→u / u→w→t→u).
        assert evaluate(query, graph, "st") == {(n,) for n in graph.nodes}
        nonempty = parse_query("Q(x) :- x -[(abc)^+]-> x")
        assert evaluate(nonempty, graph, "st") == {("u",)}

    def test_loop_atom_is_a_unary_relation_ainj(self):
        graph = _diamond_graph()
        query = parse_query("Q(x) :- x -[(abc)^+]-> x")
        want = simple_cycle_nodes(graph, query.atoms[0].language,
                                  include_empty=False)
        assert evaluate(query, graph, "a-inj") == {(n,) for n in want}

    def test_empty_atom_relation_short_circuits(self):
        graph = _diamond_graph()
        query = parse_query("Q(x, y) :- x -[a]-> z, z -[d]-> y")
        assert evaluate(query, graph, "st") == frozenset()
        assert not in_evaluation(query, graph, ("u", "t"), "st")

    def test_boolean_query(self):
        graph = _diamond_graph()
        assert evaluate(parse_query("Q() :- x -[a]-> y"), graph, "st") == {()}
        assert evaluate(parse_query("Q() :- x -[d]-> y"), graph, "st") \
            == frozenset()

    def test_boolean_query_empty_graph(self):
        graph = GraphDatabase()
        # One isolated variable, no atoms: no node can host it.
        query = parse_query("Q() :- x -[a*]-> x")
        # The ε-disjunct drops the atom but keeps the variable.
        assert evaluate(query, graph, "st") == frozenset()

    def test_isolated_head_variable_scans_the_domain(self):
        graph = _diamond_graph()
        query = parse_query("Q(p, x) :- x -[a]-> y")
        assert evaluate(query, graph, "st") == {
            (p, x) for p in graph.nodes for x in ("u",)
        }


# ----------------------------------------------------------------------
# Cyclic fallback to the backtracking matcher
# ----------------------------------------------------------------------


class TestMatcherFallback:
    def test_fallback_matches_variable_elimination(self, monkeypatch):
        graph = _diamond_graph()
        query = parse_query(
            "Q(x, z) :- x -[a]-> y, y -[b]-> z, z -[c]-> x, x -[a]-> z"
        )
        want = evaluate(query, graph, "st")
        monkeypatch.setattr(planner, "ELIMINATION_ROW_CAP", 0)
        plan = plan_eps_free(query, graph, Semantics.STANDARD)
        assert plan.answers() == want

    def test_fallback_only_sees_the_reduced_residue(self, monkeypatch):
        graph = _diamond_graph()
        # A dangling a-edge: (v, q) joins no b-pair, so the semijoin
        # pre-reduction must strip it before the matcher runs.
        graph.add_edge("v", "a", "q")
        query = parse_query("Q(x) :- x -[a]-> y, y -[b]-> z, z -[c]-> x")
        seen = {}
        original = planner.JoinPlan._matcher_fallback

        def spy(self, component, reduced_tables, *args, **kwargs):
            seen["rows"] = sum(len(t) for t in reduced_tables)
            return original(self, component, reduced_tables, *args, **kwargs)

        monkeypatch.setattr(planner, "ELIMINATION_ROW_CAP", 0)
        monkeypatch.setattr(planner.JoinPlan, "_matcher_fallback", spy)
        plan = plan_eps_free(query, graph, Semantics.STANDARD)
        answers = plan.answers()
        assert answers == evaluate(query, graph, "st")
        # 6 base rows: 3 a-pairs, 2 b-pairs, 1 c-pair; the (v, q) a-pair
        # dies in the pre-reduction, both u-triangles survive.
        assert seen["rows"] == 5


# ----------------------------------------------------------------------
# The unit join and the one join path
# ----------------------------------------------------------------------


class TestUnitJoin:
    ROWS = TupleRelation(("x", "y"), {(1, 2), (3, 4), (5, 6)})

    def test_unit_is_an_identity_on_both_sides(self):
        assert natural_join(true_relation(), self.ROWS) is self.ROWS
        assert natural_join(self.ROWS, true_relation()) is self.ROWS

    def test_false_nullary_still_annihilates(self):
        assert natural_join(TupleRelation((), ()), self.ROWS).is_empty()
        assert natural_join(self.ROWS, TupleRelation((), ())).is_empty()

    def test_unit_join_still_enforces_the_row_cap(self):
        ctx = ExecutionContext(ResourceBudget(row_cap=2))
        with pytest.raises(ResourceExhausted):
            natural_join(true_relation(), self.ROWS, ctx)
        with pytest.raises(ResourceExhausted):
            natural_join(self.ROWS, true_relation(), ctx)

    def test_single_atom_query_hits_the_row_cap(self):
        graph = GraphDatabase(
            edges=[(f"v{i}", "a", f"v{i + 1}") for i in range(9)]
        )
        query = parse_query("Q(x, y) :- x -[a^+]-> y")  # 45 answers
        assert len(evaluate(query, graph.copy(), "st",
                            budget=ResourceBudget(row_cap=45))) == 45
        with pytest.raises(ResourceExhausted):
            evaluate(query, graph.copy(), "st",
                     budget=ResourceBudget(row_cap=44))


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_store_attached_planning_interns_no_node_ids(backend):
    """The glue joins graph nodes under every backend: evaluating an st
    chain on a store-attached graph after a mutation reads the store's
    maintained relations and builds no adjacency index for the new
    version."""
    graph = uniform_random(12, 30, {"a", "b"}, seed=7)
    query = parse_query("Q(x, z) :- x -[a]-> y, y -[b^+]-> z")
    with use_backend(backend):
        incremental_store(graph)
        evaluate(query, graph, "st")
        graph.add_edge("fresh", "a", sorted(graph.nodes, key=repr)[0])
        answers = evaluate(query, graph, "st")
    index = getattr(graph, "_engine_adjacency", None)
    assert index is None or index.version != graph.version
    assert answers == evaluate(query, graph.copy(), "st")


# ----------------------------------------------------------------------
# Batch store staleness through the warmed-results path
# ----------------------------------------------------------------------


def test_warmed_results_revalidate_after_mutation():
    """``results(batch, warmed=True)`` must not serve relations warmed
    against an older graph version (regression: the stale answer would
    also poison the shared query_result cache under the new version)."""
    from repro.engine.batch import BatchExecutor, QueryBatch

    graph = GraphDatabase(edges=[("a", "k", "b")])
    query = parse_query("Q(x, y) :- x -[k]-> y")
    batch = QueryBatch([query])
    executor = BatchExecutor(graph, "st")
    executor.warm(batch)
    graph.add_edge("b", "k", "c")
    got = [answers for _i, _q, answers in executor.results(batch,
                                                           warmed=True)]
    assert got == [frozenset({("a", "b"), ("b", "c")})]
    assert evaluate(query, graph, "st") == {("a", "b"), ("b", "c")}


# ----------------------------------------------------------------------
# CLI --explain
# ----------------------------------------------------------------------


class TestExplainCLI:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("u a v\nv b w\nw c u\n")
        return str(path)

    def test_evaluate_explain_prints_plan_not_answers(self, graph_file,
                                                      capsys):
        assert main(["evaluate", "Q(x, z) :- x -[a]-> y, y -[b]-> z",
                     graph_file, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "min-degree elimination (order: y; out: x, z)" in out
        assert "answer(s)" not in out

    def test_evaluate_explain_rejects_trails(self, graph_file, capsys):
        code = main(["evaluate", "Q(x) :- x -[a*]-> x", graph_file,
                     "--semantics", "atom-trail", "--explain"])
        assert code == 4
        assert "explain" in capsys.readouterr().err

    def test_batch_explain(self, graph_file, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("Q(x, z) :- x -[a]-> y, y -[b]-> z\n"
                           "Q(x) :- x -[a]-> y, y -[b]-> z, z -[c]-> x\n")
        assert main(["batch", graph_file, str(queries), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "batch plan:" in out
        assert "min-degree elimination (order: y; out: x, z)" in out
        assert "min-degree elimination (order: y, z; out: x)" in out
        assert "semijoin reduction, then elimination again" in out
        assert "answer(s)" not in out
