"""Unit tests for the relation-guided q-inj engine
(:mod:`repro.engine.qinj`): witness-cache behavior, plan construction,
pruning soundness edge cases, explain rendering, and the CLI / batch
surfaces of the pruning plan.
"""

import pytest

from repro.cli import main
from repro.engine.batch import BatchExecutor, QueryBatch
from repro.engine.qinj import (
    LazyWitnesses,
    QinjPlan,
    cycle_witnesses,
    path_witnesses,
    plan_qinj,
)
from repro.engine.cache import compiled_nfa
from repro.engine.telemetry import registry as metrics_registry
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.semantics.evaluation import evaluate

# ----------------------------------------------------------------------
# LazyWitnesses
# ----------------------------------------------------------------------


class _CountingFactory:
    def __init__(self, items):
        self.items = tuple(items)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return iter(self.items)


class _FakePath:
    def __init__(self, nodes):
        self.nodes = tuple(nodes)


def test_lazy_witnesses_replays_from_one_factory_run():
    factory = _CountingFactory([_FakePath("ab"), _FakePath("ac")])
    lazy = LazyWitnesses(factory)
    first = list(lazy.paths())
    second = list(lazy.paths())
    assert [p.nodes for p in first] == [("a", "b"), ("a", "c")]
    assert second == first
    assert factory.calls == 1
    assert lazy.exhausted and not lazy.overflowed
    assert lazy.cached_count == 2


def test_lazy_witnesses_filters_forbidden_on_replay():
    factory = _CountingFactory(
        [_FakePath("axb"), _FakePath("ab"), _FakePath("ayb")]
    )
    lazy = LazyWitnesses(factory)
    assert [p.nodes for p in lazy.paths(frozenset("x"))] == [
        ("a", "b"), ("a", "y", "b")
    ]
    assert [p.nodes for p in lazy.paths(frozenset("xy"))] == [("a", "b")]
    assert factory.calls == 1


def test_lazy_witnesses_interleaved_consumers_share_the_cache():
    factory = _CountingFactory([_FakePath("ab"), _FakePath("ac"),
                                _FakePath("ad")])
    lazy = LazyWitnesses(factory)
    outer = lazy.paths()
    inner = lazy.paths()
    assert next(outer).nodes == ("a", "b")
    assert [p.nodes for p in inner] == [("a", "b"), ("a", "c"), ("a", "d")]
    assert [p.nodes for p in outer] == [("a", "c"), ("a", "d")]
    assert factory.calls == 1


def test_lazy_witnesses_overflow_falls_back_to_direct_enumeration():
    items = [_FakePath((f"s{i}", f"t{i}")) for i in range(7)]
    factory = _CountingFactory(items)
    lazy = LazyWitnesses(factory, cap=3)
    produced = list(lazy.paths())
    assert [p.nodes for p in produced] == [p.nodes for p in items]
    assert lazy.overflowed
    assert lazy.cached_count == 3
    # Replay: the cached prefix serves, the tail re-enumerates fresh.
    assert [p.nodes for p in lazy.paths()] == [p.nodes for p in items]
    assert factory.calls >= 2  # one shared run + ≥ 1 overflow tail


def test_lazy_witnesses_exactly_at_cap_is_exhausted_not_overflowed():
    """An entry with exactly cap paths must classify as exhausted —
    otherwise every replay pays a full redundant re-enumeration just to
    find an empty tail."""
    items = [_FakePath((f"s{i}", f"t{i}")) for i in range(3)]
    factory = _CountingFactory(items)
    lazy = LazyWitnesses(factory, cap=3)
    assert [p.nodes for p in lazy.paths()] == [p.nodes for p in items]
    assert lazy.exhausted and not lazy.overflowed
    assert [p.nodes for p in lazy.paths()] == [p.nodes for p in items]
    assert factory.calls == 1  # replay never restarts the factory


def test_path_witnesses_memoized_per_graph_version():
    graph = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "w")])
    nfa = compiled_nfa(parse_regex("ab"))
    entry = path_witnesses(graph, nfa, "u", "w")
    assert path_witnesses(graph, nfa, "u", "w") is entry
    assert [p.nodes for p in entry.paths()] == [("u", "v", "w")]
    graph.add_edge("w", "a", "u")  # mutation invalidates the store
    assert path_witnesses(graph, nfa, "u", "w") is not entry


def test_cycle_witnesses_exclude_empty_cycle():
    graph = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "u")])
    nfa = compiled_nfa(parse_regex("(ab)*"))
    cycles = list(cycle_witnesses(graph, nfa, "u").paths())
    assert [c.nodes for c in cycles] == [("u", "v", "u")]


# ----------------------------------------------------------------------
# Plan construction and pruning
# ----------------------------------------------------------------------


def _diamond_graph():
    return GraphDatabase(edges=[
        ("u", "a", "v"), ("u", "a", "w"),
        ("v", "b", "z"), ("w", "b", "z"),
        ("z", "c", "u"),
    ])


def _eps_free(text):
    query = parse_query(text)
    (disjunct,) = query.epsilon_free_union()
    return disjunct


def test_plan_reduces_candidate_tables():
    graph = _diamond_graph()
    query = _eps_free("Q(x, z) :- x -[a]-> y, y -[b]-> z")
    plan = plan_qinj(query, graph)
    assert plan.empty_reason is None
    # a-pairs {u→v, u→w} and b-pairs {v→z, w→z} are already consistent.
    assert dict(zip(("x", "y", "z"), ("",) * 3)).keys()  # readability no-op
    assert set(plan.domains["x"]) == {"u"}
    assert set(plan.domains["y"]) == {"v", "w"}
    assert set(plan.domains["z"]) == {"z"}
    assert plan.answers() == {("u", "z")}


def test_plan_drops_diagonal_for_non_loop_atoms():
    graph = GraphDatabase(edges=[("u", "a", "u"), ("u", "a", "v")])
    query = _eps_free("Q(x, y) :- x -[a]-> y")
    plan = plan_qinj(query, graph)
    (table,) = plan.tables.values()
    assert set(table.pairs) == {("u", "v")}  # (u, u) pruned by injectivity
    assert evaluate(parse_query("Q(x, y) :- x -[a]-> y"), graph, "q-inj") \
        == {("u", "v")}


def test_plan_turns_loop_atoms_into_domains():
    graph = GraphDatabase(edges=[
        ("u", "a", "v"), ("v", "b", "u"), ("w", "a", "w"),
    ])
    # "+" is union: L = ab | aa.
    query = _eps_free("Q(x) :- x -[(ab)+(aa)]-> x")
    plan = plan_qinj(query, graph)
    # Walk diagonal: u (ab-cycle via v) and w (the a-loop taken twice —
    # a non-simple walk the over-approximation keeps); not v (its only
    # closed walk spells ba ∉ L).
    assert set(plan.domains["x"]) == {"u", "w"}
    # The search then rejects w: aa at w would reuse the loop edge, and
    # a simple cycle cannot revisit w in the middle.
    assert plan.answers() == {("u",)}


@pytest.mark.parametrize("binding, reason_part", [
    ({"x": "u", "y": "u"}, "repeats"),
    ({"x": "ghost"}, "outside the graph"),
])
def test_plan_empty_reasons_for_bad_bindings(binding, reason_part):
    graph = _diamond_graph()
    query = _eps_free("Q(x, y) :- x -[a]-> y")
    plan = plan_qinj(query, graph, binding=binding)
    assert plan.empty_reason is not None and reason_part in plan.empty_reason
    assert plan.answers() == frozenset()
    assert not plan.is_satisfiable()
    assert "pruned empty" in plan.explain()


def test_plan_empty_when_more_variables_than_nodes():
    graph = GraphDatabase(edges=[("u", "a", "v")])
    query = _eps_free("Q() :- x -[a]-> y, p -[b]-> q")
    plan = plan_qinj(query, graph)
    assert "injectively" in plan.empty_reason
    assert list(plan.solutions()) == []


def test_plan_empty_when_reduction_empties_a_table():
    # No b-edge at all, but enough nodes that the arity guard passes.
    graph = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
    query = _eps_free("Q() :- x -[a]-> y, y -[b]-> z")
    plan = plan_qinj(query, graph)
    assert plan.empty_reason is not None
    assert "emptied" in plan.empty_reason


def test_search_order_prefers_small_connected_tables():
    graph = GraphDatabase(edges=[
        ("p1", "b", "q1"), ("p2", "b", "q1"),  # two b-pairs survive
        ("q1", "a", "r1"),                     # one a-pair
    ])
    query = _eps_free("Q() :- x -[b]-> y, y -[a]-> z")
    plan = plan_qinj(query, graph)
    assert len(plan.tables[0]) == 2 and len(plan.tables[1]) == 1
    # The a-atom (index 1) has the smaller reduced table, so it leads;
    # the b-atom follows it through the shared variable y.
    assert plan.order == (1, 0)


def test_binding_pins_domains():
    graph = _diamond_graph()
    query = _eps_free("Q(x, z) :- x -[a]-> y, y -[b]-> z")
    plan = plan_qinj(query, graph, binding={"x": "u", "z": "z"})
    assert plan.domains["x"] == ("u",)
    assert plan.domains["z"] == ("z",)
    assert plan.is_satisfiable()


# ----------------------------------------------------------------------
# Explain surfaces: plan, CLI, batch
# ----------------------------------------------------------------------


def test_explain_renders_pruning_pipeline():
    graph = _diamond_graph()
    graph.add_edge("q", "c", "q")  # a c-loop so the loop atom survives
    query = _eps_free("Q(x, z) :- x -[a]-> y, y -[b]-> z, w -[c]-> w")
    text = plan_qinj(query, graph).explain()
    assert "relation-guided joint backtracking" in text
    assert "|walk ⊇|" in text and "|reduced|" in text
    assert "loop atom 2" in text and "|walk diag ⊇|" in text
    assert "variable domains" in text
    assert "search order" in text
    assert "cap 512 paths/entry" in text


def test_explain_lists_unconstrained_variables():
    graph = _diamond_graph()
    query = _eps_free("Q(free) :- x -[a]-> y")
    text = plan_qinj(query, graph).explain()
    assert "unconstrained variables" in text and "free" in text


def test_cli_evaluate_explain_qinj(tmp_path, capsys):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("u a v\nv b w\nw c u\n")
    assert main(["evaluate", "Q(x, z) :- x -[a]-> y, y -[b]-> z",
                 str(graph_file), "--semantics", "q-inj",
                 "--explain"]) == 0
    out = capsys.readouterr().out
    assert "relation-guided joint backtracking" in out
    assert "|reduced|" in out
    assert "answer(s)" not in out  # no execution


def test_batch_explain_qinj_renders_per_query_plans(tmp_path, capsys):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("u a v\nv b w\nw c u\n")
    queries_file = tmp_path / "queries.txt"
    queries_file.write_text("Q(x, z) :- x -[a]-> y, y -[b]-> z\n"
                            "Q(x) :- x -[abc]-> x\n")
    assert main(["batch", str(graph_file), str(queries_file),
                 "--semantics", "q-inj", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "batch plan:" in out
    assert "distinct atom relations" in out  # real q-inj jobs now
    assert out.count("relation-guided joint backtracking") == 2
    assert "answer(s)" not in out


def test_batch_executor_feeds_plan_from_shared_store():
    graph = _diamond_graph()
    executor = BatchExecutor(graph, "q-inj")
    batch = QueryBatch([parse_query("Q(x, z) :- x -[a]-> y, y -[b]-> z")])
    plan = executor.warm(batch)
    assert {job.kind for job in plan.jobs} == {"standard"}
    (disjunct,) = batch.entries[0][1]
    misses = metrics_registry().counter("cache.relation.misses")
    before = misses.value
    guided = plan_qinj(disjunct, graph)  # the default hook reads the store
    assert misses.value == before
    assert guided.answers() == evaluate(batch.entries[0][0], graph, "q-inj")


def test_guided_solutions_equal_plan_answers_under_binding():
    graph = _diamond_graph()
    query = _eps_free("Q(x, z) :- x -[a]-> y, y -[b]-> z")
    full = plan_qinj(query, graph).answers()
    for answer in full:
        bound = plan_qinj(query, graph,
                          binding=dict(zip(query.head, answer)))
        assert bound.is_satisfiable()
    assert isinstance(plan_qinj(query, graph), QinjPlan)
