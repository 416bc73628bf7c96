"""Unit tests for the relation-guided q-inj engine
(:mod:`repro.engine.qinj`): witness search, the answers() exit rule,
plan construction, pruning soundness edge cases, explain rendering, and
the CLI / batch surfaces of the pruning plan.
"""

from collections import Counter

import pytest

from repro.analysis.catalog import by_name
from repro.cli import main
from repro.engine.batch import BatchExecutor, QueryBatch
from repro.engine.analyze import analyze, analyzed_disjuncts
from repro.engine.cache import _graph_cache
from repro.engine.qinj import QinjPlan, plan_qinj
from repro.engine.runtime import ExecutionContext, active_context
from repro.engine.telemetry import registry as metrics_registry
from repro.graphdb.generators import uniform_random
from repro.graphdb.graph import GraphDatabase
from repro.queries.atoms import Atom
from repro.queries.crpq import CRPQ
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.semantics.evaluation import evaluate
from tests.reference.baselines import _qinj_solutions, unguided_qinj_evaluate

# ----------------------------------------------------------------------
# Witness search
# ----------------------------------------------------------------------


def test_qinj_evaluation_leaves_no_per_endpoint_witness_entries():
    """Witnesses are enumerated at the point of use under the search's
    forbidden set; nothing keyed per endpoint pair is left behind."""
    graph = GraphDatabase(edges=[
        ("u", "a", "v"), ("u", "a", "w"), ("v", "a", "w"),
        ("w", "a", "u"), ("v", "b", "x"), ("w", "b", "x"),
        ("x", "b", "x"),
    ])
    query = parse_query("Q(x, y) :- x -[a^+]-> y, y -[b]-> z, z -[b^+]-> z")
    assert evaluate(query, graph, "q-inj")
    kinds = {key[0] for key in _graph_cache(graph)}
    assert not any("witness" in str(kind) for kind in kinds), kinds


# ----------------------------------------------------------------------
# The answers() exit rule: one witness per answer once the head is bound
# ----------------------------------------------------------------------


def _reference_solutions(query, graph):
    return {frozenset(mu.items()) for mu in _qinj_solutions(query, graph)}


def _exit_rule_graph():
    """Several simple paths per endpoint pair, a c-shortcut, loops."""
    return GraphDatabase(edges=[
        ("u", "a", "v"), ("u", "a", "w"), ("v", "a", "w"),
        ("v", "b", "z"), ("w", "b", "z"), ("w", "b", "v"),
        ("u", "c", "z"), ("z", "a", "u"), ("z", "b", "z"),
        ("v", "a", "v"), ("p", "a", "u"),
    ])


_FREE_VARIABLES = CRPQ(
    ("x", "f"),
    (Atom("x", parse_regex("a^+"), "y"),),
    extra_variables=("x", "y", "f", "g"),
)


@pytest.mark.parametrize("query", [
    # Boolean head: existence mode from the first atom on.
    "Q() :- x -[a^+]-> y, y -[b]-> z",
    # Diamond: the head binds at the last atom, reached through two ys.
    "Q(x, z) :- x -[a]-> y, y -[b]-> z",
    "Q(x, z) :- x -[a^+]-> y, y -[b^+]-> z",
    # Chain whose endpoints the c-shortcut places first.
    "Q(x, z) :- x -[a^+]-> y, y -[b]-> z, x -[c]-> z",
    # Loop atoms, alone and beside a binary atom.
    "Q(x) :- x -[(a+b)^+]-> x",
    "Q(x, y) :- x -[a^+]-> x, x -[a+b]-> y",
    "Q() :- x -[b]-> x, y -[a]-> y",
    # Duplicate atoms need two internally disjoint witnesses.
    "Q(x, y) :- x -[a^+]-> y, x -[a^+]-> y",
    "Q(x) :- x -[(a+b)^+]-> y, x -[(a+b)^+]-> y",
], ids=lambda text: text.split(" :- ")[1])
def test_answers_equal_reference_head_projection(query):
    graph = _exit_rule_graph()
    disjunct = _eps_free(query)
    assert plan_qinj(disjunct, graph).answers() == \
        unguided_qinj_evaluate(disjunct, graph)


def test_chain_endpoints_are_placed_first():
    query = _eps_free("Q(x, z) :- x -[a^+]-> y, y -[b]-> z, x -[c]-> z")
    plan = plan_qinj(query, _exit_rule_graph())
    # The c-atom binds the whole head before the chain is searched.
    assert plan.order[0] == 2
    assert plan.answers() == {("u", "z")}


def test_head_variable_in_no_atom():
    graph = _exit_rule_graph()
    plan = plan_qinj(_FREE_VARIABLES, graph)
    answers = plan.answers()
    assert answers == unguided_qinj_evaluate(_FREE_VARIABLES, graph)
    assert {f for _x, f in answers} == graph.nodes  # f ranges freely
    assert {frozenset(mu.items()) for mu in plan.solutions()} == \
        _reference_solutions(_FREE_VARIABLES, graph)


def test_answers_then_solutions_on_one_plan():
    """answers() leaves the plan as it found it: a later solutions()
    still enumerates every solution."""
    graph = _exit_rule_graph()
    for text in ("Q(x, z) :- x -[a^+]-> y, y -[b^+]-> z",
                 "Q(x) :- x -[(a+b)^+]-> y, x -[(a+b)^+]-> y"):
        query = _eps_free(text)
        plan = plan_qinj(query, graph)
        assert plan.answers() == unguided_qinj_evaluate(query, graph)
        assert {frozenset(mu.items()) for mu in plan.solutions()} == \
            _reference_solutions(query, graph)


def _count_searches(monkeypatch):
    """Record ``(blocked, reached)`` of every q-inj kernel search and
    count the paths the searches yield."""
    from repro.engine import qinj

    calls, yields = [], []
    original = qinj.search

    def counting(graph, nfa, source, target, blocked=frozenset(), **kwargs):
        calls.append((frozenset(blocked), kwargs.get("reached")))
        for hit in original(graph, nfa, source, target, blocked, **kwargs):
            yields.append(target)
            yield hit

    monkeypatch.setattr(qinj, "search", counting)
    return calls, yields


def test_one_atom_answers_consume_one_witness_each(monkeypatch):
    from repro.graphdb import paths

    graph = uniform_random(22, 66, {"a", "b"}, seed=1)
    query = _eps_free("Q(x, y) :- x -[(ab)^+]-> y")
    calls, _yields = _count_searches(monkeypatch)
    relation_searches = []
    original = paths.search

    def counting(*args, **kwargs):
        relation_searches.append(args[2:4])
        return original(*args, **kwargs)

    monkeypatch.setattr(paths, "search", counting)
    ctx = ExecutionContext()
    with active_context(ctx):
        plan = plan_qinj(query, graph)
        answers = plan.answers()
    searches = len(relation_searches)
    assert answers == unguided_qinj_evaluate(query, graph)
    assert ctx.witnesses == len(answers)
    # No joint search: the answers are the a-inj simple-path relation,
    # which shares one harvest per source, so some answers need no
    # search of their own.
    assert plan.rpq and not calls
    assert 0 < searches < len(answers)
    # The full enumeration still yields once per simple path.
    ctx = ExecutionContext()
    solutions = list(plan.solutions(ctx))
    assert len(solutions) == ctx.witnesses > len(answers)
    assert calls and all(reached is None for _blocked, reached in calls)


# ----------------------------------------------------------------------
# The terminal level shares one harvest per source
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("query", [
    "Q(x, z) :- x -[a^+]-> y, y -[(a+b)^+]-> z",
    "Q(x, z) :- x -[a]-> y, y -[(ab)^+]-> z",
    "Q(x, w) :- x -[a]-> y, y -[b]-> z, z -[(a+b)^+]-> w",
    "Q(x, w) :- x -[a^+]-> y, y -[b^+]-> z, z -[(a+b)^+]-> w",
], ids=lambda text: text.split(" :- ")[1])
def test_terminal_harvest_fires_under_a_forbidden_set(query, seed,
                                                       monkeypatch):
    graph = uniform_random(12, 36, {"a", "b"}, seed=seed)
    disjunct = _eps_free(query)
    reference = Counter(frozenset(mu.items())
                        for mu in _qinj_solutions(disjunct, graph))
    plan = plan_qinj(disjunct, graph)
    calls, yields = _count_searches(monkeypatch)
    ctx = ExecutionContext()
    with active_context(ctx):
        answers = plan.answers()
    assert answers == {tuple(dict(mu)[v] for v in disjunct.head)
                       for mu in reference}
    harvests = [blocked for blocked, reached in calls if reached is not None]
    # Every harvesting search avoids the nodes an earlier atom placed ...
    assert harvests and all(harvests)
    # ... and some witnesses came from a harvest, with no search.
    assert ctx.witnesses > len(yields)
    # Full enumeration never harvests, and keeps its multiplicity.
    del calls[:]
    assert Counter(frozenset(mu.items()) for mu in plan.solutions()) == \
        reference
    assert all(reached is None for _blocked, reached in calls)


def _no_harvest(plan, monkeypatch):
    calls, _yields = _count_searches(monkeypatch)
    answers = plan.answers()
    assert calls and all(reached is None for _blocked, reached in calls)
    return answers


def test_catalog_diamond_binds_both_ends_before_its_last_atom(monkeypatch):
    """The diamond's first atom binds the whole head, so its last atom
    has one target per source: there is nothing to share."""
    entry = by_name("diamond")
    (disjunct,) = entry.query.epsilon_free_union()
    graph = entry.graph()
    plan = plan_qinj(disjunct, graph)
    assert _no_harvest(plan, monkeypatch) == \
        unguided_qinj_evaluate(disjunct, graph)


def test_no_harvest_with_a_head_variable_in_no_atom(monkeypatch):
    graph = _exit_rule_graph()
    plan = plan_qinj(_FREE_VARIABLES, graph)
    assert _no_harvest(plan, monkeypatch) == \
        unguided_qinj_evaluate(_FREE_VARIABLES, graph)


def test_no_harvest_when_a_loop_atom_is_last(monkeypatch):
    graph = GraphDatabase(edges=[
        ("u", "a", "v"), ("v", "b", "v"), ("v", "a", "w"), ("w", "b", "v"),
        ("p", "a", "q"), ("q", "b", "q"),
    ])
    disjunct = _eps_free("Q(x, y) :- x -[a]-> y, y -[b^+]-> y")
    plan = plan_qinj(disjunct, graph)
    assert disjunct.atoms[plan.order[-1]].is_loop()
    answers = _no_harvest(plan, monkeypatch)
    assert answers == unguided_qinj_evaluate(disjunct, graph)
    assert answers == {("u", "v"), ("p", "q")}


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
    # "+" is union: L = ab | aa.  A Boolean head keeps the search plan.
    query = _eps_free("Q() :- x -[(ab)+(aa)]-> x")
    plan = plan_qinj(query, graph)
    # Walk diagonal: u (ab-cycle via v) and w (the a-loop taken twice —
    # a non-simple walk the over-approximation keeps); not v (its only
    # closed walk spells ba ∉ L).
    assert set(plan.domains["x"]) == {"u", "w"}
    # The search then rejects w: aa at w would reuse the loop edge, and
    # a simple cycle cannot revisit w in the middle.
    assert {mu["x"] for mu in plan.solutions()} == {"u"}
    # With x in the head the plan reads the simple-cycle diagonal.
    rpq = plan_qinj(_eps_free("Q(x) :- x -[(ab)+(aa)]-> x"), graph)
    assert rpq.rpq and rpq.domains["x"] == ("u",)
    assert rpq.answers() == {("u",)}


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
    assert "witnesses: simple-path DFS per candidate pair" in text
    assert "the terminal level shares one harvest per source" in text
    assert "first witness" in text


@pytest.mark.parametrize("text, relation", [
    ("Q(x, y) :- x -[a]-> y", "a-inj simple-path relation, diagonal removed"),
    ("Q(y, x, y) :- x -[a]-> y",
     "a-inj simple-path relation, diagonal removed"),
    ("Q(x) :- x -[ab]-> x", "a-inj simple-cycle diagonal"),
    ("Q(x) :- x -[a]-> y", None),
    ("Q() :- x -[a]-> y", None),
    ("Q(x, y) :- x -[a]-> y, y -[b]-> x", None),
    (CRPQ(("x", "y"), (Atom("x", parse_regex("a"), "y"),),
          extra_variables=("z",)), None),
], ids=str)
def test_downgrade_lint_fires_exactly_on_rpq_plans(text, relation):
    graph = _diamond_graph()
    query = parse_query(text) if isinstance(text, str) else text
    (disjunct,) = analyzed_disjuncts(query, "q-inj")
    plan = plan_qinj(disjunct, graph)
    assert plan.rpq is (relation is not None)
    lints = [str(lint) for lint in analyze(query, "q-inj").lints
             if lint.code == "semantics-downgrade-safe"]
    rendered = plan.explain()
    if relation is None:
        assert not lints
        assert "relation-guided joint backtracking" in rendered
        assert "no joint search" not in rendered
        return
    assert lints == [f"semantics-downgrade-safe: d0: RPQ shape: q-inj "
                     f"answers read the {relation}; no joint search"]
    assert f"semantics: q-inj — RPQ shape: {relation}; no joint search" \
        in rendered
    assert "relation-guided" not in rendered
    # A membership binding keeps the search plan.
    pinned = plan_qinj(disjunct, graph, binding={"x": "u"})
    assert not pinned.rpq
    assert "relation-guided joint backtracking" in pinned.explain()
    for other in ("st", "a-inj"):
        assert not [lint for lint in analyze(query, other).lints
                    if lint.code == "semantics-downgrade-safe"]


def test_explain_renders_rpq_relation_size():
    graph = _diamond_graph()
    text = plan_qinj(_eps_free("Q(x, z) :- x -[ab]-> z"), graph).explain()
    assert "  atom 0: x -[ab]-> z  |simple-path pairs| = 1" in text
    assert "one witness charged per answer" in text


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
    # The loop query is RPQ-shaped: it reads the a-inj relation.
    assert out.count("relation-guided joint backtracking") == 1
    assert out.count("a-inj simple-cycle diagonal; no joint search") == 1
    assert "answer(s)" not in out


def test_batch_executor_feeds_plan_from_shared_store():
    graph = _diamond_graph()
    executor = BatchExecutor(graph, "q-inj")
    batch = QueryBatch([parse_query("Q(x, z) :- x -[a]-> y, y -[b]-> z")])
    plan = executor.warm(batch)
    assert {job.kind for job in plan.jobs} == {"standard"}
    (query,) = batch
    (disjunct,) = analyzed_disjuncts(query, "q-inj")
    misses = metrics_registry().counter("cache.relation.misses")
    before = misses.value
    guided = plan_qinj(disjunct, graph)  # the default hook reads the store
    assert misses.value == before
    assert guided.answers() == evaluate(query, graph, "q-inj")


def test_guided_solutions_equal_plan_answers_under_binding():
    graph = _diamond_graph()
    query = _eps_free("Q(x, z) :- x -[a]-> y, y -[b]-> z")
    full = plan_qinj(query, graph).answers()
    for answer in full:
        bound = plan_qinj(query, graph,
                          binding=dict(zip(query.head, answer)))
        assert bound.is_satisfiable()
    assert isinstance(plan_qinj(query, graph), QinjPlan)
