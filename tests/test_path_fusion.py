"""Standard-semantics path fusion in the planner.

A non-head variable ``z`` met by exactly two atoms, ``x -[L1]-> z`` and
``z -[L2]-> y``, is planned as one atom ``x -[L1·L2]-> y`` under st with
the default relation store and no incremental store attached — unless
both factor relations are already materialized.  These tests pin which shapes fuse, that the fused plan
answers like the unfused one, and (through the ``planner.fused``
counter) that the differential matrix's seeded cases reach both a fused
st plan and one left unfused because its factors were materialized.
"""

import pytest

from repro.engine import telemetry
from repro.engine.incremental import IncrementalRelationStore
from repro.engine.planner import plan_eps_free
from repro.engine.relations import atom_relation, relation_for
from repro.graphdb.generators import uniform_random
from repro.queries.parser import parse_query
from repro.semantics.base import ALL_SEMANTICS, Semantics
from repro.semantics.evaluation import evaluate, in_evaluation
from tests.differential_matrix import AXES, CASE_COUNT, case

ST = Semantics.STANDARD
CHAIN = "Q(x, y) :- x -[ab]-> z, z -[(ab)^+]-> y"


def _graph():
    return uniform_random(30, 90, {"a", "b"}, seed=11)


def _fused():
    return telemetry.registry().counter("planner.fused").value


def _unfused_answers(query, graph, semantics=ST):
    return plan_eps_free(query, graph.copy(), semantics,
                         relation_for=relation_for).answers()


def test_chain_is_fused_into_one_atom():
    query, graph = parse_query(CHAIN), _graph()
    before = _fused()
    plan = plan_eps_free(query, graph, ST)
    assert _fused() - before == 1
    assert [fusion[0] for fusion in plan.fusions] == ["z"]
    (component,) = plan.components
    assert [str(p.atom) for p in component.atoms] == \
        ["x -[(ab)(ab)^+]-> y"]
    assert component.elimination_order == ()
    assert "fused z: atom 0 · atom 1 → atom 0·1: x -[(ab)(ab)^+]-> y" \
        in plan.explain()
    assert plan.answers() == _unfused_answers(query, graph)


def test_longer_chain_fuses_every_inner_variable():
    query = parse_query("Q(x, y) :- x -[a]-> p, p -[b^+]-> q, q -[a]-> y")
    graph = _graph()
    plan = plan_eps_free(query, graph, ST)
    assert [fusion[0] for fusion in plan.fusions] == ["p", "q"]
    assert [p.index for c in plan.components for p in c.atoms] == ["0·1·2"]
    assert plan.answers() == _unfused_answers(query, graph)


def test_equal_endpoints_give_a_loop_atom():
    query = parse_query("Q(x) :- x -[ab]-> z, z -[b^+ a]-> x")
    graph = _graph()
    plan = plan_eps_free(query, graph, ST)
    assert [(index, str(atom)) for index, atom, _ in plan.loop_atoms] == \
        [("0·1", "x -[(ab)(b^+a)]-> x")]
    assert plan.answers() == _unfused_answers(query, graph)


@pytest.mark.parametrize("text", [
    # z is a head variable.
    "Q(x, z, y) :- x -[ab]-> z, z -[(ab)^+]-> y",
    # z also carries a loop atom.
    "Q(x, y) :- x -[ab]-> z, z -[(ab)^+]-> y, z -[ba]-> z",
    # z meets two atoms, both into z.
    "Q(x, y) :- x -[ab]-> z, y -[(ab)^+]-> z",
    # z meets three atoms.
    "Q(x, y) :- x -[ab]-> z, z -[(ab)^+]-> y, z -[b]-> y",
    # Only loop atoms.
    "Q() :- x -[ab]-> x",
], ids=["head", "loop", "both-into", "degree-3", "loop-only"])
def test_shapes_left_alone(text):
    query, graph = parse_query(text), _graph()
    before = _fused()
    plan = plan_eps_free(query, graph, ST)
    assert plan.fusions == () and _fused() == before
    assert plan.answers() == _unfused_answers(query, graph)


@pytest.mark.parametrize("semantics", [Semantics.ATOM_INJECTIVE,
                                       Semantics.QUERY_INJECTIVE], ids=str)
def test_injective_semantics_never_fuse(semantics):
    """One simple path through z is not two simple paths that may share
    nodes, so fusion is st-only."""
    query, graph = parse_query(CHAIN), _graph()
    before = _fused()
    evaluate(query, graph, semantics)
    assert _fused() == before
    if semantics is Semantics.ATOM_INJECTIVE:
        assert plan_eps_free(query, graph, semantics).fusions == ()


def test_materialized_factors_stay_unfused():
    query, graph = parse_query(CHAIN), _graph()
    first, second = query.atoms
    atom_relation(graph, first.language, "standard")
    # One factor materialized: the fused relation still saves a kernel
    # run and the join.
    assert len(plan_eps_free(query, graph, ST).fusions) == 1
    atom_relation(graph, second.language, "standard")
    plan = plan_eps_free(query, graph, ST)
    assert plan.fusions == ()
    assert plan.answers() == _unfused_answers(query, graph)
    # A new graph version materializes nothing.
    graph.add_edge("fresh", "a", "fresh")
    assert len(plan_eps_free(query, graph, ST).fusions) == 1


def test_store_maintained_factors_stay_unfused():
    """A store-attached graph never fuses: the store would maintain the
    concatenated language as a private relation beside the factors."""
    query, graph = parse_query(CHAIN), _graph()
    IncrementalRelationStore(graph)
    assert plan_eps_free(query, graph, ST).fusions == ()
    graph.add_edge("fresh", "a", "fresh")
    assert plan_eps_free(query, graph, ST).fusions == ()


def test_membership_on_a_store_graph_builds_only_the_factors():
    """``in_evaluation`` plans without the store's result fingerprint;
    it must build the factor relations ``evaluate`` reads, not a fused
    one, and the store labels each by its language."""
    graph = uniform_random(30, 90, {"a", "b"}, seed=1)
    store = IncrementalRelationStore(graph)
    query = parse_query("Q(x, y) :- x -[a]-> z, z -[b]-> y")
    answers = evaluate(query, graph.copy(), "st")
    pair = min(answers, key=repr)
    assert in_evaluation(query, graph, pair, "st")
    assert evaluate(query, graph, "st") == answers
    assert store.counts["built"] == 2
    assert sorted(label for _version, label, _text in store.decisions) \
        == ["a", "b"]


def test_explicit_relation_for_stays_unfused():
    query, graph = parse_query(CHAIN), _graph()
    before = _fused()
    plan = plan_eps_free(query, graph, ST, relation_for=relation_for)
    assert plan.fusions == () and _fused() == before
    assert plan.components[0].elimination_order == ("z",)


# ----------------------------------------------------------------------
# The differential matrix reaches both branches
# ----------------------------------------------------------------------


def _fused_by(axis, seeds):
    """``{seed: planner.fused delta}`` of ``axis`` on each st case (the
    axis checks every answer against the brute-force reference)."""
    deltas = {}
    for seed in seeds:
        before = _fused()
        AXES[axis](case(seed), ST)
        deltas[seed] = _fused() - before
    return deltas


def test_matrix_reaches_fused_and_materialized_st_plans():
    fusing = [seed for seed, delta
              in _fused_by("evaluate", range(CASE_COUNT)).items() if delta]
    assert fusing, "no matrix case fuses under st"
    # A batch warms every atom relation before planning, and a store
    # fingerprints a disjunct by its maintained relations first: the
    # same cases then plan unfused.
    assert set(_fused_by("batch", fusing).values()) == {0}
    assert set(_fused_by("store", fusing).values()) == {0}


def test_matrix_injective_cases_never_fuse():
    for semantics in ALL_SEMANTICS:
        if semantics is ST:
            continue
        before = _fused()
        for seed in range(CASE_COUNT):
            AXES["evaluate"](case(seed), semantics)
        assert _fused() == before, semantics
