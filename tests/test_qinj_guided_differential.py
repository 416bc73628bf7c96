"""The differential matrix's q-inj axes (:mod:`tests.differential_matrix`):
the relation-guided search against the brute injective search.
Hand-built instances pin the shapes the pruning treats specially: loop
atoms, disconnected components, atom-free variables and parallel atoms
sharing one edge.
"""

import pytest

from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.semantics.base import Semantics
from repro.semantics.evaluation import evaluate, in_evaluation
from tests.differential_matrix import check, stripe
from tests.reference.brute import answers

QINJ = [Semantics.QUERY_INJECTIVE]


@pytest.mark.parametrize("seed", range(10))
def test_evaluate_matches_unguided(seed):
    check("evaluate", stripe(seed, 10), QINJ)


@pytest.mark.parametrize("seed", range(6))
def test_in_evaluation_matches_unguided(seed):
    check("in-evaluation", stripe(seed, 6), QINJ)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("workers", [None, 3], ids=["serial", "threaded"])
def test_evaluate_batch_matches_unguided(seed, workers):
    check("batch" if workers is None else "batch-threaded",
          stripe(seed, 6), QINJ)


# ----------------------------------------------------------------------
# Hand-built shapes the pruning treats specially
# ----------------------------------------------------------------------


def _pinned_graph():
    return GraphDatabase(edges=[
        ("u", "a", "v"), ("v", "b", "w"), ("w", "a", "u"),
        ("v", "a", "v2"), ("v2", "b", "u"), ("x0", "a", "x0"),
    ])


@pytest.mark.parametrize("text", [
    # loop atoms: unary diagonal constraints + cycle witnesses
    "Q(x) :- x -[aba]-> x",
    "Q(x, y) :- x -[ab]-> y, y -[a+b]-> y",
    # disconnected components: independent sub-searches must still
    # share the injectivity budget (a cartesian product is WRONG here)
    "Q(x, p) :- x -[a]-> y, p -[b]-> q",
    "Q() :- x -[a]-> y, p -[ab]-> q",
    # an atom-free variable: leftover-node scan after the atoms place
    "Q(z) :- x -[ab]-> y",
    # parallel atoms between one variable pair may share an edge
    "Q(x, y) :- x -[a]-> y, x -[a+b]-> y",
    # repeated head variable
    "Q(x, x) :- x -[ab]-> y",
], ids=lambda t: t.split(":-")[1].strip()[:28])
def test_special_shapes_match_unguided(text):
    graph = _pinned_graph()
    query = parse_query(text)
    want = answers(query, graph, "q-inj")
    assert evaluate(query, graph, "q-inj") == want, str(query)
    nodes = sorted(graph.nodes, key=repr)
    probes = sorted(want, key=repr)[:3] + [
        tuple(nodes[:len(query.head)]),
        tuple(nodes[-len(query.head):]) if query.head else (),
    ]
    for target in probes:
        assert in_evaluation(query, graph, target, "q-inj") == \
            (target in want), (str(query), target)


def test_internal_node_clash_still_detected():
    """The guided search must keep the joint internal-node bookkeeping:
    two atoms whose only witnesses route through the same middle node
    cannot both be satisfied, even though each atom's pruned relation
    is non-empty."""
    graph = GraphDatabase(edges=[
        ("s1", "a", "m"), ("m", "a", "t1"),
        ("s2", "b", "m"), ("m", "b", "t2"),
    ])
    query = parse_query(
        "Q() :- x1 -[aa]-> y1, x2 -[bb]-> y2"
    )
    assert answers(query, graph, "q-inj") == frozenset()
    assert evaluate(query, graph, "q-inj") == frozenset()
    # Removing one atom makes it satisfiable — the clash, not the
    # individual atoms, is what rules the query out.
    half = parse_query("Q() :- x1 -[aa]-> y1")
    assert evaluate(half, graph, "q-inj") == {()}


def test_more_variables_than_nodes_short_circuits():
    graph = GraphDatabase(edges=[("u", "a", "v")])
    query = parse_query("Q() :- x -[a]-> y, p -[a]-> q")
    assert answers(query, graph, "q-inj") == frozenset()
    assert evaluate(query, graph, "q-inj") == frozenset()
