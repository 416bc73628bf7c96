"""RPQ-shaped q-inj disjuncts against the brute injective search.

A disjunct with one atom, every variable an endpoint of it and in the
head (:func:`repro.engine.analyze.rpq_atom`), answers q-inj queries from
its atom's a-inj relation with no joint search
(:func:`repro.engine.qinj.plan_qinj`).  Its answers must equal
``tests/reference/brute.py`` on seeded random graphs and languages, under
every head that rewrites the pair, for loop atoms, and through the
batch executor.  The shapes that keep the guided search (a partial or
Boolean head, an extra variable, a membership binding) run beside them,
and a witness cap below the answer count still trips.
"""

import random

import pytest

from repro.analysis.workloads import random_language
from repro.engine.analyze import analyzed_disjuncts
from repro.engine.qinj import plan_qinj
from repro.engine.runtime import ResourceBudget
from repro.errors import ResourceExhausted
from repro.graphdb.generators import uniform_random
from repro.queries.atoms import Atom
from repro.queries.crpq import CRPQ, QueryClass
from repro.queries.parser import parse_query
from repro.semantics.evaluation import evaluate, evaluate_batch, in_evaluation
from tests.reference.brute import answers

SEEDS = range(16)

#: ``(head, target, extra variables, RPQ plan?)`` over the atom
#: ``x -[L]-> target``.
SHAPES = {
    "Q(x, y)": (("x", "y"), "y", (), True),
    "Q(y, x)": (("y", "x"), "y", (), True),
    "Q(y, x, y)": (("y", "x", "y"), "y", (), True),
    "Q(x) loop": (("x",), "x", (), True),
    "Q(x, x) loop": (("x", "x"), "x", (), True),
    "Q(x)": (("x",), "y", (), False),
    "Q()": ((), "y", (), False),
    "Q() loop": ((), "x", (), False),
    "Q(x, y) extra z": (("x", "y"), "y", ("z",), False),
}


def _case(seed, shape):
    """A seeded graph and a one-atom query of ``shape`` over a random
    language (ε-accepting languages add the ε-branch disjunct)."""
    rng = random.Random(seed)
    nodes = rng.randint(5, 9)
    graph = uniform_random(nodes, rng.randint(2 * nodes, 4 * nodes),
                           {"a", "b"}, seed=seed)
    language = random_language(rng, ("a", "b"), QueryClass.CRPQ)
    head, target, extra, _rpq = SHAPES[shape]
    query = CRPQ(head, (Atom("x", language, target),),
                 extra_variables=extra)
    return graph, query


def _plans(query, graph):
    return [plan_qinj(disjunct, graph)
            for disjunct in analyzed_disjuncts(query, "q-inj")
            if disjunct.atoms]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_evaluate_matches_brute(seed, shape):
    graph, query = _case(seed, shape)
    want = answers(query, graph, "q-inj")
    assert evaluate(query, graph, "q-inj") == want, str(query)
    assert all(plan.rpq is SHAPES[shape][3]
               for plan in _plans(query, graph)), str(query)


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_matches_brute(seed):
    graph, _query = _case(seed, "Q(x, y)")
    queries = [_case(seed, shape)[1] for shape in SHAPES]
    assert evaluate_batch(queries, graph, "q-inj") == [
        answers(query, graph, "q-inj") for query in queries]


@pytest.mark.parametrize("shape", ["Q(x, y)", "Q(y, x, y)", "Q(x) loop"])
@pytest.mark.parametrize("seed", range(8))
def test_membership_keeps_the_search(seed, shape):
    graph, query = _case(seed, shape)
    want = answers(query, graph, "q-inj")
    nodes = sorted(graph.nodes, key=repr)
    arity = len(query.head)
    probes = sorted(want, key=repr)[:3] + [
        tuple(nodes[:arity]), tuple(nodes[-arity:]),
        tuple(nodes[1:1 + arity]),
    ]
    for target in probes:
        assert in_evaluation(query, graph, target, "q-inj") == \
            (target in want), (str(query), target)
    for disjunct in analyzed_disjuncts(query, "q-inj"):
        if disjunct.atoms:
            binding = {disjunct.head[0]: nodes[0]}
            assert not plan_qinj(disjunct, graph, binding=binding).rpq


def test_solutions_still_search_the_rpq_table():
    graph = uniform_random(10, 30, {"a", "b"}, seed=1)
    query = parse_query("Q(y, x) :- x -[(ab)^+]-> y")
    (disjunct,) = analyzed_disjuncts(query, "q-inj")
    plan = plan_qinj(disjunct, graph)
    assert plan.rpq
    solutions = {(mu["y"], mu["x"]) for mu in plan.solutions()}
    assert solutions == plan.answers() == answers(query, graph, "q-inj")
    assert plan.is_satisfiable()


def test_witness_cap_below_the_answer_count_trips():
    graph = uniform_random(10, 30, {"a", "b"}, seed=1)
    query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
    want = answers(query, graph, "q-inj")
    assert len(want) > 1
    cap = len(want) - 1
    with pytest.raises(ResourceExhausted) as excinfo:
        evaluate(query, graph.copy(), "q-inj",
                 budget=ResourceBudget(witness_cap=cap))
    assert excinfo.value.kind == "witnesses"
    assert excinfo.value.limit == cap
    assert evaluate(query, graph.copy(), "q-inj",
                    budget=ResourceBudget(witness_cap=len(want))) == want
