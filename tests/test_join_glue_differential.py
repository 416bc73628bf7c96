"""Differential tests: join-engine glue vs the pre-PR CSP glue.

The join planner replaced the st / a-inj glue (relation-``GraphDatabase``
materialization + backtracking homomorphism enumeration) with min-degree
variable elimination over hash joins.  None of that may change a single
answer.  This suite transcribes the old glue independently (it reads
atom relations through the same :func:`repro.semantics.evaluation.
atom_pairs`, so the *only* difference is the glue) and pins

- ``evaluate`` — answer-set equality,
- ``in_evaluation`` — membership equality on answers and non-answers,
- ``evaluate_batch`` — per-query equality through the shared store,

on randomized graphs and random queries for standard and atom-injective
semantics, plus a set of named fixed shapes (the repo benchmark's cold
standard-semantics queries, parallel atoms, a star, a long chain) (q-inj keeps its joint search untouched; one spot check pins
it against the hierarchy anyway).
"""

import random

import pytest

from repro.analysis.catalog import by_name
from repro.analysis.workloads import random_query
from repro.graphdb.generators import uniform_random
from repro.graphdb.graph import GraphDatabase
from repro.homomorphism.matcher import homomorphisms
from repro.queries.atoms import CQAtom
from repro.queries.cq import CQ
from repro.queries.crpq import QueryClass, union_of
from repro.queries.parser import parse_query
from repro.semantics.base import Semantics
from repro.semantics.evaluation import (
    atom_pairs,
    evaluate,
    evaluate_batch,
    in_evaluation,
)

# ----------------------------------------------------------------------
# The pre-join-engine glue, transcribed
# ----------------------------------------------------------------------


def old_glue_eps_free(query, graph, semantics):
    relation_graph = GraphDatabase(nodes=graph.nodes)
    cq_atoms = []
    for index, atom in enumerate(query.atoms):
        label = ("rel", index)
        for source, target in atom_pairs(graph, atom, semantics):
            relation_graph.add_edge(source, label, target)
        cq_atoms.append(CQAtom(atom.source, label, atom.target))
    relation_cq = CQ(query.head, cq_atoms, extra_variables=query.variables)
    return relation_graph, relation_cq


def old_evaluate(query, graph, semantics):
    results = set()
    for disjunct in union_of(query):
        for eps_free in disjunct.epsilon_free_union():
            relation_graph, relation_cq = old_glue_eps_free(
                eps_free, graph, semantics
            )
            results |= {
                tuple(hom[v] for v in eps_free.head)
                for hom in homomorphisms(relation_cq, relation_graph)
            }
    return frozenset(results)


def old_in_evaluation(query, graph, target_tuple, semantics):
    target_tuple = tuple(target_tuple)
    for disjunct in union_of(query):
        for eps_free in disjunct.epsilon_free_union():
            relation_graph, relation_cq = old_glue_eps_free(
                eps_free, graph, semantics
            )
            for _hom in homomorphisms(relation_cq, relation_graph,
                                      target_tuple=target_tuple):
                return True
    return False


# ----------------------------------------------------------------------
# Randomized equivalence
# ----------------------------------------------------------------------


def _random_setup(seed, semantics):
    rng = random.Random(seed)
    num_nodes = rng.randrange(3, 8)
    graph = uniform_random(
        num_nodes, rng.randrange(2, 3 * num_nodes), {"a", "b"}, seed=seed
    )
    # a-inj atom relations are NP-hard per atom — keep its instances
    # smaller so the suite stays fast; the glue sees the same tables.
    query_class = (QueryClass.CRPQ if semantics is Semantics.STANDARD
                   else QueryClass.CRPQ_FIN)
    queries = [
        random_query(
            rng, query_class,
            num_variables=rng.randrange(2, 5),
            num_atoms=rng.randrange(1, 4),
            arity=rng.randrange(0, 3),
        )
        for _ in range(4)
    ]
    return rng, graph, queries


@pytest.mark.parametrize("semantics",
                         [Semantics.STANDARD, Semantics.ATOM_INJECTIVE],
                         ids=str)
@pytest.mark.parametrize("seed", range(10))
def test_evaluate_matches_old_glue(seed, semantics):
    _rng, graph, queries = _random_setup(seed, semantics)
    for query in queries:
        want = old_evaluate(query, graph, semantics)
        assert evaluate(query, graph, semantics) == want, str(query)


@pytest.mark.parametrize("semantics",
                         [Semantics.STANDARD, Semantics.ATOM_INJECTIVE],
                         ids=str)
@pytest.mark.parametrize("seed", range(6))
def test_in_evaluation_matches_old_glue(seed, semantics):
    rng, graph, queries = _random_setup(seed, semantics)
    nodes = sorted(graph.nodes, key=repr)
    for query in queries:
        answers = sorted(old_evaluate(query, graph, semantics), key=repr)
        candidates = list(answers[:3])
        for _ in range(3):  # random tuples, mostly non-answers
            candidates.append(
                tuple(rng.choice(nodes) for _ in query.head)
            )
        for target in candidates:
            want = old_in_evaluation(query, graph, target, semantics)
            assert in_evaluation(query, graph, target, semantics) == want, (
                str(query), target
            )


@pytest.mark.parametrize("semantics",
                         [Semantics.STANDARD, Semantics.ATOM_INJECTIVE],
                         ids=str)
@pytest.mark.parametrize("seed", range(6))
def test_evaluate_batch_matches_old_glue(seed, semantics):
    _rng, graph, queries = _random_setup(seed, semantics)
    want = [old_evaluate(query, graph, semantics) for query in queries]
    assert evaluate_batch(queries, graph, semantics) == want


# ----------------------------------------------------------------------
# Named fixed shapes
# ----------------------------------------------------------------------

FIXED_SHAPES = {
    # The cold standard-semantics shapes of perfbench/workloads.py.
    "reach-plus": "Q(x, y) :- x -[(ab)^+]-> y",
    "reach-star": "Q(x, y) :- x -[a* b]-> y",
    "triangle": "Q(x, y, z) :- x -[ab]-> y, y -[b]-> z, z -[a b*]-> x",
    "boolean": "Q() :- x -[(ab)^+]-> y, y -[ba]-> x",
    "chain": "Q(x, y) :- x -[ab]-> z, z -[(ab)^+]-> y",
    "parallel-atoms": "Q(x, y) :- x -[a^+ b]-> y, x -[(a+b) b]-> y",
    "star-3": "Q(x, y, z) :- w -[a]-> x, w -[b]-> y, w -[ab]-> z",
}


def _fixed_shape(name):
    if name == "chain-6":
        entry = by_name(name)
        return entry.query, entry.graph()
    graph = uniform_random(10, 30, {"a", "b"}, seed=5)
    return parse_query(FIXED_SHAPES[name]), graph


@pytest.mark.parametrize("semantics",
                         [Semantics.STANDARD, Semantics.ATOM_INJECTIVE],
                         ids=str)
@pytest.mark.parametrize("name", [*FIXED_SHAPES, "chain-6"])
def test_fixed_shape_matches_old_glue(name, semantics):
    query, graph = _fixed_shape(name)
    answers = old_evaluate(query, graph, semantics)
    assert evaluate(query, graph, semantics) == answers
    rng = random.Random(name)
    nodes = sorted(graph.nodes, key=repr)
    candidates = sorted(answers, key=repr)[:3] + [
        tuple(rng.choice(nodes) for _ in query.head) for _ in range(3)
    ]
    for target in candidates:
        want = old_in_evaluation(query, graph, target, semantics)
        assert in_evaluation(query, graph, target, semantics) == want, target


@pytest.mark.parametrize("seed", range(4))
def test_qinj_untouched_and_below_ainj(seed):
    """q-inj keeps its joint search; pin it against the a-inj hierarchy
    (Remark 2.1) on the same random instances as a cross-check."""
    _rng, graph, queries = _random_setup(seed, Semantics.ATOM_INJECTIVE)
    for query in queries:
        qinj = evaluate(query, graph, Semantics.QUERY_INJECTIVE)
        ainj = old_evaluate(query, graph, Semantics.ATOM_INJECTIVE)
        assert qinj <= ainj, str(query)
