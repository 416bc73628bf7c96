"""Join-glue benchmark — variable elimination vs the pre-PR CSP glue.

Acceptance pin for the join engine: on a chain-CRPQ workload
(length-6 chains, standard semantics) the planner's elimination glue
must be ≥ 5× faster than the transcribed pre-join evaluation path —
relation-``GraphDatabase`` materialization plus backtracking
homomorphism enumeration (``csp_glue_evaluate`` in
``tests/reference/baselines.py``).

Engine caches are dropped before every evaluation so each call pays the
full uncached cost; the chain languages are single symbols, so the atom
relations are trivial and the *glue* dominates both sides — exactly the
cost the join engine replaces.  The join side plans with an explicit
``relation_for``, which keeps every atom: standard-semantics path
fusion would plan a whole chain as one atom and time no glue at all.

A second gate pins path fusion itself: a cold ``evaluate`` of the repo
benchmark's cold-st ``chain`` shape on ``uniform_random(200, 600)``
graphs must be ≥ 2× faster than the same query planned unfused (two
product-kernel runs and a join).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_join.py -q
"""

import pytest

from _timing import interleaved_medians
from _trajectory import TrajectoryRecorder
from repro.analysis.batching import drop_all_caches
from repro.analysis.join_glue import chain_query
from repro.engine.analyze import analyzed_disjuncts
from repro.engine.planner import plan_eps_free
from repro.engine.relations import relation_for
from repro.graphdb.generators import uniform_random
from repro.queries.parser import parse_query
from repro.semantics.base import Semantics
from repro.semantics.evaluation import evaluate
from tests.reference.baselines import csp_glue_evaluate

_TRAJECTORY = TrajectoryRecorder("join")

CHAIN_LENGTH = 6
SEMANTICS = "st"


def _graph(num_nodes, seed=11):
    return uniform_random(num_nodes, 3 * num_nodes, {"a", "b"}, seed=seed)


def _workload():
    """A handful of length-6 chains with distinct label patterns (so no
    query-result cache hit can blur the per-query glue cost)."""
    return [
        chain_query(CHAIN_LENGTH, alphabet)
        for alphabet in (("a", "b"), ("b", "a"), ("a", "a", "b"),
                         ("b", "b", "a"))
    ]


def _run_csp(queries, graph):
    results = []
    for query in queries:
        drop_all_caches(graph)
        results.append(csp_glue_evaluate(query, graph, SEMANTICS))
    return results


def _unfused(query, graph):
    """``evaluate``'s answers, every disjunct planned with its atoms as
    written (an explicit ``relation_for`` turns path fusion off)."""
    answers = set()
    for disjunct in analyzed_disjuncts(query, SEMANTICS):
        answers |= plan_eps_free(disjunct, graph, Semantics.STANDARD,
                                 relation_for=relation_for).answers()
    return frozenset(answers)


def _run_join(queries, graph):
    results = []
    for query in queries:
        drop_all_caches(graph)
        results.append(_unfused(query, graph))
    return results


# ----------------------------------------------------------------------
# pytest-benchmark timings
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_nodes", [18, 30], ids=lambda n: f"n={n}")
def test_bench_join_glue(benchmark, num_nodes):
    graph = _graph(num_nodes)
    queries = _workload()
    joined = benchmark(_run_join, queries, graph)
    assert joined == _run_csp(queries, graph)


@pytest.mark.parametrize("num_nodes", [18, 30], ids=lambda n: f"n={n}")
def test_bench_csp_glue(benchmark, num_nodes):
    graph = _graph(num_nodes)
    queries = _workload()
    benchmark(_run_csp, queries, graph)


# ----------------------------------------------------------------------
# The acceptance ratio, asserted directly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_nodes", [24, 30], ids=lambda n: f"n={n}")
def test_join_glue_speedup_at_least_5x(num_nodes):
    graph = _graph(num_nodes)
    queries = _workload()
    assert _run_join(queries, graph) == _run_csp(queries, graph)

    csp_time, join_time = interleaved_medians(
        lambda: _run_csp(queries, graph),
        lambda: _run_join(queries, graph),
        rounds=5,
    )
    ratio = csp_time / join_time
    print(f"\njoin glue n={num_nodes}: csp {csp_time:.4f}s, "
          f"join {join_time:.4f}s, speedup {ratio:.1f}x")
    _TRAJECTORY.record(f"join_speedup_x_n{num_nodes}", ratio,
                       {"csp_s": csp_time, "join_s": join_time})
    assert ratio >= 5.0, (
        f"join glue only {ratio:.1f}x faster than the CSP glue on "
        f"length-{CHAIN_LENGTH} chains (n={num_nodes})"
    )


# ----------------------------------------------------------------------
# Path fusion on the cold-st chain shape
# ----------------------------------------------------------------------

#: perfbench's cold-st ``chain`` shape, both label orientations.
FUSION_CHAINS = [
    parse_query(f"Q(x, y) :- x -[{a}{b}]-> z, z -[({a}{b})^+]-> y")
    for a, b in (("a", "b"), ("b", "a"))
]


def test_chain_fusion_speedup_at_least_2x():
    graphs = [uniform_random(200, 600, {"a", "b"}, seed=seed)
              for seed in (1, 2, 3)]
    items = [(query, graph) for graph in graphs for query in FUSION_CHAINS]

    def run(evaluate_one):
        results = []
        for query, graph in items:
            drop_all_caches(graph)
            results.append(evaluate_one(query, graph))
        return results

    def fused():
        return run(lambda query, graph: evaluate(query, graph, SEMANTICS))

    def unfused():
        return run(_unfused)

    assert fused() == unfused()
    fused_time, unfused_time = interleaved_medians(fused, unfused, rounds=5)
    ratio = unfused_time / fused_time
    print(f"\ncold-st chain: unfused {unfused_time:.4f}s, fused "
          f"{fused_time:.4f}s, speedup {ratio:.2f}x")
    _TRAJECTORY.record("chain_fusion_speedup_x", ratio,
                       {"unfused_s": unfused_time, "fused_s": fused_time})
    assert ratio >= 2.0, (
        f"path fusion only {ratio:.2f}x faster than the unfused plan on "
        f"the cold-st chain shape"
    )
