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
cost the join engine replaces.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_join.py -q
"""

import pytest

from _timing import best_of
from _trajectory import TrajectoryRecorder
from repro.analysis.batching import drop_all_caches
from repro.analysis.join_glue import chain_query
from repro.graphdb.generators import uniform_random
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


def _run_join(queries, graph):
    results = []
    for query in queries:
        drop_all_caches(graph)
        results.append(evaluate(query, graph, SEMANTICS))
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

    csp_time = best_of(lambda: _run_csp(queries, graph))
    join_time = best_of(lambda: _run_join(queries, graph))
    ratio = csp_time / join_time
    print(f"\njoin glue n={num_nodes}: csp {csp_time:.4f}s, "
          f"join {join_time:.4f}s, speedup {ratio:.1f}x")
    _TRAJECTORY.record(f"join_speedup_x_n{num_nodes}", ratio,
                       {"csp_s": csp_time, "join_s": join_time})
    assert ratio >= 5.0, (
        f"join glue only {ratio:.1f}x faster than the CSP glue on "
        f"length-{CHAIN_LENGTH} chains (n={num_nodes})"
    )
