"""Batch execution benchmark — shared-atom workloads vs independent calls.

Acceptance pin for the batch PR: on a 50-query workload whose atoms
draw from a pool of 5 languages, ``BatchExecutor`` must be ≥ 2× faster
than 50 *independent* ``evaluate()`` calls — independent meaning each
call pays its own NFA compilation and atom-relation work, the cost
profile of one process (or cache-less service) per query.  The engine
caches are dropped between independent calls to model exactly that;
the batch side starts equally cold and is allowed to share.

The asserted ratio uses atom-injective semantics, where the per-atom
simple-path relations dominate the per-query glue (the sharing the
batch layer exists to exploit); standard-semantics timings are recorded
via pytest-benchmark for the profile but not gated (the homomorphism
glue is per-query work in both modes, so the ratio there is modest).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch.py -q
"""

import pytest

from _timing import interleaved_medians
from _trajectory import TrajectoryRecorder
from repro.analysis.batching import (
    drop_all_caches,
    evaluate_independent,
    shared_atom_workload,
)
from repro.engine.batch import BatchExecutor, QueryBatch
from repro.graphdb.generators import uniform_random

_TRAJECTORY = TrajectoryRecorder("batch")

NUM_QUERIES = 50
NUM_LANGUAGES = 5


def _graph(num_nodes):
    return uniform_random(num_nodes, 3 * num_nodes, {"a", "b"}, seed=3)


def _workload():
    return shared_atom_workload(NUM_QUERIES, NUM_LANGUAGES, seed=7)


def _run_batch(queries, graph, semantics):
    drop_all_caches(graph)
    executor = BatchExecutor(graph, semantics)
    return executor.execute(QueryBatch(queries))


# ----------------------------------------------------------------------
# pytest-benchmark timings
# ----------------------------------------------------------------------


@pytest.mark.parametrize("semantics,num_nodes", [("st", 30), ("a-inj", 10)],
                         ids=lambda v: str(v))
def test_bench_batch_mode(benchmark, semantics, num_nodes):
    graph = _graph(num_nodes)
    queries = _workload()
    batched = benchmark(_run_batch, queries, graph, semantics)
    assert batched == evaluate_independent(queries, graph, semantics)


@pytest.mark.parametrize("semantics,num_nodes", [("st", 30), ("a-inj", 10)],
                         ids=lambda v: str(v))
def test_bench_independent_mode(benchmark, semantics, num_nodes):
    graph = _graph(num_nodes)
    queries = _workload()
    benchmark(evaluate_independent, queries, graph, semantics)


# ----------------------------------------------------------------------
# The acceptance ratio, asserted directly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_nodes", [10, 12], ids=lambda n: f"n={n}")
def test_batch_speedup_at_least_2x(num_nodes):
    graph = _graph(num_nodes)
    queries = _workload()
    want = evaluate_independent(queries, graph, "a-inj")
    assert _run_batch(queries, graph, "a-inj") == want

    independent_time, batch_time = interleaved_medians(
        lambda: evaluate_independent(queries, graph, "a-inj"),
        lambda: _run_batch(queries, graph, "a-inj"),
        rounds=3,
    )
    ratio = independent_time / batch_time
    print(f"\nbatch n={num_nodes}: independent {independent_time:.4f}s, "
          f"batch {batch_time:.4f}s, speedup {ratio:.1f}x")
    _TRAJECTORY.record(f"batch_speedup_x_n{num_nodes}", ratio,
                       {"independent_s": independent_time,
                        "batch_s": batch_time})
    assert ratio >= 2.0, (
        f"batch only {ratio:.1f}x faster than independent evaluation "
        f"on n={num_nodes}"
    )
