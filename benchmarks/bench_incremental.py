"""Incremental maintenance benchmark — delta engine vs invalidate-and-recompute.

Acceptance pin for the incremental-maintenance PR: on the E9 dynamic
workload (rare-label chain queries served over a noise-dominated graph
while a stream of small update batches lands between evaluations,
:mod:`repro.analysis.incremental`) the store-attached graph must be
≥ 5× faster than the plain engine, whose version-keyed caches discard
*all* derived work on every mutation.

A second, deletion-heavy gate holds the deletion repair to its cost:
half of every Δ=4 batch removes an edge, and the standing queries add
``(ab)^+`` — a cyclic product over the noise labels, so nearly every
update dirties it — to the rare chains.  There the store must stay
≥ 1.5× faster than recomputing.

Both modes run the identical update/query stream through the identical
``evaluate`` entry point — the only difference is the attached
:class:`repro.engine.incremental.IncrementalRelationStore`, which grows
/ repairs the standard relations from the graph's change-log and reuses
query results whose maintained base tables did not move.  Identical
answer sequences are asserted before any timing, and each gate compares
the medians of alternated recompute/incremental rounds.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py -q
"""

import pytest

from _timing import interleaved_medians
from _trajectory import TrajectoryRecorder
from repro.analysis.incremental import dynamic_update_stream, run_dynamic_stream
from repro.analysis.qinj_pruning import rare_backbone_graph, rare_chain_workload
from repro.engine.incremental import IncrementalRelationStore
from repro.queries.parser import parse_query
from repro.semantics.evaluation import evaluate

_TRAJECTORY = TrajectoryRecorder("incremental")

NUM_NODES = 150
NUM_STEPS = 20
#: Alternated recompute/incremental rounds per gate (medians compared).
ROUNDS = 5


def _setup(delta_size, seed=7, remove_fraction=0.3, extra_queries=()):
    base = rare_backbone_graph(NUM_NODES, seed=seed)
    queries = rare_chain_workload((2, 3)) + list(extra_queries)
    stream = dynamic_update_stream(base, NUM_STEPS, delta_size,
                                   seed=seed + delta_size,
                                   remove_fraction=remove_fraction)
    return base, queries, stream


def _serve(base, queries, stream, incremental):
    """One full pass: fresh graph copy, warm evaluation, then the
    update/query stream.  Returns the answer sequence."""
    graph = base.copy()
    if incremental:
        IncrementalRelationStore(graph)
    for query in queries:
        evaluate(query, graph, "st")
    return run_dynamic_stream(graph, stream, queries)


# ----------------------------------------------------------------------
# pytest-benchmark timings
# ----------------------------------------------------------------------


@pytest.mark.parametrize("delta_size", [1, 4], ids=lambda d: f"delta={d}")
def test_bench_incremental_stream(benchmark, delta_size):
    base, queries, stream = _setup(delta_size)
    answers = benchmark(_serve, base, queries, stream, True)
    assert answers == _serve(base, queries, stream, False)


@pytest.mark.parametrize("delta_size", [1, 4], ids=lambda d: f"delta={d}")
def test_bench_recompute_stream(benchmark, delta_size):
    base, queries, stream = _setup(delta_size)
    benchmark(_serve, base, queries, stream, False)


# ----------------------------------------------------------------------
# The acceptance ratio, asserted directly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("delta_size", [1, 2], ids=lambda d: f"delta={d}")
def test_incremental_speedup_at_least_5x(delta_size):
    base, queries, stream = _setup(delta_size)
    assert (_serve(base, queries, stream, True)
            == _serve(base, queries, stream, False))

    recompute_time, incremental_time = interleaved_medians(
        lambda: _serve(base, queries, stream, False),
        lambda: _serve(base, queries, stream, True),
        ROUNDS,
    )
    ratio = recompute_time / incremental_time
    print(f"\nincremental Δ={delta_size}: recompute {recompute_time:.4f}s, "
          f"incremental {incremental_time:.4f}s, speedup {ratio:.1f}x")
    _TRAJECTORY.record(f"incremental_speedup_x_delta{delta_size}", ratio,
                       {"recompute_s": recompute_time,
                        "incremental_s": incremental_time})
    assert ratio >= 5.0, (
        f"incremental maintenance only {ratio:.1f}x faster than "
        f"invalidate-and-recompute on the Δ={delta_size} update stream"
    )


def test_deletion_heavy_speedup_at_least_1_5x():
    base, queries, stream = _setup(
        4, remove_fraction=0.5,
        extra_queries=[parse_query("Q(x, y) :- x -[(ab)^+]-> y")])
    assert (_serve(base, queries, stream, True)
            == _serve(base, queries, stream, False))

    recompute_time, incremental_time = interleaved_medians(
        lambda: _serve(base, queries, stream, False),
        lambda: _serve(base, queries, stream, True),
        ROUNDS,
    )
    ratio = recompute_time / incremental_time
    print(f"\ndeletion-heavy Δ=4: recompute {recompute_time:.4f}s, "
          f"incremental {incremental_time:.4f}s, speedup {ratio:.2f}x")
    _TRAJECTORY.record("deletion_heavy_speedup_x", ratio,
                       {"recompute_s": recompute_time,
                        "incremental_s": incremental_time})
    assert ratio >= 1.5, (
        f"incremental maintenance only {ratio:.2f}x faster than "
        f"invalidate-and-recompute on the deletion-heavy stream"
    )
