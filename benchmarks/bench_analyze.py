"""Static-analyzer benchmark — overhead gates where nothing prunes.

The E3 scaling workload (starred chain under st) and the E6-style
rare-chain q-inj workload give the analyzer nothing to rewrite; the
analyzed/unanalyzed time ratio must stay ≤ 1.30x (amortized — reports
are memoized per query structure).  Each side's time is the median of
alternated rounds, so one lucky round does not decide the ratio.

Every timed pair first asserts identical answers.  The run appends one
entry to ``BENCH_analyze.json`` at the repo root — the perf-trajectory
format the ROADMAP asks every benchmark to adopt (a JSON list of
entries, one per run, so re-anchors can see the curve).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_analyze.py -q -s
"""

from _timing import interleaved_medians
from _trajectory import TrajectoryRecorder
from repro.analysis.qinj_pruning import rare_backbone_graph, rare_chain_workload
from repro.engine.analyze import analysis_disabled
from repro.graphdb.generators import two_lane_road
from repro.queries.parser import parse_query
from repro.semantics.evaluation import evaluate

_TRAJECTORY = TrajectoryRecorder("analyze")

MAX_OVERHEAD_RATIO = 1.30  # analyzed / unanalyzed where nothing prunes
ROUNDS = 9

E3_QUERY = parse_query("Q() :- x -[a(a+b+x)*a]-> y")


def _evaluate_rounds(queries, graph, semantics):
    """Evaluate each query on a fresh graph copy — no graph-version
    result-cache hits between rounds, same protocol for both modes."""
    fresh = graph.copy()
    return [evaluate(query, fresh, semantics) for query in queries]


def _timed_pair(queries, graph, semantics):
    """(analyzed, baseline) median times after asserting identical
    answers."""
    analyzed_answers = _evaluate_rounds(queries, graph, semantics)
    with analysis_disabled():
        baseline_answers = _evaluate_rounds(queries, graph, semantics)
    assert analyzed_answers == baseline_answers

    def baseline_run():
        with analysis_disabled():
            _evaluate_rounds(queries, graph, semantics)

    analyzed, baseline = interleaved_medians(
        lambda: _evaluate_rounds(queries, graph, semantics),
        baseline_run,
        rounds=ROUNDS,
    )
    return analyzed, baseline


def test_e3_workload_near_zero_overhead():
    graph = two_lane_road(6)
    analyzed, baseline = _timed_pair([E3_QUERY], graph, "st")
    ratio = analyzed / baseline
    print(f"\nE3 road workload [st]: baseline {baseline:.4f}s, "
          f"analyzed {analyzed:.4f}s, overhead {ratio:.2f}x")
    _TRAJECTORY.record("e3_overhead_ratio", ratio,
            {"analyzed_s": analyzed, "baseline_s": baseline})
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"analyzer overhead on the no-prune E3 workload: {ratio:.2f}x"
    )


def test_e6_rare_chain_workload_near_zero_overhead():
    graph = rare_backbone_graph(90, seed=7)
    queries = rare_chain_workload((2, 3))
    analyzed, baseline = _timed_pair(queries, graph, "q-inj")
    ratio = analyzed / baseline
    print(f"\nE6 rare-chain workload [q-inj]: baseline {baseline:.4f}s, "
          f"analyzed {analyzed:.4f}s, overhead {ratio:.2f}x")
    _TRAJECTORY.record("e6_overhead_ratio", ratio,
            {"analyzed_s": analyzed, "baseline_s": baseline})
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"analyzer overhead on the no-prune E6 workload: {ratio:.2f}x"
    )
