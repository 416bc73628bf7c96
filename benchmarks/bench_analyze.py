"""Static-analyzer benchmark — plan-time pruning wins and overhead gates.

Acceptance pins for the analyzer PR (ISSUE 6):

- **≥ 2x on the subsumption workload**: a union whose expensive
  disjuncts are all analyzer-droppable (one unsatisfiable via an
  ∅-language atom, two subsumed by a cheap disjunct) must evaluate at
  least 2x faster through the analyzer than on the pass-through path.
- **≈ zero overhead where nothing prunes**: the E3 scaling workload
  (starred chain under st) and the E6-style rare-chain q-inj workload
  give the analyzer nothing to rewrite; the analyzed/unanalyzed time
  ratio must stay ≈ 1 (amortized — reports are memoized per query
  structure).

Every timed pair first asserts identical answers.  The run appends one
entry to ``BENCH_analyze.json`` at the repo root — the perf-trajectory
format the ROADMAP asks every benchmark to adopt (a JSON list of
entries, one per run, so re-anchors can see the curve).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_analyze.py -q -s
"""

import pytest

from _timing import best_of
from _trajectory import TrajectoryRecorder
from repro.analysis.qinj_pruning import rare_backbone_graph, rare_chain_workload
from repro.engine.analyze import analysis_disabled
from repro.graphdb.generators import two_lane_road, uniform_random
from repro.queries.atoms import Atom
from repro.queries.crpq import CRPQ
from repro.queries.parser import parse_query
from repro.regular.syntax import Concat, Empty, Symbol
from repro.semantics.evaluation import evaluate

_TRAJECTORY = TrajectoryRecorder("analyze")

MAX_OVERHEAD_RATIO = 1.30  # analyzed / unanalyzed where nothing prunes


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def subsumption_workload():
    """A union where analysis drops everything but the cheap disjunct.

    - d0: cheap rare-label scan (the survivor);
    - d1, d2: d0 plus disconnected (a+b) atoms — cartesian-product glue
      on the noise edges, subsumed by d0 (finite-left conclusive);
    - d3: an ∅-language atom — unsatisfiable.
    """
    cheap = parse_query("Q(x, y) :- x -[r]-> y")
    sub1 = parse_query("Q(x, y) :- x -[r]-> y, u -[(a+b)]-> v")
    sub2 = parse_query(
        "Q(x, y) :- x -[r]-> y, u -[(a+b)]-> v, s -[(a+b)]-> t"
    )
    unsat = CRPQ(("x", "y"),
                 (Atom("x", Concat(Symbol("r"), Empty()), "y"),))
    return (cheap, sub1, sub2, unsat)


def subsumption_graph(num_nodes=36, seed=3):
    graph = uniform_random(num_nodes, 4 * num_nodes, {"a", "b"}, seed=seed)
    nodes = sorted(graph.nodes, key=repr)
    for index in range(0, 12, 2):
        graph.add_edge(nodes[index], "r", nodes[index + 1])
    return graph


E3_QUERY = parse_query("Q() :- x -[a(a+b+x)*a]-> y")


def _evaluate_rounds(queries, graph, semantics):
    """Evaluate each query on a fresh graph copy — no graph-version
    result-cache hits between rounds, same protocol for both modes."""
    fresh = graph.copy()
    return [evaluate(query, fresh, semantics) for query in queries]


def _timed_pair(queries, graph, semantics, rounds=3):
    """(analyzed_best, baseline_best) after asserting identical answers."""
    analyzed_answers = _evaluate_rounds(queries, graph, semantics)
    with analysis_disabled():
        baseline_answers = _evaluate_rounds(queries, graph, semantics)
    assert analyzed_answers == baseline_answers

    analyzed = best_of(
        lambda: _evaluate_rounds(queries, graph, semantics), rounds)

    def baseline_run():
        with analysis_disabled():
            _evaluate_rounds(queries, graph, semantics)

    baseline = best_of(baseline_run, rounds)
    return analyzed, baseline


# ----------------------------------------------------------------------
# pytest-benchmark timings (CI runs these with --benchmark-disable)
# ----------------------------------------------------------------------


def test_bench_subsumption_analyzed(benchmark):
    union = subsumption_workload()
    graph = subsumption_graph()
    benchmark(_evaluate_rounds, [union], graph, "a-inj")


def test_bench_subsumption_baseline(benchmark):
    union = subsumption_workload()
    graph = subsumption_graph()

    def run():
        with analysis_disabled():
            _evaluate_rounds([union], graph, "a-inj")

    benchmark(run)


# ----------------------------------------------------------------------
# The acceptance gates, asserted directly
# ----------------------------------------------------------------------


def test_subsumption_workload_at_least_2x():
    union = subsumption_workload()
    graph = subsumption_graph()
    analyzed, baseline = _timed_pair([union], graph, "a-inj")
    ratio = baseline / analyzed
    print(f"\nsubsumption workload [a-inj]: baseline {baseline:.4f}s, "
          f"analyzed {analyzed:.4f}s, speedup {ratio:.1f}x")
    _TRAJECTORY.record("subsumption_speedup_x", ratio,
            {"analyzed_s": analyzed, "baseline_s": baseline})
    assert ratio >= 2.0, (
        f"analyzer speedup on the subsumption workload only {ratio:.2f}x"
    )


def test_e3_workload_near_zero_overhead():
    graph = two_lane_road(6)
    analyzed, baseline = _timed_pair([E3_QUERY], graph, "st", rounds=5)
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
    analyzed, baseline = _timed_pair(queries, graph, "q-inj", rounds=5)
    ratio = analyzed / baseline
    print(f"\nE6 rare-chain workload [q-inj]: baseline {baseline:.4f}s, "
          f"analyzed {analyzed:.4f}s, overhead {ratio:.2f}x")
    _TRAJECTORY.record("e6_overhead_ratio", ratio,
            {"analyzed_s": analyzed, "baseline_s": baseline})
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"analyzer overhead on the no-prune E6 workload: {ratio:.2f}x"
    )
