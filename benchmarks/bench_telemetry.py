"""Telemetry overhead gates — metrics always-on, tracing opt-in.

Acceptance pins for the telemetry PR, on the same E3/E6-style
workloads the governor gate uses:

- **metrics** (always on): the counter increments threaded through the
  cache layer, planner, product sweep, and backend seam must cost
  ≤ 1.05x against the same code under
  :func:`repro.engine.telemetry.metrics_disabled` (every instrument
  update neutralized at its guard — what evaluation would cost had the
  instrumentation not been threaded through).
- **tracing** (opt-in, the CLI's ``--trace``): a full
  :func:`repro.devtools.obs.trace_session` — span tree, per-query
  counter mirror, *and* the checkpoint-site profiler, which forces the
  governor onto per-hit real checks — must cost ≤ 1.25x against the
  untraced default.

Engine caches are dropped before every evaluation so both sides pay
full uncached cost, and answers are asserted identical across modes.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry.py -q -s
"""

from _timing import interleaved_medians
from _trajectory import TrajectoryRecorder
from repro.analysis.batching import drop_all_caches
from repro.devtools.obs import trace_session
from repro.engine import telemetry
from repro.graphdb.generators import uniform_random
from repro.queries.parser import parse_query
from repro.semantics.evaluation import evaluate

_TRAJECTORY = TrajectoryRecorder("telemetry")

MAX_METRICS_OVERHEAD_X = 1.05
MAX_TRACING_OVERHEAD_X = 1.25
ROUNDS = 7
ATTEMPTS = 3


def _standard_workload():
    """E3's standard data-scaling shape: (ab)+ reachability joins."""
    graphs = [
        uniform_random(n, 3 * n, {"a", "b"}, seed=5) for n in (120, 160, 200)
    ]
    query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
    return [(query, graph, "st") for graph in graphs]


def _qinj_workload():
    """E6-flavoured injective evaluation: the backtracking search and
    witness enumeration dominate (counters and checkpoints on every
    frame make this the worst case for both gates)."""
    graphs = [
        uniform_random(n, 3 * n, {"a", "b"}, seed=5) for n in (20, 24, 28)
    ]
    query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
    return [(query, graph, "q-inj") for graph in graphs]


def _run(workload):
    results = []
    for query, graph, semantics in workload:
        drop_all_caches(graph)
        results.append(evaluate(query, graph, semantics))
    return results


def _run_disabled(workload):
    with telemetry.metrics_disabled():
        return _run(workload)


def _run_traced(workload):
    results = []
    for query, graph, semantics in workload:
        drop_all_caches(graph)
        with trace_session():
            results.append(evaluate(query, graph, semantics))
    return results


def _ratio_within(measurement, baseline, candidate, bound, extra_keys):
    """Median ratio candidate/baseline, re-measured on a blip (a real
    regression fails every attempt); records to the trajectory."""
    ratio = float("inf")
    for _ in range(ATTEMPTS):
        baseline_time, candidate_time = interleaved_medians(
            baseline, candidate, ROUNDS
        )
        ratio = min(ratio, candidate_time / baseline_time)
        if ratio <= bound:
            break
    base_key, cand_key = extra_keys
    print(f"\ntelemetry [{measurement}]: {base_key} {baseline_time:.4f}s, "
          f"{cand_key} {candidate_time:.4f}s, ratio {ratio:.3f}x")
    _TRAJECTORY.record(measurement, ratio, {
        base_key: baseline_time, cand_key: candidate_time,
    })
    return ratio


def _metrics_overhead(name, workload):
    assert _run(workload) == _run_disabled(workload)
    return _ratio_within(
        f"metrics_overhead_x_{name}",
        lambda: _run_disabled(workload),
        lambda: _run(workload),
        MAX_METRICS_OVERHEAD_X,
        ("disabled_s", "metered_s"),
    )


def _tracing_overhead(name, workload):
    assert _run(workload) == _run_traced(workload)
    return _ratio_within(
        f"tracing_overhead_x_{name}",
        lambda: _run(workload),
        lambda: _run_traced(workload),
        MAX_TRACING_OVERHEAD_X,
        ("untraced_s", "traced_s"),
    )


def test_metrics_overhead_standard_within_bound():
    ratio = _metrics_overhead("standard", _standard_workload())
    assert ratio <= MAX_METRICS_OVERHEAD_X, (
        f"always-on metrics cost {ratio:.3f}x on the standard E3 "
        f"workload (bound {MAX_METRICS_OVERHEAD_X}x)"
    )


def test_metrics_overhead_qinj_within_bound():
    ratio = _metrics_overhead("qinj", _qinj_workload())
    assert ratio <= MAX_METRICS_OVERHEAD_X, (
        f"always-on metrics cost {ratio:.3f}x on the q-inj E6 workload "
        f"(bound {MAX_METRICS_OVERHEAD_X}x)"
    )


def test_tracing_overhead_standard_within_bound():
    ratio = _tracing_overhead("standard", _standard_workload())
    assert ratio <= MAX_TRACING_OVERHEAD_X, (
        f"trace sessions cost {ratio:.3f}x on the standard E3 workload "
        f"(bound {MAX_TRACING_OVERHEAD_X}x)"
    )


def test_tracing_overhead_qinj_within_bound():
    ratio = _tracing_overhead("qinj", _qinj_workload())
    assert ratio <= MAX_TRACING_OVERHEAD_X, (
        f"trace sessions cost {ratio:.3f}x on the q-inj E6 workload "
        f"(bound {MAX_TRACING_OVERHEAD_X}x)"
    )
