"""Governor overhead gate — checkpointed engine vs no-op checkpoints.

Acceptance pin for the execution-governor PR: threading amortized
checkpoints through every engine hot loop (product sweep, join glue,
q-inj search, witness enumeration, path DFS) must cost ≤ 1.05x on the
E3/E6-style evaluation workloads — standard data scaling on uniform
random graphs plus q-inj evaluation on the same family, the two paths
whose inner loops took the most checkpoint sites.

The baseline runs the *same* engine code under a context whose
``checkpoint`` / ``check_rows`` / ``consume_witnesses`` are no-ops, so
the measured delta is exactly the governor's fast path (one counter
increment and compare per hit, amortized real checks every
``CHECK_INTERVAL`` hits).  Engine caches are dropped before every
evaluation so both sides pay full uncached cost.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_governor.py -q -s
"""

from _timing import interleaved_medians
from _trajectory import TrajectoryRecorder
from repro.analysis.batching import drop_all_caches
from repro.engine.runtime import ExecutionContext, active_context
from repro.graphdb.generators import uniform_random
from repro.queries.parser import parse_query
from repro.semantics.evaluation import evaluate

_TRAJECTORY = TrajectoryRecorder("governor")

MAX_OVERHEAD_X = 1.05
ROUNDS = 7
ATTEMPTS = 3


class _NullCheckpointContext(ExecutionContext):
    """The governor with its fast path removed: every hook is a no-op.

    Running the engine under this context measures what evaluation
    would cost had the checkpoints not been threaded through at all.
    """

    def checkpoint(self, site):
        pass

    def check_rows(self, count, site):
        pass

    def consume_witnesses(self, count, site):
        pass


def _standard_workload():
    """E3's standard data-scaling shape: (ab)+ reachability joins."""
    graphs = [
        uniform_random(n, 3 * n, {"a", "b"}, seed=5) for n in (120, 160, 200)
    ]
    query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
    return [(query, graph, "st") for graph in graphs]


def _qinj_workload():
    """E6-flavoured injective evaluation: the backtracking search and
    witness enumeration dominate (checkpoints on every frame)."""
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


def _overhead(name, workload):
    null_ctx = _NullCheckpointContext()

    def run_null():
        with active_context(null_ctx):
            return _run(workload)

    assert _run(workload) == run_null()
    # A single scheduler blip on a shared runner can fake a regression
    # at this timescale, so an over-bound ratio is re-measured (a real
    # regression fails every attempt).
    ratio = float("inf")
    for _ in range(ATTEMPTS):
        null_time, governed_time = interleaved_medians(
            run_null, lambda: _run(workload), ROUNDS
        )
        ratio = min(ratio, governed_time / null_time)
        if ratio <= MAX_OVERHEAD_X:
            break
    print(f"\ngovernor overhead [{name}]: no-op {null_time:.4f}s, "
          f"governed {governed_time:.4f}s, ratio {ratio:.3f}x")
    _TRAJECTORY.record(f"checkpoint_overhead_x_{name}", ratio,
                       {"null_s": null_time, "governed_s": governed_time})
    return ratio


def test_checkpoint_overhead_standard_within_bound():
    ratio = _overhead("standard", _standard_workload())
    assert ratio <= MAX_OVERHEAD_X, (
        f"checkpoints cost {ratio:.3f}x on the standard E3 workload "
        f"(bound {MAX_OVERHEAD_X}x)"
    )


def test_checkpoint_overhead_qinj_within_bound():
    ratio = _overhead("qinj", _qinj_workload())
    assert ratio <= MAX_OVERHEAD_X, (
        f"checkpoints cost {ratio:.3f}x on the q-inj E6 workload "
        f"(bound {MAX_OVERHEAD_X}x)"
    )
