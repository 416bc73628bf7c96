"""E7 — Theorem 5.2: the PCP reduction (Figures 4/5), timed.

Regenerates the forward direction of the undecidability theorem: for a
solvable instance, constructing the Figure-5 witness and verifying it
defeats Q2 is fast and certain; for the unsolvable instance the bounded
semi-decider spends its whole budget without finding a counterexample.

One gate guards the paper's own procedure against the product kernel:
the semi-decider's search on the trivial instance, whose ``q2`` atoms
compile to 11- and 35-state automata, must run under the dense kernel
(the default ``array`` backend) in at most 1.10x its time under the
object-keyed ``python`` kernel, each side's time its median over
alternated rounds.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_e7_pcp_frontier.py -q -s --benchmark-disable
"""

from _timing import interleaved_medians
from repro.containment.bounded import search_counterexample
from repro.containment.result import Verdict
from repro.engine.backend import use_backend
from repro.reductions import pcp
from repro.semantics.evaluation import in_evaluation

MAX_DENSE_RATIO = 1.10
ROUNDS = 3
ATTEMPTS = 3


def _witness_pipeline(instance, solution):
    witness = pcp.solution_witness(instance, solution)
    cq = witness.cq
    matched = in_evaluation(
        pcp.build_q2_union(instance), cq.as_graph(), (), "a-inj"
    )
    assert not matched  # counterexample confirmed
    return witness


def test_bench_pcp_solver(benchmark):
    solution = benchmark(pcp.SOLVABLE_EXAMPLE.solve)
    assert pcp.SOLVABLE_EXAMPLE.is_solution(solution)


def test_bench_witness_trivial(benchmark):
    benchmark(_witness_pipeline, pcp.TRIVIAL_EXAMPLE, [1])


def test_bench_witness_classic(benchmark):
    solution = pcp.SOLVABLE_EXAMPLE.solve()
    benchmark(_witness_pipeline, pcp.SOLVABLE_EXAMPLE, solution)


def test_bench_bounded_search_unsolvable(benchmark):
    q1, q2 = pcp.build_reduction(pcp.UNSOLVABLE_EXAMPLE)
    result = benchmark(
        search_counterexample,
        q1, q2, "a-inj", 3,
        expansion_budget=100, quotient_budget=100,
    )
    assert result.verdict is Verdict.CONTAINED_UP_TO_BOUND


def test_semi_decider_dense_kernel_keeps_pace_with_python():
    q1, q2 = pcp.build_reduction(pcp.TRIVIAL_EXAMPLE)

    def searcher(backend):
        def run():
            with use_backend(backend):
                return search_counterexample(
                    q1, q2, "a-inj", 4,
                    expansion_budget=50, quotient_budget=100000,
                )
        return run

    run_dense, run_python = searcher("array"), searcher("python")
    want = run_python()
    got = run_dense()
    assert want.verdict is Verdict.NOT_CONTAINED
    assert (got.verdict, got.counterexample, got.details) == (
        want.verdict, want.counterexample, want.details)

    # A scheduler blip on a shared runner can fake a miss, so an
    # over-bound ratio is re-measured (a real regression fails every
    # attempt).
    ratio = float("inf")
    for _ in range(ATTEMPTS):
        dense_time, python_time = interleaved_medians(
            run_dense, run_python, ROUNDS
        )
        ratio = min(ratio, dense_time / python_time)
        if ratio <= MAX_DENSE_RATIO:
            break
    print(f"\nPCP semi-decider: dense {dense_time:.2f}s, python "
          f"{python_time:.2f}s, ratio {ratio:.2f}x "
          f"({want.details['candidates_checked']} candidates)")
    assert ratio <= MAX_DENSE_RATIO, (
        f"the dense kernel runs the semi-decider {ratio:.2f}x as long as "
        f"the object-keyed kernel (gate {MAX_DENSE_RATIO}x)"
    )
