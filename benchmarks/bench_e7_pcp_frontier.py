"""E7 — Theorem 5.2: the PCP reduction (Figures 4/5), timed.

Regenerates the forward direction of the undecidability theorem: for a
solvable instance, constructing the Figure-5 witness and verifying it
defeats Q2 is fast and certain; for the unsolvable instance the bounded
semi-decider spends its whole budget without finding a counterexample.
"""

import pytest

from repro.containment.bounded import search_counterexample
from repro.reductions import pcp
from repro.semantics.evaluation import in_evaluation


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
    from repro.containment.result import Verdict

    assert result.verdict is Verdict.CONTAINED_UP_TO_BOUND
