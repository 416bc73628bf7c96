"""E3 — Prop 3.1/3.2: evaluation complexity in data size, per semantics.

Regenerates the evaluation row of the paper's complexity picture as a
scaling experiment: standard semantics (NL data complexity) scales
smoothly with graph size, while the injective semantics (NP-complete in
data complexity) are exercised on the two-lane-road family, whose number
of simple paths grows with length.  The *shape* to observe: standard
evaluation stays flat-ish, injective evaluation grows much faster.
"""

import pytest

from _timing import interleaved_medians
from repro.engine import telemetry
from repro.engine.cache import compiled_nfa
from repro.engine.product import product_reachability_pairs
from repro.graphdb.generators import two_lane_road, uniform_random
from repro.queries.parser import parse_query
from repro.semantics.evaluation import evaluate

ROAD_QUERY = parse_query("Q() :- x -[a(a+b+x)*a]-> y")


@pytest.mark.parametrize("length", [2, 3, 4], ids=lambda n: f"len={n}")
@pytest.mark.parametrize("semantics", ["st", "a-inj"], ids=str)
def test_bench_road_eval(benchmark, length, semantics):
    graph = two_lane_road(length)
    answers = benchmark(evaluate, ROAD_QUERY, graph, semantics)
    assert answers == {()}


@pytest.mark.parametrize("num_nodes", [6, 10, 14], ids=lambda n: f"n={n}")
def test_bench_standard_data_scaling(benchmark, num_nodes):
    graph = uniform_random(num_nodes, 3 * num_nodes, {"a", "b"}, seed=5)
    query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
    benchmark(evaluate, query, graph, "st")


@pytest.mark.parametrize("num_nodes", [6, 10, 14], ids=lambda n: f"n={n}")
def test_bench_qinj_data_scaling(benchmark, num_nodes):
    graph = uniform_random(num_nodes, 3 * num_nodes, {"a", "b"}, seed=5)
    query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
    benchmark(evaluate, query, graph, "q-inj")


def test_large_answer_costs_about_the_kernel():
    """Scale gate: at n=1000 the one-atom query has ~337k answers, past
    the planner's elimination cap.  A cold ``evaluate`` must cost at
    most 3x the product kernel alone on the same graph, and never
    overflow into semijoin reduction (the answer is the last join, not
    a blow-up)."""
    graph = uniform_random(1000, 3000, {"a", "b"}, seed=0)
    query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
    (atom,) = query.atoms
    nfa = compiled_nfa(atom.language)
    passes = telemetry.registry().counter("planner.semijoin.passes")
    before = passes.value
    answers = evaluate(query, graph.copy(), "st")
    assert {(u, v) for u, v in answers} == product_reachability_pairs(
        graph.copy(), nfa)
    evaluate_s, kernel_s = interleaved_medians(
        lambda: evaluate(query, graph.copy(), "st"),
        lambda: product_reachability_pairs(graph.copy(), nfa),
        rounds=3,
    )
    ratio = evaluate_s / kernel_s
    print(f"\nE3 n=1000: {len(answers)} answers, evaluate {evaluate_s:.3f}s, "
          f"kernel {kernel_s:.3f}s, ratio {ratio:.2f}x")
    assert passes.value == before
    assert ratio <= 3.0, (
        f"cold evaluate is {ratio:.2f}x the product kernel at n=1000"
    )
