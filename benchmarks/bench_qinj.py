"""q-inj guidance benchmark — relation-guided vs unguided joint search,
and q-inj vs a-inj on a one-atom query.

Acceptance pin for the q-inj fast path: on the E8 workload
(rare-label chain CRPQs of lengths 2–4 over noise-dominated graphs,
:mod:`repro.analysis.qinj_pruning`) the relation-guided evaluator must
be ≥ 5× faster than the seed-era unguided joint backtracking search
(``unguided_qinj_evaluate``, built around the unguided
``_qinj_solutions``, both in ``tests/reference/baselines.py``).

Engine caches are dropped before every evaluation so each call pays the
full uncached cost; the rare-label languages are single symbols, so the
standard pruning relations are trivial and the *joint search* dominates
both sides — exactly the cost the guidance removes.

Second gate: for a one-atom query both injective semantics are
simple-path semantics, so on ``Q(x, y) :- x -[(ab)^+]-> y`` over small
uniform graphs (the perfbench ``injective`` workload's ``uniform-plus``
shape) q-inj must return a-inj's answers in at most 1.25× a-inj's time.
Both semantics now read one relation: the q-inj plan answers this RPQ
shape from a-inj's simple-path relation (diagonal removed) with no
joint search, and the gate reads 0.94–1.05×.  Before that it read
2.04× while ``answers()`` enumerated every simple path per answer, and
1.31× with the guided search stopping at the first witness and sharing
one harvest per source at its last atom; the bound was 1.6× then, so
1.25× fails if this shape goes back to the search.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_qinj.py -q
"""

import pytest

from _timing import interleaved_medians
from _trajectory import TrajectoryRecorder
from repro.analysis.batching import drop_all_caches
from repro.analysis.qinj_pruning import (
    rare_backbone_graph,
    rare_chain_workload,
)
from repro.graphdb.generators import uniform_random
from repro.queries.parser import parse_query
from repro.semantics.evaluation import evaluate
from tests.reference.baselines import unguided_qinj_evaluate

_TRAJECTORY = TrajectoryRecorder("qinj")


def _workload():
    return rare_chain_workload(chain_lengths=(2, 3, 4))


def _run_unguided(queries, graph):
    results = []
    for query in queries:
        drop_all_caches(graph)
        results.append(unguided_qinj_evaluate(query, graph))
    return results


def _run_guided(queries, graph):
    results = []
    for query in queries:
        drop_all_caches(graph)
        results.append(evaluate(query, graph, "q-inj"))
    return results


# ----------------------------------------------------------------------
# pytest-benchmark timings
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_nodes", [60, 80], ids=lambda n: f"n={n}")
def test_bench_guided_qinj(benchmark, num_nodes):
    graph = rare_backbone_graph(num_nodes)
    queries = _workload()
    guided = benchmark(_run_guided, queries, graph)
    assert guided == _run_unguided(queries, graph)


@pytest.mark.parametrize("num_nodes", [60, 80], ids=lambda n: f"n={n}")
def test_bench_unguided_qinj(benchmark, num_nodes):
    graph = rare_backbone_graph(num_nodes)
    queries = _workload()
    benchmark(_run_unguided, queries, graph)


# ----------------------------------------------------------------------
# The acceptance ratio, asserted directly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("num_nodes", [80, 110], ids=lambda n: f"n={n}")
def test_guided_qinj_speedup_at_least_5x(num_nodes):
    graph = rare_backbone_graph(num_nodes)
    queries = _workload()
    assert _run_guided(queries, graph) == _run_unguided(queries, graph)

    unguided_time, guided_time = interleaved_medians(
        lambda: _run_unguided(queries, graph),
        lambda: _run_guided(queries, graph),
        rounds=3,
    )
    ratio = unguided_time / guided_time
    print(f"\nq-inj guidance n={num_nodes}: unguided {unguided_time:.4f}s, "
          f"guided {guided_time:.4f}s, speedup {ratio:.1f}x")
    _TRAJECTORY.record(f"qinj_guidance_speedup_x_n{num_nodes}", ratio,
                       {"unguided_s": unguided_time,
                        "guided_s": guided_time})
    assert ratio >= 5.0, (
        f"guided q-inj only {ratio:.1f}x faster than the unguided joint "
        f"search on the E8 rare-chain workload (n={num_nodes})"
    )


# ----------------------------------------------------------------------
# One atom: q-inj within 1.25x of a-inj
# ----------------------------------------------------------------------


def _uniform_plus_graphs():
    return [uniform_random(nodes, 3 * nodes, {"a", "b"}, seed=seed)
            for seed, nodes in enumerate((20, 21, 22) * 4)]


def _run_cold(query, graphs, semantics):
    results = []
    for graph in graphs:
        drop_all_caches(graph)
        results.append(evaluate(query, graph, semantics))
    return results


def test_one_atom_qinj_within_1_25x_of_ainj():
    query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
    graphs = _uniform_plus_graphs()
    assert _run_cold(query, graphs, "q-inj") == \
        _run_cold(query, graphs, "a-inj")

    ainj_time, qinj_time = interleaved_medians(
        lambda: _run_cold(query, graphs, "a-inj"),
        lambda: _run_cold(query, graphs, "q-inj"),
        rounds=7,
    )
    ratio = qinj_time / ainj_time
    print(f"\nuniform-plus: a-inj {ainj_time:.4f}s, q-inj {qinj_time:.4f}s, "
          f"q-inj/a-inj {ratio:.2f}x")
    _TRAJECTORY.record("qinj_over_ainj_x_uniform_plus", ratio,
                       {"ainj_s": ainj_time, "qinj_s": qinj_time})
    assert ratio <= 1.25, (
        f"q-inj takes {ratio:.2f}x a-inj's time on a one-atom query, "
        f"where both are simple-path semantics"
    )
