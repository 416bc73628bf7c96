"""Compact-numeric-core gate — dense CSR kernel vs the object-keyed path.

Acceptance pin for the numeric core: product reachability under the
``array`` backend (interned dense ids, CSR adjacency rows, the product
settled layer by layer along the automaton's condensation, int source
masks) must be ≥ 3x faster than the same call under the ``python``
backend — the object-keyed ``sweep`` and ``settle`` the incremental
store also runs, kept as the differential reference — on a ≥ 10⁶-edge
strongly connected graph, with peak RSS bounded.

The workload is the shape the dense kernel exists for: a 20 000-node
ring (strong connectivity, so the ``a*`` layer of the product condenses
into one giant component) plus uniform random ``a``-edges to a million,
ten ``b`` target edges, and the language ``a*b`` — per-edge traversal
cost dominates both sides, which is exactly where the object-keyed
path's tuple hashing loses to flat int lists.  Graph construction and
the adjacency/CSR build are excluded from the timed region (both
backends share them); answers are asserted equal before timing, and
each side's time is its median over alternated rounds.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_numeric_core.py -q -s
"""

import random
import resource

from _timing import interleaved_medians
from _trajectory import TrajectoryRecorder
from repro.engine.adjacency import AdjacencyIndex, adjacency_index
from repro.engine.backend import use_backend
from repro.engine.cache import compiled_nfa
from repro.engine.product import product_reachability_pairs
from repro.graphdb.generators import uniform_random
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query

_TRAJECTORY = TrajectoryRecorder("numeric_core")

MIN_SPEEDUP_X = 3.0
#: ``ru_maxrss`` is KiB on Linux; the observed run peaks ~0.7 GiB.
MAX_PEAK_RSS_KB = 2_000_000
NODES = 20_000
EDGES = 1_000_000
ROUNDS = 3
ATTEMPTS = 3
#: Cold CSR-only index build over an every-facet build, at most.
MAX_CSR_SHARE = 0.5
CSR_ROUNDS = 15


def _build_graph():
    rng = random.Random(42)
    graph = GraphDatabase()
    names = [f"n{i:05d}" for i in range(NODES)]
    for i in range(NODES):
        graph.add_edge(names[i], "a", names[(i + 1) % NODES])
    while graph.edge_count() < EDGES:
        graph.add_edge(names[rng.randrange(NODES)], "a",
                       names[rng.randrange(NODES)])
    for _ in range(10):
        graph.add_edge(names[rng.randrange(NODES)], "b",
                       names[rng.randrange(NODES)])
    return graph


def test_dense_kernel_speedup_and_rss_within_bounds():
    graph = _build_graph()
    assert graph.edge_count() >= EDGES
    nfa = compiled_nfa(
        parse_query("Q(x, y) :- x -[a*b]-> y").atoms[0].language
    )
    # Shared, untimed setup: the interned index and its CSR rows are
    # per-graph-version state both backends read.
    index = adjacency_index(graph)
    index.csr_out()

    def run_array():
        with use_backend("array"):
            return product_reachability_pairs(graph, nfa)

    def run_python():
        with use_backend("python"):
            return product_reachability_pairs(graph, nfa)

    expected = run_python()
    assert run_array() == expected
    assert expected  # the workload must actually produce answers

    # A single scheduler blip on a shared runner can fake a miss at
    # this timescale, so an under-bound ratio is re-measured (a real
    # regression fails every attempt).
    speedup = 0.0
    for _ in range(ATTEMPTS):
        array_time, python_time = interleaved_medians(
            run_array, run_python, ROUNDS
        )
        speedup = max(speedup, python_time / array_time)
        if speedup >= MIN_SPEEDUP_X:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"\nnumeric core: array {array_time:.3f}s, "
          f"python {python_time:.3f}s, speedup {speedup:.2f}x, "
          f"peak RSS {peak_rss_kb / 1024:.0f} MiB "
          f"({graph.edge_count()} edges, {len(expected)} pairs)")
    _TRAJECTORY.record("dense_kernel_speedup_x", speedup,
                       {"array_s": array_time, "python_s": python_time,
                        "edges": graph.edge_count(),
                        "peak_rss_kb": peak_rss_kb})
    assert speedup >= MIN_SPEEDUP_X, (
        f"array backend only {speedup:.2f}x over the object-keyed path "
        f"(gate {MIN_SPEEDUP_X}x)"
    )
    assert peak_rss_kb <= MAX_PEAK_RSS_KB, (
        f"peak RSS {peak_rss_kb} KiB over the {MAX_PEAK_RSS_KB} KiB bound"
    )


def _read_every_facet(index):
    node = index.nodes_sorted[0]
    index.out_sorted(node)
    index.out_targets(node)
    index.in_sources(node)
    index.label_sources("a")
    index.label_targets("a")
    index.label_loops("a")
    return index.csr_out()


def test_cold_csr_build_costs_at_most_half_of_every_facet():
    graph = uniform_random(2000, 6000, {"a", "b"}, seed=0)
    assert (AdjacencyIndex(graph).csr_out().keys()
            == _read_every_facet(AdjacencyIndex(graph)).keys())

    def csr_only():
        AdjacencyIndex(graph).csr_out()

    def every_facet():
        _read_every_facet(AdjacencyIndex(graph))

    share = float("inf")
    for _ in range(ATTEMPTS):
        csr_time, full_time = interleaved_medians(
            csr_only, every_facet, CSR_ROUNDS
        )
        share = min(share, csr_time / full_time)
        if share <= MAX_CSR_SHARE:
            break
    print(f"\ncold index: CSR only {csr_time * 1e3:.2f} ms, every facet "
          f"{full_time * 1e3:.2f} ms, share {share:.2f}x")
    _TRAJECTORY.record("cold_csr_share_x", share,
                       {"csr_only_s": csr_time, "every_facet_s": full_time,
                        "edges": graph.edge_count()})
    assert share <= MAX_CSR_SHARE, (
        f"a CSR-only index build costs {share:.2f}x of an every-facet "
        f"build (gate {MAX_CSR_SHARE}x)"
    )
