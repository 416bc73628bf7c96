"""Regression pins for the invariant violations lintkit surfaced.

Each test here pins one of the real bugs the lintkit rules flagged when
first run over the tree (and which were then fixed, not baselined):

- ``engine/cache.py`` and ``engine/batch.py`` read ``graph.version``
  twice per staleness check — a concurrent mutation between the reads
  could tag a cache with a version newer than the state it captured
  (LK003, the PR 5 TOCTOU class);
- ``engine/batch.py`` mutated the executor's shared relation store from
  thread-pool workers without a lock (LK007);
- ``engine/adjacency.py`` handed out live inner dicts from
  ``out_targets`` / ``in_sources``; one caller mutating its view would
  corrupt every consumer of the graph version (LK001's bug class).

The adjacency index builds its facets on first read, so it also pins
that a facet first read after a mutation still describes the index's own
version, and that a cold query builds only the facets it reads.
"""

import sys
import threading

import pytest

from repro.engine import relations
from repro.engine.adjacency import adjacency_index
from repro.engine.batch import BatchExecutor
from repro.engine.cache import graph_cached
from repro.engine.backend import use_backend
from repro.engine.relations import atom_relation
from repro.graphdb.generators import uniform_random
from repro.graphdb.graph import Edge, GraphDatabase
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.regular.syntax import Symbol
from repro.semantics.evaluation import evaluate


class VersionCountingGraph:
    """A graph stand-in whose ``version`` property counts its reads."""

    def __init__(self, version=7):
        self._version = version
        self.version_reads = 0

    @property
    def version(self):
        self.version_reads += 1
        return self._version


def small_graph():
    graph = GraphDatabase()
    for source, label, target in [(1, "a", 2), (2, "a", 3), (2, "b", 3),
                                  (3, "a", 1)]:
        graph.add_edge(source, label, target)
    return graph


# ----------------------------------------------------------------------
# Version read-once (LK003)
# ----------------------------------------------------------------------


def test_graph_cached_reads_version_exactly_once_per_lookup():
    graph = VersionCountingGraph()
    assert graph_cached(graph, "key", lambda: "value") == "value"
    assert graph.version_reads == 1
    assert graph_cached(graph, "key", lambda: "other") == "value"
    assert graph.version_reads == 2


def test_atom_relation_reads_version_exactly_once(monkeypatch):
    monkeypatch.setitem(relations._KIND_PAIRS, "standard",
                        lambda graph, nfa: {(1, 2)})
    graph = VersionCountingGraph()
    first = atom_relation(graph, Symbol("a"), "standard")
    assert graph.version_reads == 1
    assert atom_relation(graph, Symbol("a"), "standard") is first
    assert graph.version_reads == 2
    graph._version += 1  # simulate a mutation; the store must move on
    graph.version_reads = 0
    fresh = atom_relation(graph, Symbol("a"), "standard")
    assert graph.version_reads == 1
    assert fresh is not first and fresh.pairs == first.pairs


# ----------------------------------------------------------------------
# Relation store publication under threads (formerly LK007's batch store)
# ----------------------------------------------------------------------


def test_relation_store_is_single_instanced_under_threads():
    graph = small_graph()
    # A c-chain off to the side gives one relation (read first) whose
    # index build is long enough for racing first reads to interleave.
    for node in range(10, 70):
        graph.add_edge(node, "c", node + 1)
    keys = [(parse_regex("c^+"), "standard"), (Symbol("a"), "standard"),
            (Symbol("b"), "standard"), (Symbol("a"), "simple-path")]
    nodes = sorted(graph.nodes)
    barrier = threading.Barrier(16, timeout=10)
    results = []
    index_reads = []

    def fetch():
        barrier.wait()
        fetched = [atom_relation(graph, language, kind)
                   for language, kind in keys]
        results.append(fetched)
        # Lazy per-side indexes: racing first reads must all see the
        # first published index, not a last writer's copy.
        barrier.wait()
        index_reads.append({
            (position, side, node): read(node)
            for position, relation in enumerate(fetched)
            for side, read in (("targets", relation.targets_of),
                               ("sources", relation.sources_of))
            for node in nodes
        })

    threads = [threading.Thread(target=fetch) for _ in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 16
    for position in range(len(keys)):
        assert len({id(fetched[position]) for fetched in results}) == 1
    assert len(index_reads) == 16
    for read_key in index_reads[0]:
        assert len({id(reads[read_key]) for reads in index_reads}) == 1
    assert set(results[0][1]) == {(1, 2), (2, 3), (3, 1)}
    assert set(results[0][3]) == {(1, 2), (2, 3), (3, 1)}


def test_batch_executor_keeps_no_private_store():
    executor = BatchExecutor(small_graph(), "st")
    for private in ("_lock", "_relations", "_relations_version"):
        assert not hasattr(executor, private)


# ----------------------------------------------------------------------
# Adjacency views are immutable (LK001 bug class)
# ----------------------------------------------------------------------


def test_adjacency_partitions_are_read_only():
    graph = small_graph()
    index = adjacency_index(graph)
    targets = index.out_targets(2)
    assert targets is not None and set(targets) == {"a", "b"}
    with pytest.raises(TypeError):
        targets["c"] = (9,)
    sources = index.in_sources(3)
    assert sources is not None
    with pytest.raises(TypeError):
        del sources["a"]
    # The shared index is unharmed.
    assert set(index.out_targets(2)) == {"a", "b"}


# ----------------------------------------------------------------------
# Adjacency facets: built on first read, from the index's own version
# ----------------------------------------------------------------------

#: Every facet the index builds lazily (instance attributes once built).
FACETS = ("_out_sorted", "_out_by_label", "_in_by_label", "_label_sets",
          "_csr_out")


def built_facets(index):
    return {name for name in FACETS if name in vars(index)}


def facet_view(index, nodes, labels):
    """Every facet of ``index``, read over ``nodes`` and ``labels``, in
    comparable form (``in_sources`` is unordered by contract)."""
    return {
        "nodes_sorted": index.nodes_sorted,
        "out_sorted": {node: index.out_sorted(node) for node in nodes},
        "out_targets": {
            node: dict(index.out_targets(node) or {}) for node in nodes
        },
        "in_sources": {
            node: {label: sorted(sources, key=repr)
                   for label, sources in (index.in_sources(node) or {}).items()}
            for node in nodes
        },
        "label_sets": {
            label: (index.label_sources(label), index.label_targets(label),
                    index.label_loops(label))
            for label in labels
        },
        "csr_out": {
            label: (list(offsets), list(targets))
            for label, (offsets, targets) in index.csr_out().items()
        },
    }


def test_facets_first_read_after_mutation_describe_the_old_version():
    graph = small_graph()
    before = graph.copy()
    stale = adjacency_index(graph)
    version = graph.version
    assert not built_facets(stale)
    graph.add_edge(1, "b", 1)
    graph.remove_edge(2, "a", 3)
    graph.add_node(9)
    nodes = graph.nodes | before.nodes
    labels = {"a", "b", "c"}
    assert facet_view(stale, nodes, labels) == facet_view(
        adjacency_index(before), nodes, labels
    )
    assert built_facets(stale) == set(FACETS)
    assert stale.version == version
    fresh = adjacency_index(graph)
    assert fresh is not stale and fresh.version == graph.version
    assert facet_view(fresh, nodes, labels) == facet_view(
        adjacency_index(graph.copy()), nodes, labels
    )
    loop = Edge(1, "b", 1)
    assert loop in fresh.out_sorted(1) and loop not in stale.out_sorted(1)
    assert fresh.label_loops("b") == {1} and not stale.label_loops("b")
    assert fresh.in_sources(3) == {"b": (2,)}
    assert 9 in fresh.node_bit and 9 not in stale.node_bit


def test_cold_st_query_builds_only_the_csr_facet():
    graph = uniform_random(30, 90, {"a", "b"}, seed=3)
    query = parse_query("Q(x, z) :- x -[a]-> y, y -[b^+]-> z")
    with use_backend("array"):
        assert evaluate(query, graph, "st")
    assert built_facets(adjacency_index(graph)) == {"_csr_out"}


def test_ainj_query_builds_the_search_facets():
    graph = uniform_random(30, 90, {"a", "b"}, seed=3)
    query = parse_query("Q(x, z) :- x -[a]-> y, y -[b^+]-> z")
    with use_backend("array"):
        assert evaluate(query, graph, "a-inj")
    assert {"_out_sorted", "_in_by_label"} <= built_facets(
        adjacency_index(graph)
    )


def test_racing_first_reads_get_one_published_facet():
    graph = uniform_random(60, 300, {"a", "b"}, seed=5)
    index = adjacency_index(graph)
    node = index.nodes_sorted[0]
    reads = (index.csr_out, lambda: index.out_sorted(node),
             lambda: index.out_targets(node), lambda: index.in_sources(node),
             lambda: index.label_sources("a"), lambda: index.label_loops("b"))
    barrier = threading.Barrier(16, timeout=10)
    results = []

    def first_reads():
        barrier.wait()
        results.append([read() for read in reads])

    threads = [threading.Thread(target=first_reads) for _ in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 16
    for position in range(len(reads)):
        assert len({id(values[position]) for values in results}) == 1
