"""Regression pins for the invariant violations lintkit surfaced.

Each test here pins one of the real bugs the lintkit rules flagged when
first run over the tree (and which were then fixed, not baselined):

- ``engine/cache.py`` and ``engine/batch.py`` read ``graph.version``
  twice per staleness check — a concurrent mutation between the reads
  could tag a cache with a version newer than the state it captured
  (LK003, the PR 5 TOCTOU class);
- ``engine/batch.py`` mutated the executor's shared relation store from
  thread-pool workers without a lock (LK007);
- ``containment/bounded.py`` ran its membership checks outside
  ``analysis_disabled()``, recursing into the static analyzer and
  polluting its cache stats (LK004);
- ``engine/adjacency.py`` handed out live inner dicts from
  ``out_targets`` / ``in_sources``; one caller mutating its view would
  corrupt every consumer of the graph version (LK001's bug class).
"""

import sys
import threading

import pytest

from repro.containment.bounded import search_counterexample
from repro.containment.result import Verdict
from repro.engine import relations
from repro.engine.adjacency import adjacency_index
from repro.engine.batch import BatchExecutor
from repro.engine.cache import (
    analysis_cache_stats,
    clear_analysis_cache,
    graph_cached,
)
from repro.engine.relations import atom_relation
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.regular.syntax import Symbol


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
# Decider guard (LK004)
# ----------------------------------------------------------------------


def test_bounded_search_runs_under_analysis_disabled():
    q1 = parse_query("Q(x, y) :- x -[a a]-> y")
    q2 = parse_query("Q(x, y) :- x -[a*]-> y")
    clear_analysis_cache()
    result = search_counterexample(q1, q2, "st", max_word_length=3)
    assert result.verdict is Verdict.CONTAINED_UP_TO_BOUND
    stats = analysis_cache_stats()
    assert stats["hits"] == 0 and stats["misses"] == 0, (
        "bounded search leaked membership checks into the analyzer cache"
    )


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
