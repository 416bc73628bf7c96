"""Compilation and relation caches for the evaluation engine.

Five cache families live here (the sixth, the atom-relation store,
lives in :mod:`repro.engine.relations` on top of :func:`graph_cached`):

- **NFA compilation cache** — ``Regex → NFA`` memoization, keyed
  *structurally* (regex AST nodes are frozen dataclasses, so equal
  regexes share one compiled automaton).  The seed recompiled every
  atom language on every ``evaluate`` / ``simple_path_pairs`` call.
- **Per-disjunct results** — :func:`query_result`, per (graph version,
  semantics, ε-free disjunct).
- **Automaton records** — :func:`nfa_record`, per interned NFA: what
  the kernels, planners and store derive from it, state masks
  (:func:`nfa_masks`, :mod:`repro.graphdb.paths`) and emptiness too.
- **Co-reachability cache** — :func:`coreachable_masks`, per (graph,
  NFA, target) the ``node → mask`` of states that can still accept at
  the target; the kernel prunes dead branches with it.
- **Analysis cache** — per-(query structure, semantics) memoization of
  the static analyzer's :class:`~repro.engine.analyze.AnalysisReport`.
  Deliberately *graph-free*: analysis facts and rewrites depend only on
  the query and the semantics, so reports survive graph mutations and
  are shared across the batch and incremental layers.

Every family reports hits/misses to the telemetry registry
(``cache.nfa.*`` / ``cache.relation.*`` / ``cache.result.*`` /
``cache.analysis.*``); :func:`analysis_cache_stats` reads the registry
counters, and :func:`repro.engine.telemetry.reset_for_tests` zeroes
them (the old module-global counters leaked across tests and batch
runs with no reset hook).

Graph-scoped caches are stored on the graph instance and keyed by its
mutation counter (``GraphDatabase.version``): any ``add_node`` /
``add_edge`` bumps the counter and the next lookup rebuilds.
:func:`invalidate_engine_caches` drops them eagerly.

NFA keys use *object identity* (NFAs compare by identity); regex keys
use structural equality.  Because compiled NFAs are interned by the
compilation cache, repeated compilations of the same regex hit the same
identity, which is what makes the graph-scoped caches effective.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import cached_property
from itertools import groupby
from typing import Any, Callable, Optional

from repro.engine import telemetry
from repro.engine.adjacency import adjacency_index
from repro.regular.nfa import NFA
from repro.regular.syntax import Regex

# Caps keep long-running processes bounded.  The process-wide NFA caches
# evict least-recently-used entries one at a time (batch workloads with
# more distinct regexes than the cap would thrash a cap-and-clear cache
# and break the interning that makes the identity-keyed graph caches
# effective); the graph-scoped caches below are dropped wholesale when
# full, atom relations excepted (:func:`_make_room`; correctness never
# depends on a hit).
_NFA_CACHE_CAP = 4096
_GRAPH_CACHE_CAP = 4096
_ANALYSIS_CACHE_CAP = 1024

#: First key element of the atom-relation entries, which a full graph
#: cache keeps (:func:`_make_room`).
RELATION_KEY = "relation"

# Stable dotted names — the cache family's slice of the metric naming
# scheme (ARCHITECTURE.md "Observability").
_NFA_HITS = telemetry.registry().counter("cache.nfa.hits")
_NFA_MISSES = telemetry.registry().counter("cache.nfa.misses")
_RESULT_HITS = telemetry.registry().counter("cache.result.hits")
_RESULT_MISSES = telemetry.registry().counter("cache.result.misses")
_ANALYSIS_HITS = telemetry.registry().counter("cache.analysis.hits")
_ANALYSIS_MISSES = telemetry.registry().counter("cache.analysis.misses")


class _LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Thread-safe (the batch executor's worker threads compile NFAs
    concurrently); ``get`` refreshes recency, insertion evicts the
    stalest entries once the cap is exceeded.  ``setdefault`` keeps the
    first value published for a key, so threads racing on one miss all
    end up with the same object (interning depends on it).
    """

    def __init__(self, cap: int) -> None:
        self._cap = cap
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Any) -> Any:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def setdefault(self, key: Any, value: Any) -> Any:
        with self._lock:
            value = self._data.setdefault(key, value)
            self._data.move_to_end(key)
            while len(self._data) > self._cap:
                self._data.popitem(last=False)
            return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data


_nfa_cache = _LRUCache(_NFA_CACHE_CAP)
_record_cache = _LRUCache(_NFA_CACHE_CAP)


def compiled_nfa(language: Any, state_prefix: str = "") -> NFA:
    """Return an ε-free NFA for ``language``, memoized structurally.

    ``language`` may already be an NFA (returned unchanged) or a Regex.
    Equal regexes (same AST) with the same ``state_prefix`` share one
    compiled automaton — safe because :class:`NFA` is immutable.
    """
    if isinstance(language, NFA):
        return language
    if not isinstance(language, Regex):
        raise TypeError(f"expected Regex or NFA, got {language!r}")
    key = (language, state_prefix)
    nfa: NFA | None = _nfa_cache.get(key)
    if nfa is not None:
        _NFA_HITS.inc()
        return nfa
    _NFA_MISSES.inc()
    compiled: NFA = _nfa_cache.setdefault(
        key, NFA.from_regex(language, state_prefix=state_prefix)
    )
    return compiled


#: A component of :attr:`NFARecord.components`: (members, cyclic, moves_in).
_Component = tuple[list[int], bool, list[tuple[int, Any, tuple[int, ...]]]]


class NFARecord:
    """Everything the engine derives from one automaton alone.

    ``state_id`` numbers the states in repr order (kernel layers, mask
    bits); ``by_label`` maps labels to moves ``(state, successors)``,
    ``reverse`` maps ``(state, label)`` to predecessors.  ``empty`` is
    computed up front (every planned atom asks); ``components`` and
    ``masks`` on first read, so an atom only checked for emptiness pays
    for neither.
    """

    def __init__(self, nfa: NFA) -> None:
        self.nfa = nfa
        self.states = tuple(sorted(nfa.states, key=repr))
        state_id = self.state_id = {s: i for i, s in enumerate(self.states)}
        self.initial_ids = frozenset(state_id[s] for s in nfa.initials)
        self.final_ids = frozenset(state_id[s] for s in nfa.finals)
        self.by_label: dict[Any, list[tuple[Any, frozenset[Any]]]] = {}
        self.reverse: dict[tuple[Any, Any], list[Any]] = {}
        for (state, label), targets in nfa.transitions.items():
            self.by_label.setdefault(label, []).append((state, targets))
            for target in targets:
                self.reverse.setdefault((target, label), []).append(state)
        self.empty = nfa.is_empty()

    @cached_property
    def components(self) -> list[_Component]:
        """The condensation over every move, topologically ordered: per
        component its member ids, whether it is cyclic (several states or
        a self-loop) and every move into it, ``(source, label, targets)``."""
        # Lazy import: the product module reads records from this one.
        from repro.engine.product import _tarjan_sccs

        state_id = self.state_id
        moves = [
            (state_id[state], label, sorted(map(state_id.__getitem__, nexts)))
            for (state, label), nexts in self.nfa.transitions.items()
        ]
        successors: dict[int, list[int]] = {i: [] for i in state_id.values()}
        for source, _, targets in moves:
            successors[source] += targets
        sinks_first, component_of = _tarjan_sccs(successors)
        moves_in: list[list[tuple[int, Any, tuple[int, ...]]]]
        moves_in = [[] for _ in sinks_first]
        for source, label, targets in moves:
            targets.sort(key=component_of.__getitem__)
            for component, group in groupby(targets, component_of.__getitem__):
                moves_in[component].append((source, label, tuple(group)))
        return [
            (m, len(m) > 1 or m[0] in successors[m[0]], moves_in[c])
            for c, m in reversed(list(enumerate(sinks_first)))
        ]

    @cached_property
    def masks(self) -> NFAMasks:
        """The automaton over bitmask state sets (:func:`nfa_masks`)."""
        return NFAMasks(self)


def nfa_record(nfa: NFA) -> NFARecord:
    """The :class:`NFARecord` of ``nfa``, memoized by automaton identity
    (a bounded LRU that :func:`clear_compilation_caches` drops)."""
    record: NFARecord = (_record_cache.get(nfa)
                         or _record_cache.setdefault(nfa, NFARecord(nfa)))
    return record


class _MaskTable(dict[tuple[int, Any], int]):
    """``(mask, label) → mask``, filled on first lookup from ``moves``
    (label → one successor mask per state bit; ``None``: every label
    loops).  Racing threads compute equal entries, so writes are safe."""

    __slots__ = ("_moves",)

    def __init__(self, moves: dict[Any, list[int]] | None) -> None:
        super().__init__()
        self._moves = moves

    def __missing__(self, key: tuple[int, Any]) -> int:
        mask, label = key
        if self._moves is None:
            result = mask
        else:
            per_bit = self._moves.get(label)
            result = 0
            while mask and per_bit:
                low = mask & -mask
                result |= per_bit[low.bit_length() - 1]
                mask ^= low
        self[key] = result
        return result


class NFAMasks:
    """An automaton over bitmask state sets (bit *i*: state id *i*):
    initial and final masks, and memoized forward (``step``) and
    backward (``back``) tables holding only the pairs a search reached."""

    __slots__ = ("initial", "finals", "step", "back")

    def __init__(self, record: NFARecord | None) -> None:
        if record is None:
            self.initial = self.finals = 1
            self.step = self.back = _MaskTable(None)
            return
        position = record.state_id
        forward: dict[Any, list[int]] = {}
        backward: dict[Any, list[int]] = {}
        for (state, label), targets in record.nfa.transitions.items():
            successors = forward.setdefault(label, [0] * len(position))
            predecessors = backward.setdefault(label, [0] * len(position))
            for target in targets:
                successors[position[state]] |= 1 << position[target]
                predecessors[position[target]] |= 1 << position[state]
        self.initial = sum(1 << state for state in record.initial_ids)
        self.finals = sum(1 << state for state in record.final_ids)
        self.step = _MaskTable(forward)
        self.back = _MaskTable(backward)


#: The universal automaton: one state, initial and final, looping on
#: every label.
_UNIVERSAL_MASKS = NFAMasks(None)


def nfa_masks(nfa: NFA | None) -> NFAMasks:
    """The :class:`NFAMasks` of ``nfa`` (``None``: no label constraint),
    read off its :class:`NFARecord`."""
    return _UNIVERSAL_MASKS if nfa is None else nfa_record(nfa).masks


def clear_compilation_caches() -> None:
    """Drop the process-wide NFA caches (mainly for tests)."""
    _nfa_cache.clear()
    _record_cache.clear()


# ----------------------------------------------------------------------
# Analysis-report cache (graph-free, keyed by the query's disjuncts)
# ----------------------------------------------------------------------

_analysis_cache = _LRUCache(_ANALYSIS_CACHE_CAP)


def analysis_report(key: Any, compute: Callable[[], Any]) -> Any:
    """Get-or-compute a static-analysis report.

    ``key`` is the query's disjunct tuple plus the semantics — never
    the graph or its version, so one report serves every graph and
    survives every mutation (the incremental layer's requirement).  ``compute`` runs on a miss; its result is assumed
    immutable."""
    report = _analysis_cache.get(key)
    if report is not None:
        _ANALYSIS_HITS.inc()
        return report
    _ANALYSIS_MISSES.inc()
    return _analysis_cache.setdefault(key, compute())


def analysis_cache_stats() -> dict[str, int]:
    """``{"hits": int, "misses": int, "entries": int}`` for the
    analysis-report cache (tests pin that reports are reused across
    graph versions).  Backed by the ``cache.analysis.*`` registry
    counters since the telemetry PR — reset via
    :func:`clear_analysis_cache` or
    :func:`repro.engine.telemetry.reset_for_tests`."""
    return {
        "hits": _ANALYSIS_HITS.value,
        "misses": _ANALYSIS_MISSES.value,
        "entries": len(_analysis_cache),
    }


def clear_analysis_cache() -> None:
    """Drop every memoized analysis report and reset the counters."""
    _analysis_cache.clear()
    _ANALYSIS_HITS.reset()
    _ANALYSIS_MISSES.reset()


# ----------------------------------------------------------------------
# Graph-scoped caches
# ----------------------------------------------------------------------


_GRAPH_CACHE_LOCK = threading.Lock()


def _graph_cache(graph: Any) -> dict[Any, Any]:
    """The mutable cache dict for the graph's *current* version.

    ``graph.version`` is read exactly once: a second read after the
    staleness check could observe a concurrent mutation and tag a
    fresh store with a version newer than the state it caches.  A new
    version's dict is attached under a lock, so threads racing on the
    first lookup of a version all publish into the same dict.
    """
    version: int = graph.version
    cached: tuple[int, dict[Any, Any]] | None = getattr(
        graph, "_engine_cache", None
    )
    if cached is not None and cached[0] == version:
        return cached[1]
    with _GRAPH_CACHE_LOCK:
        cached = getattr(graph, "_engine_cache", None)
        if cached is not None and cached[0] == version:
            return cached[1]
        store: dict[Any, Any] = {}
        # lintkit: disable=LK002 -- this *is* the blessed attachment
        # point every other engine module routes through.
        graph._engine_cache = (version, store)
    return store


def invalidate_engine_caches(graph: Any) -> None:
    """Eagerly drop every engine cache attached to ``graph``.

    Mutation already invalidates lazily via the version counter; this
    exists for callers that want the memory back immediately.
    """
    for attribute in ("_engine_cache", "_engine_adjacency"):
        try:
            delattr(graph, attribute)
        except AttributeError:
            pass


def graph_cached(
    graph: Any,
    key: Any,
    compute: Callable[[], Any],
    hits: Optional[telemetry.Counter] = None,
    misses: Optional[telemetry.Counter] = None,
) -> Any:
    """Get-or-compute an *immutable* value in the graph-scoped cache.

    Callers must hand back values that are safe to share across every
    consumer of the same graph version.  ``compute`` runs outside any
    lock and its value is published with ``dict.setdefault``: racing
    callers all receive the first published object, and a compute that
    raises (a deadline, a cancellation, a fault) publishes nothing.
    ``hits`` / ``misses`` count one bump per lookup when given.
    """
    cache = _graph_cache(graph)
    value = cache.get(key)
    if value is not None:
        if hits is not None:
            hits.inc()
        return value
    if misses is not None:
        misses.inc()
    value = compute()
    _make_room(cache)
    return cache.setdefault(key, value)


def graph_cache_holds(graph: Any, key: Any) -> bool:
    """True iff ``key`` is cached for the graph's current version (a
    peek: nothing is computed or counted)."""
    return key in _graph_cache(graph)


def _make_room(cache: dict[Any, Any]) -> None:
    """Cap-and-clear a full graph cache, keeping its atom relations.

    ``(RELATION_KEY, kind, nfa)`` entries are bounded by the number of
    distinct atom languages and are the expensive ones: a batch warms
    them before its queries run, and the per-target co-reachable-state
    entries a simple-path DFS adds must not evict them mid-batch.  Only
    when relations fill half the cache does everything go.  Relation
    entries are never popped one by one, so racing lookups still share
    one object per key.
    """
    if len(cache) < _GRAPH_CACHE_CAP:
        return
    keys = list(cache.copy())
    evictable = [key for key in keys if key[0] != RELATION_KEY]
    if 2 * len(evictable) < len(keys):
        cache.clear()
        return
    for key in evictable:
        cache.pop(key, None)


def query_result(
    graph: Any, semantics: Any, query: Any, compute: Callable[[], Any]
) -> Any:
    """Get-or-compute a full per-disjunct evaluation result.

    Keyed by (semantics, query) on top of the graph version — CRPQs
    compare by head, variables and atom multiset, so re-evaluating the
    same query against an unchanged graph is a dictionary lookup.  This is
    the layer that makes repeated query serving cheap; the atom-relation
    cache below it makes *distinct* queries sharing atom languages cheap.

    With an incremental store attached, a version-cache miss first asks
    the store for a *reusable* result: when every base table of the
    disjunct is a maintained relation whose identity (and the node set)
    has not moved since the last evaluation, the stored answers are
    returned without re-planning.  Only standard answers are reused:
    a-inj reads version-discard simple-path tables and q-inj depends on
    witness paths, so both always recompute.
    """
    store = getattr(graph, "_incremental_store", None)
    if store is not None:
        inner = compute
        compute = lambda: store.query_result(semantics, query, inner)  # noqa: E731
    return graph_cached(
        graph,
        ("query", semantics, query),
        lambda: frozenset(compute()),
        hits=_RESULT_HITS,
        misses=_RESULT_MISSES,
    )


def coreachable_masks(
    graph: Any, nfa: NFA | None, target: Any
) -> tuple[NFAMasks, dict[Any, int]]:
    """``(nfa_masks(nfa), useful)``: ``useful`` maps a node to the mask
    of states that can reach ``(target, final)`` — one backward sweep
    over graph in-edges × ``masks.back``, cached per (graph version,
    automaton, target); nodes with none are absent.  Shared: never
    mutate it.  Constraints (forbidden nodes or edges) only remove
    paths, so pruning a search with it changes no output.
    """

    def compute() -> tuple[NFAMasks, dict[Any, int]]:
        masks = nfa_masks(nfa)
        index = adjacency_index(graph)
        back = masks.back
        useful = {target: masks.finals}
        stack = [(target, masks.finals)]
        while stack:
            node, mask = stack.pop()
            for label, sources in (index.in_sources(node) or {}).items():
                pred = back[mask, label]
                if not pred:
                    continue
                for source in sources:
                    known = useful.get(source, 0)
                    new = pred & ~known
                    if new:
                        useful[source] = known | new
                        stack.append((source, new))
        return masks, useful

    result: tuple[NFAMasks, dict[Any, int]] = graph_cached(
        graph, ("coreach", nfa, target), compute
    )
    return result
