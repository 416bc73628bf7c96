"""Hash-indexed binary relations and the one atom-relation store.

Under st and a-inj a CRPQ disjunct is a conjunctive query over per-atom
pair relations: walks under st, simple paths or simple cycles under
a-inj.  The q-inj search prunes with the walk relation.  Every
evaluation path therefore asks one question — what is the relation of
(kind, interned NFA) at graph version v? — and :func:`atom_relation`
is the one place that answers it.  It hands out a :class:`Relation`:
the pair set plus by-source / by-target hash indexes, built once per
(graph version, kind, NFA) and shared by the planner, the q-inj
search, the batch executor, ``--explain`` and the pair-set helpers of
:mod:`repro.semantics.rpq`.  On a graph with an attached
:class:`~repro.engine.incremental.IncrementalRelationStore` the walk
relation is the store's maintained object instead.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, KeysView

from repro.engine import telemetry
from repro.engine.cache import RELATION_KEY, compiled_nfa, graph_cached
from repro.engine.product import product_reachability_pairs

_EMPTY: frozenset[Any] = frozenset()

_RELATION_HITS = telemetry.registry().counter("cache.relation.hits")
_RELATION_MISSES = telemetry.registry().counter("cache.relation.misses")


class Relation:
    """An immutable binary relation R ⊆ V × V with hash indexes.

    ``pairs`` is the raw pair set; ``by_source`` / ``by_target`` map a
    node to the frozenset of its partners.  All containers are frozen —
    one :class:`Relation` is shared by every plan over the same graph
    version.
    """

    __slots__ = ("pairs", "by_source", "by_target", "_dense")

    pairs: frozenset[tuple[Any, Any]]
    by_source: dict[Any, frozenset[Any]]
    by_target: dict[Any, frozenset[Any]]
    _dense: tuple[Any, "Relation"] | None

    def __init__(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        pairs = frozenset(pairs)
        by_source: dict[Any, set[Any]] = {}
        by_target: dict[Any, set[Any]] = {}
        for source, target in pairs:
            by_source.setdefault(source, set()).add(target)
            by_target.setdefault(target, set()).add(source)
        self.pairs = pairs
        self.by_source = {
            source: frozenset(targets) for source, targets in by_source.items()
        }
        self.by_target = {
            target: frozenset(sources) for target, sources in by_target.items()
        }
        self._dense = None

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: Any) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        return iter(self.pairs)

    @property
    def sources(self) -> KeysView[Any]:
        """The set of nodes with at least one outgoing pair."""
        return self.by_source.keys()

    @property
    def targets(self) -> KeysView[Any]:
        """The set of nodes with at least one incoming pair."""
        return self.by_target.keys()

    def targets_of(self, source: Any) -> frozenset[Any]:
        """{t : (source, t) ∈ R} (a frozenset, possibly empty)."""
        return self.by_source.get(source, _EMPTY)

    def sources_of(self, target: Any) -> frozenset[Any]:
        """{s : (s, target) ∈ R} (a frozenset, possibly empty)."""
        return self.by_target.get(target, _EMPTY)

    def diagonal(self) -> frozenset[Any]:
        """{v : (v, v) ∈ R} — a loop atom read as a unary relation."""
        return frozenset(
            source for source in self.by_source if source in self.targets_of(source)
        )

    def restrict(
        self,
        sources: Any = None,
        targets: Any = None,
    ) -> frozenset[tuple[Any, Any]] | set[tuple[Any, Any]]:
        """Pairs whose endpoints survive the given node filters.

        ``None`` means unconstrained; the result is a plain set of pairs
        (callers wanting indexes wrap it in a new :class:`Relation`).
        The smaller constrained side drives the scan through the hash
        indexes, so a pinned endpoint (the membership path binds head
        variables to single nodes) costs its partner count, not |R|.
        """
        if sources is None and targets is None:
            return self.pairs
        if sources is not None and (targets is None
                                    or len(sources) <= len(targets)):
            return {
                (source, target)
                for source in sources
                for target in self.targets_of(source)
                if targets is None or target in targets
            }
        return {
            (source, target)
            for target in targets
            for source in self.sources_of(target)
            if sources is None or source in sources
        }

    def dense_relation(self, index: Any) -> "Relation":
        """This relation re-keyed to interned node ids (``node_bit`` of
        the given :class:`~repro.engine.adjacency.AdjacencyIndex`).

        The array backend's join path operates on dense int pairs; the
        encoded twin — same pairs, same hash indexes, int endpoints —
        is built once and memoized per index identity.  Every endpoint
        must be a node of the index's graph version (atom relations and
        maintained incremental relations guarantee this); an unknown
        endpoint is a contract violation and raises ``KeyError``.  The
        memo is an unsynchronized benign race under the batch
        executor's threads: both writers compute identical twins.
        """
        cached = self._dense
        if cached is not None and cached[0] is index:
            return cached[1]
        node_bit = index.node_bit
        dense = Relation(
            (node_bit[source], node_bit[target])
            for source, target in self.pairs
        )
        self._dense = (index, dense)
        return dense

    def __repr__(self) -> str:
        return f"Relation({len(self.pairs)} pairs)"


def simple_path_pairs_among(
    graph: Any, nfa: Any, candidates: Iterable[tuple[Any, Any]]
) -> set[tuple[Any, Any]]:
    """The candidate pairs ``(u, v)`` joined by some *simple path* with
    label in the language of ``nfa`` (for u = v only the empty path is
    simple, so ``(u, u)`` survives iff ε is accepted)."""
    # Lazy import: graphdb.paths sits above the engine layer.
    from repro.graphdb.paths import simple_paths

    pairs = set()
    for source, target in candidates:
        if source == target:
            if nfa.accepts(()):
                pairs.add((source, target))
            continue
        for _path in simple_paths(graph, source, target, language=nfa):
            pairs.add((source, target))
            break
    return pairs


def _simple_path_pairs(graph: Any, nfa: Any) -> set[tuple[Any, Any]]:
    # A simple path is a walk: the walk relation is the candidate set.
    return simple_path_pairs_among(
        graph, nfa, atom_relation(graph, nfa, "standard").pairs
    )


def _simple_cycle_diagonal(graph: Any, nfa: Any) -> set[tuple[Any, Any]]:
    """``(v, v)`` for every node on a nonempty simple cycle with label
    in the language — a loop atom's relation under a-inj."""
    from repro.graphdb.paths import simple_cycles_through

    diagonal = set()
    for node in graph.nodes:
        for _cycle in simple_cycles_through(
            graph, node, language=nfa, include_empty=False
        ):
            diagonal.add((node, node))
            break
    return diagonal


#: Relation kind → pair computation.  The kinds are the ones
#: :func:`repro.semantics.rpq.atom_relation_kind` names.
_KIND_PAIRS: dict[str, Callable[[Any, Any], Iterable[tuple[Any, Any]]]] = {
    "standard": product_reachability_pairs,
    "simple-path": _simple_path_pairs,
    "simple-cycle-nonempty": _simple_cycle_diagonal,
}


def atom_relation(graph: Any, language: Any, kind: str) -> Relation:
    """The :class:`Relation` of ``kind`` for ``language`` at the graph's
    current version — the engine's one atom-relation store.

    Stored in the version-tagged graph cache under
    ``("relation", kind, nfa)``, one entry per (version, kind, interned
    NFA).  The relation is computed outside any lock and published with
    ``dict.setdefault`` (:func:`~repro.engine.cache.graph_cached`), so
    racing callers all get one object and an interrupted compute
    publishes nothing.  For ``"standard"`` on a graph with an attached
    incremental store the store's maintained relation is returned
    itself, counted as a hit: this is the only relation lookup that
    reads the attached store (lintkit LK002).
    """
    compute_pairs = _KIND_PAIRS.get(kind)
    if compute_pairs is None:
        raise ValueError(f"unknown atom relation kind: {kind!r}")
    nfa = compiled_nfa(language)
    if kind == "standard":
        store = getattr(graph, "_incremental_store", None)
        if store is not None:
            _RELATION_HITS.inc()
            maintained: Relation = store.standard_relation(nfa)
            return maintained
    relation: Relation = graph_cached(
        graph,
        (RELATION_KEY, kind, nfa),
        lambda: Relation(compute_pairs(graph, nfa)),
        hits=_RELATION_HITS,
        misses=_RELATION_MISSES,
    )
    return relation


def relation_for(graph: Any, atom: Any, semantics: Any) -> Relation:
    """The default ``relation_for`` hook of the planner and the q-inj
    pruning plan: :func:`atom_relation` of the kind ``semantics`` needs
    for ``atom``.  Query-injective callers get the standard (walk)
    relation, the sound pruning over-approximation of their search."""
    from repro.semantics.base import Semantics
    from repro.semantics.rpq import atom_relation_kind

    if semantics is Semantics.QUERY_INJECTIVE:
        semantics = Semantics.STANDARD
    return atom_relation(graph, atom.language,
                         atom_relation_kind(atom, semantics))
