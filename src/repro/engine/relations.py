"""Hash-indexed binary relations and the one atom-relation store.

Under st and a-inj a CRPQ disjunct is a conjunctive query over per-atom
pair relations: walks under st, simple paths or simple cycles under
a-inj.  The q-inj search prunes with the walk relation, and an
RPQ-shaped q-inj disjunct reads its a-inj relation.  A loop atom
``x -[L]-> x`` is read as a diagonal under every semantics, so its kind
keeps only pairs ``(v, v)``: ``"walk-loop"`` under st and q-inj,
``"simple-cycle-nonempty"`` under a-inj.  Every
evaluation path therefore asks one question — what is the relation of
(kind, interned NFA) at graph version v? — and :func:`atom_relation`
is the one place that answers it.  It hands out a :class:`Relation`,
built once per (graph version, kind, NFA) and shared by the planner,
the q-inj search, the batch executor, ``--explain`` and the pair-set
helpers of :mod:`repro.semantics.rpq`: the pair set, plus by-source /
by-target hash indexes built per side on first read.  On a graph with
an attached :class:`~repro.engine.incremental.IncrementalRelationStore`
the walk relation is the store's maintained object instead, and it is
served for a loop atom's ``"walk-loop"`` kind too (the planner and the
q-inj pruning read a loop atom's table only through
:meth:`Relation.diagonal`), so the store's maintained walk relation is
not recomputed as a diagonal on every update.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.engine import telemetry
from repro.engine.adjacency import adjacency_index
from repro.engine.cache import (
    RELATION_KEY,
    compiled_nfa,
    graph_cache_holds,
    graph_cached,
)
from repro.engine.product import product_reachability_pairs

_EMPTY: frozenset[Any] = frozenset()

_RELATION_HITS = telemetry.registry().counter("cache.relation.hits")
_RELATION_MISSES = telemetry.registry().counter("cache.relation.misses")
_INDEX_BUILDS = telemetry.registry().counter("relations.index.builds")


class Relation:
    """An immutable binary relation R ⊆ V × V with lazy hash indexes.

    ``pairs`` is the raw pair set; a ``frozenset`` handed in is kept as
    is (the product kernel builds one), anything else is frozen once.
    The by-source and by-target indexes (node → frozenset of partners)
    are built per side on first read, so a plan that never looks a node
    up — an unconstrained join, a triangle, a loop atom — builds
    neither.  One :class:`Relation` is
    shared by every plan over the same graph version: a side's index is
    computed outside any lock and published once with
    ``dict.setdefault``, so racing readers all get the first published
    index.
    """

    __slots__ = ("pairs", "_indexes")

    pairs: frozenset[tuple[Any, Any]]
    _indexes: dict[int, dict[Any, frozenset[Any]]]

    def __init__(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        self.pairs = frozenset(pairs)
        self._indexes = {}

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: Any) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        return iter(self.pairs)

    def _index(self, side: int) -> dict[Any, frozenset[Any]]:
        """Node → partners keyed by pair position ``side`` (0 = source,
        1 = target), built and published on first read."""
        index = self._indexes.get(side)
        if index is not None:
            return index
        grouped: dict[Any, set[Any]] = {}
        for pair in self.pairs:
            grouped.setdefault(pair[side], set()).add(pair[1 - side])
        _INDEX_BUILDS.inc()
        return self._indexes.setdefault(side, {
            node: frozenset(partners) for node, partners in grouped.items()
        })

    def targets_of(self, source: Any) -> frozenset[Any]:
        """{t : (source, t) ∈ R} (a frozenset, possibly empty)."""
        return self._index(0).get(source, _EMPTY)

    def sources_of(self, target: Any) -> frozenset[Any]:
        """{s : (s, target) ∈ R} (a frozenset, possibly empty)."""
        return self._index(1).get(target, _EMPTY)

    def diagonal(self) -> frozenset[Any]:
        """{v : (v, v) ∈ R} — a loop atom read as a unary relation."""
        return frozenset(
            source for source, target in self.pairs if source == target
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

        No engine path calls this: the planner and the q-inj pruning
        join graph nodes directly.  It is kept, unmemoized, because the
        repo benchmark's ``--trace 1`` staged replay still times it as
        its ``relations.encode`` stage; it goes when that replay is
        fixed (ROADMAP, "perfbench staged replay").  Every endpoint must
        be a node of the index's graph version, else ``KeyError``.
        """
        node_bit = index.node_bit
        return Relation(
            (node_bit[source], node_bit[target])
            for source, target in self.pairs
        )

    def __repr__(self) -> str:
        return f"Relation({len(self.pairs)} pairs)"


def simple_path_pairs_among(
    graph: Any, nfa: Any, candidates: Iterable[tuple[Any, Any]]
) -> set[tuple[Any, Any]]:
    """The candidate pairs ``(u, v)`` joined by some *simple path* with
    label in the language of ``nfa`` (for u = v only the empty path is
    simple, so ``(u, u)`` survives iff ε is accepted).

    Candidates are grouped by source, and each source keeps one
    ``reached`` set of the kernel's accepted endpoints
    (:func:`~repro.graphdb.paths.search`): a target some earlier search
    from that source already stepped onto is accepted with no search of
    its own.  Sources and targets run in ``nodes_sorted`` order, so the
    number of searches does not depend on set iteration order; targets
    run in descending order, because the DFS expands edges in ascending
    target order and so a search for a late target steps onto (and
    harvests) the earlier ones first."""
    # Lazy import: graphdb.paths sits above the engine layer.
    from repro.graphdb.paths import search

    accepts_empty = nfa.accepts(())
    rank = adjacency_index(graph).node_bit.__getitem__
    by_source: dict[Any, list[Any]] = {}
    for source, target in candidates:
        by_source.setdefault(source, []).append(target)
    pairs: set[tuple[Any, Any]] = set()
    for source in sorted(by_source, key=rank):
        reached: set[Any] = set()
        for target in sorted(by_source[source], key=rank, reverse=True):
            if (accepts_empty if source == target
                    else target in reached or any(
                        search(graph, nfa, source, target, reached=reached))):
                pairs.add((source, target))
    return pairs


def _simple_path_pairs(graph: Any, nfa: Any) -> set[tuple[Any, Any]]:
    # A simple path is a walk: the walk relation is the candidate set.
    return simple_path_pairs_among(
        graph, nfa, atom_relation(graph, nfa, "standard").pairs
    )


def _simple_cycle_diagonal(graph: Any, nfa: Any) -> set[tuple[Any, Any]]:
    """``(v, v)`` for every node on a nonempty simple cycle with label
    in the language — a loop atom's relation under a-inj."""
    from repro.graphdb.paths import search

    return {
        (node, node) for node in graph.nodes if any(search(graph, nfa, node, node))
    }


def _walk_diagonal(graph: Any, nfa: Any) -> frozenset[tuple[Any, Any]]:
    """``(v, v)`` for every node with a walk ``v ⇝ v`` labelled in the
    language — a loop atom's relation under st (and q-inj pruning)."""
    return product_reachability_pairs(graph, nfa, diagonal=True)


#: Relation kind → pair computation.  The kinds are the ones
#: :func:`repro.semantics.rpq.atom_relation_kind` names; the two loop
#: kinds are diagonals, ``(v, v)`` pairs only.
_KIND_PAIRS: dict[str, Callable[[Any, Any], Iterable[tuple[Any, Any]]]] = {
    "standard": product_reachability_pairs,
    "walk-loop": _walk_diagonal,
    "simple-path": _simple_path_pairs,
    "simple-cycle-nonempty": _simple_cycle_diagonal,
}


def atom_relation(graph: Any, language: Any, kind: str, nfa: Any = None) -> Relation:
    """The :class:`Relation` of ``kind`` for ``language`` at the graph's
    current version — the engine's one atom-relation store.

    Stored in the version-tagged graph cache under ``("relation", kind,
    nfa)``, one entry per (version, kind, interned NFA: ``nfa`` when the
    caller holds it).  The relation is computed outside any lock and published with
    ``dict.setdefault`` (:func:`~repro.engine.cache.graph_cached`), so
    racing callers all get one object and an interrupted compute
    publishes nothing.  For ``"standard"`` and ``"walk-loop"`` on a
    graph with an attached incremental store the store's maintained
    walk relation of ``language`` is returned itself, counted as a hit:
    this and :func:`store_attached` are the only reads of the attached
    store here (lintkit LK002).  A loop kind therefore promises only
    its diagonal (:meth:`Relation.diagonal`); the pair-set helper
    :func:`repro.semantics.rpq.relation_by_kind` cuts it to that.
    """
    compute_pairs = _KIND_PAIRS.get(kind)
    if compute_pairs is None:
        raise ValueError(f"unknown atom relation kind: {kind!r}")
    if kind in ("standard", "walk-loop"):
        store = getattr(graph, "_incremental_store", None)
        if store is not None:
            _RELATION_HITS.inc()
            maintained: Relation = store.standard_relation(language, nfa)
            return maintained
    nfa = nfa or compiled_nfa(language)
    relation: Relation = graph_cached(
        graph,
        (RELATION_KEY, kind, nfa),
        lambda: Relation(compute_pairs(graph, nfa)),
        hits=_RELATION_HITS,
        misses=_RELATION_MISSES,
    )
    return relation


def store_attached(graph: Any) -> bool:
    """True iff an incremental store maintains the graph's walk
    relations (:func:`atom_relation` then serves them from it)."""
    return getattr(graph, "_incremental_store", None) is not None


def walk_relation_materialized(graph: Any, nfa: Any) -> bool:
    """True iff the graph cache holds the ``"standard"`` relation of the
    interned automaton ``nfa`` at the graph's current version.  Builds,
    counts nothing; a store-attached graph's relations live in the store."""
    return graph_cache_holds(graph, (RELATION_KEY, "standard", nfa))


def relation_for(graph: Any, atom: Any, semantics: Any, nfa: Any = None) -> Relation:
    """The default ``relation_for`` hook of the planner and the q-inj
    pruning plan: :func:`atom_relation` of the kind ``semantics`` needs
    for ``atom`` (``nfa``: its automaton, if held; ``semantics``: a
    :class:`~repro.semantics.base.Semantics` or its name).
    Query-injective callers get the walk relation, their search's sound
    pruning; the q-inj RPQ plan asks this hook for the a-inj relation."""
    from repro.semantics.base import Semantics
    from repro.semantics.rpq import atom_relation_kind

    if Semantics.coerce(semantics) is Semantics.QUERY_INJECTIVE:
        semantics = Semantics.STANDARD
    return atom_relation(graph, atom.language,
                         atom_relation_kind(atom, semantics), nfa)
