"""Indexed adjacency for :class:`~repro.graphdb.graph.GraphDatabase`.

The backtracking searches in :mod:`repro.graphdb.paths` and
:mod:`repro.semantics.trails` expand nodes in a deterministic order
(sorted by ``(repr(label), repr(target))``).  The seed implementations
re-sorted ``graph.out_edges(node)`` on *every* DFS expansion; the index
sorts each adjacency list once per graph version and hands out the same
tuples afterwards.

The index is cached on the graph instance and keyed by the graph's
mutation counter (``GraphDatabase.version``), so any ``add_node`` /
``add_edge`` after the build transparently invalidates it.

Construction keeps only the repr-sorted node interning (``nodes_sorted``
and ``node_bit``) and one frozen copy of the version's edge set.  Every
other facet (the sorted out-edges, the label partitions, the per-label
node sets and the CSR rows) is built from that snapshot on its first
read, so a cold standard-semantics query pays for the CSR rows alone.
The index keeps no reference to the graph: a facet first read after a
mutation still describes the index's own version.  A facet is computed
outside any lock and published once with ``dict.setdefault``, so racing
readers all get the first published value.  Because one index is shared
across every consumer of a graph version, all returned containers are
immutable: tuples (the CSR rows' int tuples included), frozensets, and
read-only mapping proxies.  The module imports nothing from the engine.
"""

from __future__ import annotations

from itertools import accumulate
from types import MappingProxyType
from typing import Any, Callable, Mapping

#: ``{label: (neighbors...)}`` partition handed out by the index —
#: a read-only view; mutating it raises ``TypeError``.
LabelPartition = Mapping[Any, tuple[Any, ...]]

#: One label's CSR rows over dense node ids: ``(offsets, targets)``.
CSRRows = tuple[tuple[int, ...], tuple[int, ...]]

#: ``{label: nodes}`` for the sources, targets and self-loops of each label.
LabelSets = tuple[
    dict[Any, frozenset[Any]], dict[Any, frozenset[Any]], dict[Any, frozenset[Any]]
]


def edge_sort_key(edge: Any) -> tuple[str, str]:
    """The deterministic expansion order used by every DFS in the repo."""
    return (repr(edge.label), repr(edge.target))


def _as_partition(partition: dict[Any, list[Any]]) -> LabelPartition:
    return MappingProxyType(
        {label: tuple(neighbors) for label, neighbors in partition.items()}
    )


def _frozen_values(by_label: dict[Any, set[Any]]) -> dict[Any, frozenset[Any]]:
    return {label: frozenset(nodes) for label, nodes in by_label.items()}


class AdjacencyIndex:
    """Pre-sorted, label-partitioned adjacency for one graph version.

    All returned containers are immutable views built once — they are
    shared across every consumer of the same graph version, so the
    label partitions are :class:`types.MappingProxyType` instances and
    writes to them raise.  A built facet lives in the instance
    ``__dict__``; until then its class-level ``None`` default answers.
    """

    version: int
    nodes_sorted: tuple[Any, ...]
    node_bit: dict[Any, int]
    _edges: frozenset[Any]

    _out_sorted: dict[Any, tuple[Any, ...]] | None = None
    _out_by_label: dict[Any, LabelPartition] | None = None
    _in_by_label: dict[Any, LabelPartition] | None = None
    _label_sets: LabelSets | None = None
    _csr_out: Mapping[Any, CSRRows] | None = None

    _EMPTY: tuple[Any, ...] = ()
    _EMPTY_SET: frozenset[Any] = frozenset()

    def __init__(self, graph: Any) -> None:
        self.version = graph.version
        self.nodes_sorted = tuple(sorted(graph.nodes, key=repr))
        self.node_bit = {node: index for index, node in enumerate(self.nodes_sorted)}
        self._edges = graph.edges

    def _publish(self, name: str, build: Callable[[], Any]) -> Any:
        """Build facet ``name`` and publish it once: the first value
        stored wins, and every racing builder returns that one."""
        return vars(self).setdefault(name, build())

    def _build_out_sorted(self) -> dict[Any, tuple[Any, ...]]:
        grouped: dict[Any, list[Any]] = {}
        for edge in self._edges:
            grouped.setdefault(edge.source, []).append(edge)
        return {
            node: tuple(sorted(edges, key=edge_sort_key))
            for node, edges in grouped.items()
        }

    def _build_out_by_label(self) -> dict[Any, LabelPartition]:
        grouped: dict[Any, dict[Any, list[Any]]] = {}
        for edge in self._edges:
            grouped.setdefault(edge.source, {}).setdefault(
                edge.label, []
            ).append(edge.target)
        return {node: _as_partition(partition) for node, partition in grouped.items()}

    def _build_in_by_label(self) -> dict[Any, LabelPartition]:
        grouped: dict[Any, dict[Any, list[Any]]] = {}
        for edge in self._edges:
            grouped.setdefault(edge.target, {}).setdefault(
                edge.label, []
            ).append(edge.source)
        return {node: _as_partition(partition) for node, partition in grouped.items()}

    def _build_label_sets(self) -> LabelSets:
        sources: dict[Any, set[Any]] = {}
        targets: dict[Any, set[Any]] = {}
        loops: dict[Any, set[Any]] = {}
        for edge in self._edges:
            sources.setdefault(edge.label, set()).add(edge.source)
            targets.setdefault(edge.label, set()).add(edge.target)
            if edge.source == edge.target:
                loops.setdefault(edge.label, set()).add(edge.source)
        return (_frozen_values(sources), _frozen_values(targets),
                _frozen_values(loops))

    def _build_csr_out(self) -> Mapping[Any, CSRRows]:
        node_bit = self.node_bit
        rows: dict[Any, dict[int, list[int]]] = {}
        for edge in self._edges:
            rows.setdefault(edge.label, {}).setdefault(
                node_bit[edge.source], []
            ).append(node_bit[edge.target])
        count = len(self.nodes_sorted)
        csr: dict[Any, CSRRows] = {}
        for label, by_source in rows.items():
            degrees = [0] * (count + 1)
            targets: list[int] = []
            for source in sorted(by_source):
                row = by_source[source]
                # Ids follow repr order, so an id-sorted row is in
                # edge_sort_key order within the label.
                row.sort()
                targets.extend(row)
                degrees[source + 1] = len(row)
            csr[label] = (tuple(accumulate(degrees)), tuple(targets))
        return MappingProxyType(csr)

    def _labels(self) -> LabelSets:
        facet = self._label_sets
        if facet is None:
            facet = self._publish("_label_sets", self._build_label_sets)
        return facet

    def out_sorted(self, node: Any) -> tuple[Any, ...]:
        """Edges leaving ``node``, sorted by :func:`edge_sort_key`."""
        facet = self._out_sorted
        if facet is None:
            facet = self._publish("_out_sorted", self._build_out_sorted)
        return facet.get(node, self._EMPTY)

    def out_targets(self, node: Any) -> LabelPartition | None:
        """``{label: (targets...)}`` partition of the out-edges of ``node``
        (unordered: its one reader, the product sweep, is order-free)."""
        facet = self._out_by_label
        if facet is None:
            facet = self._publish("_out_by_label", self._build_out_by_label)
        return facet.get(node)

    def in_sources(self, node: Any) -> LabelPartition | None:
        """``{label: (sources...)}`` partition of the in-edges of ``node``."""
        facet = self._in_by_label
        if facet is None:
            facet = self._publish("_in_by_label", self._build_in_by_label)
        return facet.get(node)

    def label_sources(self, label: Any) -> frozenset[Any]:
        """Nodes with an outgoing ``label`` edge (a frozenset)."""
        return self._labels()[0].get(label, self._EMPTY_SET)

    def label_targets(self, label: Any) -> frozenset[Any]:
        """Nodes with an incoming ``label`` edge (a frozenset)."""
        return self._labels()[1].get(label, self._EMPTY_SET)

    def label_loops(self, label: Any) -> frozenset[Any]:
        """Nodes with a ``label`` self-loop (a frozenset)."""
        return self._labels()[2].get(label, self._EMPTY_SET)

    def csr_out(self) -> Mapping[Any, CSRRows]:
        """Label-partitioned CSR adjacency over dense node ids.

        ``{label: (offsets, targets)}`` where both halves are int
        tuples: the ``label``-successors of the node interned at ``i``
        (see ``node_bit``) are ``targets[offsets[i]:offsets[i + 1]]``,
        in the same deterministic :func:`edge_sort_key` order as the
        object-level partitions.  The targets are ``node_bit``'s own int
        objects, so a row costs one pointer per edge.  Built straight
        from the edge snapshot on first request (only the dense kernel
        pays for it) and cached for the lifetime of this index; the
        kernel reads the rows as built, and the mapping is a read-only
        proxy.
        """
        facet = self._csr_out
        if facet is None:
            facet = self._publish("_csr_out", self._build_csr_out)
        return facet


def adjacency_index(graph: Any) -> AdjacencyIndex:
    """Return the (possibly cached) :class:`AdjacencyIndex` for ``graph``.

    Rebuilt lazily whenever the graph's mutation counter has moved since
    the last build.
    """
    cached: AdjacencyIndex | None = getattr(graph, "_engine_adjacency", None)
    if cached is not None and cached.version == graph.version:
        return cached
    index = AdjacencyIndex(graph)
    # lintkit: disable=LK002 -- blessed attachment point: the adjacency
    # index is version-tagged and invalidate_engine_caches() knows the
    # attribute; ad-hoc attachments elsewhere would not be dropped.
    graph._engine_adjacency = index
    return index
