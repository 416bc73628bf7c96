"""Indexed adjacency for :class:`~repro.graphdb.graph.GraphDatabase`.

The backtracking searches in :mod:`repro.graphdb.paths` and
:mod:`repro.semantics.trails` expand nodes in a deterministic order
(sorted by ``(repr(label), repr(target))``).  The seed implementations
re-sorted ``graph.out_edges(node)`` on *every* DFS expansion; the index
sorts each adjacency list once per graph version and hands out the same
tuples afterwards.

The index is cached on the graph instance and keyed by the graph's
mutation counter (``GraphDatabase.version``), so any ``add_node`` /
``add_edge`` after the build transparently invalidates it.  Because one
index is shared across every consumer of a graph version, all returned
containers are immutable: tuples, frozensets, and read-only mapping
proxies.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

from repro.engine.backend import index_array, zeros_index_array

if TYPE_CHECKING:
    from array import array

#: ``{label: (neighbors...)}`` partition handed out by the index —
#: a read-only view; mutating it raises ``TypeError``.
LabelPartition = Mapping[Any, tuple[Any, ...]]


def edge_sort_key(edge: Any) -> tuple[str, str]:
    """The deterministic expansion order used by every DFS in the repo."""
    return (repr(edge.label), repr(edge.target))


def _as_partition(partition: dict[Any, list[Any]]) -> LabelPartition:
    return MappingProxyType(
        {label: tuple(neighbors) for label, neighbors in partition.items()}
    )


class AdjacencyIndex:
    """Pre-sorted, label-partitioned adjacency for one graph version.

    All returned containers are immutable views built once — they are
    shared across every consumer of the same graph version, so the
    label partitions are :class:`types.MappingProxyType` instances and
    writes to them raise.
    """

    __slots__ = (
        "version",
        "nodes_sorted",
        "node_bit",
        "_out_sorted",
        "_out_by_label",
        "_in_by_label",
        "_label_sources",
        "_label_targets",
        "_label_loops",
        "_csr_out",
    )

    version: int
    nodes_sorted: tuple[Any, ...]
    node_bit: dict[Any, int]
    _out_sorted: dict[Any, tuple[Any, ...]]
    _out_by_label: dict[Any, LabelPartition]
    _in_by_label: dict[Any, LabelPartition]
    _label_sources: dict[Any, frozenset[Any]]
    _label_targets: dict[Any, frozenset[Any]]
    _label_loops: dict[Any, frozenset[Any]]
    _csr_out: Mapping[Any, tuple["array[int]", "array[int]"]] | None

    _EMPTY: tuple[Any, ...] = ()
    _EMPTY_SET: frozenset[Any] = frozenset()

    def __init__(self, graph: Any) -> None:
        self.version = graph.version
        self.nodes_sorted = tuple(sorted(graph.nodes, key=repr))
        self.node_bit = {node: index for index, node in enumerate(self.nodes_sorted)}
        out_sorted: dict[Any, tuple[Any, ...]] = {}
        out_by_label: dict[Any, LabelPartition] = {}
        in_by_label: dict[Any, LabelPartition] = {}
        for node in self.nodes_sorted:
            out_edges = tuple(sorted(graph.out_edges(node), key=edge_sort_key))
            if out_edges:
                out_sorted[node] = out_edges
                partition: dict[Any, list[Any]] = {}
                for edge in out_edges:
                    partition.setdefault(edge.label, []).append(edge.target)
                out_by_label[node] = _as_partition(partition)
            partition = {}
            for edge in graph.in_edges(node):
                partition.setdefault(edge.label, []).append(edge.source)
            if partition:
                in_by_label[node] = _as_partition(partition)
        self._out_sorted = out_sorted
        self._out_by_label = out_by_label
        self._in_by_label = in_by_label
        label_sources: dict[Any, set[Any]] = {}
        label_targets: dict[Any, set[Any]] = {}
        label_loops: dict[Any, set[Any]] = {}
        for edge in graph.edges:
            label_sources.setdefault(edge.label, set()).add(edge.source)
            label_targets.setdefault(edge.label, set()).add(edge.target)
            if edge.source == edge.target:
                label_loops.setdefault(edge.label, set()).add(edge.source)
        self._label_sources = {
            label: frozenset(nodes) for label, nodes in label_sources.items()
        }
        self._label_targets = {
            label: frozenset(nodes) for label, nodes in label_targets.items()
        }
        self._label_loops = {
            label: frozenset(nodes) for label, nodes in label_loops.items()
        }
        self._csr_out = None

    def out_sorted(self, node: Any) -> tuple[Any, ...]:
        """Edges leaving ``node``, sorted by :func:`edge_sort_key`."""
        return self._out_sorted.get(node, self._EMPTY)

    def out_targets(self, node: Any) -> LabelPartition | None:
        """``{label: (targets...)}`` partition of the out-edges of ``node``."""
        return self._out_by_label.get(node)

    def in_sources(self, node: Any) -> LabelPartition | None:
        """``{label: (sources...)}`` partition of the in-edges of ``node``."""
        return self._in_by_label.get(node)

    def label_sources(self, label: Any) -> frozenset[Any]:
        """Nodes with an outgoing ``label`` edge (a frozenset)."""
        return self._label_sources.get(label, self._EMPTY_SET)

    def label_targets(self, label: Any) -> frozenset[Any]:
        """Nodes with an incoming ``label`` edge (a frozenset)."""
        return self._label_targets.get(label, self._EMPTY_SET)

    def label_loops(self, label: Any) -> frozenset[Any]:
        """Nodes with a ``label`` self-loop (a frozenset)."""
        return self._label_loops.get(label, self._EMPTY_SET)

    def csr_out(self) -> Mapping[Any, tuple["array[int]", "array[int]"]]:
        """Label-partitioned CSR adjacency over dense node ids.

        ``{label: (offsets, targets)}`` where both halves are signed
        64-bit index arrays from :mod:`repro.engine.backend`: the
        ``label``-successors of the node interned at ``i`` (see
        ``node_bit``) are ``targets[offsets[i]:offsets[i + 1]]``, in
        the same deterministic :func:`edge_sort_key` order as the
        object-level partitions.  Built lazily on first request (only
        the dense kernels pay for it) and cached for the lifetime of
        this index — the arrays are shared, so treat them as frozen;
        the mapping itself is a read-only proxy.
        """
        csr = self._csr_out
        if csr is not None:
            return csr
        node_bit = self.node_bit
        labels = tuple(self._label_sources)
        count = len(self.nodes_sorted)
        offsets = {label: zeros_index_array(count + 1) for label in labels}
        targets: dict[Any, list[int]] = {label: [] for label in labels}
        for position, node in enumerate(self.nodes_sorted):
            partition = self._out_by_label.get(node)
            if partition:
                for label, label_targets in partition.items():
                    targets[label].extend(
                        node_bit[target] for target in label_targets
                    )
            for label in labels:
                offsets[label][position + 1] = len(targets[label])
        csr = MappingProxyType(
            {
                label: (offsets[label], index_array(targets[label]))
                for label in labels
            }
        )
        self._csr_out = csr
        return csr


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
