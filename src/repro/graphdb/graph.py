"""The :class:`GraphDatabase` store.

Nodes and labels are arbitrary hashable values.  Edges are triples
``(source, label, target)``; parallel edges with distinct labels are
allowed, duplicate triples are ignored (E is a *set*, per the paper).

Mutation is versioned: every *effective* mutation (including removals)
bumps ``version`` and appends to a capped change-log, so the engine
layer can either invalidate lazily (version mismatch) or ask
:meth:`GraphDatabase.delta_since` for the exact net difference between
two versions and maintain its derived structures incrementally
(:mod:`repro.engine.incremental`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

#: Number of change-log entries kept per graph.  Once the log
#: outgrows the cap the oldest entries are dropped and ``delta_since``
#: answers ``None`` for versions before the remaining window — callers
#: must then rebuild rather than maintain.
CHANGELOG_CAP = 1024


@dataclass(frozen=True, order=True)
class Edge:
    """A labeled edge u --a--> v."""

    source: object
    label: object
    target: object

    def __str__(self):
        return f"{self.source} -{self.label}-> {self.target}"


@dataclass(frozen=True)
class GraphDelta:
    """The *net* difference between two graph versions.

    Operations that cancel out inside the window (an edge added and then
    removed, or removed and re-added) do not appear: the delta describes
    the end states only, which is exactly what view maintenance needs.
    """

    added_nodes: frozenset
    removed_nodes: frozenset
    added_edges: frozenset
    removed_edges: frozenset

    def is_empty(self):
        """True when the two versions describe the same graph."""
        return not (self.added_nodes or self.removed_nodes
                    or self.added_edges or self.removed_edges)

    @property
    def insert_only(self):
        """True when nothing was removed — the monotone-growth fast path."""
        return not (self.removed_nodes or self.removed_edges)

    def size(self):
        """Total number of net changes (nodes + edges, both directions)."""
        return (len(self.added_nodes) + len(self.removed_nodes)
                + len(self.added_edges) + len(self.removed_edges))

    def __str__(self):
        return (f"+{len(self.added_edges)}e/+{len(self.added_nodes)}n "
                f"-{len(self.removed_edges)}e/-{len(self.removed_nodes)}n")


class GraphDatabase:
    """A finite edge-labeled directed graph G = (V, E) over alphabet A."""

    def __init__(self, nodes=(), edges=()):
        self._nodes = set()
        self._edges = set()
        self._out = defaultdict(set)   # node -> set of Edge
        self._in = defaultdict(set)    # node -> set of Edge
        self._by_label = defaultdict(set)
        self._version = 0
        self._changelog = deque()      # (version, op, payload)
        self._changelog_floor = 0      # oldest version delta_since can serve
        # (family, key) -> frozen copy of that index entry; a mutation
        # evicts exactly the entries it changes (see _snapshot).
        self._snapshots = {}
        # No snapshot to evict and no delta reader yet: fill the indexes
        # directly.  The version counts each distinct node and edge, and
        # the change-log starts there (older delta_since answers None).
        self._nodes.update(nodes)
        version = len(self._nodes)
        for edge in edges:
            if not isinstance(edge, Edge):
                source, label, target = edge
                edge = Edge(source, label, target)
            if edge not in self._edges:
                self._edges.add(edge)
                self._nodes.add(edge.source)
                self._nodes.add(edge.target)
                self._out[edge.source].add(edge)
                self._in[edge.target].add(edge)
                self._by_label[edge.label].add(edge)
                version += 1
        self._version = self._changelog_floor = version

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _log(self, op, payload):
        self._changelog.append((self._version, op, payload))
        while len(self._changelog) > CHANGELOG_CAP:
            dropped_version, _op, _payload = self._changelog.popleft()
            # Entries with version == v are not needed by delta_since(v)
            # (it folds strictly-newer entries), so the floor is exactly
            # the dropped entry's version.
            self._changelog_floor = dropped_version

    def add_node(self, node):
        """Add an isolated node (no-op if present)."""
        if node not in self._nodes:
            self._nodes.add(node)
            self._version += 1
            self._log("+n", node)
        return node

    def add_edge(self, source, label, target):
        """Add the edge ``source -label-> target`` (and its endpoints)."""
        edge = Edge(source, label, target)
        if edge in self._edges:
            return edge
        new_nodes = []
        for node in (source, target):
            if node not in self._nodes:
                self._nodes.add(node)
                new_nodes.append(node)
        self._edges.add(edge)
        self._out[source].add(edge)
        self._in[target].add(edge)
        self._by_label[label].add(edge)
        self._evict_snapshots(edge)
        self._version += 1
        for node in new_nodes:
            self._log("+n", node)
        self._log("+e", edge)
        return edge

    def remove_edge(self, source, label, target):
        """Remove the edge ``source -label-> target`` (endpoints stay).

        Raises :class:`KeyError` when the edge is not present.  All index
        entries are cleaned up completely — a node or label whose last
        edge disappears leaves no empty-set residue behind.
        """
        edge = Edge(source, label, target)
        if edge not in self._edges:
            raise KeyError(f"cannot remove missing edge {edge}")
        self._edges.discard(edge)
        for mapping, key in ((self._out, source), (self._in, target),
                             (self._by_label, label)):
            members = mapping[key]
            members.discard(edge)
            if not members:
                del mapping[key]
        self._evict_snapshots(edge)
        self._version += 1
        self._log("-e", edge)
        return edge

    def remove_node(self, node, cascade=False):
        """Remove ``node``; raises :class:`KeyError` when absent.

        A node with incident edges is refused unless ``cascade=True``,
        in which case the incident edges are removed first (each one a
        logged, version-bumping mutation of its own, in deterministic
        order).
        """
        if node not in self._nodes:
            raise KeyError(f"cannot remove missing node {node!r}")
        incident = set(self._out.get(node, ())) | set(self._in.get(node, ()))
        if incident and not cascade:
            raise ValueError(
                f"node {node!r} has {len(incident)} incident edge(s); "
                f"pass cascade=True to remove them too"
            )
        for edge in sorted(incident, key=lambda e: (repr(e.source),
                                                    repr(e.label),
                                                    repr(e.target))):
            self.remove_edge(edge.source, edge.label, edge.target)
        self._nodes.discard(node)
        self._snapshots.pop(("out", node), None)
        self._snapshots.pop(("in", node), None)
        self._version += 1
        self._log("-n", node)
        return node

    def _evict_snapshots(self, edge):
        """Drop the snapshots of the three index entries ``edge``
        belongs to; every other snapshot stays valid."""
        snapshots = self._snapshots
        snapshots.pop(("out", edge.source), None)
        snapshots.pop(("in", edge.target), None)
        snapshots.pop(("label", edge.label), None)

    def delta_since(self, version):
        """The net :class:`GraphDelta` between ``version`` and now.

        Returns ``None`` when ``version`` predates the change-log window
        (the capped log no longer covers it) — the caller must rebuild.
        Raises :class:`ValueError` for versions the graph has not
        reached yet.
        """
        if version > self._version:
            raise ValueError(
                f"version {version} is ahead of the graph (at "
                f"{self._version})"
            )
        if version < self._changelog_floor:
            return None
        added_nodes, removed_nodes = set(), set()
        added_edges, removed_edges = set(), set()
        # Entry versions are non-decreasing: fold only the entries
        # strictly newer than ``version``.
        start = bisect_right(self._changelog, version, key=itemgetter(0))
        for _version, op, payload in islice(self._changelog, start, None):
            if op == "+n":
                if payload in removed_nodes:
                    removed_nodes.discard(payload)
                else:
                    added_nodes.add(payload)
            elif op == "-n":
                if payload in added_nodes:
                    added_nodes.discard(payload)
                else:
                    removed_nodes.add(payload)
            elif op == "+e":
                if payload in removed_edges:
                    removed_edges.discard(payload)
                else:
                    added_edges.add(payload)
            else:  # "-e"
                if payload in added_edges:
                    added_edges.discard(payload)
                else:
                    removed_edges.add(payload)
        return GraphDelta(frozenset(added_nodes), frozenset(removed_nodes),
                          frozenset(added_edges), frozenset(removed_edges))

    def add_path(self, nodes, labels):
        """Add a path through ``nodes`` with the given edge ``labels``."""
        nodes = list(nodes)
        labels = list(labels)
        if len(labels) != len(nodes) - 1:
            raise ValueError("need exactly one label per consecutive node pair")
        for (source, target), label in zip(zip(nodes, nodes[1:]), labels):
            self.add_edge(source, label, target)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def nodes(self):
        """The frozen set of nodes."""
        return frozenset(self._nodes)

    @property
    def edges(self):
        """The frozen set of :class:`Edge` triples."""
        return frozenset(self._edges)

    @property
    def alphabet(self):
        """The set of labels appearing on edges."""
        return frozenset(self._by_label)

    @property
    def version(self):
        """A counter bumped by every effective mutation.

        The engine layer (:mod:`repro.engine`) keys its adjacency index
        and relation caches on this value, so stale caches are detected
        without the graph having to know about them.
        """
        return self._version

    def node_count(self):
        return len(self._nodes)

    def edge_count(self):
        return len(self._edges)

    def _snapshot(self, family, mapping, key):
        """A frozen copy of ``mapping[key]``, memoized until a mutation
        changes that entry, so repeated accessor calls — across versions
        too — don't re-copy unchanged sets."""
        cache_key = (family, key)
        value = self._snapshots.get(cache_key)
        if value is None:
            members = mapping.get(key)
            value = frozenset(members) if members else frozenset()
            self._snapshots[cache_key] = value
        return value

    def out_edges(self, node):
        """Edges leaving ``node`` (an immutable snapshot).

        Always a :class:`frozenset`, never the live internal set —
        mutating the return value must not corrupt the graph.
        """
        return self._snapshot("out", self._out, node)

    def in_edges(self, node):
        """Edges entering ``node`` (an immutable snapshot)."""
        return self._snapshot("in", self._in, node)

    def edges_with_label(self, label):
        """Edges carrying ``label`` (an immutable snapshot)."""
        return self._snapshot("label", self._by_label, label)

    def has_edge(self, source, label, target):
        return Edge(source, label, target) in self._edges

    def successors(self, node, label=None):
        """Targets of edges leaving ``node`` (optionally filtered by label)."""
        return {
            edge.target
            for edge in self.out_edges(node)
            if label is None or edge.label == label
        }

    def predecessors(self, node, label=None):
        """Sources of edges entering ``node`` (optionally filtered by label)."""
        return {
            edge.source
            for edge in self.in_edges(node)
            if label is None or edge.label == label
        }

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def copy(self):
        """Return an independent copy (fresh change-log)."""
        return GraphDatabase(self._nodes, self._edges)

    def rename_nodes(self, mapping):
        """Return a copy with nodes renamed through ``mapping``.

        This implements quotients: mapping several nodes to one value merges
        them (used for a-inj-expansion construction, §4.1).
        """
        renamed = GraphDatabase()
        for node in self._nodes:
            renamed.add_node(mapping.get(node, node))
        for edge in self._edges:
            renamed.add_edge(
                mapping.get(edge.source, edge.source),
                edge.label,
                mapping.get(edge.target, edge.target),
            )
        return renamed

    def induced_subgraph(self, keep_nodes):
        """Return the subgraph induced by ``keep_nodes``."""
        keep = set(keep_nodes)
        sub = GraphDatabase()
        for node in keep:
            if node in self._nodes:
                sub.add_node(node)
        for edge in self._edges:
            if edge.source in keep and edge.target in keep:
                sub.add_edge(edge.source, edge.label, edge.target)
        return sub

    def disjoint_union(self, other, tag_self="L", tag_other="R"):
        """Return the disjoint union with nodes tagged apart."""
        result = GraphDatabase()
        for node in self._nodes:
            result.add_node((tag_self, node))
        for node in other._nodes:
            result.add_node((tag_other, node))
        for edge in self._edges:
            result.add_edge((tag_self, edge.source), edge.label, (tag_self, edge.target))
        for edge in other._edges:
            result.add_edge(
                (tag_other, edge.source), edge.label, (tag_other, edge.target)
            )
        return result

    def __eq__(self, other):
        if not isinstance(other, GraphDatabase):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __hash__(self):
        return hash((frozenset(self._nodes), frozenset(self._edges)))

    def __repr__(self):
        return f"GraphDatabase(nodes={len(self._nodes)}, edges={len(self._edges)})"

    def pretty(self):
        """Return a deterministic multi-line rendering (for examples)."""
        lines = [f"GraphDatabase with {len(self._nodes)} nodes, {len(self._edges)} edges"]
        for edge in sorted(self._edges, key=lambda e: (repr(e.source), repr(e.label), repr(e.target))):
            lines.append(f"  {edge}")
        return "\n".join(lines)
