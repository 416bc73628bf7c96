"""Paths, simple paths and simple cycles in a graph database.

Definitions follow §2 of the paper exactly:

- a *path* from u to v is a possibly empty sequence of consecutive edges;
  its label is the concatenation of edge labels (ε when empty);
- a *simple path* has pairwise-distinct nodes (so a nonempty path from v to
  v is never simple, and the empty path at v is the only simple path v⇝v);
- a *simple cycle* has v0 = vk and v0..v(k-1) pairwise distinct.

Enumeration here is used by the a-inj / q-inj evaluators (the problem is
NP-hard in general, Prop 3.2 — these are backtracking searches, with NFA
product pruning).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.adjacency import adjacency_index, edge_sort_key
from repro.engine.cache import compiled_nfa, coreachable_states
from repro.engine.runtime import checkpoint_site, resolve_context

SITE_PATH_DFS = checkpoint_site(
    "paths.dfs", "simple-path / simple-cycle backtracking DFS (per frame)"
)


@dataclass(frozen=True)
class Path:
    """A concrete path: the node sequence and the edge-label sequence."""

    nodes: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.nodes) != len(self.labels) + 1:
            raise ValueError("a path over k edges visits k+1 nodes")

    @property
    def source(self):
        return self.nodes[0]

    @property
    def target(self):
        return self.nodes[-1]

    @property
    def label(self):
        """The word spelled by the path (tuple of labels; ε is ())."""
        return self.labels

    def internal_nodes(self):
        """The internal nodes v_i with 0 < i < k (paper's definition)."""
        return frozenset(self.nodes[1:-1])

    def is_simple_path(self):
        """All nodes pairwise distinct."""
        return len(set(self.nodes)) == len(self.nodes)

    def is_simple_cycle(self):
        """v0 = vk and v0..v(k-1) pairwise distinct."""
        if self.nodes[0] != self.nodes[-1]:
            return False
        head = self.nodes[:-1]
        return len(set(head)) == len(head)

    def __len__(self):
        return len(self.labels)

    def __str__(self):
        if not self.labels:
            return f"({self.nodes[0]})"
        parts = [str(self.nodes[0])]
        for label, node in zip(self.labels, self.nodes[1:]):
            parts.append(f"-{label}->{node}")
        return "".join(parts)


def _as_nfa(language):
    if language is None:
        return None
    return compiled_nfa(language)


def _prepare_pruned_search(graph, nfa, source, target):
    """Shared setup for the pruned backtracking searches: the adjacency
    index, the co-reachability set for ``target``, and the initial NFA
    states filtered to those alive at ``source``."""
    index = adjacency_index(graph)
    if nfa is None:
        return index, None, None
    useful = coreachable_states(graph, nfa, target)
    initial_states = frozenset(
        state for state in nfa.initials if (source, state) in useful
    )
    return index, useful, initial_states


def _filtered_step(nfa, states, label, node, useful):
    """One NFA step with dead states (not co-reachable at ``node``)
    dropped; empty result means the branch can never accept."""
    nxt_states = nfa.step(states, label)
    if nxt_states:
        nxt_states = frozenset(
            state for state in nxt_states if (node, state) in useful
        )
    return nxt_states


def simple_paths(graph, source, target, language=None, forbidden=frozenset(),
                 require_nonempty=False, ctx=None):
    """Yield simple paths source ⇝ target, optionally label-constrained.

    ``language`` (a Regex or NFA) restricts the path label; ``forbidden`` is
    a set of nodes that the path must avoid *entirely* (used by the q-inj
    evaluator to keep atom paths node-disjoint).  If ``source == target``
    the only simple path is the empty one (yielded when ε is accepted and
    ``require_nonempty`` is false).  ``require_nonempty`` has no effect
    when ``source != target`` — a simple path between distinct endpoints
    is nonempty by construction.

    Backtracking DFS over (node, NFA state set); the visited-node set makes
    memoization unsound, which is exactly the source of NP-hardness
    (Prop 3.2) — this is intentional, faithful behavior.  The frontier is
    filtered through the product co-reachability set (states that can
    still reach an accepting configuration at ``target`` in the full
    graph), which prunes dead branches without changing the yielded
    paths or their order.
    """
    nfa = _as_nfa(language)
    if source in forbidden or target in forbidden:
        return
    if source == target:
        empty = Path((source,), ())
        if not require_nonempty and (nfa is None or nfa.accepts(())):
            yield empty
        return

    index, useful, initial_states = _prepare_pruned_search(
        graph, nfa, source, target
    )
    if nfa is not None and not initial_states:
        return
    ctx = resolve_context(ctx)

    def extend(node, states, nodes, labels):
        ctx.checkpoint(SITE_PATH_DFS)
        for edge in index.out_sorted(node):
            nxt = edge.target
            nxt_states = None
            if nfa is not None:
                nxt_states = _filtered_step(nfa, states, edge.label, nxt, useful)
                if not nxt_states:
                    continue
            if nxt in forbidden:
                continue
            if nxt == target:
                path = Path(tuple(nodes) + (nxt,), tuple(labels) + (edge.label,))
                if nfa is None or (nxt_states & nfa.finals):
                    yield path
                continue
            if nxt in nodes:
                continue
            nodes.append(nxt)
            labels.append(edge.label)
            yield from extend(nxt, nxt_states, nodes, labels)
            nodes.pop()
            labels.pop()

    yield from extend(source, initial_states, [source], [])


def simple_cycles_through(graph, node, language=None, forbidden=frozenset(),
                          include_empty=True, ctx=None):
    """Yield simple cycles v ⇝ v through ``node`` with label in ``language``.

    The empty cycle (label ε) is included when the language accepts ε and
    ``include_empty`` holds.  Internal nodes avoid ``forbidden``.
    """
    nfa = _as_nfa(language)
    if node in forbidden:
        return
    if include_empty and (nfa is None or nfa.accepts(())):
        yield Path((node,), ())

    index, useful, initial_states = _prepare_pruned_search(graph, nfa, node, node)
    if nfa is not None and not initial_states:
        return
    ctx = resolve_context(ctx)

    def extend(current, states, nodes, labels):
        ctx.checkpoint(SITE_PATH_DFS)
        for edge in index.out_sorted(current):
            nxt = edge.target
            nxt_states = None
            if nfa is not None:
                nxt_states = _filtered_step(nfa, states, edge.label, nxt, useful)
                if not nxt_states:
                    continue
            if nxt == node:
                if nfa is None or (nxt_states & nfa.finals):
                    yield Path(tuple(nodes) + (nxt,), tuple(labels) + (edge.label,))
                continue
            if nxt in forbidden or nxt in nodes:
                continue
            nodes.append(nxt)
            labels.append(edge.label)
            yield from extend(nxt, nxt_states, nodes, labels)
            nodes.pop()
            labels.pop()

    yield from extend(node, initial_states, [node], [])


def all_paths_up_to(graph, source, max_length):
    """Yield all (possibly non-simple) paths from ``source`` of length ≤ k.

    Used by brute-force standard-semantics reference implementations in the
    test suite.
    """
    index = adjacency_index(graph)

    def extend(path):
        yield path
        if len(path) >= max_length:
            return
        for edge in index.out_sorted(path.target):
            yield from extend(
                Path(path.nodes + (edge.target,), path.labels + (edge.label,))
            )

    yield from extend(Path((source,), ()))


# Kept as the canonical expansion-order key (re-exported for callers
# that sort ad-hoc edge collections).
_edge_key = edge_sort_key
