"""Paths, simple paths, simple cycles and trails in a graph database.

Definitions follow §2 of the paper exactly:

- a *path* from u to v is a possibly empty sequence of consecutive edges;
  its label is the concatenation of edge labels (ε when empty);
- a *simple path* has pairwise-distinct nodes (so a nonempty path from v to
  v is never simple, and the empty path at v is the only simple path v⇝v);
- a *simple cycle* has v0 = vk and v0..v(k-1) pairwise distinct;
- a *trail* (§7) repeats no edge, but may revisit nodes.

Enumerating these is the engine's only exponential stage: evaluation
under both injective semantics is NP-complete (Prop 3.2; Mendelzon &
Wood 1995).  One backtracking kernel, :func:`search`, does all of it,
in a node-injective mode (simple paths and cycles, used by the a-inj /
q-inj evaluators) and an edge-injective mode (trails, used by
:mod:`repro.semantics.trails`).  It runs the graph × NFA product with
state sets as int bitmasks (:func:`~repro.engine.cache.nfa_masks`),
prunes every frontier through the per-target co-reachability masks
(:func:`~repro.engine.cache.coreachable_masks`), and keeps an explicit
stack of edge iterators, so paths may be longer than the interpreter
recursion limit.  Edges expand in
:func:`~repro.engine.adjacency.edge_sort_key` order, and every wrapper
yields exactly the sequence an unpruned recursive DFS would
(``tests/test_engine_differential.py`` pins it).  A node-injective
search can also collect, in a caller's ``reached`` set, every node it
steps onto over an accepted label: one DFS from a source then answers
many targets (the a-inj relation and q-inj's last atom use it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.adjacency import adjacency_index
from repro.engine.cache import compiled_nfa, coreachable_masks, nfa_masks
from repro.engine.runtime import checkpoint_site, resolve_context

SITE_PATH_DFS = checkpoint_site(
    "paths.dfs",
    "path-search kernel, node-injective mode: simple paths / cycles (per frame)",
)
SITE_TRAILS_DFS = checkpoint_site(
    "trails.dfs",
    "path-search kernel, edge-injective mode: trails (per edge considered)",
)

#: The ``target`` of an edge-injective search that accepts at every node.
ANY_TARGET = object()


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


def search(graph, language, source, target, blocked=frozenset(),
           edge_injective=False, ctx=None, reached=None):
    """Yield the nonempty accepted paths from ``source``, in DFS order.

    ``language`` (a Regex, an NFA, or ``None`` for any label) constrains
    the path label.  Each hit is yielded as the search's live ``(nodes,
    labels)`` lists, valid until the next resumption — copy to keep.

    - Node-injective (the default): simple paths ``source ⇝ target``,
      or simple cycles through ``source`` when ``target == source``.  A
      path stops at ``target`` and avoids the nodes in ``blocked``.
      Checkpoints ``paths.dfs`` once per frame.
    - ``edge_injective``: trails, which may revisit nodes and run on
      through ``target``; they avoid the edges in ``blocked``.  With
      ``target=ANY_TARGET`` every accepted trail is a hit.
      Checkpoints ``trails.dfs`` once per edge considered.

    ``reached`` (node-injective mode only) is a set the search adds to:
    on every edge it takes to a node ``nxt`` outside the visited set,
    ``nxt`` is added when the stepped state mask — before the
    co-reachability mask of ``target`` — meets the final states.  The
    stack path plus that edge is then a simple path from ``source``
    that avoids ``blocked`` and whose label the automaton accepts, so
    every added node is a sound simple-path endpoint for any target,
    whatever ``target`` the search runs towards.  The source is never
    added (it is visited), so cycle mode adds only other nodes.  Callers
    that ask for many targets from one source under one ``blocked`` set
    share one ``reached`` set and skip the search for a target already
    in it.  The hits, their order and the checkpoints are the same
    with or without ``reached``.

    The visited set makes memoization unsound, which is the source of
    NP-hardness (Prop 3.2); co-reachability pruning only skips branches
    that can never accept, so it changes neither the hits nor their
    order.
    """
    if edge_injective and reached is not None:
        raise ValueError("reached collects simple-path endpoints: it needs "
                         "node-injective mode")
    nfa = None if language is None else compiled_nfa(language)
    if target is ANY_TARGET:
        masks, useful = nfa_masks(nfa), dict.fromkeys(graph.nodes, -1)
    else:
        masks, useful = coreachable_masks(graph, nfa, target)
    states = masks.initial & useful.get(source, 0)
    if not states:
        return
    ctx = resolve_context(ctx)
    step, finals = masks.step, masks.finals
    out_sorted = adjacency_index(graph).out_sorted
    any_target = target is ANY_TARGET
    visited = set(blocked)
    nodes, labels = [source], []
    if not edge_injective:
        visited.add(source)
        ctx.checkpoint(SITE_PATH_DFS)
    # Frame: (resumable edge iterator, state mask on entry, the edge
    # taken to enter — None for the root frame, which unwinds nothing).
    stack = [(iter(out_sorted(source)), states, None)]
    while stack:
        edges, states, _ = stack[-1]
        for edge in edges:
            if edge_injective:
                ctx.checkpoint(SITE_TRAILS_DFS)
                if edge in visited:
                    continue
            nxt = edge.target
            stepped = step[states, edge.label]
            if (reached is not None and stepped & finals
                    and nxt not in visited):
                reached.add(nxt)
            nxt_states = stepped & useful.get(nxt, 0)
            if not nxt_states:
                continue
            if edge_injective:
                visited.add(edge)
            elif nxt == target:
                if nxt_states & finals:
                    nodes.append(nxt)
                    labels.append(edge.label)
                    yield nodes, labels
                    nodes.pop()
                    labels.pop()
                continue
            elif nxt in visited:
                continue
            else:
                ctx.checkpoint(SITE_PATH_DFS)
                visited.add(nxt)
            nodes.append(nxt)
            labels.append(edge.label)
            if edge_injective and nxt_states & finals and (
                any_target or nxt == target
            ):
                yield nodes, labels
            stack.append((iter(out_sorted(nxt)), nxt_states, edge))
            break
        else:
            entering = stack.pop()[2]
            if entering is not None:
                last = nodes.pop()
                labels.pop()
                visited.discard(entering if edge_injective else last)


def accepts_empty(language):
    """True iff the empty path's label ε is in ``language`` (``None``
    accepts every label)."""
    return language is None or compiled_nfa(language).accepts(())


def simple_paths(graph, source, target, language=None, forbidden=frozenset(),
                 require_nonempty=False, ctx=None):
    """Yield simple paths source ⇝ target, optionally label-constrained.

    ``language`` (a Regex or NFA) restricts the path label; ``forbidden`` is
    a set of nodes that the path must avoid *entirely* (used by the q-inj
    evaluator to keep atom paths node-disjoint).  If ``source == target``
    the only simple path is the empty one (yielded when ε is accepted and
    ``require_nonempty`` is false).  ``require_nonempty`` has no effect
    when ``source != target`` — a simple path between distinct endpoints
    is nonempty by construction.  The node-injective :func:`search`.
    """
    if source in forbidden or target in forbidden:
        return
    if source == target:
        if not require_nonempty and accepts_empty(language):
            yield Path((source,), ())
        return
    for nodes, labels in search(graph, language, source, target, forbidden,
                                ctx=ctx):
        yield Path(tuple(nodes), tuple(labels))


def simple_cycles_through(graph, node, language=None, forbidden=frozenset(),
                          include_empty=True, ctx=None):
    """Yield simple cycles v ⇝ v through ``node`` with label in ``language``.

    The empty cycle (label ε) is included when the language accepts ε and
    ``include_empty`` holds.  Internal nodes avoid ``forbidden``.
    """
    if node in forbidden:
        return
    if include_empty and accepts_empty(language):
        yield Path((node,), ())
    for nodes, labels in search(graph, language, node, node, forbidden,
                                ctx=ctx):
        yield Path(tuple(nodes), tuple(labels))


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
