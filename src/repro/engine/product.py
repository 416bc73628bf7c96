"""Single-sweep product-automaton reachability.

The classical NL algorithm for ``standard_pairs`` runs one BFS over the
``(node, state)`` product graph *per source node* — |V| sweeps, each
touching up to |V|·|Q| product states.  This module computes the same
relation with a single pass:

1. one forward exploration from every seed ``(u, q0)`` materializes the
   reachable product subgraph (:func:`sweep`);
2. :func:`settle` condenses it into strongly connected components with
   an iterative Tarjan pass (emitted sinks-first, so the reversed
   emission order is a topological order) and propagates source sets
   through the condensation as integer bitmasks (node *u* contributes
   bit *u* at every seed ``(u, q0)``) — one big-int OR per product edge
   between two components instead of a fresh BFS per source;
3. every final-bearing component contributes the pairs
   ``{(u, v) : bit u set on its mask, (v, f) a member with f final}``.

Output-equivalent to the per-source BFS (pinned by the differential
suite); asymptotically one product traversal plus output size.

Two kernels compute this relation, selected by :func:`use_backend`
(:mod:`repro.engine.backend`): the object-keyed one runs the phases
above over ``(node, state)`` tuples and, by default, the dense kernel
(:func:`dense_layers`) runs over interned ids.  The incremental store
(:mod:`repro.engine.incremental`) shares both: its deletion repair
settles the dirty region with :func:`settle`, and its full rebuild keeps
the dense kernel's per-state layers as its source masks and reads its
pairs off them as the kernel does (:func:`final_masks`,
:func:`mask_pairs`).  The dense kernel settles the product one
automaton component at a time, in the topological order of the
automaton's own condensation: an acyclic state's product layer is a
DAG slice, final once its predecessors are, so it gathers its masks
with one OR per product edge and no DFS; only a cyclic component's
layer is condensed by Tarjan (:func:`_settle_cyclic_layer`).  Both kernels carry a source
set as one plain Python int, so the kernel cost per OR is pinned by the
node count; the dense kernel decodes a mask by a byte-table walk over
its nonzero bytes (:func:`_int_bits`), once per distinct mask (targets
downstream of the same seeds share one), and returns its pair set
itself rather than a copy; the object-keyed kernel and the store's
deltas decode by lowest-bit peeling (:func:`_decode_mask`).
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import (
    Any,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
)

from repro.engine import telemetry
from repro.engine.adjacency import AdjacencyIndex, adjacency_index
from repro.engine.backend import active_backend
from repro.engine.runtime import ExecutionContext, checkpoint_site, resolve_context

#: A ``(node, state)`` product state and its deduplicated successors.
ProductNode = tuple[Any, Any]
ProductAdjacency = dict[ProductNode, list[ProductNode]]
#: One automaton move over the thawed CSR rows of its label:
#: ``(offsets, targets, successor states)``.
_Move = tuple[list[int], list[int], tuple[int, ...]]
_Vertex = TypeVar("_Vertex", bound=Hashable)

SITE_PRODUCT_SWEEP = checkpoint_site(
    "product.sweep",
    "product-reachability exploration (per product node expanded or "
    "nonzero source row gathered)",
)

_DENSE_DISPATCH = telemetry.registry().counter("backend.dense_dispatch")


def product_reachability_pairs(
    graph: Any, nfa: Any, ctx: Optional[ExecutionContext] = None
) -> set[tuple[Any, Any]]:
    """Return ``{(u, v) : some walk u ⇝ v has label in L(nfa)}`` with the
    empty walk allowed only when u = v and ε ∈ L."""
    ctx = resolve_context(ctx)
    index = adjacency_index(graph)
    nodes = index.nodes_sorted
    pairs: set[tuple[Any, Any]] = set()
    if nfa.accepts(()):
        pairs.update((node, node) for node in nodes)
    if not nodes or not nfa.initials:
        return pairs

    if active_backend().dense_kernels:
        _DENSE_DISPATCH.inc()
        layers = dense_layers(index, nfa, SITE_PRODUCT_SWEEP, ctx)
        # Hand back the decoded set itself: ``pairs`` holds only the
        # ε-diagonal here, so folding it in beats copying every pair.
        dense_pairs = mask_pairs(
            final_masks(layers, nfa.finals, len(nodes)), nodes
        )
        dense_pairs |= pairs
        return dense_pairs

    base = seed_masks(nodes, nfa)
    succ = sweep(index, nfa, base, SITE_PRODUCT_SWEEP, ctx)
    components, masks = settle(succ, base)
    finals = nfa.finals
    for members, mask in zip(components, masks):
        targets = [node for node, state in members if state in finals]
        if targets and mask:
            pairs.update(_cartesian(list(_decode_mask(mask, nodes)), targets))
    return pairs


def dense_layers(
    index: AdjacencyIndex,
    nfa: Any,
    site: str,
    ctx: ExecutionContext,
) -> dict[Any, list[int]]:
    """The array-backend fixpoint: the product's source masks computed
    layer by layer along the automaton, entirely in dense integer space.

    Returns ``{state: layer}`` for every NFA state some seed reaches,
    where ``layer[v]`` is the source mask of ``(nodes_sorted[v],
    state)``: bit *u* is set iff some walk from ``(nodes_sorted[u],
    q0)`` reaches it.  The product kernel reads its pairs off the final
    states' layers (:func:`final_masks`, :func:`mask_pairs`), and the
    incremental store's rebuild keeps every layer as its source masks;
    each checkpoints at its own ``site``.

    NFA states are interned to ``0..q-1`` (repr-sorted, mirroring the
    node interning).  Every product edge ``(u, s) → (w, t)`` follows an
    automaton move ``s → t``, so the condensation of the automaton's
    own state graph (tiny, over the moves whose label has edges) orders
    the product: its components are walked in topological order, each
    holding one node-indexed list of source masks per state.  An
    acyclic state — a singleton component without a self-loop — needs
    no condensation of its product layer at all: its masks are final
    once its predecessors are, and they are gathered along the CSR rows
    of :meth:`AdjacencyIndex.csr_out` with one OR per product edge.  A
    cyclic component is condensed by :func:`_settle_cyclic_layer`, over
    the product restricted to its own states only.  The CSR rows are
    thawed to plain lists up front because C-level ``array.tolist()``
    plus list slicing beats per-element ``array`` indexing on the hot
    edge loop.  Output-equivalent to the object-keyed kernel — pinned
    by ``tests/test_backend_differential.py``.
    """
    nodes = index.nodes_sorted
    count = len(nodes)

    states = tuple(sorted(nfa.states, key=repr))
    state_id = {state: position for position, state in enumerate(states)}
    width = len(states)

    # Per-state move table: (offsets, targets, successor state ids) per
    # label with both a transition and at least one edge in the graph.
    # The thawed target lists are shared per label across states; they
    # are kernel-local working copies, freed on return.
    csr = index.csr_out()
    thawed: dict[Any, tuple[list[int], list[int]]] = {}
    moves: list[list[_Move]] = [[] for _ in range(width)]
    for (state, label), next_states in nfa.transitions.items():
        arrays = csr.get(label)
        if arrays is None or not next_states:
            continue
        lists = thawed.get(label)
        if lists is None:
            lists = thawed[label] = (arrays[0].tolist(), arrays[1].tolist())
        moves[state_id[state]].append(
            (
                lists[0],
                lists[1],
                tuple(sorted(state_id[s] for s in next_states)),
            )
        )

    # The automaton's own state graph over those moves.
    successors = {
        state: sorted({t for *_, next_ids in moves[state] for t in next_ids})
        for state in range(width)
    }
    initial_ids = {state_id[state] for state in nfa.initials}
    # ``layers[s][v]``: the source mask of product state (v, s); None
    # until s's component is settled, and for states no seed reaches.
    layers: list[Optional[list[int]]] = [None] * width
    checkpoint = ctx.checkpoint
    components, _ = _tarjan_sccs(successors)
    for component in reversed(components):
        members = set(component)
        # Moves into the component from settled states outside it; the
        # topological order has settled every such source already.
        entering: list[tuple[list[int], _Move]] = []
        for source, layer in enumerate(layers):
            if layer is None or source in members:
                continue
            for offsets, targets, next_ids in moves[source]:
                inner = tuple(t for t in next_ids if t in members)
                if inner:
                    entering.append((layer, (offsets, targets, inner)))
        if not entering and members.isdisjoint(initial_ids):
            continue
        state = component[0]
        if len(component) > 1 or state in successors[state]:
            _settle_cyclic_layer(
                component, moves, entering, initial_ids, count, layers,
                site, ctx,
            )
            continue
        if state in initial_ids:
            layer = [1 << node_id for node_id in range(count)]
        else:
            layer = [0] * count
        for source_masks, (offsets, targets, _inner) in entering:
            for node_id, mask in enumerate(source_masks):
                if not mask:
                    continue
                checkpoint(site)
                for target in targets[offsets[node_id]:offsets[node_id + 1]]:
                    old = layer[target]
                    if old is not mask:
                        layer[target] = old | mask if old else mask
        layers[state] = layer

    return {
        states[state]: layer
        for state, layer in enumerate(layers) if layer is not None
    }


def final_masks(
    layers: Mapping[Any, list[int]], finals: Iterable[Any], count: int
) -> list[int]:
    """Per node id, the OR of its masks over the final states'
    :func:`dense_layers`: the sources of every pair it ends."""
    target_masks = [0] * count
    for final in finals:
        layer = layers.get(final)
        if layer is None:
            continue
        for node_id, mask in enumerate(layer):
            if mask:
                old = target_masks[node_id]
                if old is not mask:
                    target_masks[node_id] = old | mask if old else mask
    return target_masks


def mask_pairs(
    target_masks: Sequence[int], nodes: Sequence[Any]
) -> set[tuple[Any, Any]]:
    """The pairs ``(nodes[u], nodes[v])`` with bit *u* set on
    ``target_masks[v]``.  Targets reached from the same seeds share one
    mask, so each distinct mask is decoded once."""
    targets_by_mask: dict[int, list[Any]] = {}
    for node_id, mask in enumerate(target_masks):
        if mask:
            targets_by_mask.setdefault(mask, []).append(nodes[node_id])
    pairs: set[tuple[Any, Any]] = set()
    for mask, targets in targets_by_mask.items():
        sources = [nodes[bit] for bit in _int_bits(mask)]
        pairs.update(_cartesian(sources, targets))
    return pairs


def _settle_cyclic_layer(
    component: list[int],
    moves: list[list[_Move]],
    entering: list[tuple[list[int], _Move]],
    initial_ids: set[int],
    count: int,
    layers: list[Optional[list[int]]],
    site: str,
    ctx: ExecutionContext,
) -> None:
    """Settle the product layer of one cyclic automaton component and
    write its states' masks into ``layers``.

    The product restricted to the component's states — a product int
    ``local * |V| + node_id`` per ``(node, state)`` — is condensed by
    an iterative Tarjan DFS straight over the CSR rows, rooted at the
    entry states: every node at an initial member, and every target of
    an ``entering`` move (a settled source layer and its move into the
    component) from a nonzero source row.  Each entering source row
    ORs its mask once per product component it enters, not once per
    edge (the first edge into a component stamps it with the mask
    object).  The component masks are then pushed through the
    condensation in topological order — the reverse of Tarjan's
    sinks-first emission — and written back per member.
    """
    local_of = {state: local for local, state in enumerate(component)}
    # Moves that stay inside the component, successor states pre-scaled
    # to their layer's base so the hot loop forms a product int with a
    # single add per edge.
    inner_moves: list[list[_Move]] = []
    for state in component:
        inner_moves.append([])
        for offsets, targets, next_ids in moves[state]:
            bases = tuple(
                local_of[t] * count for t in next_ids if t in local_of
            )
            if bases:
                inner_moves[-1].append((offsets, targets, bases))

    # Discovery ids: ``visit_of`` holds vid + 1 (0 = unreached), assigned
    # the first time a product int is seen; Tarjan's DFS numbering lives
    # separately in ``order``.  All per-vid vectors grow in lock step.
    visit_of = [0] * (len(component) * count)
    pids: list[int] = []
    order: list[int] = []
    low: list[int] = []
    on_stack: list[int] = []
    comp_of: list[int] = []
    cross_of: list[list[int]] = []
    scc_stack: list[int] = []
    cond_succs: list[list[int]] = []
    masks: list[int] = []
    stamps: list[Optional[int]] = []
    counter = 0
    _EMPTY: list[int] = []
    checkpoint = ctx.checkpoint

    def explore(root: int) -> int:
        """Number the unreached product int ``root`` and condense
        everything it reaches; return its vid.

        The DFS touches each product edge once.  At a node's expansion,
        already-numbered successors are resolved on the spot (a low-link
        update when on-stack — same component, by Tarjan's invariant —
        or a condensation edge into ``cross_of`` when finalized); only
        the not-yet-numbered ones are deferred to the frame's pending
        stack and re-checked as they pop.  A tree child that finalizes
        its own component contributes its condensation edge at frame
        pop, so no successor list is ever stored or rescanned.
        """
        nonlocal counter
        root_vid = push = len(pids)
        visit_of[root] = root_vid + 1
        pids.append(root)
        order.append(0)
        low.append(0)
        on_stack.append(0)
        comp_of.append(0)
        cross_of.append(_EMPTY)
        vid_stack: list[int] = []
        pending_stack: list[list[int]] = []
        while True:
            if push >= 0:
                # Expansion: number the node, resolve its CSR rows.
                vid = push
                push = -1
                checkpoint(site)
                counter += 1
                order[vid] = counter
                vlow = counter
                scc_stack.append(vid)
                on_stack[vid] = 1
                pending: list[int] = []
                append_pending = pending.append
                cross = _EMPTY
                local, node_id = divmod(pids[vid], count)
                for offsets, targets, bases in inner_moves[local]:
                    row = targets[offsets[node_id]:offsets[node_id + 1]]
                    for base in bases:
                        for target in row:
                            spid = base + target
                            svid = visit_of[spid]
                            if svid:
                                svid -= 1
                                successor_order = order[svid]
                                if not successor_order:
                                    append_pending(svid)
                                elif on_stack[svid]:
                                    if successor_order < vlow:
                                        vlow = successor_order
                                else:
                                    if cross is _EMPTY:
                                        cross = []
                                    cross.append(comp_of[svid] - 1)
                            else:
                                append_pending(len(pids))
                                visit_of[spid] = len(pids) + 1
                                pids.append(spid)
                                order.append(0)
                                low.append(0)
                                on_stack.append(0)
                                comp_of.append(0)
                                cross_of.append(_EMPTY)
                low[vid] = vlow
                cross_of[vid] = cross
                vid_stack.append(vid)
                pending_stack.append(pending)
                continue
            if not vid_stack:
                return root_vid
            vid = vid_stack[-1]
            pending = pending_stack[-1]
            vlow = low[vid]
            while pending:
                svid = pending.pop()
                successor_order = order[svid]
                if not successor_order:
                    low[vid] = vlow
                    push = svid
                    break
                if on_stack[svid]:
                    if successor_order < vlow:
                        vlow = successor_order
                else:
                    # Numbered and finalized since it was deferred.
                    cross = cross_of[vid]
                    if cross is _EMPTY:
                        cross = cross_of[vid] = []
                    cross.append(comp_of[svid] - 1)
            if push >= 0:
                continue
            vid_stack.pop()
            pending_stack.pop()
            if vlow == order[vid]:
                identifier = len(cond_succs)
                cond: list[int] = []
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = 0
                    comp_of[member] = identifier + 1
                    if cross_of[member]:
                        cond.extend(cross_of[member])
                        cross_of[member] = _EMPTY
                    if member == vid:
                        break
                cond_succs.append(cond)
                masks.append(0)
                stamps.append(None)
            if vid_stack:
                parent = vid_stack[-1]
                if vlow < low[parent]:
                    low[parent] = vlow
                if not on_stack[vid]:
                    # Tree edge into a child that closed its own
                    # component: a condensation edge from the (still
                    # open) parent.
                    cross = cross_of[parent]
                    if cross is _EMPTY:
                        cross = cross_of[parent] = []
                    cross.append(comp_of[vid] - 1)

    # Seed bits at the initial members: each node's bit once.
    for state in component:
        if state not in initial_ids:
            continue
        base = local_of[state] * count
        for node_id in range(count):
            vid = visit_of[base + node_id] - 1
            if vid < 0:
                vid = explore(base + node_id)
            masks[comp_of[vid] - 1] |= 1 << node_id
    # Entering masks: once per product component each source row enters.
    for source_masks, (offsets, targets, inner) in entering:
        bases = tuple(local_of[t] * count for t in inner)
        for node_id, mask in enumerate(source_masks):
            if not mask:
                continue
            checkpoint(site)
            row = targets[offsets[node_id]:offsets[node_id + 1]]
            for base in bases:
                for target in row:
                    vid = visit_of[base + target] - 1
                    if vid < 0:
                        vid = explore(base + target)
                    identifier = comp_of[vid] - 1
                    if stamps[identifier] is not mask:
                        stamps[identifier] = mask
                        old = masks[identifier]
                        masks[identifier] = old | mask if old else mask

    # Push the component masks through the condensation in topological
    # order (the reverse of Tarjan's sinks-first emission).  An empty
    # target takes the source's int itself: ints are immutable, so
    # sharing is safe and saves a copying OR.
    for identifier in range(len(cond_succs) - 1, -1, -1):
        cond = cond_succs[identifier]
        mask = masks[identifier]
        if not cond or not mask:
            continue
        for successor_component in set(cond):
            target_mask = masks[successor_component]
            if target_mask is not mask:
                masks[successor_component] = (
                    target_mask | mask if target_mask else mask
                )

    rows: list[list[int]] = []
    for state in component:
        layer = layers[state] = [0] * count
        rows.append(layer)
    for vid, pid in enumerate(pids):
        local, node_id = divmod(pid, count)
        rows[local][node_id] = masks[comp_of[vid] - 1]


#: Set-bit offsets per byte value — turns mask decoding into a table
#: walk over the nonzero bytes instead of a bit-scan over every bit.
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1)
    for value in range(256)
)


def _int_bits(mask: int) -> Iterator[int]:
    """Set bit positions of a nonnegative int, ascending (byte-table)."""
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    for position, value in enumerate(data):
        if value:
            base = position << 3
            for bit in _BYTE_BITS[value]:
                yield base + bit


def seed_masks(nodes: Sequence[Any], nfa: Any) -> dict[ProductNode, int]:
    """Bit *i* at every seed ``(nodes[i], q0)``: the base masks of a
    whole-product :func:`settle`."""
    return {
        (node, initial): 1 << bit
        for bit, node in enumerate(nodes) for initial in nfa.initials
    }


def sweep(
    index: AdjacencyIndex,
    nfa: Any,
    seeds: Iterable[ProductNode],
    site: str,
    ctx: ExecutionContext,
) -> ProductAdjacency:
    """Forward-explore the product graph from ``seeds`` over the
    label-partitioned ``index.out_targets`` rows.

    Returns every reachable product state mapped to its successor list
    (a successor reached over two labels is listed twice, which
    neither Tarjan nor :func:`settle` minds).  Each expansion
    checkpoints at ``site``: the
    kernel's ``product.sweep``, the incremental store's
    ``incremental.grow``.
    """
    transitions = nfa.transitions
    out_targets = index.out_targets
    checkpoint = ctx.checkpoint
    succ: ProductAdjacency = {}
    stack = list(seeds)
    reached = set(stack)
    while stack:
        checkpoint(site)
        product_node = stack.pop()
        node, state = product_node
        successors: list[ProductNode] = []
        succ[product_node] = successors
        targets_by_label = out_targets(node)
        if not targets_by_label:
            continue
        for label, targets in targets_by_label.items():
            for next_state in transitions.get((state, label), ()):
                for target in targets:
                    successor = (target, next_state)
                    successors.append(successor)
                    if successor not in reached:
                        reached.add(successor)
                        stack.append(successor)
    return succ


def settle(
    succ: ProductAdjacency, base: dict[ProductNode, int]
) -> tuple[list[list[ProductNode]], list[int]]:
    """The least fixpoint of a product region given its base masks.

    ``succ`` maps every region state to its successors inside the
    region, ``base`` region states to the bits they hold from outside
    it (seed bits, exterior predecessors).  Returns ``(components,
    masks)``: the region condensed by
    :func:`_tarjan_sccs` — the members of one component share one
    mask — with ``masks[c]`` pushed through the condensation in
    topological order (the reverse of Tarjan's sinks-first emission),
    so a component's mask is final before any successor reads it.

    It walks only states a sweep has already checkpointed, one pass
    over their successor lists, so it carries no checkpoint site.
    """
    components, component_of = _tarjan_sccs(succ)
    masks = [0] * len(components)
    for product_node, mask in base.items():
        masks[component_of[product_node]] |= mask
    for identifier in range(len(components) - 1, -1, -1):
        mask = masks[identifier]
        if not mask:
            continue
        for member in components[identifier]:
            for successor in succ[member]:
                other = component_of[successor]
                if other != identifier:
                    masks[other] |= mask
    return components, masks


def _tarjan_sccs(
    adjacency: Mapping[_Vertex, Sequence[_Vertex]],
) -> tuple[list[list[_Vertex]], dict[_Vertex, int]]:
    """Iterative Tarjan over ``adjacency``; components emitted sinks-first."""
    order: dict[_Vertex, int] = {}
    low: dict[_Vertex, int] = {}
    on_stack: set[_Vertex] = set()
    scc_stack: list[_Vertex] = []
    components: list[list[_Vertex]] = []
    component_of: dict[_Vertex, int] = {}
    counter = 0
    for root in adjacency:
        if root in order:
            continue
        work = [(root, 0)]
        while work:
            vertex, next_edge = work[-1]
            if next_edge == 0:
                order[vertex] = low[vertex] = counter
                counter += 1
                scc_stack.append(vertex)
                on_stack.add(vertex)
            descended = False
            successors = adjacency[vertex]
            for position in range(next_edge, len(successors)):
                successor = successors[position]
                if successor not in order:
                    work[-1] = (vertex, position + 1)
                    work.append((successor, 0))
                    descended = True
                    break
                if successor in on_stack and order[successor] < low[vertex]:
                    low[vertex] = order[successor]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[vertex] < low[parent]:
                    low[parent] = low[vertex]
            if low[vertex] == order[vertex]:
                identifier = len(components)
                members: list[_Vertex] = []
                while True:
                    member = scc_stack.pop()
                    on_stack.discard(member)
                    component_of[member] = identifier
                    members.append(member)
                    if member == vertex:
                        break
                components.append(members)
    return components, component_of


def _decode_mask(mask: int, nodes: Sequence[Any]) -> Iterator[Any]:
    """Yield the nodes whose bits are set in ``mask``."""
    while mask:
        low_bit = mask & -mask
        yield nodes[low_bit.bit_length() - 1]
        mask ^= low_bit
