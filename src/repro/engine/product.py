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

Two kernels run these phases, selected by :func:`use_backend`
(:mod:`repro.engine.backend`): the object-keyed one over
``(node, state)`` tuples and, by default, the dense kernel
(:func:`_dense_reachability_pairs`) over interned ids.  The
object-keyed :func:`sweep` and :func:`settle` are also the incremental
store's fixpoint (:mod:`repro.engine.incremental`): its full rebuild is
the same sweep and settle, and its deletion repair settles the dirty
region.  Both kernels carry a component's source set as one plain
Python int, so the kernel cost per OR is pinned by the node count; the
dense kernel decodes a mask by a byte-table walk over its nonzero bytes
(:func:`_int_bits`), once per distinct mask (final components
downstream of the same seeds share one), and returns its pair set
itself rather than a copy; the object-keyed kernel and the incremental
store decode by lowest-bit peeling (:func:`_decode_mask`).
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.engine import telemetry
from repro.engine.adjacency import AdjacencyIndex, adjacency_index
from repro.engine.backend import active_backend
from repro.engine.runtime import ExecutionContext, checkpoint_site, resolve_context

#: A ``(node, state)`` product state and its deduplicated successors.
ProductNode = tuple[Any, Any]
ProductAdjacency = dict[ProductNode, list[ProductNode]]

SITE_PRODUCT_SWEEP = checkpoint_site(
    "product.sweep",
    "product-reachability forward exploration (per product node expanded)",
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
        # Hand back the kernel's own set: ``pairs`` holds only the
        # ε-diagonal here, so folding it in beats copying every pair.
        dense_pairs = _dense_reachability_pairs(index, nfa, ctx)
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


def _dense_reachability_pairs(
    index: AdjacencyIndex,
    nfa: Any,
    ctx: ExecutionContext,
) -> set[tuple[Any, Any]]:
    """The array-backend kernel: the object-keyed kernel's phases
    (forward sweep → Tarjan → mask propagation → final decode) fused so
    the product graph is traversed **once**, entirely in dense integer
    space.

    NFA states are interned to ``0..q-1`` (repr-sorted, mirroring the
    node interning) and a product state ``(node, state)`` becomes the
    single int ``node_id * q + state_id``.  One iterative Tarjan DFS
    discovers the reachable product directly from the CSR rows of
    :meth:`AdjacencyIndex.csr_out`, materializing each node's successor
    list exactly once (at first expansion), and collects condensation
    edges during component finalization — legal because Tarjan emits
    components sinks-first, so every cross-component successor already
    has its component assigned.  Source sets then propagate through the
    condensation as int bitmasks, exactly as in :func:`settle`.  Each kernel
    works on flat int lists (``vid`` = discovery id), not dicts of
    tuples; the CSR rows are thawed to plain lists up front because
    C-level ``array.tolist()`` plus list slicing beats per-element
    ``array`` indexing on the hot edge loop.  Output-equivalent to the
    object-keyed kernel — pinned by ``tests/test_backend_differential.py``.
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
    moves: list[list[tuple[list[int], list[int], tuple[int, ...]]]] = [
        [] for _ in range(width)
    ]
    for (state, label), next_states in nfa.transitions.items():
        arrays = csr.get(label)
        if arrays is None or not next_states:
            continue
        lists = thawed.get(label)
        if lists is None:
            # Targets are pre-scaled by the state count so the hot loop
            # forms a product int with a single add per edge.
            lists = thawed[label] = (
                arrays[0].tolist(),
                [target * width for target in arrays[1].tolist()],
            )
        moves[state_id[state]].append(
            (
                lists[0],
                lists[1],
                tuple(sorted(state_id[s] for s in next_states)),
            )
        )

    # Discovery ids: ``visit_of`` holds vid + 1 (0 = unreached), assigned
    # the first time a product int is seen; Tarjan's DFS numbering lives
    # separately in ``order``.  All per-vid vectors grow in lock step.
    visit_of: list[int] = [0] * (count * width)
    pids: list[int] = []
    order: list[int] = []
    low: list[int] = []
    on_stack: list[int] = []
    comp_of: list[int] = []
    cross_of: list[list[int]] = []
    initial_ids = sorted(state_id[state] for state in nfa.initials)
    for node_id in range(count):
        base = node_id * width
        for s_id in initial_ids:
            pid = base + s_id
            visit_of[pid] = len(pids) + 1
            pids.append(pid)

    _EMPTY: list[int] = []
    seed_total = len(pids)
    order.extend(0 for _ in range(seed_total))
    low.extend(0 for _ in range(seed_total))
    on_stack.extend(0 for _ in range(seed_total))
    comp_of.extend(0 for _ in range(seed_total))
    cross_of.extend(_EMPTY for _ in range(seed_total))

    # The DFS touches each product edge once.  At a node's expansion,
    # already-numbered successors are resolved on the spot (a low-link
    # update when on-stack — same component, by Tarjan's invariant — or
    # a condensation edge into ``cross_of`` when finalized); only the
    # not-yet-numbered ones are deferred to the frame's pending stack
    # and re-checked as they pop.  A tree child that finalizes its own
    # component contributes its condensation edge at frame pop, so no
    # successor list is ever stored or rescanned.
    checkpoint = ctx.checkpoint
    scc_stack: list[int] = []
    cond_succs: list[list[int]] = []
    counter = 0
    vid_stack: list[int] = []
    pending_stack: list[list[int]] = []
    for root in range(seed_total):
        if order[root]:
            continue
        push = root
        while True:
            if push >= 0:
                # Expansion: number the node, resolve its CSR rows.
                vid = push
                push = -1
                checkpoint(SITE_PRODUCT_SWEEP)
                counter += 1
                order[vid] = counter
                vlow = counter
                scc_stack.append(vid)
                on_stack[vid] = 1
                pending: list[int] = []
                append_pending = pending.append
                cross = _EMPTY
                node_id, s_id = divmod(pids[vid], width)
                for offsets, targets, next_ids in moves[s_id]:
                    row = targets[offsets[node_id]:offsets[node_id + 1]]
                    for next_id in next_ids:
                        for scaled in row:
                            spid = scaled + next_id
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
                break
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

    # Seed masks (bit = source node id at every (node, initial)), then
    # push them forward through the condensation in topological order
    # (the reverse of Tarjan's sinks-first emission).  An empty target
    # takes the source's int itself: ints are immutable, so sharing is
    # safe and saves a copying OR per first arrival.
    total_components = len(cond_succs)
    masks = [0] * total_components
    for vid in range(seed_total):
        masks[comp_of[vid] - 1] |= 1 << (pids[vid] // width)
    for identifier in range(total_components - 1, -1, -1):
        cond = cond_succs[identifier]
        mask = masks[identifier]
        if not cond or not mask:
            continue
        for successor_component in set(cond):
            target = masks[successor_component]
            masks[successor_component] = target | mask if target else mask

    final_ids = {state_id[state] for state in nfa.finals}
    final_targets: dict[int, list[Any]] = {}
    for vid in range(len(pids)):
        pid = pids[vid]
        if pid % width in final_ids:
            final_targets.setdefault(
                comp_of[vid] - 1, []
            ).append(nodes[pid // width])
    # Final components downstream of the same seeds share one source
    # mask, so each distinct mask is decoded once.
    pairs: set[tuple[Any, Any]] = set()
    decoded: dict[int, list[Any]] = {}
    for identifier, final_nodes in final_targets.items():
        mask = masks[identifier]
        if not mask:
            continue
        sources = decoded.get(mask)
        if sources is None:
            sources = decoded[mask] = [nodes[bit] for bit in _int_bits(mask)]
        pairs.update(_cartesian(sources, final_nodes))
    return pairs


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
    adjacency: ProductAdjacency,
) -> tuple[list[list[ProductNode]], dict[ProductNode, int]]:
    """Iterative Tarjan over ``adjacency``; components emitted sinks-first."""
    order: dict[ProductNode, int] = {}
    low: dict[ProductNode, int] = {}
    on_stack: set[ProductNode] = set()
    scc_stack: list[ProductNode] = []
    components: list[list[ProductNode]] = []
    component_of: dict[ProductNode, int] = {}
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
                members: list[ProductNode] = []
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
