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
(:mod:`repro.engine.incremental`) keeps its masks in the dense kernel's
shape over its own stable node ids: its deletion repair settles the
dirty region with :func:`settle`, over product ints ``state * n + id``,
and its full rebuild runs :func:`dense_layers` over its own rows, keeps
the per-state layers as its source masks and reads its pairs off them
as the kernel does (:func:`final_masks`, :func:`mask_pairs`).  The dense
kernel settles the product one
automaton component at a time, in the topological order of the
automaton's :func:`~repro.engine.cache.nfa_record`: an acyclic state's
product layer is a DAG slice, final once its predecessors are, so it
gathers its masks with one OR per product edge and no DFS; only a
cyclic component's layer is condensed by Tarjan
(:func:`_settle_cyclic_layer`).  Both walk CSR rows as built: int
tuples, the index's
(:meth:`~repro.engine.adjacency.AdjacencyIndex.csr_out`, shared by
every call on one graph version) or the store's.  Both kernels carry
a source set as one plain Python int, so the kernel cost per OR is
pinned by the node count; the dense kernel decodes a mask by a
byte-table walk over its nonzero bytes (:func:`_int_bits`), once per
distinct mask (targets downstream of the same seeds share one); the
object-keyed kernel and the store's deltas decode by lowest-bit peeling
(:func:`_decode_mask`).  Decoding streams its pairs, so each caller
builds its final container once: the kernel the ``frozenset`` a
:class:`~repro.engine.relations.Relation` keeps as is, the store's
rebuild the mutable ``set`` it maintains.

``diagonal=True`` asks for a loop atom's relation ``{(v, v) : some walk
v ⇝ v has label in L}``: the kernels run unchanged and keep node *v*
iff bit *v* is set on its own target mask, decoding no other pair.
"""

from __future__ import annotations

from itertools import chain
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
from repro.engine.adjacency import AdjacencyIndex, CSRRows, adjacency_index
from repro.engine.backend import active_backend
from repro.engine.cache import nfa_record
from repro.engine.runtime import ExecutionContext, checkpoint_site, resolve_context

#: A ``(node, state)`` product state and its deduplicated successors.
ProductNode = tuple[Any, Any]
ProductAdjacency = dict[ProductNode, list[ProductNode]]
#: One automaton move over the CSR rows of its label:
#: ``(offsets, targets, successor layer bases)``.
_Move = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
_Vertex = TypeVar("_Vertex", bound=Hashable)

SITE_PRODUCT_SWEEP = checkpoint_site(
    "product.sweep",
    "product-reachability exploration (per product node expanded or "
    "nonzero source row gathered)",
)

_DENSE_DISPATCH = telemetry.registry().counter("backend.dense_dispatch")


def product_reachability_pairs(
    graph: Any,
    nfa: Any,
    ctx: Optional[ExecutionContext] = None,
    diagonal: bool = False,
) -> frozenset[tuple[Any, Any]]:
    """Return ``{(u, v) : some walk u ⇝ v has label in L(nfa)}`` with the
    empty walk allowed only when u = v and ε ∈ L; with ``diagonal``, only
    its pairs ``(v, v)``."""
    ctx = resolve_context(ctx)
    index = adjacency_index(graph)
    nodes = index.nodes_sorted
    if not nodes or not nfa.initials:
        return frozenset()

    # The automaton is ε-free, so ε ∈ L iff an initial state is final,
    # and both kernels' seeds at such a state yield every (u, u).
    if active_backend().dense_kernels:
        _DENSE_DISPATCH.inc()
        layers = dense_layers(
            index.csr_out(), len(nodes), nfa, SITE_PRODUCT_SWEEP, ctx)
        target_masks = final_masks(
            layers, nfa_record(nfa).final_ids, len(nodes))
        if diagonal:
            return frozenset(
                (node, node) for node_id, node in enumerate(nodes)
                if target_masks[node_id] >> node_id & 1
            )
        return frozenset(mask_pairs(target_masks, nodes))

    base = seed_masks(nodes, nfa)
    succ = sweep(index, nfa, base, SITE_PRODUCT_SWEEP, ctx)
    components, masks = settle(succ, base)
    finals = nfa.finals
    node_bit = index.node_bit
    blocks: list[Iterable[tuple[Any, Any]]] = []
    for members, mask in zip(components, masks):
        targets = [node for node, state in members if state in finals]
        if not targets or not mask:
            continue
        if diagonal:
            blocks.append([(node, node) for node in targets
                           if mask >> node_bit[node] & 1])
        else:
            blocks.append(
                _cartesian(list(_decode_mask(mask, nodes)), targets))
    return frozenset(chain.from_iterable(blocks))


def dense_layers(
    rows: Mapping[Any, CSRRows],
    count: int,
    nfa: Any,
    site: str,
    ctx: ExecutionContext,
) -> list[Optional[list[int]]]:
    """The array-backend fixpoint: the product's source masks computed
    layer by layer along the automaton, entirely in dense integer space.

    ``rows`` holds the CSR rows (:data:`CSRRows`) of every label with
    edges over the node ids ``0..count-1``: an index's
    :meth:`~repro.engine.adjacency.AdjacencyIndex.csr_out`, or the
    incremental store's own rows.  Returns one entry per NFA state, by
    its record id (:func:`nfa_record`): ``None`` for a state no seed
    reaches, else its layer, where ``layer[v]`` is the source mask of
    ``(v, state)``: bit *u* is set iff some walk from ``(u, q0)``
    reaches it.  The product kernel reads its pairs off the final
    states' layers (:func:`final_masks`, :func:`mask_pairs`), and the
    incremental store's rebuild keeps every layer as its source masks;
    each checkpoints at its own ``site``.

    The state ids (repr-sorted) and the condensation over every move
    come from the automaton's record (:func:`nfa_record`).  Every
    product edge ``(u, s) → (w, t)`` follows a move ``s → t``, so the
    components, walked in topological order, order the product; each
    holds one node-indexed list of source masks per state, and a call
    keeps only the moves whose label has edges.  An acyclic state — a
    singleton component without a self-loop — needs no condensation of
    its product layer: its masks are final once its predecessors are,
    and are gathered along ``rows`` with one OR per product edge.  A
    cyclic component is condensed by :func:`_settle_cyclic_layer`, over
    the product restricted to its own states.  Both read the CSR rows as
    built: int tuples, sliced per source row.
    Output-equivalent to the object-keyed kernel — pinned by
    ``tests/test_backend_differential.py``.
    """
    record = nfa_record(nfa)

    # ``layers[s][v]``: the source mask of product state (v, s); None
    # until s's component is settled, and for states no seed reaches.
    layers: list[Optional[list[int]]] = [None] * len(record.states)
    checkpoint = ctx.checkpoint
    for members, cyclic, moves_in in record.components:
        # Moves in from settled states over labels with edges: every
        # source outside is settled, and a member's layer is still None.
        entering = [
            (source_masks, rows[label], into)
            for source, label, into in moves_in
            if (source_masks := layers[source]) is not None and label in rows
        ]
        if not entering and record.initial_ids.isdisjoint(members):
            continue
        if cyclic:
            _settle_cyclic_layer(
                members, moves_in, rows, entering, record.initial_ids,
                count, layers, site, ctx,
            )
            continue
        state = members[0]
        if state in record.initial_ids:
            layer = [1 << node_id for node_id in range(count)]
        else:
            layer = [0] * count
        for source_masks, (offsets, targets), _into in entering:
            for node_id, mask in enumerate(source_masks):
                if not mask:
                    continue
                checkpoint(site)
                for target in targets[offsets[node_id]:offsets[node_id + 1]]:
                    old = layer[target]
                    if old is not mask:
                        layer[target] = old | mask if old else mask
        layers[state] = layer

    return layers


def final_masks(
    layers: Sequence[Optional[list[int]]], final_ids: Iterable[int],
    count: int,
) -> list[int]:
    """Per node id, the OR of its masks over the final states' (record
    ids) :func:`dense_layers`: the sources of every pair it ends."""
    target_masks = [0] * count
    for final in final_ids:
        layer = layers[final]
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
) -> Iterator[tuple[Any, Any]]:
    """The pairs ``(nodes[u], nodes[v])`` with bit *u* set on
    ``target_masks[v]``, streamed for the caller's own container.
    Targets reached from the same seeds share one mask, so each distinct
    mask is decoded once."""
    targets_by_mask: dict[int, list[Any]] = {}
    for node_id, mask in enumerate(target_masks):
        if mask:
            targets_by_mask.setdefault(mask, []).append(nodes[node_id])
    return chain.from_iterable(
        _cartesian([nodes[bit] for bit in _int_bits(mask)], targets)
        for mask, targets in targets_by_mask.items()
    )


def _settle_cyclic_layer(
    members: list[int],
    moves_in: list[tuple[int, Any, tuple[int, ...]]],
    rows: Mapping[Any, CSRRows],
    entering: list[tuple[list[int], CSRRows, tuple[int, ...]]],
    initial_ids: frozenset[int],
    count: int,
    layers: list[Optional[list[int]]],
    site: str,
    ctx: ExecutionContext,
) -> None:
    """Settle the product layer of one cyclic automaton component (its
    record's ``members`` and ``moves_in``) into ``layers``.

    The product restricted to the component's states — a product int
    ``local * |V| + node_id`` per ``(node, state)`` — is condensed by
    an iterative Tarjan DFS straight over the CSR ``rows``, rooted at
    the entry states: every node at an initial member, and every target
    of an ``entering`` move (a settled source layer, its label's rows
    and the target ids it enters) from a nonzero source row.  Each
    entering source row ORs its mask once per product component it
    enters, not once per edge (the first edge into a component stamps
    it with the mask object).  The component masks are then pushed
    through the condensation in topological order — the reverse of
    Tarjan's sinks-first emission — and written back per member.
    """
    # Moves that stay inside the component over labels with edges, per
    # source member, successor states pre-scaled to their layer's base
    # so the hot loop forms a product int with a single add per edge.
    local_of = {state: local for local, state in enumerate(members)}
    inner_moves: list[list[_Move]] = [[] for _ in members]
    for source, label, into in moves_in:
        if source in local_of and label in rows:
            offsets, targets = rows[label]
            inner_moves[local_of[source]].append(
                (offsets, targets, tuple(local_of[t] * count for t in into)))

    # Discovery ids: ``visit_of`` holds vid + 1 (0 = unreached), assigned
    # the first time a product int is seen; Tarjan's DFS numbering lives
    # separately in ``order``.  All per-vid vectors grow in lock step.
    visit_of = [0] * (len(members) * count)
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
    for local, state in enumerate(members):
        if state not in initial_ids:
            continue
        base = local * count
        for node_id in range(count):
            vid = visit_of[base + node_id] - 1
            if vid < 0:
                vid = explore(base + node_id)
            masks[comp_of[vid] - 1] |= 1 << node_id
    # Entering masks: once per product component each source row enters.
    for source_masks, (offsets, targets), into in entering:
        bases = tuple(local_of[t] * count for t in into)
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

    member_layers: list[list[int]] = []
    for state in members:
        layer = layers[state] = [0] * count
        member_layers.append(layer)
    for vid, pid in enumerate(pids):
        local, node_id = divmod(pid, count)
        member_layers[local][node_id] = masks[comp_of[vid] - 1]


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
    checkpoints at ``site``, the kernel's ``product.sweep``.
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
    succ: Mapping[_Vertex, Sequence[_Vertex]], base: Mapping[_Vertex, int]
) -> tuple[list[list[_Vertex]], list[int]]:
    """The least fixpoint of a product region given its base masks.

    ``succ`` maps every region state to its successors inside the
    region, ``base`` region states to the bits they hold from outside
    it (seed bits, exterior predecessors).  A state is any hashable
    key: the object-keyed kernel's ``(node, state)`` tuples, the
    incremental store's product ints.  Returns ``(components,
    masks)``: the region condensed by
    :func:`_tarjan_sccs` — the members of one component share one
    mask — with ``masks[c]`` pushed through the condensation in
    topological order (the reverse of Tarjan's sinks-first emission),
    so a component's mask is final before any successor reads it.

    It walks only states its caller's walk has already checkpointed,
    one pass over their successor lists, so it carries no checkpoint
    site.
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
