"""Incremental maintenance of standard atom relations across graph versions.

Every engine cache is keyed on ``GraphDatabase.version``, so before this
module *any* mutation discarded *all* derived work: one inserted edge
forced a full product sweep per atom language on the next query.  Real
graph workloads are streams of small updates interleaved with queries;
an :class:`IncrementalRelationStore` attached to a graph keeps the
standard (walk) relations — the base tables of the st glue, the pruning
tables of the q-inj search, and the candidate filter of the a-inj
simple-path searches — *maintained* across versions instead.

**Node ids and rows.**  The store owns one id table (:class:`NodeIds`):
node ids in repr order, with nodes added later appended (repr order
within one delta), so an id never moves while nodes only arrive.  For
each label some maintained automaton reads, the table keeps per-id
successor and predecessor rows (``list[list[int]]``); labels no
maintained automaton reads get no rows.  The table is brought up to the
graph's version from :meth:`GraphDatabase.delta_since` only when a
relation has something to repair or rebuild.  A delta with a removed
node, or a change-log window the graph no longer covers, starts a new
table (an *epoch*); a relation built on an older table rebuilds on its
next refresh that walks rows, which also covers a node removed and
re-added between two reads (its net delta shows nothing).

**Maintained state.**  Per relation the store keeps the full product
reachability function in the dense kernel's shape: per NFA state (by
its record id) one id-indexed list of source bitmasks, where bit *u* of
``layers[q][v]`` is set iff ``(u, q₀)`` reaches the product state
``(v, q)``.  The pair relation is derived: node *v* answers ``(u, v)``
iff bit *u* is set on its target mask, the OR of its final states'
masks.  ε-acceptance needs no special case — Glushkov automata accept ε
iff an initial state is final, so the seed masks produce the diagonal
pairs themselves.  The repair passes name a product state by the int
``state * n + id`` (``n`` the table's node count).

**Insert-only deltas** (semi-naive frontier growth).  New ids seed
``(id, q₀)``; each new edge ``(s, a, t)`` jolts the product states
``(t, q')`` with the masks of ``(s, q)`` for every transition
``(q, a, q')``; a worklist then propagates exactly the *gained* bits
forward along the out rows until the (monotone) fixpoint.  Work is
proportional to the affected product region — an update on a label the
automaton never reads costs nothing at all.

**Deletion deltas** (dirty-region repair, threshold-gated).  This is
the delete-and-rederive scheme of view maintenance (DRed).  Removing
edges can only shrink masks *downstream* of a removed product edge: the
dirty region is the forward closure of the removed edges' product
targets over the old product graph, over-approximated by the closure
over the current rows (every removed product edge out of a reachable
state already seeds it, so the region is never smaller than the true
one).  States outside it keep their masks.  The closure records each
dirty state's successors inside the region, and every dirty state gets
a base mask: its seed bit plus the masks of its unaffected predecessors
(read along the in rows).  The region is then *settled* in one pass by
:func:`~repro.engine.product.settle` — condensed into strongly
connected components, base masks ORed per component, and the component
masks pushed through the condensation in topological order — so each
dirty state is written exactly once, however cyclic the product.
Current edges that leave the region reach only states that were
unreachable before the delta, i.e. added edges; the insert pass that
follows delivers the settled masks across them.
:meth:`MaintainedRelation.rebuild` runs the dense product kernel
(:func:`repro.engine.product.dense_layers`) over the table's own rows
and keeps its layers whole.  An edge whose label the automaton never
reads is dropped from the delta before either pass, and only the
removed edges left count against :data:`DELETION_REPAIR_CAP`.  Deltas
with more removed edges than that, any removed *node*, or a delta the
graph's capped change-log no longer covers fall back to the rebuild.
Correctness never depends on the heuristic: every path computes the
same fixpoint, only the amount of touched state differs.

**Sharing.**  The store is attached to the graph
(``graph._incremental_store``) and consulted by exactly one relation
lookup, :func:`repro.engine.relations.atom_relation`: for the standard
kind, and for a loop atom's ``"walk-loop"`` diagonal (its consumers read
only the diagonal), it returns the maintained relation itself, so the
planner, the q-inj search, the batch executor's warm-up and the
pair-set helpers of :mod:`repro.semantics.rpq` all see one shared
:class:`~repro.engine.relations.Relation` per language.
Simple-path / simple-cycle relations (a-inj) stay version-discard —
they are NP-hard per atom and non-monotone under insertion — but their
recomputation prunes through the *maintained* standard relation, so
they too get cheaper under small deltas.

**Static analysis.**  The query analyzer
(:mod:`repro.engine.analyze`) keys its memoized reports by *query
structure and semantics only* — never by graph or version — so the
serving loop over a store-attached dynamic graph re-plans mutated
relations but never re-analyzes an unchanged query: pruning decisions
and rewrites survive every update for free.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import accumulate, chain

from repro.engine import telemetry
from repro.engine.cache import compiled_nfa, nfa_record
from repro.engine.product import (
    _decode_mask,
    dense_layers,
    final_masks,
    mask_pairs,
    settle,
)
from repro.engine.relations import Relation
from repro.engine.runtime import checkpoint_site, resolve_context

SITE_INCREMENTAL_GROW = checkpoint_site(
    "incremental.grow",
    "insert propagation (per product state) and full rebuild (per "
    "product node expanded or nonzero source row gathered)",
)
SITE_INCREMENTAL_SHRINK = checkpoint_site(
    "incremental.shrink", "deletion dirty-region repair (per product state)"
)

#: Removed-edge budget for in-place repair, counted over the edges the
#: automaton reads.  Past it the relation is rebuilt from scratch —
#: repairing a huge deletion would touch most of the product anyway.
#: Tests shrink this to force the rebuild path.
DELETION_REPAIR_CAP = 64

#: Maximum number of maintained relations per store (least-recently-used
#: eviction; an evicted language is simply rebuilt on next use).
STORE_RELATION_CAP = 256

#: Decision-log length kept per store (for ``--explain`` reporting).
DECISION_LOG_CAP = 512

#: Maximum number of reusable query results kept per store (LRU).
QUERY_RESULT_CAP = 512

#: Global maintenance-decision counters (per-store totals live on the
#: store's own ``counts``; these aggregate across stores for ``stats``).
_DECISION_COUNTERS = {
    "built": telemetry.registry().counter("incremental.built"),
    "maintained": telemetry.registry().counter("incremental.maintained"),
    "rebuilt": telemetry.registry().counter("incremental.rebuilt"),
    "results_reused": telemetry.registry().counter(
        "incremental.results_reused"
    ),
}


class NodeIds:
    """One epoch of a store's node ids and per-label rows.

    ``nodes[i]`` is the node with id *i*: repr order when the table is
    made, then appended as nodes arrive.  For every tracked label,
    ``out[label][i]`` lists the ids of *i*'s ``label``-successors and
    ``into[label][i]`` those of its predecessors.  The table describes
    the graph at ``version``.  It only ever grows: a delta that removes
    a node needs a new table, so an id keeps its node for the table's
    lifetime.
    """

    __slots__ = ("nodes", "id_of", "version", "out", "into")

    def __init__(self, graph, labels):
        self.nodes = sorted(graph.nodes, key=repr)
        self.id_of = {node: i for i, node in enumerate(self.nodes)}
        self.version = graph.version
        self.out = {}
        self.into = {}
        for label in labels:
            self.track(graph, label)

    def track(self, graph, label):
        """Build the rows of ``label`` from ``graph`` (at ``version``)."""
        count = len(self.nodes)
        id_of = self.id_of
        out = self.out[label] = [[] for _ in range(count)]
        into = self.into[label] = [[] for _ in range(count)]
        for edge in graph.edges_with_label(label):
            source, target = id_of[edge.source], id_of[edge.target]
            out[source].append(target)
            into[target].append(source)

    def sync(self, delta, version):
        """Apply the net ``delta`` up to ``version``; it removes no node,
        so every removed edge joins two ids the table holds."""
        nodes, id_of = self.nodes, self.id_of
        arrived = sorted(delta.added_nodes, key=repr)
        for node in arrived:
            id_of[node] = len(nodes)
            nodes.append(node)
        if arrived:
            for rows in chain(self.out.values(), self.into.values()):
                rows.extend([] for _ in arrived)
        out, into = self.out, self.into
        for edge in delta.removed_edges:
            rows = out.get(edge.label)
            if rows is not None:
                source, target = id_of[edge.source], id_of[edge.target]
                rows[source].remove(target)
                into[edge.label][target].remove(source)
        for edge in delta.added_edges:
            rows = out.get(edge.label)
            if rows is not None:
                source, target = id_of[edge.source], id_of[edge.target]
                rows[source].append(target)
                into[edge.label][target].append(source)
        self.version = version

    def csr(self, labels):
        """``{label: (offsets, targets)}`` over the tracked ``labels``
        that have edges: the CSR rows :func:`dense_layers` reads."""
        rows = {}
        for label in labels:
            out = self.out[label]
            targets = tuple(chain.from_iterable(out))
            if targets:
                rows[label] = (
                    tuple(accumulate(map(len, out), initial=0)), targets)
        return rows


class MaintainedRelation:
    """The mutable maintained state of one standard walk relation."""

    __slots__ = ("nfa", "label", "labels", "version", "ids", "layers",
                 "target_masks", "pairs", "dirty", "_relation",
                 "_moves", "_out_moves", "_in_moves")

    def __init__(self, nfa, label="?"):
        self.nfa = nfa
        self.label = label
        record = nfa_record(nfa)
        state_id = record.state_id
        # The transitions over state ids: per label ``(state, nexts)``
        # for the delta edges, per state ``(label, nexts)`` forward and
        # ``(label, predecessors)`` backward for the row walks.
        self._moves = {}
        self._out_moves = [[] for _ in record.states]
        self._in_moves = [[] for _ in record.states]
        for (state, label), nexts in nfa.transitions.items():
            move = (label, tuple(map(state_id.__getitem__, nexts)))
            self._out_moves[state_id[state]].append(move)
            self._moves.setdefault(label, []).append(
                (state_id[state], move[1]))
        for (state, label), predecessors in record.reverse.items():
            self._in_moves[state_id[state]].append(
                (label, tuple(map(state_id.__getitem__, predecessors))))
        #: The labels the automaton reads: the only rows it walks.
        self.labels = frozenset(self._moves)
        self.version = None
        self.ids = None          # the NodeIds table the lists index
        self.layers = []         # state id -> id -> source mask
        self.target_masks = []   # id -> mask of sources reaching (id, f)
        self.pairs = set()       # the derived pair relation
        self.dirty = True
        self._relation = None

    def pad(self, count):
        """Extend every id-indexed list to ``count`` ids (zero masks) and
        return the range of ids added."""
        start = len(self.target_masks)
        if count > start:
            zeros = [0] * (count - start)
            for layer in self.layers:
                layer.extend(zeros)
            self.target_masks.extend(zeros)
        return range(start, count)

    def _set_target(self, node, mask):
        """Give ``node`` the target mask ``mask`` and move its pairs."""
        old_mask = self.target_masks[node]
        nodes = self.ids.nodes
        target = nodes[node]
        self.pairs.difference_update(
            (source, target)
            for source in _decode_mask(old_mask & ~mask, nodes))
        self.pairs.update(
            (source, target)
            for source in _decode_mask(mask & ~old_mask, nodes))
        self.target_masks[node] = mask
        self.dirty = True

    # -- full rebuild ---------------------------------------------------

    def rebuild(self, ids, ctx=None):
        """Recompute everything from the dense kernel's fixpoint
        (:func:`~repro.engine.product.dense_layers`) over the rows of
        ``ids``: its layers become the source masks, and the target
        masks and pairs are read off the final states' layers as the
        kernel reads its own pairs."""
        ctx = resolve_context(ctx)
        count = len(ids.nodes)
        layers = dense_layers(ids.csr(self.labels), count, self.nfa,
                              SITE_INCREMENTAL_GROW, ctx)
        self.target_masks = final_masks(
            layers, nfa_record(self.nfa).final_ids, count)
        self.layers = [[0] * count if layer is None else layer
                       for layer in layers]
        self.pairs = set(mask_pairs(self.target_masks, ids.nodes))
        self.ids = ids
        self.dirty = True

    # -- insert-only maintenance ----------------------------------------

    def grow(self, new_ids, added_edges, ctx=None):
        """Semi-naive frontier expansion from the new ids and the added
        ``(source id, label, target id)`` edges only; the lists are
        already padded to the table (:meth:`pad`)."""
        ctx = resolve_context(ctx)
        record = nfa_record(self.nfa)
        final_ids = record.final_ids
        out_rows = self.ids.out
        out_moves = self._out_moves
        layers = self.layers
        count = len(self.target_masks)
        pending = []

        def raise_mask(state, node, bits):
            layer = layers[state]
            old = layer[node]
            merged = old | bits
            if merged != old:
                layer[node] = merged
                pending.append((state * count + node, merged & ~old))

        for node in new_ids:
            bit = 1 << node
            for initial in record.initial_ids:
                raise_mask(initial, node, bit)
        for source, label, target in added_edges:
            for state, nexts in self._moves[label]:
                mask = layers[state][source]
                if mask:
                    for next_state in nexts:
                        raise_mask(next_state, target, mask)

        while pending:
            ctx.checkpoint(SITE_INCREMENTAL_GROW)
            product_id, bits = pending.pop()
            state, node = divmod(product_id, count)
            if state in final_ids:
                old = self.target_masks[node]
                if bits & ~old:
                    self._set_target(node, old | bits)
            for label, nexts in out_moves[state]:
                row = out_rows[label][node]
                for next_state in nexts:
                    for target in row:
                        raise_mask(next_state, target, bits)

    # -- deletion repair -------------------------------------------------

    def shrink(self, removed_edges, ctx=None):
        """Repair the dirty region downstream of the removed
        ``(source id, label, target id)`` edges.

        Sound for mixed deltas when run *before* :meth:`grow`: the
        removed edges' product targets seed the dirty closure, which
        then follows the current rows (together a superset of the old
        product edges), and the settled masks are the exact fixpoint
        given the untouched exterior.  A current product edge that
        leaves the region leads to a state that was unreachable before
        the delta, so it is an *added* edge; the subsequent ``grow``
        jolts it with the settled mask and its worklist carries the bits
        onward, back into the region too.

        An interrupt (deadline/cancellation) mid-repair leaves this
        object inconsistent; the owning store drops the state on any
        maintenance exception so the next access rebuilds from scratch.
        """
        ctx = resolve_context(ctx)
        initial_ids = nfa_record(self.nfa).initial_ids
        ids = self.ids
        layers = self.layers
        count = len(self.target_masks)

        # 1. Product targets of the removed edges (reachable ones only).
        dirty = set()
        stack = []
        for source, label, target in removed_edges:
            for state, nexts in self._moves[label]:
                if not layers[state][source]:
                    continue
                for next_state in nexts:
                    product_id = next_state * count + target
                    if layers[next_state][target] and product_id not in dirty:
                        dirty.add(product_id)
                        stack.append(product_id)

        # 2. Forward closure over the current rows, keeping each dirty
        #    state's successors in the region (every reachable successor
        #    joins it).  A removed edge out of a dirty state needs no
        #    walk here: step 1 seeded its product target already.
        out_rows = ids.out
        out_moves = self._out_moves
        succ = {}
        while stack:
            ctx.checkpoint(SITE_INCREMENTAL_SHRINK)
            product_id = stack.pop()
            state, node = divmod(product_id, count)
            successors = succ[product_id] = []
            for label, nexts in out_moves[state]:
                row = out_rows[label][node]
                if not row:
                    continue
                for next_state in nexts:
                    layer = layers[next_state]
                    base = next_state * count
                    for target in row:
                        if layer[target]:
                            successor = base + target
                            successors.append(successor)
                            if successor not in dirty:
                                dirty.add(successor)
                                stack.append(successor)

        if not dirty:
            return

        # 3. Base masks: seeds plus unaffected-predecessor contributions.
        in_rows = ids.into
        in_moves = self._in_moves
        base_masks = {}
        for product_id in dirty:
            state, node = divmod(product_id, count)
            mask = (1 << node) if state in initial_ids else 0
            for label, predecessors in in_moves[state]:
                row = in_rows[label][node]
                if not row:
                    continue
                for predecessor in predecessors:
                    layer = layers[predecessor]
                    base = predecessor * count
                    for source in row:
                        if base + source not in dirty:
                            mask |= layer[source]
            base_masks[product_id] = mask

        # 4. Settle the region: every member of a component takes the
        #    component's mask (zero: no longer reachable), so each dirty
        #    state is written exactly once.
        components, masks = settle(succ, base_masks)
        for members, mask in zip(components, masks):
            for product_id in members:
                state, node = divmod(product_id, count)
                layers[state][node] = mask

        # 5. Re-derive the target mask and pairs of every node with a
        #    final state in the region.
        final_ids = nfa_record(self.nfa).final_ids
        for node in {product_id % count for product_id in dirty
                     if product_id // count in final_ids}:
            mask = 0
            for final in final_ids:
                mask |= layers[final][node]
            if mask != self.target_masks[node]:
                self._set_target(node, mask)

    # -- materialization -------------------------------------------------

    def relation(self):
        """The current pairs as a shared :class:`Relation` (indexes built
        per side on first read); re-wrapped only when the pairs changed,
        so unaffected updates hand every consumer the *same object*."""
        if self._relation is None or self.dirty:
            self._relation = Relation(self.pairs)
            self.dirty = False
        return self._relation


class IncrementalRelationStore:
    """Maintains standard atom relations for one graph across versions.

    Constructing the store attaches it to the graph; from then on the
    engine's standard-relation lookup
    (:func:`repro.engine.relations.atom_relation`) is served from
    maintained state, refreshed per :meth:`GraphDatabase.delta_since`
    instead of recomputed per version.  Thread-safe (the batch executor
    warms relations from worker threads).
    """

    def __init__(self, graph):
        self.graph = graph
        self._states = OrderedDict()   # interned NFA -> MaintainedRelation
        self._ids = None               # the current NodeIds epoch
        self._query_results = OrderedDict()  # (semantics, query) -> entry
        self._decisions = []
        self._counts = {"built": 0, "maintained": 0, "rebuilt": 0,
                        "results_reused": 0}
        self._lock = threading.RLock()
        # lintkit: disable=LK002 -- blessed attachment point: the store
        # subscribes to the graph's changelog and detach() removes the
        # attribute; this is the PR 5 maintenance contract, not a cache.
        graph._incremental_store = self

    # -- lifecycle -------------------------------------------------------

    def detach(self):
        """Detach from the graph; subsequent lookups rebuild per version."""
        if getattr(self.graph, "_incremental_store", None) is self:
            del self.graph._incremental_store

    # -- decision log ----------------------------------------------------

    @property
    def counts(self):
        """``{"built": .., "maintained": .., "rebuilt": ..,
        "results_reused": ..}`` totals."""
        return dict(self._counts)

    @property
    def decisions(self):
        """The per-relation decision log: ``(version, label, description)``
        tuples, oldest first (bounded by :data:`DECISION_LOG_CAP`)."""
        return tuple(self._decisions)

    def clear_decisions(self):
        self._decisions.clear()

    def _decide(self, action, state, description):
        self._counts[action] += 1
        _DECISION_COUNTERS[action].inc()
        self._decisions.append((self.graph.version, state.label, description))
        if len(self._decisions) > DECISION_LOG_CAP:
            del self._decisions[:len(self._decisions) - DECISION_LOG_CAP]

    def explain_text(self):
        """Render the decision log (the CLI's ``update --explain``)."""
        if not self._decisions:
            return "no relation decisions recorded"
        lines = [
            f"v{version} [{label}] {description}"
            for version, label, description in self._decisions
        ]
        counts = self._counts
        lines.append(
            f"totals: {counts['built']} built, {counts['maintained']} "
            f"maintained, {counts['rebuilt']} rebuilt, "
            f"{counts['results_reused']} result(s) reused"
        )
        return "\n".join(lines)

    # -- the maintained lookups ------------------------------------------

    def standard_relation(self, language, nfa=None):
        """The maintained standard :class:`Relation` of ``language``
        (automaton ``nfa``, if held) at the graph's current version."""
        with self._lock:
            return self._state_for(language, nfa).relation()

    # -- versioned query-result reuse ------------------------------------

    def query_result(self, semantics, query, compute):
        """Versioned result reuse for one ε-free disjunct.

        Only standard answers are reused: they are a pure function of
        the plan's base tables plus the node set, and every standard
        table is maintained.  When neither the table identities
        (materialization hands out the same object while the pairs are
        unchanged) nor the node set moved since the last evaluation, the
        previous answers are returned without planning or joining.
        Atom-injective answers read simple-path tables, which stay
        version-discard, and query-injective answers depend on witness
        *paths*, not just endpoint tables, so both always recompute.
        """
        from repro.semantics.base import Semantics

        if semantics is not Semantics.STANDARD:
            return compute()
        key = (semantics, query)
        with self._lock:
            entry = self._query_results.get(key)
            nodes = self.graph.nodes
            if entry is not None:
                answers, automata, old_relations, old_nodes = entry
                # Relations compare by identity; an unchanged node set
                # is the graph's same snapshot object.
                if self._tables(automata) == old_relations and (
                        old_nodes is nodes or old_nodes == nodes):
                    self._query_results.move_to_end(key)
                    self._counts["results_reused"] += 1
                    _DECISION_COUNTERS["results_reused"].inc()
                    return answers
            # A miss interns the distinct languages' automata afresh; the
            # entry keeps them, so a repeat check compiles no language.
            automata = tuple({
                atom.language: compiled_nfa(atom.language)
                for atom in query.atoms
            }.items())
            relations = self._tables(automata)
        answers = frozenset(compute())
        with self._lock:
            self._query_results[key] = (answers, automata, relations, nodes)
            self._query_results.move_to_end(key)
            while len(self._query_results) > QUERY_RESULT_CAP:
                self._query_results.popitem(last=False)
        return answers

    def _tables(self, automata):
        """The maintained tables of ``(language, nfa)`` pairs, in order."""
        return tuple(self._state_for(language, nfa).relation()
                     for language, nfa in automata)

    def _state_for(self, language, nfa=None):
        nfa = nfa or compiled_nfa(language)
        graph = self.graph
        with self._lock:
            state = self._states.get(nfa)
            if state is None:
                label = str(language)
                if len(label) > 40:
                    label = label[:37] + "..."
                state = MaintainedRelation(nfa, label=label)
                self._rebuild(state)
                self._states[nfa] = state
                self._decide("built", state,
                             f"built relation ({len(state.pairs)} pairs)")
                while len(self._states) > STORE_RELATION_CAP:
                    self._states.popitem(last=False)
            elif state.version != graph.version:
                try:
                    with telemetry.span("repair", relation=state.label):
                        self._refresh(state)
                except BaseException:
                    # A deadline/cancellation/injected fault mid-repair
                    # leaves the maintained masks inconsistent.  Never
                    # keep such a state: drop it so the next access
                    # rebuilds from scratch (always sound).
                    self._states.pop(nfa, None)
                    raise
            self._states.move_to_end(nfa)
            return state

    def _node_ids(self, labels):
        """The id table at the graph's current version, with rows for
        every label in ``labels``; a delta that removes a node, or one
        the change-log no longer covers, starts a new table."""
        graph = self.graph
        version = graph.version
        ids = self._ids
        try:
            if ids is None:
                ids = self._ids = NodeIds(graph, labels)
            elif ids.version != version:
                delta = graph.delta_since(ids.version)
                if delta is None or delta.removed_nodes:
                    ids = self._ids = NodeIds(graph, ids.out.keys() | labels)
                else:
                    ids.sync(delta, version)
            for label in labels:
                if label not in ids.out:
                    ids.track(graph, label)
        except BaseException:
            # A sync cut short leaves rows half-applied: the next read
            # starts a new table, and every relation on this one rebuilds.
            self._ids = None
            raise
        return ids

    def _rebuild(self, state):
        state.rebuild(self._node_ids(state.labels))
        state.version = self.graph.version

    def _refresh(self, state):
        graph = self.graph
        delta = graph.delta_since(state.version)
        if delta is None:
            self._rebuild(state)
            self._decide("rebuilt", state,
                         "rebuilt: change-log window exceeded")
            return
        if delta.removed_nodes:
            self._rebuild(state)
            self._decide("rebuilt", state,
                         f"rebuilt: {len(delta.removed_nodes)} node(s) "
                         f"removed in delta")
            return
        # An edge whose label the automaton never reads moves no mask, so
        # only the removed edges the repair would walk meet the cap.
        labels = state.labels
        removed = [e for e in delta.removed_edges if e.label in labels]
        if len(removed) > DELETION_REPAIR_CAP:
            self._rebuild(state)
            self._decide("rebuilt", state,
                         f"rebuilt: {len(removed)} removed "
                         f"edges exceed repair cap {DELETION_REPAIR_CAP}")
            return
        added = [e for e in delta.added_edges if e.label in labels]
        if removed or added or delta.added_nodes:
            ids = self._node_ids(labels)
            if ids is not state.ids:
                self._rebuild(state)
                self._decide("rebuilt", state,
                             "rebuilt: node ids renumbered since last read")
                return
            id_of = ids.id_of
            new_ids = state.pad(len(ids.nodes))
            if removed:
                state.shrink([(id_of[e.source], e.label, id_of[e.target])
                              for e in removed])
            if new_ids or added:
                state.grow(new_ids, [(id_of[e.source], e.label,
                                      id_of[e.target]) for e in added])
        state.version = graph.version
        self._decide("maintained", state,
                     f"maintained across delta {delta} "
                     f"({len(state.pairs)} pairs)")


def incremental_store(graph):
    """The store attached to ``graph``, creating (and attaching) one on
    first use — the one-liner that turns a graph dynamic."""
    store = getattr(graph, "_incremental_store", None)
    if store is None:
        store = IncrementalRelationStore(graph)
    return store
