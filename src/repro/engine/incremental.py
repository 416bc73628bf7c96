"""Incremental maintenance of standard atom relations across graph versions.

Every engine cache is keyed on ``GraphDatabase.version``, so before this
module *any* mutation discarded *all* derived work: one inserted edge
forced a full product sweep per atom language on the next query.  Real
graph workloads are streams of small updates interleaved with queries;
an :class:`IncrementalRelationStore` attached to a graph keeps the
standard (walk) relations — the base tables of the st glue, the pruning
tables of the q-inj search, and the candidate filter of the a-inj
simple-path searches — *maintained* across versions instead.

**Maintained state.**  Per relation the store keeps the full product
reachability function as source bitmasks: for every reachable product
state ``(node, nfa_state)``, the set of graph nodes *u* (encoded as an
integer bitmask over a store-local node→bit table) such that ``(u, q₀)``
reaches that state.  The pair relation is derived: node *v* answers
``(u, v)`` iff bit *u* is set on some final-bearing state ``(v, f)``.
ε-acceptance needs no special case — Glushkov automata accept ε iff an
initial state is final, so the seed masks produce the diagonal pairs
themselves.

**Insert-only deltas** (semi-naive frontier growth).  New nodes seed
``(n, q₀)``; each new edge ``(s, a, t)`` jolts the product states
``(t, q')`` with the masks of ``(s, q)`` for every transition
``(q, a, q')``; a worklist then propagates exactly the *gained* bits
forward through the current graph until the (monotone) fixpoint.
Work is proportional to the affected product region — an update on a
label the automaton never reads costs nothing at all.

**Deletion deltas** (dirty-region repair, threshold-gated).  Removing
edges can only shrink masks *downstream* of a removed product edge: the
dirty region is the forward closure of the removed edges' product
targets over the old product graph (over-approximated by current ∪
removed edges — sound, never smaller than the true region).  States
outside it keep their masks.  The closure records each dirty state's
successors inside the region over the *current* graph, and every dirty
state gets a base mask: its seed bit plus the masks of its unaffected
predecessors.  The region is then *settled* in one pass — condensed
into strongly connected components, base masks ORed per component, and
the component masks pushed through the condensation in topological
order — so each dirty state is written exactly once, however cyclic
the product.  Current edges that leave the region reach only states
that were unreachable before the delta, i.e. added edges; the insert
pass that follows delivers the settled masks across them.
:meth:`MaintainedRelation.rebuild` is the dense product kernel's own
fixpoint (:func:`repro.engine.product.dense_layers`) kept whole: its
per-state layers become the source masks.  An edge whose label the
automaton never reads is dropped from the delta before either pass.
Deltas with more than :data:`DELETION_REPAIR_CAP` removed edges, any
removed *node* (bit-table hygiene), or a delta the graph's capped
change-log no longer covers fall back to that rebuild.  Correctness never depends on
the heuristic: every path computes the same fixpoint, only the amount
of touched state differs.

**Sharing.**  The store is attached to the graph
(``graph._incremental_store``) and consulted by exactly one relation
lookup, :func:`repro.engine.relations.atom_relation`: for the standard
kind it returns the maintained relation itself, so the planner, the
q-inj search, the batch executor's warm-up and the pair-set helpers of
:mod:`repro.semantics.rpq` all see one shared
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

from repro.engine import telemetry
from repro.engine.adjacency import adjacency_index
from repro.engine.cache import compiled_nfa, reversed_nfa
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

#: Removed-edge budget for in-place repair.  Past it the relation is
#: rebuilt from scratch — repairing a huge deletion would touch most of
#: the product anyway.  Tests shrink this to force the rebuild path.
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


class MaintainedRelation:
    """The mutable maintained state of one standard walk relation."""

    __slots__ = ("nfa", "labels", "label", "version", "bit_of", "node_of",
                 "sources", "target_masks", "pairs", "dirty", "_relation")

    def __init__(self, nfa, label="?"):
        self.nfa = nfa
        self.labels = frozenset(symbol for _state, symbol in nfa.transitions)
        self.label = label
        self.version = None
        self.bit_of = {}        # node -> bit index (store-local, stable)
        self.node_of = []       # bit index -> node
        self.sources = {}       # (node, state) -> nonzero source bitmask
        self.target_masks = {}  # node -> mask of sources reaching (node, f)
        self.pairs = set()      # the derived pair relation
        self.dirty = True
        self._relation = None

    def _bit(self, node):
        bit = self.bit_of.get(node)
        if bit is None:
            bit = self.bit_of[node] = len(self.node_of)
            self.node_of.append(node)
        return bit

    def _gain_targets(self, node, bits):
        old = self.target_masks.get(node, 0)
        merged = old | bits
        if merged == old:
            return
        self.target_masks[node] = merged
        for source in _decode_mask(merged & ~old, self.node_of):
            self.pairs.add((source, node))
        self.dirty = True

    # -- full rebuild ---------------------------------------------------

    def rebuild(self, graph, ctx=None):
        """Recompute everything from the dense kernel's fixpoint
        (:func:`~repro.engine.product.dense_layers`) over the current
        graph: every nonzero layer entry becomes a source mask, and the
        target masks and pairs are read off the final states' layers as
        the kernel reads its own pairs."""
        ctx = resolve_context(ctx)
        index = adjacency_index(graph)
        nodes = index.nodes_sorted
        layers = dense_layers(index, self.nfa, SITE_INCREMENTAL_GROW, ctx)
        self.bit_of = dict(index.node_bit)
        self.node_of = list(nodes)
        self.sources = {
            (node, state): mask
            for state, layer in layers.items()
            for node, mask in zip(nodes, layer) if mask
        }
        target_masks = final_masks(layers, self.nfa.finals, len(nodes))
        self.target_masks = {
            node: mask for node, mask in zip(nodes, target_masks) if mask
        }
        self.pairs = mask_pairs(target_masks, nodes)
        self.dirty = True
        self.version = graph.version

    # -- insert-only maintenance ----------------------------------------

    def grow(self, graph, added_nodes, added_edges, ctx=None):
        """Semi-naive frontier expansion from the new nodes/edges only."""
        ctx = resolve_context(ctx)
        nfa = self.nfa
        transitions = nfa.transitions
        finals = nfa.finals
        sources = self.sources
        pending = []

        def raise_mask(state, bits):
            old = sources.get(state, 0)
            merged = old | bits
            if merged != old:
                sources[state] = merged
                pending.append((state, merged & ~old))

        for node in added_nodes:
            bit = 1 << self._bit(node)
            for initial in nfa.initials:
                raise_mask((node, initial), bit)
        for edge in added_edges:
            for state in nfa.states:
                mask = sources.get((edge.source, state))
                if not mask:
                    continue
                for next_state in transitions.get((state, edge.label), ()):
                    raise_mask((edge.target, next_state), mask)

        while pending:
            ctx.checkpoint(SITE_INCREMENTAL_GROW)
            (node, state), bits = pending.pop()
            if state in finals:
                self._gain_targets(node, bits)
            for edge in graph.out_edges(node):
                next_states = transitions.get((state, edge.label))
                if not next_states:
                    continue
                for next_state in next_states:
                    raise_mask((edge.target, next_state), bits)

    # -- deletion repair -------------------------------------------------

    def shrink(self, graph, removed_edges, ctx=None):
        """Repair the dirty region downstream of the removed edges.

        Sound for mixed deltas when run *before* :meth:`grow`: the dirty
        closure uses current ∪ removed edges (a superset of the old
        product edges) and the settled masks are the exact fixpoint
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
        nfa = self.nfa
        transitions = nfa.transitions
        reverse_transitions = reversed_nfa(nfa).transitions
        initials = nfa.initials
        sources = self.sources

        removed_out = {}
        for edge in removed_edges:
            removed_out.setdefault(edge.source, []).append(edge)

        # 1. Product targets of the removed edges (reachable ones only).
        dirty = set()
        stack = []
        for edge in removed_edges:
            for state in nfa.states:
                if (edge.source, state) not in sources:
                    continue
                for next_state in transitions.get((state, edge.label), ()):
                    target_state = (edge.target, next_state)
                    if target_state in sources and target_state not in dirty:
                        dirty.add(target_state)
                        stack.append(target_state)

        # 2. Forward closure over the old product graph, keeping each
        #    dirty state's successors over the *current* graph that lie
        #    in the region (every reachable successor joins it).
        succ = {}
        while stack:
            ctx.checkpoint(SITE_INCREMENTAL_SHRINK)
            product_state = stack.pop()
            node, state = product_state
            successors = succ[product_state] = []
            for edge in graph.out_edges(node):
                for next_state in transitions.get((state, edge.label), ()):
                    successor = (edge.target, next_state)
                    if successor in sources:
                        successors.append(successor)
                        if successor not in dirty:
                            dirty.add(successor)
                            stack.append(successor)
            for edge in removed_out.get(node, ()):
                for next_state in transitions.get((state, edge.label), ()):
                    successor = (edge.target, next_state)
                    if successor in sources and successor not in dirty:
                        dirty.add(successor)
                        stack.append(successor)

        if not dirty:
            return

        # 3. Base masks: seeds plus unaffected-predecessor contributions.
        base = {}
        for node, state in dirty:
            mask = (1 << self.bit_of[node]) if state in initials else 0
            for edge in graph.in_edges(node):
                for pred_state in reverse_transitions.get(
                        (state, edge.label), ()):
                    predecessor = (edge.source, pred_state)
                    if predecessor not in dirty:
                        mask |= sources.get(predecessor, 0)
            base[(node, state)] = mask

        # 4. Settle the region: every dirty state's mask written once.
        self._settle(succ, base)

        # 5. Re-derive the pair masks of every affected target node.
        self._rederive_targets(dirty)

    def _settle(self, succ, base):
        """Write the least fixpoint of a region given its base masks
        (:func:`~repro.engine.product.settle`): every member of a
        component takes the component's mask, so each state is written
        exactly once.  States left without bits leave ``sources`` (they
        are no longer reachable)."""
        components, masks = settle(succ, base)
        sources = self.sources
        for members, mask in zip(components, masks):
            if mask:
                for member in members:
                    sources[member] = mask
            else:
                for member in members:
                    sources.pop(member, None)

    def _rederive_targets(self, region):
        """Recompute the target mask and pairs of every node with a final
        state in ``region`` from the settled source masks."""
        sources = self.sources
        finals = self.nfa.finals
        for node in {node for node, state in region if state in finals}:
            new_mask = 0
            for final in finals:
                new_mask |= sources.get((node, final), 0)
            old_mask = self.target_masks.get(node, 0)
            if new_mask == old_mask:
                continue
            for source in _decode_mask(old_mask & ~new_mask, self.node_of):
                self.pairs.discard((source, node))
            for source in _decode_mask(new_mask & ~old_mask, self.node_of):
                self.pairs.add((source, node))
            if new_mask:
                self.target_masks[node] = new_mask
            else:
                self.target_masks.pop(node, None)
            self.dirty = True

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

    def standard_relation(self, language):
        """The maintained standard :class:`Relation` of ``language`` at
        the graph's current version (indexes built on first read)."""
        with self._lock:
            return self._state_for(language).relation()

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
        relations, nodes = self._result_fingerprint(query)
        key = (semantics, query)
        with self._lock:
            entry = self._query_results.get(key)
            if entry is not None:
                answers, old_relations, old_nodes = entry
                # Relations compare by identity; an unchanged node set
                # is the graph's same snapshot object.
                if old_relations == relations and (
                        old_nodes is nodes or old_nodes == nodes):
                    self._query_results.move_to_end(key)
                    self._counts["results_reused"] += 1
                    _DECISION_COUNTERS["results_reused"].inc()
                    return answers
        answers = frozenset(compute())
        with self._lock:
            self._query_results[key] = (answers, relations, nodes)
            self._query_results.move_to_end(key)
            while len(self._query_results) > QUERY_RESULT_CAP:
                self._query_results.popitem(last=False)
        return answers

    def _result_fingerprint(self, query):
        """The reuse key of one standard disjunct: its maintained base
        tables (by identity, one per distinct language) plus the node
        set."""
        languages = dict.fromkeys(atom.language for atom in query.atoms)
        relations = tuple(map(self.standard_relation, languages))
        return relations, self.graph.nodes

    def _state_for(self, language):
        nfa = compiled_nfa(language)
        graph = self.graph
        with self._lock:
            state = self._states.get(nfa)
            if state is None:
                label = str(language)
                if len(label) > 40:
                    label = label[:37] + "..."
                state = MaintainedRelation(nfa, label=label)
                state.rebuild(graph)
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

    def _refresh(self, state):
        graph = self.graph
        delta = graph.delta_since(state.version)
        if delta is None:
            state.rebuild(graph)
            self._decide("rebuilt", state,
                         "rebuilt: change-log window exceeded")
            return
        if delta.removed_nodes:
            state.rebuild(graph)
            self._decide("rebuilt", state,
                         f"rebuilt: {len(delta.removed_nodes)} node(s) "
                         f"removed in delta")
            return
        if len(delta.removed_edges) > DELETION_REPAIR_CAP:
            state.rebuild(graph)
            self._decide("rebuilt", state,
                         f"rebuilt: {len(delta.removed_edges)} removed "
                         f"edges exceed repair cap {DELETION_REPAIR_CAP}")
            return
        # An edge whose label the automaton never reads moves no mask.
        labels = state.labels
        removed = [e for e in delta.removed_edges if e.label in labels]
        added = [e for e in delta.added_edges if e.label in labels]
        if removed:
            state.shrink(graph, removed)
        if delta.added_nodes or added:
            state.grow(graph, delta.added_nodes, added)
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
