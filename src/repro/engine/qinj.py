"""Relation-guided query-injective evaluation.

Query-injective (q-inj) semantics couples the atoms of a CRPQ — the
chosen simple paths must be pairwise internally node-disjoint and the
variable assignment injective — so it cannot be glued by the join
planner the way st / a-inj are.  The seed-era evaluator therefore ran a
joint backtracking search over *all* nodes for every variable, which is
exponential-first on every call.  This module keeps the joint search
(it is what makes the semantics NP-hard, Prop 3.2) but guides it with
the polynomial machinery built for the other semantics:

1. **Over-approximation.**  Every simple path (and simple cycle) is a
   walk, so the *standard* atom relation — polynomial, cached per graph
   version — over-approximates the endpoint pairs a q-inj witness can
   use.  Non-loop atoms additionally drop the diagonal (an injective
   assignment maps distinct variables to distinct nodes); loop atoms
   become unary constraints on the relation's diagonal.
2. **Semijoin reduction.**  The candidate tables (plus unary loop
   constraints and any pinned head binding) are reduced to the
   arc-consistent fixpoint with the planner's
   :func:`~repro.engine.planner.semijoin_reduce` — exactly the pipeline
   the st glue runs, re-used as a pruner.  Every true q-inj solution
   projects into the reduced tables, so pruning is sound.
3. **Guided search.**  The backtracking search then enumerates only
   surviving bindings: sources from the reduced per-variable domains,
   targets through the reduced table's hash index, atoms ordered
   smallest-table-first with connectivity preferred.
4. **Lazy memoized witnesses.**  Per-atom path enumeration is routed
   through :class:`LazyWitnesses` — a replayable, incrementally cached
   enumeration of the *unconstrained* simple paths (or cycles) of one
   (graph-version, language, endpoint-pair), stored via
   :func:`repro.engine.cache.graph_cached`.  Forbidden-node filtering
   happens on replay, so the (re-entrant, worst-case exponential)
   path searches are paid once per endpoint pair, not once per branch
   of the joint search.  Entries growing past
   :data:`WITNESS_PATH_CAP` cached paths overflow to direct
   re-enumeration (the fallback condition documented in
   ARCHITECTURE.md) — correctness never depends on the cache.

The unguided search survives as
:func:`repro.semantics.evaluation._qinj_solutions`; it is the reference
the differential suite and ``benchmarks/bench_qinj.py`` compare against.
"""

from __future__ import annotations

import itertools
import threading

from repro.engine import telemetry
from repro.engine.adjacency import adjacency_index
from repro.engine.cache import compiled_nfa, graph_cached, language_is_empty
from repro.engine.join import TupleRelation
from repro.engine.planner import semijoin_reduce
from repro.engine.relations import Relation, atom_relation
from repro.engine.runtime import checkpoint_site, resolve_context
from repro.graphdb.paths import simple_cycles_through, simple_paths
from repro.semantics.base import Semantics

#: Per-endpoint-pair budget of cached witness paths.  Past it the entry
#: stops caching and consumers fall back to direct (uncached)
#: re-enumeration — bounded memory, unchanged answers.  An explicit
#: :class:`~repro.engine.runtime.ResourceBudget` witness cap separately
#: bounds total *consumption* per evaluation and raises instead.
WITNESS_PATH_CAP = 512

SITE_QINJ_SEARCH = checkpoint_site(
    "qinj.search", "q-inj joint backtracking search (per place() branch)"
)
SITE_QINJ_WITNESS = checkpoint_site(
    "qinj.witness", "lazy witness replay/enumeration (per path position)"
)

_PRUNED_EMPTY = telemetry.registry().counter("qinj.pruned_empty")


# ----------------------------------------------------------------------
# Lazy, replayable witness enumeration
# ----------------------------------------------------------------------


class LazyWitnesses:
    """A replayable, incrementally cached path enumeration.

    ``factory`` produces a fresh deterministic iterator of paths (the
    unconstrained simple-path / simple-cycle search).  Consumers call
    :meth:`paths` — possibly many of them, interleaved, from the nested
    levels of the joint search — and each replays the shared cache,
    extending it lazily from a single underlying iterator.  Once
    ``cap`` paths are cached the entry *overflows*: the cached prefix
    keeps serving replays, and each consumer finishes the tail with its
    own fresh factory run (skipping the cached prefix), so memory stays
    bounded without changing any yield.

    Thread-safe: the batch executor evaluates q-inj queries on worker
    threads against one shared graph-scoped cache.
    """

    __slots__ = ("_factory", "_cap", "_cache", "_source", "_exhausted",
                 "_overflowed", "_lock")

    def __init__(self, factory, cap=WITNESS_PATH_CAP):
        self._factory = factory
        self._cap = cap
        self._cache = []
        self._source = None
        self._exhausted = False
        self._overflowed = False
        self._lock = threading.RLock()

    @property
    def cached_count(self):
        return len(self._cache)

    @property
    def exhausted(self):
        return self._exhausted

    @property
    def overflowed(self):
        return self._overflowed

    def _ensure(self, position):
        """Grow the cache to cover ``position`` unless done/overflowed."""
        while len(self._cache) <= position:
            if self._exhausted or self._overflowed:
                return
            if self._source is None:
                # Fresh (or resynced) run.  After an interrupted run the
                # cache holds a valid prefix; skip it so the new iterator
                # continues exactly where the cache ends.
                source = self._factory()
                for _ in range(len(self._cache)):
                    if next(source, None) is None:
                        self._exhausted = True
                        return
                self._source = source
            try:
                item = next(self._source)
            except StopIteration:
                self._exhausted = True
                self._source = None
                return
            except BaseException:
                # A deadline/cancellation/injected fault propagating
                # through the underlying search kills the generator; a
                # dead generator raises StopIteration forever, which
                # would falsely mark this shared entry exhausted.  Drop
                # the iterator — the cached prefix stays valid and the
                # next consumer resyncs a fresh run past it.
                self._source = None
                raise
            self._cache.append(item)
            if len(self._cache) >= self._cap:
                # Peek once before declaring overflow: an entry with
                # *exactly* cap paths is exhausted, and consumers must
                # not pay a redundant full re-enumeration to learn the
                # tail is empty.  A real overflow discards the peeked
                # item along with the iterator — the tail restarts a
                # fresh factory run and skips len(cache) items, which
                # re-yields it in order.
                try:
                    next(self._source)
                except StopIteration:
                    self._exhausted = True
                    self._source = None
                except BaseException:
                    self._source = None
                    raise
                else:
                    self._overflowed = True
                    self._source = None

    def paths(self, forbidden=frozenset(), ctx=None):
        """Yield the witness paths avoiding ``forbidden`` entirely.

        Equivalent to the direct constrained search (``forbidden`` only
        removes paths from the deterministic unconstrained enumeration,
        it never reorders the survivors).
        """
        ctx = resolve_context(ctx)
        position = 0
        while True:
            ctx.checkpoint(SITE_QINJ_WITNESS)
            with self._lock:
                self._ensure(position)
                if position < len(self._cache):
                    path = self._cache[position]
                elif self._exhausted:
                    return
                else:
                    break  # overflowed past the cached prefix
            if forbidden.isdisjoint(path.nodes):
                yield path
            position += 1
        # Overflow tail: one private uncached run, cached prefix skipped.
        fresh = self._factory()
        for _ in range(position):
            if next(fresh, None) is None:
                return
        for path in fresh:
            ctx.checkpoint(SITE_QINJ_WITNESS)
            if forbidden.isdisjoint(path.nodes):
                yield path


def path_witnesses(graph, nfa, source, target):
    """The memoized witness entry for simple paths source ⇝ target
    (keyed per graph version, interned automaton, endpoint pair)."""
    return graph_cached(
        graph,
        ("qinj-witness", nfa, source, target),
        lambda: LazyWitnesses(
            lambda: simple_paths(graph, source, target, language=nfa)
        ),
    )


def cycle_witnesses(graph, nfa, node):
    """The memoized witness entry for nonempty simple cycles at ``node``."""
    return graph_cached(
        graph,
        ("qinj-witness-cycle", nfa, node),
        lambda: LazyWitnesses(
            lambda: simple_cycles_through(
                graph, node, language=nfa, include_empty=False
            )
        ),
    )


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------


def standard_pruning_relation(graph, atom, semantics=None):
    """Default ``relation_for`` hook: the atom's *standard* (walk)
    :class:`Relation` — the sound q-inj over-approximation (every simple
    path / cycle is a walk).  ``semantics`` is accepted for hook-signature
    compatibility and ignored.  Read from the one atom-relation store
    (:func:`repro.engine.relations.atom_relation`), so a graph with an
    attached incremental store serves its maintained relations here too."""
    return atom_relation(graph, atom.language, "standard")


class QinjPlan:
    """The pruning plan + guided search of one ε-free disjunct.

    Construction fetches the standard relations and runs the semijoin
    reduction (polynomial) but executes **no** joint search —
    :meth:`solutions` / :meth:`answers` do, :meth:`explain` only renders.
    """

    __slots__ = ("query", "graph", "binding", "empty_reason", "atoms",
                 "nfas", "order", "tables", "domains", "base_sizes")

    def __init__(self, query, graph, binding, empty_reason, atoms, nfas,
                 order, tables, domains, base_sizes):
        self.query = query
        self.graph = graph
        self.binding = binding          # var -> node (pinned head vars)
        self.empty_reason = empty_reason  # str | None; set => no solutions
        self.atoms = atoms
        self.nfas = nfas
        self.order = order              # atom indices, search order
        self.tables = tables            # atom index -> reduced Relation
        self.domains = domains          # var -> sorted tuple of candidates
        self.base_sizes = base_sizes    # atom index -> |over-approx|

    # -- execution ------------------------------------------------------

    def answers(self):
        """The disjunct's q-inj answer set: a frozenset of head tuples."""
        head = self.query.head
        return frozenset(
            tuple(mu[v] for v in head) for mu in self.solutions()
        )

    def is_satisfiable(self):
        """True iff the disjunct has at least one q-inj solution (under
        the binding, when one is set) — first-witness early exit."""
        for _mu in self.solutions():
            return True
        return False

    def solutions(self, ctx=None):
        """Yield injective assignments μ : vars(Q) → V(G) such that every
        atom has a simple-path (simple-cycle for loop atoms) witness with
        fresh internal nodes — the same solution set as the unguided
        search, enumerated over the reduced candidate space only."""
        if self.empty_reason is not None:
            return
        ctx = resolve_context(ctx)
        graph = self.graph
        atoms, nfas = self.atoms, self.nfas
        tables, domains, order = self.tables, self.domains, self.order
        mu = dict(self.binding)
        used = set(mu.values())
        internal = set()
        ordered_nodes = adjacency_index(graph).nodes_sorted

        # Search-local witness memo on top of the graph-scoped cache: a
        # search touching more endpoint pairs than _GRAPH_CACHE_CAP
        # would otherwise trigger cap-and-clear churn mid-search (wiping
        # its own warm entries and every other non-relation entry).  Entries
        # fetched once per search stay pinned here for its duration;
        # each is bounded by WITNESS_PATH_CAP and dies with the call.
        local_witnesses = {}

        def _witnesses(kind, nfa, source, target=None):
            key = (kind, nfa, source, target)
            entry = local_witnesses.get(key)
            if entry is None:
                if kind == "path":
                    entry = path_witnesses(graph, nfa, source, target)
                else:
                    entry = cycle_witnesses(graph, nfa, source)
                local_witnesses[key] = entry
            return entry

        def available(pool):
            return tuple(
                node for node in pool
                if node not in used and node not in internal
            )

        def assign(variable, node):
            """Try μ(variable) = node; True if newly assigned, False if
            already consistently assigned, None on conflict."""
            if variable in mu:
                return False if mu[variable] == node else None
            if node in used or node in internal:
                return None
            mu[variable] = node
            used.add(node)
            return True

        def unassign(variable):
            used.discard(mu.pop(variable))

        def place(depth):
            ctx.checkpoint(SITE_QINJ_SEARCH)
            if depth == len(order):
                yield from place_free()
                return
            index = order[depth]
            atom, nfa = atoms[index], nfas[index]
            if atom.is_loop():
                variable = atom.source
                if variable in mu:
                    candidates = (mu[variable],)
                else:
                    candidates = available(domains.get(variable, ()))
                for node in candidates:
                    undo = assign(variable, node)
                    if undo is None:
                        continue
                    forbidden = frozenset((used | internal) - {node})
                    witnesses = _witnesses("cycle", nfa, node)
                    for path in witnesses.paths(forbidden, ctx):
                        ctx.consume_witnesses(1, SITE_QINJ_SEARCH)
                        internals = set(path.internal_nodes())
                        internal.update(internals)
                        yield from place(depth + 1)
                        internal.difference_update(internals)
                    if undo:
                        unassign(variable)
                return
            table = tables[index]
            if atom.source in mu:
                sources = (mu[atom.source],)
            else:
                sources = available(domains.get(atom.source, ()))
            for source in sources:
                undo_source = assign(atom.source, source)
                if undo_source is None:
                    continue
                if atom.target in mu:
                    targets = (
                        (mu[atom.target],)
                        if (source, mu[atom.target]) in table else ()
                    )
                else:
                    targets = available(
                        sorted(table.targets_of(source), key=repr)
                    )
                for target in targets:
                    undo_target = assign(atom.target, target)
                    if undo_target is None:
                        continue
                    forbidden = frozenset(
                        (used | internal) - {source, target}
                    )
                    witnesses = _witnesses("path", nfa, source, target)
                    for path in witnesses.paths(forbidden, ctx):
                        ctx.consume_witnesses(1, SITE_QINJ_SEARCH)
                        internals = set(path.internal_nodes())
                        internal.update(internals)
                        yield from place(depth + 1)
                        internal.difference_update(internals)
                    if undo_target:
                        unassign(atom.target)
                if undo_source:
                    unassign(atom.source)

        def place_free():
            # Variables in no atom (and not pinned): any leftover nodes,
            # injectively — identical to the unguided search's scan.
            free = [v for v in sorted(self.query.variables, key=repr)
                    if v not in mu]
            if not free:
                yield dict(mu)
                return
            leftover = available(ordered_nodes)
            for combo in itertools.permutations(leftover, len(free)):
                assignment = dict(mu)
                assignment.update(zip(free, combo))
                yield assignment

        yield from place(0)

    # -- rendering ------------------------------------------------------

    def explain(self):
        """A human-readable rendering of the pruning plan (no search
        executed) — the CLI's ``--explain`` under q-inj."""
        lines = [f"disjunct: {self.query}",
                 "semantics: q-inj — relation-guided joint backtracking "
                 "search"]
        if self.binding:
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(self.binding.items(), key=repr)
            )
            lines.append(f"binding: {rendered}")
        if self.empty_reason is not None:
            lines.append(f"pruned empty: {self.empty_reason} "
                         f"(no search executed)")
            return "\n".join(lines)
        for index, atom in enumerate(self.atoms):
            if atom.is_loop():
                domain = self.domains.get(atom.source, ())
                lines.append(
                    f"  loop atom {index}: {atom}  |walk diag ⊇| = "
                    f"{self.base_sizes[index]} → |domain| = {len(domain)}"
                )
            else:
                lines.append(
                    f"  atom {index}: {atom}  |walk ⊇| = "
                    f"{self.base_sizes[index]} → |reduced| = "
                    f"{len(self.tables[index])}"
                )
        if self.domains:
            rendered = ", ".join(
                f"{variable}: {len(self.domains[variable])}"
                for variable in sorted(self.domains, key=repr)
            )
            lines.append(f"  variable domains: {rendered}")
        free = sorted(
            (v for v in self.query.variables
             if v not in self.domains and v not in self.binding),
            key=repr,
        )
        if free:
            lines.append(
                "  unconstrained variables (full node scan): "
                + ", ".join(str(v) for v in free)
            )
        if self.order:
            lines.append(
                "  search order: atoms ["
                + ", ".join(str(i) for i in self.order) + "]"
            )
        lines.append(
            f"  witnesses: lazy per (graph-version, language, endpoint "
            f"pair), cap {WITNESS_PATH_CAP} paths/entry then direct "
            f"re-enumeration"
        )
        return "\n".join(lines)


def plan_qinj(query, graph, binding=None, relation_for=None):
    """Build the :class:`QinjPlan` of one ε-free disjunct.

    ``binding`` pins head variables to nodes (the membership check).
    ``relation_for(graph, atom, semantics)`` overrides where the
    standard pruning relations come from; the default is
    :func:`standard_pruning_relation`, the one atom-relation store.
    """
    relation_for = relation_for or standard_pruning_relation
    binding = dict(binding or {})
    atoms = tuple(query.atoms)
    nfas = tuple(compiled_nfa(atom.language) for atom in atoms)
    base_sizes = {}

    empty_reason = None
    values = list(binding.values())
    if len(set(values)) != len(values):
        empty_reason = "binding repeats a node (injective assignment)"
    elif any(node not in graph.nodes for node in values):
        empty_reason = "binding uses a node outside the graph"
    elif len(query.variables) > len(graph.nodes):
        empty_reason = (
            f"{len(query.variables)} variables cannot map injectively "
            f"into {len(graph.nodes)} node(s)"
        )
    else:
        # Empty-language short-circuit (mirrors plan_eps_free): never
        # fetch or reduce relations for an unsatisfiable disjunct.
        for index, atom in enumerate(atoms):
            if language_is_empty(atom.language):
                empty_reason = (
                    f"atom {index} ({atom}) denotes the empty language"
                )
                break
    if empty_reason is not None:
        _PRUNED_EMPTY.inc()
        return QinjPlan(query, graph, binding, empty_reason, atoms, nfas,
                        (), {}, {}, base_sizes)

    # Lower every atom to its standard over-approximation.
    raw_tables = []       # TupleRelations fed to the reducer
    table_position = {}   # atom index -> position in raw_tables
    unary = {}            # loop-atom diagonals, intersected per variable
    for index, atom in enumerate(atoms):
        relation = relation_for(graph, atom, Semantics.QUERY_INJECTIVE)
        if not isinstance(relation, Relation):
            relation = Relation(relation)
        if atom.is_loop():
            diagonal = relation.diagonal()
            base_sizes[index] = len(diagonal)
            variable = atom.source
            if variable in unary:
                unary[variable] &= diagonal
            else:
                unary[variable] = set(diagonal)
        else:
            # Injectivity: distinct variables never share a node, so the
            # diagonal can be dropped from every binary candidate table.
            pairs = {
                (source, target)
                for source, target in relation.pairs
                if source != target
            }
            base_sizes[index] = len(pairs)
            table_position[index] = len(raw_tables)
            raw_tables.append(
                TupleRelation((atom.source, atom.target), pairs)
            )
    for variable, allowed in unary.items():
        raw_tables.append(
            TupleRelation((variable,), ((node,) for node in allowed))
        )
    for variable, node in binding.items():
        raw_tables.append(TupleRelation((variable,), ((node,),)))

    reduced = semijoin_reduce(raw_tables) if raw_tables else []
    if reduced is None:
        return QinjPlan(
            query, graph, binding,
            "semijoin reduction emptied a candidate table",
            atoms, nfas, (), {}, {}, base_sizes,
        )
    tables = {
        index: Relation(reduced[position].rows)
        for index, position in table_position.items()
    }
    domains = {}
    for table in reduced:
        for variable in table.variables:
            column = frozenset(table.column(variable))
            domains[variable] = (
                column if variable not in domains
                else domains[variable] & column
            )
    domains = {
        variable: tuple(sorted(column, key=repr))
        for variable, column in domains.items()
    }

    # Search order: smallest candidate set first, preferring atoms
    # connected to already-placed variables (deterministic tie-breaks).
    order = []
    remaining = set(range(len(atoms)))
    placed = set(binding)

    def _cost(index):
        atom = atoms[index]
        if atom.is_loop():
            size = len(domains.get(atom.source, ()))
        else:
            size = len(tables[index])
        connected = atom.source in placed or atom.target in placed
        return (0 if connected else 1, size, index)

    while remaining:
        index = min(remaining, key=_cost)
        remaining.remove(index)
        order.append(index)
        placed.add(atoms[index].source)
        placed.add(atoms[index].target)

    return QinjPlan(query, graph, binding, None, atoms, nfas,
                    tuple(order), tables, domains, base_sizes)
