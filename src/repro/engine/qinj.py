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
4. **Constrained witnesses.**  Each atom's simple path (or simple
   cycle) is enumerated at the point of use by the path-search kernel
   (:func:`~repro.graphdb.paths.search`) with the search's current
   forbidden set, so the DFS never enters a node the partial solution
   already uses.  :meth:`QinjPlan.answers` keeps only head tuples, so
   it runs the search under an exit rule: once every head variable is
   bound, the rest of the search only checks that a completion exists
   — the binding's witness loop stops at the first witness whose
   continuation succeeds, and deeper levels yield at most one
   solution.  :meth:`QinjPlan.solutions` still enumerates everything.
   The *terminal level* of :meth:`QinjPlan.answers` — the last atom,
   at or past the bind depth, not a loop, with no variable left to
   place — only asks whether each target has some witness, under a
   forbidden set that is the same for every new target of one source.
   There each source keeps one ``reached`` set of the kernel's accepted
   endpoints, and a target an earlier search from that source already
   stepped onto is answered with no search of its own.
5. **RPQ-shaped disjuncts.**  On one atom ``x -[L]-> y`` whose two
   variables are the whole query, both in the head, both injective
   semantics are simple-path semantics (Mendelzon & Wood 1995); q-inj
   only adds μ(x) ≠ μ(y).  With no binding, :func:`plan_qinj` reads
   the atom's *a-inj* relation instead of the walk relation: simple
   paths minus the diagonal, or the simple-cycle diagonal of a loop
   atom.  It is exact, so :meth:`QinjPlan.answers` projects it onto the
   head with no joint search and charges one witness per answer, and
   both semantics read one cached simple-path computation.  Membership
   (a binding), Boolean and partial heads, extra variables and
   :meth:`QinjPlan.solutions` still run the search.

The unguided search lives on in ``tests/reference/baselines.py`` as
the baseline ``benchmarks/bench_qinj.py`` times this one against; the
differential matrix checks answers against a brute injective search
(``tests/reference/brute.py``).
"""

from __future__ import annotations

import itertools
import operator

from repro.engine import telemetry
from repro.engine.adjacency import adjacency_index
from repro.engine.analyze import rpq_atom
from repro.engine.cache import compiled_nfa, nfa_record
from repro.engine.join import TupleRelation
from repro.engine.planner import semijoin_reduce
from repro.engine.relations import Relation
from repro.engine.relations import relation_for as default_relation_for
from repro.engine.runtime import checkpoint_site, resolve_context
from repro.graphdb.paths import search
from repro.semantics.base import Semantics

SITE_QINJ_SEARCH = checkpoint_site(
    "qinj.search", "q-inj joint backtracking search (per place() branch)"
)

_PRUNED_EMPTY = telemetry.registry().counter("qinj.pruned_empty")


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------


class QinjPlan:
    """The pruning plan + guided search of one ε-free disjunct.

    Construction fetches the standard relations and runs the semijoin
    reduction (polynomial) but executes **no** joint search —
    :meth:`solutions` / :meth:`answers` do, :meth:`explain` only renders.
    An *RPQ plan* (``rpq``, see :func:`plan_qinj`) holds its atom's
    a-inj relation instead, which :meth:`answers` projects with no
    search at all.
    """

    __slots__ = ("query", "graph", "binding", "empty_reason", "atoms",
                 "nfas", "order", "tables", "domains", "base_sizes", "rpq")

    def __init__(self, query, graph, binding, empty_reason, atoms, nfas,
                 order, tables, domains, base_sizes, rpq=False):
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
        self.rpq = rpq                  # tables/domains are exact a-inj

    # -- execution ------------------------------------------------------

    def answers(self):
        """The disjunct's q-inj answer set: a frozenset of head tuples.

        Runs the search under the exit rule (see :meth:`_search`), so it
        places one witness per answer rather than every solution.  An
        RPQ plan projects its a-inj relation instead and charges one
        witness per answer, as the search would."""
        ctx = resolve_context(None)
        if self.rpq:
            answers = self._rpq_answers()
            ctx.consume_witnesses(len(answers), SITE_QINJ_SEARCH)
            return answers
        head = self.query.head
        return frozenset(
            tuple(mu[v] for v in head)
            for mu in self._search(ctx, by_head=True)
        )

    def _rpq_answers(self):
        """The RPQ plan's relation projected onto the head."""
        (atom,) = self.atoms
        head = self.query.head
        if atom.is_loop():
            return frozenset((node,) * len(head)
                             for node in self.domains[atom.source])
        pairs = self.tables[0].pairs
        if head == (atom.source, atom.target):
            return pairs
        # Both endpoints are in the head, so it has two or more columns
        # and the getter returns tuples.
        return frozenset(map(operator.itemgetter(
            *(0 if v == atom.source else 1 for v in head)), pairs))

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
        yield from self._search(resolve_context(ctx), by_head=False)

    def _search(self, ctx, by_head):
        """The joint backtracking search behind :meth:`solutions`
        (``by_head=False``: every solution) and :meth:`answers`
        (``by_head=True``: one solution per head tuple).

        The exit rule of ``by_head``: the *bind depth* is the search
        level whose atom binds the last head variable (-1 when the
        binding pins the whole head, ``len(order)`` when a head variable
        is in no atom).  At the bind depth each endpoint binding whose
        head tuple is new runs its witness loop only until the first
        witness whose continuation succeeds; a tuple already found is
        skipped.  Every deeper level, and the free-variable scan, is an
        existence check that yields at most one solution.  Each level
        undoes its own ``mu`` / ``used`` / ``internal`` changes before it
        returns, and a level never abandons a suspended inner level: it
        stops only between continuations, on their return values."""
        if self.empty_reason is not None:
            return
        if self.rpq and not self.domains:
            # An RPQ plan's endpoint domains, sorted on the first search.
            (atom,) = self.atoms
            pairs = self.tables[0].pairs
            self.domains = {
                atom.source: tuple(sorted({s for s, _ in pairs}, key=repr)),
                atom.target: tuple(sorted({t for _, t in pairs}, key=repr)),
            }
        graph = self.graph
        atoms, nfas = self.atoms, self.nfas
        tables, domains, order = self.tables, self.domains, self.order
        head = self.query.head
        mu = dict(self.binding)
        used = set(mu.values())
        internal = set()
        ordered_nodes = adjacency_index(graph).nodes_sorted
        # Variables in no atom (and not pinned) are placed last, from
        # leftover nodes; under the exit rule only the head's vary.
        in_atoms = {v for atom in atoms for v in (atom.source, atom.target)}
        free = [v for v in sorted(self.query.variables, key=repr)
                if v not in mu and v not in in_atoms]
        spread = [v for v in free if v in head] if by_head else free
        rest = [v for v in free if v not in spread]
        bind_depth = len(order) + 1     # never reached: full enumeration
        if by_head:
            unbound = set(head) - set(mu)
            bind_depth = -1
            for depth, index in enumerate(order):
                if not unbound:
                    break
                unbound -= {atoms[index].source, atoms[index].target}
                bind_depth = depth
            if unbound:
                bind_depth = len(order)
        # The terminal level (last atom, nothing left to place, past the
        # bind depth) only checks that each target has a witness, under
        # one forbidden set per source, so one search's harvest answers
        # other targets.  Its targets run in descending order: the DFS
        # expands edges in ascending target order, so a search for a
        # late target harvests the earlier ones on its way.
        terminal = by_head and not free and bind_depth < len(order)
        seen = set()                    # head tuples found (by_head)

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
            """Yield the solutions extending μ from ``depth`` on; return
            whether any was yielded."""
            ctx.checkpoint(SITE_QINJ_SEARCH)
            if depth == len(order):
                return (yield from place_free())
            index = order[depth]
            atom, nfa = atoms[index], nfas[index]
            exists = depth > bind_depth
            harvest = terminal and depth == len(order) - 1 \
                and not atom.is_loop() and atom.target not in mu
            found = False
            if atom.source in mu:
                sources = (mu[atom.source],)
            else:
                sources = available(domains.get(atom.source, ()))
            for source in sources:
                undo_source = assign(atom.source, source)
                if undo_source is None:
                    continue
                reached = set() if harvest else None
                if atom.is_loop():
                    targets = (source,)
                elif atom.target in mu:
                    targets = (
                        (mu[atom.target],)
                        if (source, mu[atom.target]) in tables[index]
                        else ()
                    )
                else:
                    targets = available(sorted(
                        tables[index].targets_of(source), key=repr,
                        reverse=harvest,
                    ))
                for target in targets:
                    undo_target = assign(atom.target, target)
                    if undo_target is None:
                        continue
                    if depth != bind_depth:
                        if (yield from witnesses(
                                depth, nfa, source, target, reached)):
                            found = True
                    else:
                        key = tuple(mu[v] for v in head)
                        if key not in seen and (yield from witnesses(
                                depth, nfa, source, target, reached)):
                            seen.add(key)
                            found = True
                    if undo_target:
                        unassign(atom.target)
                    if found and exists:
                        break
                if undo_source:
                    unassign(atom.source)
                if found and exists:
                    break
            return found

        def witnesses(depth, nfa, source, target, reached):
            """Run the continuation under each simple path (simple cycle
            when ``source == target``) that avoids the nodes in use; from
            the bind depth on, stop at the first that succeeds.  At the
            terminal level ``reached`` is the source's harvest: a target
            in it has a witness already, and the continuation reads no
            path, so it runs with no search."""
            if reached is not None and target in reached:
                ctx.consume_witnesses(1, SITE_QINJ_SEARCH)
                return (yield from place(depth + 1))
            forbidden = (used | internal) - {source, target}
            found = False
            for nodes, _labels in search(
                graph, nfa, source, target, forbidden, ctx=ctx,
                reached=reached,
            ):
                ctx.consume_witnesses(1, SITE_QINJ_SEARCH)
                internals = set(nodes[1:-1])
                internal.update(internals)
                if (yield from place(depth + 1)):
                    found = True
                internal.difference_update(internals)
                if found and depth >= bind_depth:
                    break
            return found

        def place_free():
            # Free variables take leftover nodes injectively — the
            # unguided search's scan when every one of them spreads.
            if not free:
                yield dict(mu)
                return True
            leftover = available(ordered_nodes)
            if len(leftover) < len(free):
                return False
            found = False
            for combo in itertools.permutations(leftover, len(spread)):
                assignment = dict(mu)
                assignment.update(zip(spread, combo))
                if rest:
                    assignment.update(zip(
                        rest, (node for node in leftover if node not in combo)
                    ))
                if bind_depth == len(order):
                    key = tuple(assignment[v] for v in head)
                    if key in seen:
                        continue
                    seen.add(key)
                yield assignment
                found = True
            return found

        yield from place(0)

    # -- rendering ------------------------------------------------------

    def explain(self):
        """A human-readable rendering of the pruning plan (no search
        executed) — the CLI's ``--explain`` under q-inj."""
        if self.rpq:
            return self._explain_rpq()
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
            "  witnesses: simple-path DFS per candidate pair, avoiding "
            "nodes already used; answers stop at the first witness "
            "once the head is bound, and the terminal level shares one "
            "harvest per source: a target an earlier DFS from that "
            "source reached needs no DFS of its own"
        )
        return "\n".join(lines)

    def _explain_rpq(self):
        (atom,) = self.atoms
        if atom.is_loop():
            relation = "a-inj simple-cycle diagonal"
            size = f"|simple-cycle diag| = {self.base_sizes[0]}"
        else:
            relation = "a-inj simple-path relation, diagonal removed"
            size = f"|simple-path pairs| = {self.base_sizes[0]}"
        return "\n".join((
            f"disjunct: {self.query}",
            f"semantics: q-inj — RPQ shape: {relation}; no joint search",
            f"  {'loop atom' if atom.is_loop() else 'atom'} 0: {atom}  "
            f"{size}",
            "  answers: the relation projected onto the head, one witness "
            "charged per answer; solutions() runs the guided search over "
            "it",
        ))


def plan_qinj(query, graph, binding=None, relation_for=None):
    """Build the :class:`QinjPlan` of one ε-free disjunct.

    ``binding`` pins head variables to nodes (the membership check).
    ``relation_for(graph, atom, semantics)`` overrides where the
    standard pruning relations come from; the default is
    :func:`repro.engine.relations.relation_for`, which serves q-inj the
    walk relation from the one atom-relation store.

    With no binding, an RPQ-shaped disjunct
    (:func:`~repro.engine.analyze.rpq_atom`) gets an *RPQ plan* (step 5
    of the module docstring), whose exact a-inj table comes from the
    store, not from ``relation_for``.
    """
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
        for index, (atom, nfa) in enumerate(zip(atoms, nfas)):
            if nfa_record(nfa).empty:
                empty_reason = (
                    f"atom {index} ({atom}) denotes the empty language"
                )
                break
    if empty_reason is not None:
        _PRUNED_EMPTY.inc()
        return QinjPlan(query, graph, binding, empty_reason, atoms, nfas,
                        (), {}, {}, base_sizes)
    atom = None if binding else rpq_atom(query)
    if atom is not None:
        return _rpq_plan(query, graph, atom, nfas[0])

    # Lower every atom to its standard over-approximation.
    raw_tables = []       # TupleRelations fed to the reducer
    table_position = {}   # atom index -> position in raw_tables
    unary = {}            # loop-atom diagonals, intersected per variable
    semantics = Semantics.QUERY_INJECTIVE
    for index, (atom, nfa) in enumerate(zip(atoms, nfas)):
        relation = (relation_for(graph, atom, semantics) if relation_for
                    else default_relation_for(graph, atom, semantics, nfa))
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
            pairs = relation.pairs
            table = TupleRelation(
                (atom.source, atom.target),
                itertools.compress(pairs,
                                   itertools.starmap(operator.ne, pairs)),
            )
            base_sizes[index] = len(table)
            table_position[index] = len(raw_tables)
            raw_tables.append(table)
    for variable, allowed in unary.items():
        raw_tables.append(TupleRelation((variable,), zip(allowed)))
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


def _rpq_plan(query, graph, atom, nfa):
    """The RPQ plan of :func:`plan_qinj`: one table (or, for a loop
    atom, one domain) read from the atom's a-inj relation.  A binary
    table's endpoint domains are left to the first search
    (:meth:`QinjPlan._search`): :meth:`QinjPlan.answers` reads none."""
    relation = default_relation_for(graph, atom, Semantics.ATOM_INJECTIVE,
                                    nfa)
    if atom.is_loop():
        diagonal = relation.diagonal()
        return QinjPlan(query, graph, {}, None, (atom,), (nfa,), (0,), {},
                        {atom.source: tuple(sorted(diagonal, key=repr))},
                        {0: len(diagonal)}, rpq=True)
    if nfa.accepts(()):
        # The empty path is the only simple path from a node to itself,
        # and an injective assignment keeps the endpoints apart.
        pairs = relation.pairs
        relation = Relation(itertools.compress(
            pairs, itertools.starmap(operator.ne, pairs)))
    return QinjPlan(query, graph, {}, None, (atom,), (nfa,), (0,),
                    {0: relation}, {}, {0: len(relation)}, rpq=True)
