"""Join planning for the st / a-inj glue: min-degree variable elimination.

An ε-free CRPQ disjunct under standard or atom-injective semantics is a
conjunctive query over the atoms' *pair relations* — the NP-shaped part
is only the glue.  This module plans and executes that glue on one path:

1. **Lowering.**  Every atom fetches its hash-indexed
   :class:`~repro.engine.relations.Relation` (walks under st, simple
   paths under a-inj).  Loop atoms ``x -[L]-> x`` become *unary*
   constraints (the relation's diagonal); the remaining binary atoms
   induce a variable graph whose connected components are planned
   independently and recombined by cartesian product.
2. **Variable elimination** (bucket elimination, Dechter 1999).  Each
   component gets a greedy min-degree order over its non-head
   variables.  Execution runs over the *unreduced* base tables: every
   step joins the tables that mention one variable and projects that
   variable away, the last join fused with the projection
   (``join_project`` never builds the wide intermediate).  On a chain
   this does the work of a join-tree pass; on a cycle it is the
   classic fill-in.
3. **Overflow ladder.**  Every join counts its full row count before
   building a row and raises once it exceeds ``ELIMINATION_ROW_CAP``
   — except the component's last join, whose row count is the answer
   size itself.
   The component's tables are then semijoin-reduced to the
   arc-consistent fixpoint and eliminated again with no elimination
   cap; only the budget's row cap bounds that second run.

Under standard semantics on a graph with no incremental store attached,
lowering starts with **path fusion**
(:func:`_fuse_paths`): ``x -[L1]-> z ∧ z -[L2]-> y`` with ``z`` used
nowhere else becomes ``x -[L1·L2]-> y``, one kernel run instead of two
plus a join.  Walks split at any node, so this is exact under st only.

Query-injective semantics does not join here: its node-disjointness
couples the atoms.  It instead runs the relation-guided joint search of
:mod:`repro.engine.qinj`, which borrows this module's semijoin reducer
to shrink the candidate space before backtracking.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from repro.engine import telemetry
from repro.engine.cache import compiled_nfa, nfa_record
from repro.engine.join import (
    EliminationOverflow,
    TupleRelation,
    filter_rows,
    from_binary,
    join_project,
    joined_variables,
    natural_join,
    project,
    true_relation,
)
from repro.engine.relations import (
    Relation,
    store_attached,
    walk_relation_materialized,
)
from repro.engine.relations import relation_for as default_relation_for
from repro.engine.runtime import checkpoint_site, resolve_context
from repro.queries.atoms import Atom
from repro.regular.syntax import concat
from repro.semantics.base import Semantics

#: Row budget for one join during the first variable elimination.
#: Past it, the component's tables are semijoin-reduced and eliminated
#: again with no cap (tests shrink this to force the ladder).  An
#: explicit :class:`~repro.engine.runtime.ResourceBudget` row cap is
#: checked *first*, in both runs, and raises.
ELIMINATION_ROW_CAP = 200_000

SITE_PLANNER_REDUCE = checkpoint_site(
    "planner.reduce", "semijoin-reduction fixpoint (per table per pass)"
)
SITE_PLANNER_ELIMINATE = checkpoint_site(
    "planner.eliminate", "variable-elimination joins (per intermediate join)"
)

_COMPONENTS_JOIN = telemetry.registry().counter("planner.components.join")
_COMPONENTS_DOMAIN = telemetry.registry().counter("planner.components.domain")
_FUSED = telemetry.registry().counter("planner.fused")
_SEMIJOIN_PASSES = telemetry.registry().counter("planner.semijoin.passes")
_SEMIJOIN_ROWS_REMOVED = telemetry.registry().counter(
    "planner.semijoin.rows_removed"
)


# ----------------------------------------------------------------------
# Semijoin reduction (shared with the q-inj pruning plan)
# ----------------------------------------------------------------------


def semijoin_reduce(tables, ctx=None):
    """Arc-consistent fixpoint: every table keeps only rows whose
    values survive in *every* other table mentioning the variable.
    Returns the reduced tables, or ``None`` when one empties.

    Shared by the overflow ladder here and by the q-inj
    pruning plan (:mod:`repro.engine.qinj`), which reduces the standard
    over-approximation tables before its guided joint search.
    """
    ctx = resolve_context(ctx)
    columns = [None] * len(tables)   # per table: variable -> value set
    changed = True
    while changed:
        changed = False
        _SEMIJOIN_PASSES.inc()
        domains = {}
        for position, table in enumerate(tables):
            ctx.checkpoint(SITE_PLANNER_REDUCE)
            if columns[position] is None:
                columns[position] = {
                    variable: table.column(variable)
                    for variable in table.variables
                }
            for variable, column in columns[position].items():
                domain = domains.get(variable)
                domains[variable] = column if domain is None else (
                    domain & column
                )
        for position, table in enumerate(tables):
            filtered = table
            for variable, column in columns[position].items():
                # The domain is a subset of the column, so equal sizes
                # mean the filter would keep every row.
                if len(domains[variable]) != len(column):
                    filtered = filter_rows(filtered, variable,
                                           domains[variable])
            if len(filtered) != len(table):
                _SEMIJOIN_ROWS_REMOVED.inc(len(table) - len(filtered))
                tables[position] = filtered
                columns[position] = None
                changed = True
            if filtered.is_empty():
                return None
    return tables


# ----------------------------------------------------------------------
# Elimination orders
# ----------------------------------------------------------------------


def min_degree_order(variables, edges, keep=()):
    """Greedy min-degree elimination order over an undirected variable
    graph, skipping ``keep`` (output variables survive elimination).
    Neighbourhoods are connected up as variables are eliminated, the
    standard fill-in simulation."""
    adjacency = {variable: set() for variable in variables}
    for a, b in edges:
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    active = set(variables) - set(keep)
    order = []
    while active:
        variable = min(
            active, key=lambda v: (len(adjacency[v] - {v}), repr(v))
        )
        order.append(variable)
        neighbours = adjacency[variable] - {variable}
        for n in neighbours:
            adjacency[n] |= neighbours - {n}
            adjacency[n].discard(variable)
        for vars_ in adjacency.values():
            vars_.discard(variable)
        active.remove(variable)
    return tuple(order)


# ----------------------------------------------------------------------
# Plan structure
# ----------------------------------------------------------------------


class PlannedAtom:
    """One non-loop atom lowered to its base table."""

    __slots__ = ("index", "atom", "relation")

    def __init__(self, index, atom, relation):
        self.index = index
        self.atom = atom
        self.relation = relation

    @property
    def size(self):
        return len(self.relation)

    def describe(self):
        return f"atom {self.index}: {self.atom}  |R| = {self.size}"


class ComponentPlan:
    """The plan of one connected component of the variable graph."""

    __slots__ = ("kind", "variables", "atoms", "out_vars",
                 "elimination_order")

    JOIN = "join"
    DOMAIN = "domain"  # an isolated variable: a scan over the node set

    def __init__(self, kind, variables, atoms, out_vars,
                 elimination_order=()):
        self.kind = kind
        self.variables = tuple(sorted(variables, key=repr))
        self.atoms = tuple(atoms)
        self.out_vars = tuple(out_vars)
        self.elimination_order = tuple(elimination_order)

    def describe_lines(self):
        variables = ", ".join(str(v) for v in self.variables)
        out = ", ".join(str(v) for v in self.out_vars) or "—"
        if self.kind == self.DOMAIN:
            yield (f"component {{{variables}}}: domain scan "
                   f"(isolated variable; out: {out})")
            return
        order = ", ".join(str(v) for v in self.elimination_order) or "—"
        yield (f"component {{{variables}}}: min-degree elimination "
               f"(order: {order}; out: {out})")
        yield (f"    past {ELIMINATION_ROW_CAP} rows in a join: semijoin "
               f"reduction, then elimination again with no cap")
        for planned in self.atoms:
            yield "    " + planned.describe()


class JoinPlan:
    """A full glue plan for one ε-free disjunct (st / a-inj).

    Construction fetches the atom relations and shapes the plan
    (components, elimination orders) but executes **no** glue —
    ``answers()`` does the joining, ``explain()`` only renders.
    """

    __slots__ = ("query", "graph", "semantics", "components", "unary",
                 "loop_atoms", "binding", "empty_reason", "fusions")

    def __init__(self, query, graph, semantics, components, unary,
                 loop_atoms, binding, empty_reason=None, fusions=()):
        self.query = query
        self.graph = graph
        self.semantics = semantics
        self.components = tuple(components)
        self.unary = unary            # var -> frozenset (loop-atom diagonals)
        self.loop_atoms = tuple(loop_atoms)
        self.binding = binding        # var -> node, from a target tuple
        self.empty_reason = empty_reason  # str | None; set => no glue runs
        self.fusions = tuple(fusions)  # (variable, into, out, fused atom)

    # -- execution ------------------------------------------------------

    def answers(self):
        """The disjunct's answer set: a set of head tuples."""
        if self.empty_reason is not None:
            return frozenset()
        ctx = resolve_context(None)
        result = true_relation()
        for component in self.components:
            rows = self._component_rows(component, ctx)
            if rows.is_empty():
                return frozenset()
            if rows.variables:
                result = natural_join(result, rows, ctx)
        return project(result, self.query.head).rows

    def is_satisfiable(self):
        """True iff the disjunct has at least one answer (under the
        binding, when one is set).

        This is the membership path (`in_evaluation`), so it keeps the
        old glue's early exit: components are checked independently
        and elimination projects every variable away.
        """
        if self.empty_reason is not None:
            return False
        ctx = resolve_context(None)
        return all(
            not self._component_rows(component, ctx,
                                     exists_only=True).is_empty()
            for component in self.components
        )

    # -- per-component execution ---------------------------------------

    def _allowed_values(self, variable):
        """The unary filter for one variable, or ``None`` if unconstrained
        (intersection of loop-atom diagonals and the binding)."""
        allowed = self.unary.get(variable)
        if self.binding is not None and variable in self.binding:
            pinned = frozenset({self.binding[variable]})
            allowed = pinned if allowed is None else (allowed & pinned)
        return allowed

    def _base_table(self, planned):
        atom = planned.atom
        pairs = planned.relation.restrict(
            sources=self._allowed_values(atom.source),
            targets=self._allowed_values(atom.target),
        )
        return from_binary(pairs, atom.source, atom.target)

    def _component_rows(self, component, ctx=None, exists_only=False):
        ctx = resolve_context(ctx)
        if component.kind == ComponentPlan.DOMAIN:
            (variable,) = component.variables
            allowed = self._allowed_values(variable)
            nodes = self.graph.nodes
            values = nodes if allowed is None else (allowed & nodes)
            if exists_only or not component.out_vars:
                return true_relation() if values else TupleRelation((), ())
            return TupleRelation((variable,), ((value,) for value in values))
        tables = [self._base_table(planned) for planned in component.atoms]
        out_vars = () if exists_only else component.out_vars
        if any(table.is_empty() for table in tables):
            return TupleRelation(out_vars, ())
        try:
            return self._variable_elimination(component, tables, out_vars,
                                              ctx, ELIMINATION_ROW_CAP)
        except EliminationOverflow:
            pass
        reduced = semijoin_reduce(tables, ctx)
        if reduced is None:
            return TupleRelation(out_vars, ())
        return self._variable_elimination(component, reduced, out_vars, ctx,
                                          None)

    def _variable_elimination(self, component, tables, out_vars, ctx, cap):
        """Eliminate ``tables`` down to ``out_vars``, every join but the
        component's last held to ``cap`` rows (``None``: no cap)."""

        def join_all(tables, keep_of, last_cap=cap):
            """``π_keep(t0 ⋈ … ⋈ tn)``, ``keep = keep_of(joined
            variables)``, the last join fused with the projection.  Each
            join's *full* row count is held to ``cap``, the last one's
            to ``last_cap``."""
            acc = tables[0]
            for table in tables[1:-1]:
                ctx.checkpoint(SITE_PLANNER_ELIMINATE)
                acc = natural_join(acc, table, ctx, cap=cap)
            if len(tables) == 1:
                return project(acc, keep_of(acc.variables))
            ctx.checkpoint(SITE_PLANNER_ELIMINATE)
            last = tables[-1]
            acc, _ = join_project(acc, last,
                                  keep_of(joined_variables(acc, last)), ctx,
                                  cap=last_cap)
            return acc

        eliminate = list(component.elimination_order)
        # In existence mode the head variables are eliminated too (the
        # planned order omits them), leaving a nullary verdict.
        eliminate += [v for v in component.variables
                      if v not in out_vars and v not in eliminate]
        for variable in eliminate:
            involved = [t for t in tables if variable in t.variables]
            rest = [t for t in tables if variable not in t.variables]
            if not involved:
                continue
            tables = rest + [join_all(involved, lambda joined: tuple(
                v for v in joined if v != variable
            ))]
        # Every variable left is a head variable, so the last join's
        # full row count is the answer size: the cap could only reject
        # an answer that must be built anyway (the budget's row cap
        # still bounds it).  The unit join only gives a lone table a
        # join for that bound to check: in front of more tables it
        # would hold the first one alone to the cap.
        if len(tables) == 1:
            tables = [true_relation()] + tables
        return join_all(tables, lambda joined: out_vars, last_cap=None)

    # -- rendering ------------------------------------------------------

    def explain(self):
        """A human-readable rendering of the plan (no glue executed)."""
        lines = [f"disjunct: {self.query}",
                 f"semantics: {self.semantics}"]
        if self.empty_reason is not None:
            lines.append(f"pruned empty: {self.empty_reason} "
                         f"(no glue executed)")
            return "\n".join(lines)
        if self.binding:
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(self.binding.items(), key=repr)
            )
            lines.append(f"binding: {rendered}")
        for variable, into, out, atom in self.fusions:
            lines.append(f"fused {variable}: atom {into} · atom {out} → "
                         f"atom {into}·{out}: {atom}")
        for index, atom, size in self.loop_atoms:
            lines.append(
                f"loop atom {index}: {atom} → unary |diag| = {size}"
            )
        for component in self.components:
            lines.extend("  " + line for line in component.describe_lines())
        total = sum(planned.size
                    for component in self.components
                    for planned in component.atoms)
        lines.append(f"total base-relation rows: {total}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------


@lru_cache(maxsize=256)
def _fusion_candidates(head, atoms):
    """The non-head variables met by exactly one atom into them, one
    out of them and no loop atom, in fusion order (graph-free, so
    memoized).  A fusion keeps every other variable's in/out atom
    counts, so it never makes a new candidate."""
    into, out, looped = Counter(), Counter(), set()
    for atom in atoms:
        if atom.is_loop():
            looped.add(atom.source)
        else:
            out[atom.source] += 1
            into[atom.target] += 1
    return tuple(sorted(
        (variable for variable in into
         if into[variable] == out[variable] == 1
         and variable not in looped and variable not in head),
        key=repr,
    ))


def _fuse_paths(query, graph, nfas):
    """``(labelled atoms, fusions)`` after st path fusion: ``(label,
    atom, nfa)`` triples (``nfas`` per atom), a fused atom labelled by
    its factors' labels joined with ``·``.  A fusion is skipped when
    both factor relations are materialized at this graph version:
    reading them costs nothing, the fused relation one kernel run."""
    labelled = list(zip(range(len(nfas)), query.atoms, nfas))
    fusions = []
    for variable in _fusion_candidates(query.head, query.atoms):
        touching = [position for position, (_, atom, _) in enumerate(labelled)
                    if variable in (atom.source, atom.target)]
        if len(touching) != 2:
            continue  # an earlier fusion closed a loop onto ``variable``
        first, second = (labelled[position] for position in touching)
        if first[1].source == variable:
            first, second = second, first
        (into_label, into, into_nfa), (out_label, out, out_nfa) = first, second
        if (walk_relation_materialized(graph, into_nfa)
                and walk_relation_materialized(graph, out_nfa)):
            continue
        fused = Atom(into.source, concat(into.language, out.language),
                     out.target)
        labelled[touching[0]] = (f"{into_label}·{out_label}", fused,
                                 compiled_nfa(fused.language))
        del labelled[touching[1]]
        fusions.append((variable, into_label, out_label, fused))
        _FUSED.inc()
    return labelled, fusions


def plan_eps_free(query, graph, semantics, relation_for=None, binding=None):
    """Build a :class:`JoinPlan` for one ε-free disjunct under st / a-inj.

    ``relation_for(graph, atom, semantics)`` overrides where base tables
    come from; the default is :func:`repro.engine.relations.relation_for`
    — the one atom-relation store, which hands out the attached
    incremental store's maintained relation for the walk kinds
    (``"standard"``, and ``"walk-loop"`` for loop atoms).
    ``binding`` pins head variables to nodes (the membership check).
    An explicit ``relation_for`` or an attached incremental store
    turns st path fusion off: a store would maintain each fused
    language as a private relation beside the factors ``evaluate``
    reads.
    """
    # Empty-language short-circuit: an atom denoting ∅ makes the whole
    # disjunct unsatisfiable — return the empty plan *before* fetching
    # or materializing any base table (the analyzer normally drops such
    # disjuncts, but plans built directly, or with analysis disabled,
    # must not pay for joining empty relations either).
    nfas = [compiled_nfa(atom.language) for atom in query.atoms]
    for index, (atom, nfa) in enumerate(zip(query.atoms, nfas)):
        if nfa_record(nfa).empty:
            return JoinPlan(
                query, graph, semantics, (), {}, (), binding,
                empty_reason=(f"atom {index} ({atom}) denotes the "
                              f"empty language"),
            )
    if (relation_for is None and semantics is Semantics.STANDARD
            and not store_attached(graph)):
        labelled, fusions = _fuse_paths(query, graph, nfas)
    else:
        labelled, fusions = zip(range(len(nfas)), query.atoms, nfas), []
    unary = {}
    loop_atoms = []
    binary = []
    for index, atom, nfa in labelled:
        relation = (relation_for(graph, atom, semantics) if relation_for
                    else default_relation_for(graph, atom, semantics, nfa))
        if not isinstance(relation, Relation):
            relation = Relation(relation)
        if atom.is_loop():
            diagonal = relation.diagonal()
            loop_atoms.append((index, atom, len(diagonal)))
            variable = atom.source
            if variable in unary:
                unary[variable] &= diagonal
            else:
                unary[variable] = diagonal
        else:
            binary.append(PlannedAtom(index, atom, relation))

    # Connected components of the variable graph induced by binary atoms.
    variables = query.variables.difference(fusion[0] for fusion in fusions)
    neighbours = {variable: set() for variable in variables}
    for planned in binary:
        neighbours[planned.atom.source].add(planned.atom.target)
        neighbours[planned.atom.target].add(planned.atom.source)
    components = []
    seen = set()
    head_vars = set(query.head)
    for start in sorted(variables, key=repr):
        if start in seen:
            continue
        member_vars = {start}
        frontier = [start]
        while frontier:
            for neighbour in neighbours[frontier.pop()]:
                if neighbour not in member_vars:
                    member_vars.add(neighbour)
                    frontier.append(neighbour)
        seen |= member_vars
        members = [p for p in binary
                   if p.atom.source in member_vars]
        out_vars = tuple(sorted(head_vars & member_vars, key=repr))
        if not members:
            _COMPONENTS_DOMAIN.inc()
            components.append(ComponentPlan(
                ComponentPlan.DOMAIN, member_vars, (), out_vars))
            continue
        order = min_degree_order(
            member_vars,
            [(p.atom.source, p.atom.target) for p in members],
            keep=out_vars,
        )
        _COMPONENTS_JOIN.inc()
        components.append(ComponentPlan(
            ComponentPlan.JOIN, member_vars, members, out_vars,
            elimination_order=order))
    return JoinPlan(query, graph, semantics, components, unary,
                    loop_atoms, binding, fusions=fusions)


def explain_query(query, graph, semantics, relation_for=None):
    """Render the plans of every ε-free disjunct of ``query`` — the
    engine of the CLI's ``--explain`` (computes atom relations for the
    size annotations but never executes any glue or search).

    The first section is the static analyzer's audit trail
    (:mod:`repro.engine.analyze`): every pruned disjunct, every
    sibling-atom rewrite with its language-inclusion verdict, and the
    lints.
    Then, under st / a-inj, one :class:`JoinPlan` rendering per
    *analyzed* disjunct; under q-inj the relation-guided pruning plans
    of :mod:`repro.engine.qinj` (reduced candidate tables, variable
    domains, atom search order)."""
    from repro.engine.analyze import analyze
    from repro.semantics.base import Semantics

    semantics = Semantics.coerce(semantics)
    report = analyze(query, semantics)
    sections = [report.explain()]
    for eps_free in report.disjuncts:
        if semantics is Semantics.QUERY_INJECTIVE:
            # Lazy import: qinj reuses this module's semijoin_reduce.
            from repro.engine.qinj import plan_qinj

            plan = plan_qinj(eps_free, graph, relation_for=relation_for)
        else:
            plan = plan_eps_free(eps_free, graph, semantics,
                                 relation_for=relation_for)
        sections.append(plan.explain())
    return "\n\n".join(sections)
