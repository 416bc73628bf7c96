"""Join planning for the st / a-inj glue: GYO, Yannakakis, elimination.

An ε-free CRPQ disjunct under standard or atom-injective semantics is a
conjunctive query over the atoms' *pair relations* — the NP-shaped part
is only the glue, and for the acyclic queries dominating real workloads
the glue is polynomial.  This module plans and executes that glue:

1. **Lowering.**  Every atom fetches its hash-indexed
   :class:`~repro.engine.relations.Relation` (walks under st, simple
   paths under a-inj).  Loop atoms ``x -[L]-> x`` become *unary*
   constraints (the relation's diagonal); the remaining binary atoms
   induce a variable graph whose connected components are planned
   independently and recombined by cartesian product.
2. **Acyclicity test.**  GYO reduction on each component's hyperedges.
   Acyclic components get a join tree and run Yannakakis' algorithm:
   full semijoin reducer (bottom-up + top-down), then a bottom-up hash
   join projecting onto head variables — polynomial, output-sensitive.
3. **Cyclic components** run a semijoin pre-reduction to the
   arc-consistent fixpoint, then greedy min-degree variable elimination
   over the reduced tables.  If an intermediate join exceeds
   ``ELIMINATION_ROW_CAP`` rows the component falls back to the
   existing backtracking matcher (:mod:`repro.homomorphism.matcher`) —
   run only on the *reduced* cyclic residue, never on the full input.

Query-injective semantics does not join here: its node-disjointness
couples the atoms.  It instead runs the relation-guided joint search of
:mod:`repro.engine.qinj`, which borrows this module's semijoin reducer
to shrink the candidate space before backtracking.
"""

from __future__ import annotations

from repro.engine import telemetry
from repro.engine.cache import language_is_empty
from repro.engine.join import (
    TupleRelation,
    filter_rows,
    from_binary,
    natural_join,
    project,
    semijoin,
    true_relation,
)
from repro.engine.relations import Relation
from repro.engine.relations import relation_for as default_relation_for
from repro.engine.runtime import checkpoint_site, resolve_context

#: Row budget for one intermediate relation during variable elimination
#: on a cyclic component.  Past it, the component falls back to the
#: backtracking matcher over the semijoin-reduced tables (tests shrink
#: this to force the fallback).  An explicit
#: :class:`~repro.engine.runtime.ResourceBudget` row cap is checked
#: *first* and raises instead of falling back.
ELIMINATION_ROW_CAP = 200_000

SITE_PLANNER_REDUCE = checkpoint_site(
    "planner.reduce", "semijoin-reduction fixpoint (per table per pass)"
)
SITE_PLANNER_YANNAKAKIS = checkpoint_site(
    "planner.yannakakis", "Yannakakis semijoin/join passes (per tree edge)"
)
SITE_PLANNER_ELIMINATE = checkpoint_site(
    "planner.eliminate", "variable-elimination joins (per intermediate join)"
)

_COMPONENTS_ACYCLIC = telemetry.registry().counter("planner.components.acyclic")
_COMPONENTS_CYCLIC = telemetry.registry().counter("planner.components.cyclic")
_COMPONENTS_DOMAIN = telemetry.registry().counter("planner.components.domain")
_MATCHER_FALLBACKS = telemetry.registry().counter("planner.fallback.matcher")
_SEMIJOIN_PASSES = telemetry.registry().counter("planner.semijoin.passes")
_SEMIJOIN_ROWS_REMOVED = telemetry.registry().counter(
    "planner.semijoin.rows_removed"
)


class EliminationOverflow(Exception):
    """Internal signal: a variable-elimination join outgrew the cap."""


# ----------------------------------------------------------------------
# Semijoin reduction (shared with the q-inj pruning plan)
# ----------------------------------------------------------------------


def semijoin_reduce(tables, ctx=None):
    """Arc-consistent fixpoint: every table keeps only rows whose
    values survive in *every* other table mentioning the variable.
    Returns the reduced tables, or ``None`` when one empties.

    Shared by the cyclic-component pipeline here and by the q-inj
    pruning plan (:mod:`repro.engine.qinj`), which reduces the standard
    over-approximation tables before its guided joint search.
    """
    ctx = resolve_context(ctx)
    changed = True
    while changed:
        changed = False
        _SEMIJOIN_PASSES.inc()
        domains = {}
        for table in tables:
            ctx.checkpoint(SITE_PLANNER_REDUCE)
            for variable in table.variables:
                column = table.column(variable)
                if variable in domains:
                    domains[variable] &= column
                else:
                    domains[variable] = column
        for position, table in enumerate(tables):
            filtered = table
            for variable in table.variables:
                filtered = filter_rows(filtered, variable,
                                       domains[variable])
            if len(filtered) != len(table):
                _SEMIJOIN_ROWS_REMOVED.inc(len(table) - len(filtered))
                tables[position] = filtered
                changed = True
            if filtered.is_empty():
                return None
    return tables


# ----------------------------------------------------------------------
# GYO reduction and elimination orders
# ----------------------------------------------------------------------


def gyo_reduce(hyperedges):
    """GYO-reduce ``{edge_id: frozenset(vars)}``.

    Returns ``(acyclic, parent, root)`` where ``parent`` maps each
    removed ear to the witness edge containing it — the join tree when
    the reduction succeeds (``acyclic`` iff at most one edge survives).
    Deterministic: ids are visited in sorted order.
    """
    remaining = {eid: set(vars_) for eid, vars_ in hyperedges.items()}
    parent = {}
    while len(remaining) > 1:
        counts = {}
        for vars_ in remaining.values():
            for variable in vars_:
                counts[variable] = counts.get(variable, 0) + 1
        shrunk = False
        for vars_ in remaining.values():
            lonely = {v for v in vars_ if counts[v] == 1}
            if lonely:
                vars_ -= lonely
                shrunk = True
        ids = sorted(remaining)
        removed = None
        for eid in ids:
            for fid in ids:
                if fid != eid and remaining[eid] <= remaining[fid]:
                    parent[eid] = fid
                    removed = eid
                    break
            if removed is not None:
                break
        if removed is not None:
            del remaining[removed]
        elif not shrunk:
            return False, parent, None
    root = next(iter(remaining)) if remaining else None
    return True, parent, root


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

    __slots__ = ("kind", "variables", "atoms", "out_vars", "parent",
                 "root", "children", "elimination_order")

    ACYCLIC = "acyclic"
    CYCLIC = "cyclic"
    DOMAIN = "domain"  # an isolated variable: a scan over the node set

    def __init__(self, kind, variables, atoms, out_vars, parent=None,
                 root=None, elimination_order=()):
        self.kind = kind
        self.variables = tuple(sorted(variables, key=repr))
        self.atoms = tuple(atoms)
        self.out_vars = tuple(out_vars)
        self.parent = dict(parent or {})
        self.root = root
        children = {planned.index: [] for planned in atoms}
        for child, parent_id in self.parent.items():
            children[parent_id].append(child)
        self.children = {
            node: tuple(sorted(ids)) for node, ids in children.items()
        }
        self.elimination_order = tuple(elimination_order)

    def describe_lines(self):
        variables = ", ".join(str(v) for v in self.variables)
        out = ", ".join(str(v) for v in self.out_vars) or "—"
        if self.kind == self.DOMAIN:
            yield (f"component {{{variables}}}: domain scan "
                   f"(isolated variable; out: {out})")
            return
        if self.kind == self.ACYCLIC:
            yield (f"component {{{variables}}}: acyclic — Yannakakis "
                   f"semijoin pipeline ({len(self.atoms)} relation(s); "
                   f"out: {out})")
            by_index = {planned.index: planned for planned in self.atoms}

            def render(node, depth):
                marker = "(root) " if depth == 0 else ""
                yield "  " * depth + "  " + marker + by_index[node].describe()
                for child in self.children.get(node, ()):
                    yield from render(child, depth + 1)

            yield "  join tree:"
            yield from render(self.root, 0)
            return
        order = ", ".join(str(v) for v in self.elimination_order) or "—"
        yield (f"component {{{variables}}}: cyclic — semijoin "
               f"pre-reduction + min-degree elimination (order: {order}; "
               f"matcher fallback past {ELIMINATION_ROW_CAP} rows; "
               f"out: {out})")
        for planned in self.atoms:
            yield "    " + planned.describe()


class JoinPlan:
    """A full glue plan for one ε-free disjunct (st / a-inj).

    Construction fetches the atom relations and shapes the plan (GYO,
    join trees, elimination orders) but executes **no** glue —
    ``answers()`` does the joining, ``explain()`` only renders.
    """

    __slots__ = ("query", "graph", "semantics", "components", "unary",
                 "loop_atoms", "binding", "empty_reason")

    def __init__(self, query, graph, semantics, components, unary,
                 loop_atoms, binding, empty_reason=None):
        self.query = query
        self.graph = graph
        self.semantics = semantics
        self.components = tuple(components)
        self.unary = unary            # var -> frozenset (loop-atom diagonals)
        self.loop_atoms = tuple(loop_atoms)
        self.binding = binding        # var -> node, from a target tuple
        self.empty_reason = empty_reason  # str | None; set => no glue runs

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
        positions = {v: i for i, v in enumerate(result.variables)}
        head = self.query.head
        return frozenset(
            tuple(row[positions[v]] for v in head) for row in result.rows
        )

    def is_satisfiable(self):
        """True iff the disjunct has at least one answer (under the
        binding, when one is set).

        This is the membership path (`in_evaluation`), so it keeps the
        old glue's early exit: components are checked independently, the
        Yannakakis check stops after the upward semijoin pass (root
        non-emptiness already decides the join), cyclic elimination
        projects everything away, and the matcher fallback stops at its
        first homomorphism.
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
        tables = {
            planned.index: self._base_table(planned)
            for planned in component.atoms
        }
        if any(table.is_empty() for table in tables.values()):
            return TupleRelation(component.out_vars, ())
        if component.kind == ComponentPlan.ACYCLIC:
            return self._yannakakis(component, tables, ctx, exists_only)
        return self._eliminate_cyclic(component, tables, ctx, exists_only)

    def _yannakakis(self, component, tables, ctx=None, exists_only=False):
        """Full reducer + bottom-up join over the GYO join tree."""
        ctx = resolve_context(ctx)
        post_order = []
        stack = [component.root]
        while stack:  # iterative DFS; reversed visit order is post-order
            node = stack.pop()
            post_order.append(node)
            stack.extend(component.children.get(node, ()))
        post_order.reverse()

        # Upward semijoins: children reduce parents, leaves first.
        for node in post_order:
            if node == component.root:
                continue
            ctx.checkpoint(SITE_PLANNER_YANNAKAKIS)
            parent_id = component.parent[node]
            tables[parent_id] = semijoin(tables[parent_id], tables[node])
            if tables[parent_id].is_empty():
                return TupleRelation(component.out_vars, ())
        if exists_only or not component.out_vars:
            # Root non-emptiness already decides satisfiability.
            return true_relation()
        # Downward semijoins: parents reduce children, root first.
        for node in reversed(post_order):
            for child in component.children.get(node, ()):
                ctx.checkpoint(SITE_PLANNER_YANNAKAKIS)
                tables[child] = semijoin(tables[child], tables[node])
        # Bottom-up join, projecting onto head variables + connectors.
        out_set = set(component.out_vars)
        results = {}
        for node in post_order:
            acc = tables[node]
            for child in component.children.get(node, ()):
                ctx.checkpoint(SITE_PLANNER_YANNAKAKIS)
                acc = natural_join(acc, results[child], ctx)
            if node == component.root:
                keep = component.out_vars
            else:
                connector = set(acc.variables) & {
                    v
                    for planned in component.atoms
                    if planned.index == component.parent[node]
                    for v in (planned.atom.source, planned.atom.target)
                }
                keep = tuple(
                    v for v in acc.variables if v in out_set or v in connector
                )
            results[node] = project(acc, keep)
        return results[component.root]

    def _eliminate_cyclic(self, component, tables, ctx=None,
                          exists_only=False):
        ctx = resolve_context(ctx)
        reduced = semijoin_reduce(list(tables.values()), ctx)
        if reduced is None:
            return TupleRelation(component.out_vars, ())
        out_vars = () if exists_only else component.out_vars
        try:
            return self._variable_elimination(component, list(reduced),
                                              out_vars, ctx)
        except EliminationOverflow:
            return self._matcher_fallback(component, reduced, out_vars,
                                          exists_only=exists_only)

    def _variable_elimination(self, component, tables, out_vars, ctx=None):
        ctx = resolve_context(ctx)
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
            acc = involved[0]
            for table in involved[1:]:
                ctx.checkpoint(SITE_PLANNER_ELIMINATE)
                acc = natural_join(acc, table, ctx)
                if len(acc) > ELIMINATION_ROW_CAP:
                    raise EliminationOverflow
            keep = tuple(v for v in acc.variables if v != variable)
            tables = rest + [project(acc, keep)]
        acc = true_relation()
        for table in tables:
            ctx.checkpoint(SITE_PLANNER_ELIMINATE)
            acc = natural_join(acc, table, ctx)
            if len(acc) > ELIMINATION_ROW_CAP:
                raise EliminationOverflow
        return project(acc, out_vars)

    def _matcher_fallback(self, component, reduced_tables, out_vars,
                          exists_only=False):
        """The pre-join-engine CSP glue, run only on the semijoin-reduced
        residue of a cyclic component (first-witness exit in existence
        mode)."""
        _MATCHER_FALLBACKS.inc()
        from repro.graphdb.graph import GraphDatabase
        from repro.homomorphism.matcher import homomorphisms
        from repro.queries.atoms import CQAtom
        from repro.queries.cq import CQ

        relation_graph = GraphDatabase()
        cq_atoms = []
        for planned, table in zip(component.atoms, reduced_tables):
            label = ("rel", planned.index)
            source_var, target_var = table.variables
            for source, target in table.rows:
                relation_graph.add_edge(source, label, target)
            cq_atoms.append(CQAtom(source_var, label, target_var))
        residue_cq = CQ(out_vars, cq_atoms,
                        extra_variables=component.variables)
        homs = homomorphisms(residue_cq, relation_graph)
        if exists_only:
            for _hom in homs:
                return true_relation()
            return TupleRelation((), ())
        return TupleRelation(
            out_vars,
            (tuple(hom[v] for v in out_vars) for hom in homs),
        )

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


def plan_eps_free(query, graph, semantics, relation_for=None, binding=None):
    """Build a :class:`JoinPlan` for one ε-free disjunct under st / a-inj.

    ``relation_for(graph, atom, semantics)`` overrides where base tables
    come from; the default is :func:`repro.engine.relations.relation_for`
    — the one atom-relation store, which hands out the attached
    incremental store's maintained relation for standard-kind tables.
    ``binding`` pins head variables to nodes (the membership check).
    """
    relation_for = relation_for or default_relation_for
    # Empty-language short-circuit: an atom denoting ∅ makes the whole
    # disjunct unsatisfiable — return the empty plan *before* fetching
    # or materializing any base table (the analyzer normally drops such
    # disjuncts, but plans built directly, or with analysis disabled,
    # must not pay for joining empty relations either).
    for index, atom in enumerate(query.atoms):
        if language_is_empty(atom.language):
            return JoinPlan(
                query, graph, semantics, (), {}, (), binding,
                empty_reason=(f"atom {index} ({atom}) denotes the "
                              f"empty language"),
            )
    unary = {}
    loop_atoms = []
    binary = []
    for index, atom in enumerate(query.atoms):
        relation = relation_for(graph, atom, semantics)
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
    neighbours = {variable: set() for variable in query.variables}
    for planned in binary:
        neighbours[planned.atom.source].add(planned.atom.target)
        neighbours[planned.atom.target].add(planned.atom.source)
    components = []
    seen = set()
    head_vars = set(query.head)
    for start in sorted(query.variables, key=repr):
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
        hyperedges = {
            planned.index: frozenset((planned.atom.source,
                                      planned.atom.target))
            for planned in members
        }
        acyclic, parent, root = gyo_reduce(hyperedges)
        if acyclic:
            _COMPONENTS_ACYCLIC.inc()
            components.append(ComponentPlan(
                ComponentPlan.ACYCLIC, member_vars, members, out_vars,
                parent=parent, root=root))
        else:
            order = min_degree_order(
                member_vars,
                [(p.atom.source, p.atom.target) for p in members],
                keep=out_vars,
            )
            _COMPONENTS_CYCLIC.inc()
            components.append(ComponentPlan(
                ComponentPlan.CYCLIC, member_vars, members, out_vars,
                elimination_order=order))
    return JoinPlan(query, graph, semantics, components, unary,
                    loop_atoms, binding)


def explain_query(query, graph, semantics, relation_for=None):
    """Render the plans of every ε-free disjunct of ``query`` — the
    engine of the CLI's ``--explain`` (computes atom relations for the
    size annotations but never executes any glue or search).

    The first section is the static analyzer's audit trail
    (:mod:`repro.engine.analyze`): every pruned disjunct, every
    certified rewrite with its containment verdict, and the lints.
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
