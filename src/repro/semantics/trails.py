"""Trail (edge-injective) semantics — the §7 extension.

The paper's discussion (§7) points out that reversing the roles of nodes
and edges in the two injective semantics yields *atom-edge-injective* and
*query-edge-injective* semantics, built on trails (paths with no repeated
edges) instead of simple paths; atom-level trail semantics is what Neo4j's
Cypher evaluates by default.  This module implements both:

- ``ATOM_TRAIL``: every atom maps to a trail (closed trail for loop
  atoms); different atoms may share edges;
- ``QUERY_TRAIL``: additionally, no edge is used by two different atoms
  (an edge-injective homomorphism from an expansion: distinct expansion
  atoms land on distinct database edges; variables may still collide).

The expected inclusions, property-tested in the suite:

    Q(G)query-trail ⊆ Q(G)atom-trail ⊆ Q(G)st
    Q(G)a-inj ⊆ Q(G)atom-trail

Subtlety (its own regression test): ``q-inj ⊆ query-trail`` holds for
queries without *parallel atoms* (two atoms between the same variable
pair), but fails in general — under q-inj two parallel atoms may map onto
the *same* single edge (no internal nodes are shared, and the expansion's
duplicate atoms collapse by set semantics), while the path-based
edge-disjointness implemented here rejects exactly that sharing.  The
paper's §7 leaves the edge-injective definitions implicit; we implement
the path-based reading and document the divergence.

Every trail search here is the edge-injective mode of the one
path-search kernel, :func:`repro.graphdb.paths.search`: an explicit
stack (trails can be as long as |E|), bitmask NFA states, the
co-reachability pruning of the simple-path searches wherever the
target is fixed (a trail is a walk, so the pruning stays sound), and a
``trails.dfs`` checkpoint per edge considered, so trail evaluation obeys
timeouts, budgets and cancellation like every other engine loop.
"""

from __future__ import annotations

import enum
import itertools

from repro.engine.cache import compiled_nfa
from repro.engine.planner import plan_eps_free
from repro.graphdb.graph import Edge
from repro.graphdb.paths import ANY_TARGET, Path, accepts_empty, search
from repro.queries.crpq import eps_free_disjuncts


class TrailSemantics(enum.Enum):
    """The two edge-injective semantics of the §7 discussion."""

    ATOM_TRAIL = "atom-trail"
    QUERY_TRAIL = "query-trail"

    def __str__(self):
        return self.value

    @staticmethod
    def coerce(value):
        if isinstance(value, TrailSemantics):
            return value
        for semantics in TrailSemantics:
            if value == semantics.value:
                return semantics
        raise ValueError(f"unknown trail semantics: {value!r}")


def trails(graph, source, target, language=None, forbidden_edges=frozenset(),
           require_nonempty=False, ctx=None):
    """Yield trails source ⇝ target (no repeated edges), optionally
    label-constrained and avoiding ``forbidden_edges``.

    Unlike simple paths, a trail may revisit *nodes*; the search state
    therefore tracks the set of used edges.  Closed trails (source ==
    target, length ≥ 1) are produced too; the empty trail is yielded for
    source == target when ε is accepted and ``require_nonempty`` is
    false.  The edge-injective mode of the path-search kernel
    (:func:`repro.graphdb.paths.search`).
    """
    if source == target and not require_nonempty and accepts_empty(language):
        yield Path((source,), ())
    for nodes, labels in search(graph, language, source, target,
                                forbidden_edges, edge_injective=True, ctx=ctx):
        yield Path(tuple(nodes), tuple(labels))


def trail_pairs(graph, language):
    """{(u, v) : some trail u ⇝ v has label in L} — the atom relation of
    atom-trail semantics for non-loop atoms.

    One DFS per source node collects every endpoint reachable by an
    accepted trail (cheaper than a per-target search).
    """
    pairs = set()
    for source in sorted(graph.nodes, key=repr):
        for target in _reachable_trail_targets(graph, source, language):
            pairs.add((source, target))
    return pairs


def _reachable_trail_targets(graph, source, language, ctx=None):
    """All v such that a trail from ``source`` to v spells a word in L."""
    found = {source} if accepts_empty(language) else set()
    for nodes, _labels in search(graph, language, source, ANY_TARGET,
                                 edge_injective=True, ctx=ctx):
        found.add(nodes[-1])
    return found


def closed_trail_nodes(graph, language):
    """{v : some nonempty closed trail at v has label in L} — the atom
    relation of atom-trail semantics for loop atoms (x -[L]-> x)."""
    nfa = compiled_nfa(language)
    return {
        node
        for node in sorted(graph.nodes, key=repr)
        if any(search(graph, nfa, node, node, edge_injective=True))
    }


def evaluate_trails(query, graph, semantics):
    """Evaluate Q(G) under atom-trail or query-trail semantics.

    Accepts CRPQs/CQs/unions; ε-containing languages are handled by the
    same ε-elimination as the node-injective semantics (§2.1).
    """
    semantics = TrailSemantics.coerce(semantics)
    results = set()
    for eps_free in eps_free_disjuncts(query):
        if semantics is TrailSemantics.ATOM_TRAIL:
            results |= _evaluate_atom_trail(eps_free, graph)
        else:
            results |= {
                tuple(mu[v] for v in eps_free.head)
                for mu in _query_trail_solutions(eps_free, graph)
            }
    return frozenset(results)


def _evaluate_atom_trail(query, graph):
    """Atom-trail evaluation: per-atom trail relations glued by the one
    join planner (atoms may share edges)."""

    def trail_relation(_graph, atom, _semantics):
        if atom.is_loop():
            return {(node, node)
                    for node in closed_trail_nodes(graph, atom.language)}
        # Note the diagonal stays in: two distinct variables may map to
        # the same node via a nonempty *closed* trail — this is a genuine
        # difference from simple-path semantics, where only the empty
        # path connects a node to itself.
        return trail_pairs(graph, atom.language)

    return plan_eps_free(query, graph, TrailSemantics.ATOM_TRAIL,
                         relation_for=trail_relation).answers()


def _query_trail_solutions(query, graph, initial_mu=None):
    """Query-trail evaluation: joint backtracking with a shared used-edge
    set.  Variables may collide (edge-injectivity only)."""
    mu = dict(initial_mu or {})
    if any(node not in graph.nodes for node in mu.values()):
        return
    atoms = list(query.atoms)
    nfas = [compiled_nfa(atom.language) for atom in atoms]
    used_edges = set()

    def node_candidates(variable):
        if variable in mu:
            return (mu[variable],)
        return tuple(sorted(graph.nodes, key=repr))

    def place_atom(index):
        if index == len(atoms):
            free = [v for v in sorted(query.variables, key=repr) if v not in mu]
            if not free:
                yield dict(mu)
                return
            for combo in itertools.product(sorted(graph.nodes, key=repr),
                                           repeat=len(free)):
                assignment = dict(mu)
                assignment.update(zip(free, combo))
                yield assignment
            return
        atom = atoms[index]
        nfa = nfas[index]
        for source in node_candidates(atom.source):
            source_new = atom.source not in mu
            mu[atom.source] = source
            targets = (
                (source,) if atom.is_loop() else node_candidates(atom.target)
            )
            for target in targets:
                if atom.target in mu and mu[atom.target] != target:
                    continue
                had_target = atom.target in mu
                mu[atom.target] = target
                require_nonempty = atom.is_loop()
                for path in trails(graph, source, target, language=nfa,
                                   forbidden_edges=used_edges,
                                   require_nonempty=require_nonempty):
                    path_edges = {
                        Edge(*step) for step in
                        zip(path.nodes, path.labels, path.nodes[1:])
                    }
                    used_edges.update(path_edges)
                    yield from place_atom(index + 1)
                    used_edges.difference_update(path_edges)
                if not had_target:
                    del mu[atom.target]
            if source_new and atom.source in mu:
                del mu[atom.source]

    yield from place_atom(0)
