"""RPQ-level evaluation primitives.

- :func:`standard_pairs` — all pairs connected by a walk whose label is in
  L (single-sweep product reachability; the classical NL algorithm of
  Mendelzon & Wood ran one BFS per source — see
  :mod:`repro.engine.product` for the replacement).
- :func:`simple_path_pairs` — pairs connected by a *simple path* with label
  in L (NP-hard in general, Mendelzon & Wood [26]; backtracking search).
- :func:`simple_cycle_nodes` — nodes on a simple cycle with label in L.

These are the atom-level building blocks of the three CRPQ semantics.
Each returns the pair set of one entry of the engine's atom-relation
store (:func:`repro.engine.relations.atom_relation`), so evaluating
several queries (or the same query repeatedly) against one graph pays
for each distinct atom language once.
"""

from __future__ import annotations

from repro.engine.cache import compiled_nfa
from repro.engine.relations import atom_relation
from repro.semantics.base import Semantics


def standard_pairs(graph, language):
    """Return {(u, v) : some walk u ⇝ v has label in L, with the empty walk
    allowed only when u = v and ε ∈ L}.

    One sweep of the (node, NFA state) product graph: SCC condensation
    plus bitmask source propagation (:mod:`repro.engine.product`),
    cached per graph version and language.
    """
    return atom_relation(graph, language, "standard").pairs


def simple_path_pairs(graph, language):
    """Return {(u, v) : some *simple path* u ⇝ v has label in L}.

    For u = v only the empty path is simple, so (u, u) appears iff ε ∈ L.
    Candidate pairs are first filtered with the (polynomial) walk
    relation — a simple path is a walk.
    """
    return atom_relation(graph, language, "simple-path").pairs


def simple_cycle_nodes(graph, language, include_empty=True):
    """Return {v : some simple cycle at v has label in L}.

    The empty cycle (label ε) counts when ``include_empty`` and ε ∈ L —
    this is how a loop atom x -[L]-> x with ε ∈ L is satisfied trivially
    (at every node).
    """
    if include_empty and compiled_nfa(language).accepts(()):
        return frozenset(graph.nodes)
    return atom_relation(graph, language, "simple-cycle-nonempty").diagonal()


def atom_relation_kind(atom, semantics):
    """The relation kind one atom needs under ``semantics``: the single
    source of the semantics→relation dispatch shared by the per-query
    relational encoding and the batch executor's job planning.

    Returns ``None`` for query-injective semantics (its joint search
    consumes no precomputable pair relation).
    """
    if semantics is Semantics.QUERY_INJECTIVE:
        return None
    if semantics is Semantics.STANDARD:
        return "standard"
    return "simple-cycle-nonempty" if atom.is_loop() else "simple-path"


def relation_by_kind(graph, language, kind):
    """The pair relation named by :func:`atom_relation_kind` (loop-atom
    cycle relations are ``(v, v)`` pairs)."""
    return atom_relation(graph, language, kind).pairs


def rpq_evaluate(graph, language, semantics):
    """Evaluate the RPQ x -[L]-> y under the given semantics name.

    Standard semantics uses walks; both injective semantics coincide with
    simple-path semantics at the RPQ level (a single atom).
    """
    semantics = Semantics.coerce(semantics)
    if semantics is Semantics.STANDARD:
        return standard_pairs(graph, language)
    return simple_path_pairs(graph, language)
