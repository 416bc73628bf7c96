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
from repro.engine.relations import atom_relation, store_attached
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
    relational encoding, the q-inj plan (which asks for the st kind,
    or the a-inj kind for an RPQ-shaped disjunct) and the batch
    executor's job planning.

    A loop atom ``x -[L]-> x`` is a unary constraint, so its kind is a
    diagonal under both: ``"walk-loop"`` (the nodes with a closed walk
    labelled in L) under st, ``"simple-cycle-nonempty"`` under a-inj.
    Other atoms need ``"standard"`` (walks) under st and
    ``"simple-path"`` under a-inj.  ``semantics`` may be a
    :class:`Semantics` or one of its names.  Query-injective semantics
    raises ``ValueError``: it couples the atoms of a query, so one atom
    has no q-inj relation of its own (the q-inj plan asks for the st or
    a-inj kind, see :mod:`repro.engine.qinj`).
    """
    semantics = Semantics.coerce(semantics)
    if semantics is Semantics.QUERY_INJECTIVE:
        raise ValueError(
            "one atom has no q-inj pair relation outside its query: "
            "q-inj couples the atoms' witness paths"
        )
    if semantics is Semantics.STANDARD:
        return "walk-loop" if atom.is_loop() else "standard"
    return "simple-cycle-nonempty" if atom.is_loop() else "simple-path"


def relation_by_kind(graph, language, kind):
    """The pair relation named by :func:`atom_relation_kind`; loop-atom
    kinds give their ``(v, v)`` pairs only, in every cache state."""
    relation = atom_relation(graph, language, kind)
    if kind == "walk-loop" and store_attached(graph):
        # The store serves a loop atom its whole maintained walk relation.
        return frozenset((node, node) for node in relation.diagonal())
    return relation.pairs


def rpq_evaluate(graph, language, semantics):
    """Evaluate the RPQ x -[L]-> y under the given semantics name.

    Standard semantics uses walks; both injective semantics coincide with
    simple-path semantics at the RPQ level (a single atom).
    """
    semantics = Semantics.coerce(semantics)
    if semantics is Semantics.STANDARD:
        return standard_pairs(graph, language)
    return simple_path_pairs(graph, language)
