"""Prop 3.1: subgraph isomorphism reduces to evaluation under injective
semantics.

A Boolean CQ Q maps *injectively* to G iff Q(G)q-inj ≠ ∅ iff
Q+(G+)a-inj ≠ ∅, where G+ [resp. Q+] adds, for a fresh symbol R, an R-edge
between every (ordered) pair of distinct vertices [resp. an R-atom between
every pair of distinct variables].  The R-completion forces the
atom-injective homomorphism to be globally injective.
"""

from __future__ import annotations

import itertools

from repro.graphdb.graph import GraphDatabase
from repro.queries.atoms import CQAtom
from repro.queries.cq import CQ

FRESH_R = "__R__"


def r_complete_graph(graph, fresh=FRESH_R):
    """G+: add a ``fresh``-labeled edge between every ordered pair of
    distinct nodes of G."""
    completed = graph.copy()
    for u, v in itertools.permutations(sorted(graph.nodes, key=repr), 2):
        completed.add_edge(u, fresh, v)
    return completed


def r_complete_query(cq, fresh=FRESH_R):
    """Q+: add a ``fresh``-labeled atom between every ordered pair of
    distinct variables of Q."""
    atoms = list(cq.atoms)
    for x, y in itertools.permutations(sorted(cq.variables, key=repr), 2):
        atoms.append(CQAtom(x, fresh, y))
    return CQ(cq.head, atoms, extra_variables=cq.variables)


def subgraph_iso_to_qinj_instance(pattern_cq, graph):
    """Return the q-inj evaluation instance equivalent to 'pattern maps
    injectively into graph': the pair (Q, G) itself — Q(G)q-inj ≠ ∅ iff
    the injective homomorphism exists (for Boolean Q)."""
    return pattern_cq, graph


def subgraph_iso_to_ainj_instance(pattern_cq, graph):
    """Return (Q+, G+): Q+(G+)a-inj ≠ ∅ iff pattern maps injectively into
    graph (Prop 3.1's reduction for atom-injective semantics)."""
    return r_complete_query(pattern_cq), r_complete_graph(graph)


def clique_cq(size, label="E", prefix="v"):
    """The Boolean CQ of the ``size``-clique: both edge directions between
    every pair of distinct variables (the paper's symmetric encoding)."""
    variables = [f"{prefix}{i}" for i in range(size)]
    atoms = []
    for x, y in itertools.combinations(variables, 2):
        atoms.append(CQAtom(x, label, y))
        atoms.append(CQAtom(y, label, x))
    return CQ((), atoms, extra_variables=variables)


def symmetric_graph_db(undirected_edges, label="E"):
    """Encode an undirected graph as a graph database (both directions)."""
    graph = GraphDatabase()
    for u, v in undirected_edges:
        graph.add_edge(u, label, v)
        graph.add_edge(v, label, u)
    return graph
