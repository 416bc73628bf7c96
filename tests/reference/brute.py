"""Brute-force references, one per semantics, that read no engine module.

st joins walk relations (one product BFS per source node); a-inj joins
simple-path relations (simple-cycle diagonals for loop atoms), found by
a DFS that cuts only prefixes whose NFA state set is empty.  Both are
joined by one CSP glue, the matcher over a relation graph.  q-inj tries
every injective assignment of *all* variables and places internally
disjoint atom paths by backtracking (Prop 2.2's injective expansion
homomorphism).  Paths come out in the seed's DFS order (out-edges by
label, then target repr), which the kernel-level tests compare too.
"""

import itertools
from collections import deque

from repro.graphdb.graph import GraphDatabase
from repro.homomorphism.matcher import homomorphisms
from repro.queries.atoms import CQAtom
from repro.queries.cq import CQ
from repro.queries.crpq import union_of
from repro.regular.nfa import NFA
from repro.semantics.base import Semantics


def _nfa(language):
    return language if isinstance(language, NFA) else NFA.from_regex(language)


def _step(nfa, states, label):
    return frozenset(
        nxt for state in states for nxt in nfa.transitions.get((state, label), ())
    )


def _edge_order(graph):
    """``node -> out-edges`` in the seed's DFS order."""
    return {
        node: sorted(graph.out_edges(node),
                     key=lambda e: (repr(e.label), repr(e.target)))
        for node in graph.nodes
    }


# ----------------------------------------------------------------------
# Path enumeration
# ----------------------------------------------------------------------


def _dfs(order, nfa, source, target, forbidden):
    """Nonempty simple paths ``source ⇝ target`` (simple cycles when
    they are equal) avoiding ``forbidden``, only accepted ones under an
    ``nfa``; a prefix whose NFA state set is empty is cut."""
    def extend(node, nodes, labels, states):
        for edge in order[node]:
            nxt = edge.target
            reached = None if nfa is None else _step(nfa, states, edge.label)
            if reached is not None and not reached:
                continue
            path = (nodes + (nxt,), labels + (edge.label,))
            if nxt == target:
                if nfa is None or reached & nfa.finals:
                    yield path
            elif nxt not in forbidden and nxt not in nodes:
                yield from extend(nxt, *path, reached)

    yield from extend(source, (source,), (), None if nfa is None else nfa.initials)


def simple_paths(graph, source, target, forbidden=frozenset(), language=None,
                 order=None):
    """Every simple path ``source ⇝ target`` avoiding ``forbidden`` (with
    a ``language``, the accepted ones).  Callers that search one graph
    many times pass ``order=_edge_order(graph)``."""
    nfa = None if language is None else _nfa(language)
    if source in forbidden or target in forbidden:
        return
    if source != target:
        yield from _dfs(order or _edge_order(graph), nfa, source, target,
                        forbidden)
    elif nfa is None or nfa.accepts(()):
        yield ((source,), ())


def simple_cycles(graph, node, forbidden=frozenset(), language=None,
                  order=None):
    """Every nonempty simple cycle through ``node`` avoiding
    ``forbidden`` (with a ``language``, the accepted ones)."""
    nfa = None if language is None else _nfa(language)
    if node not in forbidden:
        yield from _dfs(order or _edge_order(graph), nfa, node, node,
                        forbidden)


def trails(graph, source, target, forbidden_edges=frozenset(),
           require_nonempty=False, language=None):
    """Every trail ``source ⇝ target`` avoiding ``forbidden_edges``; with
    a ``language``, only the accepted ones.  A trail runs on through
    ``target``."""
    accepts = (lambda labels: True) if language is None else _nfa(language).accepts
    order = _edge_order(graph)
    if source == target and not require_nonempty and accepts(()):
        yield ((source,), ())

    def extend(node, nodes, labels, used):
        for edge in order[node]:
            if edge in used:
                continue
            trail = (nodes + (edge.target,), labels + (edge.label,))
            if edge.target == target and accepts(trail[1]):
                yield trail
            yield from extend(edge.target, *trail, used | {edge})

    yield from extend(source, (source,), (), frozenset(forbidden_edges))


# ----------------------------------------------------------------------
# Atom relations
# ----------------------------------------------------------------------


def walk_pairs(graph, language):
    """``{(u, v)}`` joined by a walk with label in the language: one
    product BFS per source node."""
    nfa = _nfa(language)
    pairs = set()
    for source in graph.nodes:
        seen = set()
        frontier = deque((source, state) for state in nfa.initials)
        while frontier:
            node, state = item = frontier.popleft()
            if item not in seen:
                seen.add(item)
                frontier.extend(
                    (edge.target, nxt) for edge in graph.out_edges(node)
                    for nxt in nfa.transitions.get((state, edge.label), ()))
        pairs |= {(source, node) for node, state in seen if state in nfa.finals}
    return pairs


def simple_path_pairs(graph, language):
    """``{(u, v)}`` joined by a simple path with label in the language."""
    nfa, order = _nfa(language), _edge_order(graph)
    return {
        (source, target)
        for source in graph.nodes
        for target in graph.nodes
        if any(simple_paths(graph, source, target, language=nfa, order=order))
    }


def simple_cycle_nodes(graph, language, include_empty=True):
    """The nodes on a simple cycle with label in the language (every node,
    when ``include_empty`` and ε is accepted)."""
    nfa, order = _nfa(language), _edge_order(graph)
    if include_empty and nfa.accepts(()):
        return set(graph.nodes)
    return {node for node in graph.nodes
            if any(simple_cycles(graph, node, language=nfa, order=order))}


def atom_pairs(graph, atom, semantics):
    """One atom's relation under st (walks) or a-inj (simple paths, or
    the simple-cycle diagonal of a loop atom)."""
    if semantics is Semantics.STANDARD:
        return walk_pairs(graph, atom.language)
    if atom.is_loop():
        return {(node, node) for node in
                simple_cycle_nodes(graph, atom.language, include_empty=False)}
    return simple_path_pairs(graph, atom.language)


# ----------------------------------------------------------------------
# Glue and answers
# ----------------------------------------------------------------------


def csp_glue(query, nodes, pairs_of):
    """The head tuples of one ε-free disjunct whose atoms are read as the
    pair relations ``pairs_of(atom)``: one relation-graph edge label per
    atom, every homomorphism enumerated by the matcher."""
    relation_graph = GraphDatabase(nodes=nodes)
    cq_atoms = []
    for index, atom in enumerate(query.atoms):
        label = ("rel", index)
        for source, target in pairs_of(atom):
            relation_graph.add_edge(source, label, target)
        cq_atoms.append(CQAtom(atom.source, label, atom.target))
    relation_cq = CQ(query.head, cq_atoms, extra_variables=query.variables)
    return {
        tuple(hom[v] for v in query.head)
        for hom in homomorphisms(relation_cq, relation_graph)
    }


def qinj_answers(query, graph):
    """q-inj head tuples of one ε-free disjunct: every injective
    assignment of all variables, then internally disjoint atom paths
    placed by backtracking."""
    variables = sorted(query.variables, key=repr)
    nodes = sorted(graph.nodes, key=repr)
    atoms = list(query.atoms)
    nfas = [_nfa(atom.language) for atom in atoms]
    order = _edge_order(graph)
    results = set()
    for combo in itertools.permutations(nodes, len(variables)):
        mu = dict(zip(variables, combo))
        used = set(combo)

        def place(index, internal_used):
            if index == len(atoms):
                return True
            atom = atoms[index]
            source, target = mu[atom.source], mu[atom.target]
            forbidden = (used | internal_used) - {source, target}
            if atom.is_loop():
                paths = simple_cycles(graph, source, forbidden, nfas[index],
                                      order)
            else:
                paths = simple_paths(graph, source, target, forbidden,
                                     nfas[index], order)
            return any(place(index + 1, internal_used | set(path_nodes[1:-1]))
                       for path_nodes, _labels in paths)

        if place(0, set()):
            results.add(tuple(mu[v] for v in query.head))
    return results


def answers(query, graph, semantics):
    """Q(G) under ``semantics`` for a CRPQ, CQ or union: the union over
    the ε-free disjuncts of §2.1's ε-elimination."""
    semantics = Semantics.coerce(semantics)
    results = set()
    for disjunct in union_of(query):
        for eps_free in disjunct.epsilon_free_union():
            if semantics is Semantics.QUERY_INJECTIVE:
                results |= qinj_answers(eps_free, graph)
            else:
                results |= csp_glue(
                    eps_free, graph.nodes,
                    lambda atom: atom_pairs(graph, atom, semantics),
                )
    return frozenset(results)
