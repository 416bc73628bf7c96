"""The pre-engine evaluation paths ``benchmarks/bench_join.py`` and
``benchmarks/bench_qinj.py`` time the join planner and the guided q-inj
search against.  They read NFAs and atom relations from the engine's
caches, so each benchmark measures only the glue, or the pruning.
"""

import itertools

from repro.engine.adjacency import adjacency_index
from repro.engine.cache import compiled_nfa
from repro.graphdb.paths import simple_cycles_through, simple_paths
from repro.queries.crpq import union_of
from repro.semantics.base import Semantics
from repro.semantics.evaluation import atom_pairs

from .brute import csp_glue


def csp_glue_evaluate(query, graph, semantics):
    """The pre-join-engine st / a-inj evaluation path: the CSP glue over
    the engine's atom relations."""
    semantics = Semantics.coerce(semantics)
    if semantics is Semantics.QUERY_INJECTIVE:
        raise ValueError("the CSP-glue baseline only exists for st / a-inj")
    results = set()
    for disjunct in union_of(query):
        for eps_free in disjunct.epsilon_free_union():
            results |= csp_glue(
                eps_free, graph.nodes,
                lambda atom: atom_pairs(graph, atom, semantics),
            )
    return frozenset(results)


def unguided_qinj_evaluate(query, graph):
    """The seed-era q-inj evaluation path: every ε-free disjunct runs the
    unguided joint search (:func:`_qinj_solutions`), with full node
    scans per variable."""
    results = set()
    for disjunct in union_of(query):
        for eps_free in disjunct.epsilon_free_union():
            results |= {
                tuple(mu[v] for v in eps_free.head)
                for mu in _qinj_solutions(eps_free, graph)
            }
    return frozenset(results)


def _qinj_solutions(query, graph, initial_mu=None):
    """Yield injective assignments μ : vars(Q) → V(G) such that every atom
    has a simple path (or simple cycle, for loop atoms) whose internal
    nodes are fresh: distinct across atoms and distinct from every μ-image.

    This is exactly an injective homomorphism from some expansion of Q
    (Prop 2.2), searched directly on the database.

    The serving path does not call this: :mod:`repro.engine.qinj` runs
    the same search over relation-pruned candidate domains.
    """
    mu = dict(initial_mu or {})
    values = list(mu.values())
    if len(set(values)) != len(values):
        return
    if any(node not in graph.nodes for node in values):
        return
    atoms = list(query.atoms)
    nfas = [compiled_nfa(atom.language) for atom in atoms]
    # One sorted pass over the nodes for the whole search (the seed
    # re-sorted graph.nodes by repr on every _candidates call deep in
    # the backtracking loop); this also pins a deterministic
    # enumeration order across calls.
    ordered_nodes = adjacency_index(graph).nodes_sorted
    used_values = set(values)
    internal_used = set()

    def place_atom(index):
        if index == len(atoms):
            yield from place_isolated()
            return
        atom = atoms[index]
        nfa = nfas[index]
        for source in _candidates(atom.source):
            undo_source = _assign(atom.source, source)
            if undo_source is None:
                continue
            for target in _candidates(atom.target):
                if atom.is_loop() and target != source:
                    continue
                undo_target = _assign(atom.target, target)
                if undo_target is None:
                    continue
                forbidden = (used_values | internal_used) - {source, target}
                if atom.is_loop():
                    paths = simple_cycles_through(
                        graph, source, language=nfa,
                        forbidden=forbidden, include_empty=False,
                    )
                else:
                    paths = simple_paths(
                        graph, source, target, language=nfa, forbidden=forbidden
                    )
                for path in paths:
                    internals = set(path.internal_nodes())
                    internal_used.update(internals)
                    yield from place_atom(index + 1)
                    internal_used.difference_update(internals)
                if undo_target:
                    _unassign(atom.target)
                if atom.is_loop():
                    break  # target is the same variable; source loop covers it
            if undo_source:
                _unassign(atom.source)

    def _candidates(variable):
        if variable in mu:
            return (mu[variable],)
        return tuple(
            node
            for node in ordered_nodes
            if node not in used_values and node not in internal_used
        )

    def _assign(variable, node):
        """Try μ(variable) = node; return True if newly assigned, False if
        already consistently assigned, None on conflict."""
        if variable in mu:
            return False if mu[variable] == node else None
        if node in used_values or node in internal_used:
            return None
        mu[variable] = node
        used_values.add(node)
        return True

    def _unassign(variable):
        used_values.discard(mu[variable])
        del mu[variable]

    def place_isolated():
        free = [v for v in sorted(query.variables, key=repr) if v not in mu]
        if not free:
            yield dict(mu)
            return
        available = [
            node
            for node in ordered_nodes
            if node not in used_values and node not in internal_used
        ]
        for combo in itertools.permutations(available, len(free)):
            assignment = dict(mu)
            assignment.update(zip(free, combo))
            yield assignment

    yield from place_atom(0)
