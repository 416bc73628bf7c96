"""Differential tests: engine hot paths vs seed brute-force references.

The engine layer (``repro.engine``) replaces the seed's per-source BFS
with a single product sweep, adds NFA/relation caches, and prunes the
simple-path backtracking with co-reachability sets.  None of that may
change a single answer.  This suite pins output equality (and, for the
path enumerators, *order* equality) against independent re-implementations
of the seed algorithms on randomized graphs, across all three semantics,
including loop atoms and ``forbidden``-set interactions.
"""

import random
from collections import deque

import pytest

from repro.engine.cache import compiled_nfa
from repro.graphdb.generators import uniform_random
from repro.graphdb.graph import GraphDatabase
from repro.graphdb.paths import all_paths_up_to, simple_cycles_through, simple_paths
from repro.homomorphism.matcher import homomorphisms
from repro.queries.atoms import CQAtom
from repro.queries.cq import CQ
from repro.queries.crpq import union_of
from repro.queries.parser import parse_query
from repro.regular.nfa import NFA
from repro.regular.parser import parse_regex
from repro.semantics.base import ALL_SEMANTICS, Semantics
from repro.semantics.evaluation import evaluate
from repro.semantics.rpq import simple_cycle_nodes, simple_path_pairs, standard_pairs
from repro.semantics.trails import trails


# ----------------------------------------------------------------------
# Seed reference implementations (transcribed, no engine involvement)
# ----------------------------------------------------------------------


def seed_standard_pairs(graph, language):
    """The seed algorithm: one product BFS per source node."""
    nfa = NFA.from_regex(language) if not isinstance(language, NFA) else language
    accepts_epsilon = nfa.accepts(())
    pairs = set()
    for source in graph.nodes:
        if accepts_epsilon:
            pairs.add((source, source))
        start = {(source, state) for state in nfa.initials}
        seen = set(start)
        queue = deque(start)
        while queue:
            node, state = queue.popleft()
            for edge in graph.out_edges(node):
                for nxt_state in nfa.transitions.get((state, edge.label), ()):
                    item = (edge.target, nxt_state)
                    if item in seen:
                        continue
                    seen.add(item)
                    queue.append(item)
                    if nxt_state in nfa.finals:
                        pairs.add((source, edge.target))
    return pairs


def _seed_edge_order(graph, node):
    return sorted(graph.out_edges(node), key=lambda e: (repr(e.label), repr(e.target)))


def brute_simple_paths(graph, source, target, forbidden=frozenset()):
    """All simple paths source ⇝ target as (nodes, labels) tuples, in the
    seed's DFS order, with *no* language constraint and no pruning."""
    if source in forbidden or target in forbidden:
        return
    if source == target:
        yield ((source,), ())
        return

    def extend(node, nodes, labels):
        for edge in _seed_edge_order(graph, node):
            nxt = edge.target
            if nxt in forbidden:
                continue
            if nxt == target:
                yield (nodes + (nxt,), labels + (edge.label,))
                continue
            if nxt in nodes:
                continue
            yield from extend(nxt, nodes + (nxt,), labels + (edge.label,))

    yield from extend(source, (source,), ())


def brute_simple_cycles(graph, node, forbidden=frozenset()):
    """All nonempty simple cycles through ``node``, seed DFS order."""
    if node in forbidden:
        return

    def extend(current, nodes, labels):
        for edge in _seed_edge_order(graph, current):
            nxt = edge.target
            if nxt == node:
                yield (nodes + (nxt,), labels + (edge.label,))
                continue
            if nxt in forbidden or nxt in nodes:
                continue
            yield from extend(nxt, nodes + (nxt,), labels + (edge.label,))

    yield from extend(node, (node,), ())


def brute_trails(graph, source, target, forbidden_edges=frozenset(),
                 require_nonempty=False):
    """All trails source ⇝ target avoiding ``forbidden_edges``, as
    (nodes, labels) tuples in the seed's DFS order, with no language
    constraint and no pruning.  A trail runs on through ``target``."""
    if source == target and not require_nonempty:
        yield ((source,), ())

    def extend(node, nodes, labels, used):
        for edge in _seed_edge_order(graph, node):
            if edge in used:
                continue
            trail = (nodes + (edge.target,), labels + (edge.label,))
            if edge.target == target:
                yield trail
            yield from extend(edge.target, *trail, used | {edge})

    yield from extend(source, (source,), (), frozenset(forbidden_edges))


def _language(regex_text):
    """The ``language`` argument for ``regex_text`` and its acceptance
    test; ``None`` is the unconstrained search."""
    if regex_text is None:
        return None, lambda labels: True
    nfa = compiled_nfa(parse_regex(regex_text))
    return nfa, nfa.accepts


def seed_simple_path_pairs(graph, language):
    nfa = NFA.from_regex(language)
    pairs = set()
    for source in graph.nodes:
        for target in graph.nodes:
            if source == target:
                if nfa.accepts(()):
                    pairs.add((source, target))
                continue
            if any(
                nfa.accepts(labels)
                for _nodes, labels in brute_simple_paths(graph, source, target)
            ):
                pairs.add((source, target))
    return pairs


def seed_simple_cycle_nodes(graph, language, include_empty=True):
    nfa = NFA.from_regex(language)
    nodes = set()
    for node in graph.nodes:
        if include_empty and nfa.accepts(()):
            nodes.add(node)
            continue
        if any(
            nfa.accepts(labels)
            for _nodes, labels in brute_simple_cycles(graph, node)
        ):
            nodes.add(node)
    return nodes


def reference_evaluate(query, graph, semantics):
    """Seed ``evaluate``: same ε-elimination and homomorphism glue, with
    atom relations computed by the brute-force references above."""
    semantics = Semantics.coerce(semantics)
    results = set()
    for disjunct in union_of(query):
        for eps_free in disjunct.epsilon_free_union():
            if semantics is Semantics.QUERY_INJECTIVE:
                results |= _reference_qinj(eps_free, graph)
            else:
                results |= _reference_relational(eps_free, graph, semantics)
    return frozenset(results)


def _reference_relational(query, graph, semantics):
    relation_graph = GraphDatabase(nodes=graph.nodes)
    cq_atoms = []
    for index, atom in enumerate(query.atoms):
        label = ("rel", index)
        if semantics is Semantics.STANDARD:
            pairs = seed_standard_pairs(graph, atom.language)
        elif atom.is_loop():
            pairs = {
                (node, node)
                for node in seed_simple_cycle_nodes(
                    graph, atom.language, include_empty=False
                )
            }
        else:
            pairs = seed_simple_path_pairs(graph, atom.language)
        for source, target in pairs:
            relation_graph.add_edge(source, label, target)
        cq_atoms.append(CQAtom(atom.source, label, atom.target))
    relation_cq = CQ(query.head, cq_atoms, extra_variables=query.variables)
    return {
        tuple(hom[v] for v in query.head)
        for hom in homomorphisms(relation_cq, relation_graph)
    }


def _reference_qinj(query, graph):
    """Brute-force q-inj: every injective assignment of *all* variables,
    then backtracking placement of internally-disjoint atom paths."""
    import itertools

    variables = sorted(query.variables, key=repr)
    nodes = sorted(graph.nodes, key=repr)
    atoms = list(query.atoms)
    nfas = [NFA.from_regex(atom.language) for atom in atoms]
    results = set()
    for combo in itertools.permutations(nodes, len(variables)):
        mu = dict(zip(variables, combo))
        used = set(combo)

        def place(index, internal_used):
            if index == len(atoms):
                return True
            atom = atoms[index]
            nfa = nfas[index]
            source, target = mu[atom.source], mu[atom.target]
            forbidden = (used | internal_used) - {source, target}
            if atom.is_loop():
                candidates = [
                    path
                    for path in brute_simple_cycles(graph, source, forbidden)
                    if nfa.accepts(path[1])
                ]
            else:
                candidates = [
                    path
                    for path in brute_simple_paths(graph, source, target, forbidden)
                    if nfa.accepts(path[1])
                ]
            for path_nodes, _labels in candidates:
                internals = set(path_nodes[1:-1])
                if place(index + 1, internal_used | internals):
                    return True
            return False

        if place(0, set()):
            results.add(tuple(mu[v] for v in query.head))
    return results


# ----------------------------------------------------------------------
# RPQ-level differentials
# ----------------------------------------------------------------------

REGEXES = ["a*", "(ab)^+", "a(a+b)*b", "c?a^+", "(a+bc)*", "abc", "a+b+c"]


@pytest.mark.parametrize("seed", range(12))
def test_standard_pairs_differential(seed):
    rng = random.Random(seed)
    num_nodes = rng.randrange(2, 12)
    graph = uniform_random(
        num_nodes, rng.randrange(1, 3 * num_nodes + 1), {"a", "b", "c"}, seed=seed
    )
    for regex_text in REGEXES:
        regex = parse_regex(regex_text)
        assert set(standard_pairs(graph, regex)) == seed_standard_pairs(graph, regex)


@pytest.mark.parametrize("seed", range(8))
def test_simple_path_pairs_differential(seed):
    rng = random.Random(100 + seed)
    num_nodes = rng.randrange(2, 7)
    graph = uniform_random(
        num_nodes, rng.randrange(1, 2 * num_nodes + 1), {"a", "b"}, seed=seed
    )
    for regex_text in ["a*", "(ab)^+", "a(a+b)*b", "a+b"]:
        regex = parse_regex(regex_text)
        want = seed_simple_path_pairs(graph, regex)
        assert set(simple_path_pairs(graph, regex)) == want
        # The unpruned strategy must agree too (and stays uncached, so it
        # remains an independent check of the pruned one).
        assert set(simple_path_pairs(graph, regex, prune_with_standard=False)) == want


@pytest.mark.parametrize("seed", range(8))
def test_simple_paths_order_and_forbidden_differential(seed):
    """Pruning may skip dead branches but must preserve the exact yield
    sequence (paths and their order), for every forbidden set."""
    rng = random.Random(200 + seed)
    num_nodes = rng.randrange(2, 7)
    graph = uniform_random(
        num_nodes, rng.randrange(1, 3 * num_nodes + 1), {"a", "b"}, seed=seed
    )
    nodes = sorted(graph.nodes, key=repr)
    for regex_text in ["a*", "(ab)^+", "a(a+b)*b", None]:
        language, accepts = _language(regex_text)
        for _ in range(4):
            source, target = rng.choice(nodes), rng.choice(nodes)
            forbidden = frozenset(
                node for node in nodes if rng.random() < 0.25
            )
            got = [
                (path.nodes, path.labels)
                for path in simple_paths(
                    graph, source, target, language=language,
                    forbidden=forbidden,
                )
            ]
            want = [
                path
                for path in brute_simple_paths(graph, source, target, forbidden)
                if accepts(path[1])
            ]
            assert got == want, (regex_text, source, target, forbidden)


@pytest.mark.parametrize("seed", range(8))
def test_simple_cycles_differential(seed):
    rng = random.Random(300 + seed)
    num_nodes = rng.randrange(2, 7)
    graph = uniform_random(
        num_nodes, rng.randrange(1, 3 * num_nodes + 1), {"a", "b"}, seed=seed
    )
    nodes = sorted(graph.nodes, key=repr)
    for regex_text in ["a*", "(ab)^+", "(a+b)^+", None]:
        language, accepts = _language(regex_text)
        for node in nodes:
            forbidden = frozenset(n for n in nodes if n != node and rng.random() < 0.3)
            got = [
                (path.nodes, path.labels)
                for path in simple_cycles_through(
                    graph, node, language=language, forbidden=forbidden,
                    include_empty=False,
                )
            ]
            want = [
                path
                for path in brute_simple_cycles(graph, node, forbidden)
                if accepts(path[1])
            ]
            assert got == want, (regex_text, node, forbidden)
        if regex_text is None:
            continue
        regex = parse_regex(regex_text)
        assert simple_cycle_nodes(graph, regex, include_empty=False) == \
            seed_simple_cycle_nodes(graph, regex, include_empty=False)
        assert simple_cycle_nodes(graph, regex, include_empty=True) == \
            seed_simple_cycle_nodes(graph, regex, include_empty=True)


@pytest.mark.parametrize("seed", range(8))
def test_trails_order_differential(seed):
    """The edge-injective kernel mode yields exactly the seed DFS's
    trails, in order, under every forbidden-edge set and with and
    without the empty trail."""
    rng = random.Random(500 + seed)
    num_nodes = rng.randrange(3, 6)
    graph = uniform_random(
        num_nodes, rng.randrange(1, 3 * num_nodes + 1), {"a", "b"}, seed=seed
    )
    nodes = sorted(graph.nodes, key=repr)
    edges = sorted(graph.edges, key=repr)
    for regex_text in ["a*", "(ab)^+", "a(a+b)*b", None]:
        language, accepts = _language(regex_text)
        for _ in range(4):
            source, target = rng.choice(nodes), rng.choice(nodes)
            forbidden = frozenset(edge for edge in edges if rng.random() < 0.25)
            require_nonempty = rng.random() < 0.5
            got = [
                (path.nodes, path.labels)
                for path in trails(
                    graph, source, target, language=language,
                    forbidden_edges=forbidden,
                    require_nonempty=require_nonempty,
                )
            ]
            want = [
                trail
                for trail in brute_trails(
                    graph, source, target, forbidden, require_nonempty
                )
                if accepts(trail[1])
            ]
            assert got == want, (regex_text, source, target, forbidden,
                                 require_nonempty)


# ----------------------------------------------------------------------
# evaluate() differentials — all three semantics, loop atoms, ε languages
# ----------------------------------------------------------------------

QUERIES = [
    "Q(x, y) :- x -[a(a+b)*]-> y",
    "Q(x) :- x -[(ab)^+]-> x",                      # loop atom
    "Q(x, y) :- x -[(ab)*]-> y, y -[b*]-> x",       # ε-containing languages
    "Q() :- x -[a^+]-> y, y -[b]-> z",              # boolean, chained atoms
    "Q(x, y) :- x -[a?b]-> y",
    "Q(y, x) :- x -[a]-> y",                        # permuted head
    "Q(x, x) :- x -[a^+]-> y",                      # repeated head
    "Q(y) :- x -[a]-> y, y -[b]-> z",               # projected head
]


@pytest.mark.parametrize("query_text", QUERIES)
@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_evaluate_differential(query_text, semantics, seed):
    rng = random.Random(400 + seed)
    num_nodes = rng.randrange(2, 6)
    graph = uniform_random(
        num_nodes, rng.randrange(1, 2 * num_nodes + 1), {"a", "b"}, seed=seed
    )
    query = parse_query(query_text)
    got = evaluate(query, graph, semantics)
    want = reference_evaluate(query, graph, semantics)
    assert got == want
    assert isinstance(got, frozenset)


def test_all_paths_up_to_matches_standard_pairs_on_short_walks():
    """Brute-force walk enumeration (the seed's test reference) agrees
    with the single-sweep relation for bounded-length languages."""
    graph = uniform_random(5, 12, {"a", "b"}, seed=9)
    regex = parse_regex("ab+ba+aa")
    nfa = compiled_nfa(regex)
    want = set()
    for source in graph.nodes:
        for path in all_paths_up_to(graph, source, 2):
            if nfa.accepts(path.labels):
                want.add((source, path.target))
    assert set(standard_pairs(graph, regex)) == want


# ----------------------------------------------------------------------
# Cache behavior
# ----------------------------------------------------------------------


def test_nfa_compilation_cache_is_structural():
    first = compiled_nfa(parse_regex("a(a+b)*b"))
    second = compiled_nfa(parse_regex("a(a+b)*b"))
    assert first is second


def test_atom_relation_cache_invalidated_by_mutation():
    graph = GraphDatabase(edges=[(1, "a", 2)])
    regex = parse_regex("a^+")
    assert standard_pairs(graph, regex) == {(1, 2)}
    graph.add_edge(2, "a", 3)
    assert standard_pairs(graph, regex) == {(1, 2), (2, 3), (1, 3)}
    graph.add_node(7)  # node-only mutation also bumps the version
    assert (7, 7) not in standard_pairs(graph, regex)
    assert (7, 7) in standard_pairs(graph, parse_regex("a*"))


def test_cached_relations_survive_caller_mutation_attempts():
    graph = GraphDatabase(edges=[(1, "a", 2)])
    regex = parse_regex("a")
    first = standard_pairs(graph, regex)
    with pytest.raises(AttributeError):
        first.add((9, 9))
    assert standard_pairs(graph, regex) == {(1, 2)}


def test_query_result_cache_invalidated_by_mutation():
    graph = GraphDatabase(edges=[("u", "a", "v")])
    query = parse_query("Q(x, y) :- x -[a^+]-> y")
    for semantics in ALL_SEMANTICS:
        assert evaluate(query, graph, semantics) == {("u", "v")}
    graph.add_edge("v", "a", "w")
    for semantics in ALL_SEMANTICS:
        assert evaluate(query, graph, semantics) == {
            ("u", "v"), ("v", "w"), ("u", "w")
        }, semantics


def test_qinj_enumeration_is_deterministic_across_calls():
    from repro.semantics.evaluation import _qinj_solutions

    graph = uniform_random(5, 10, {"a", "b"}, seed=3)
    query = parse_query("Q(x, y) :- x -[a^+]-> y")
    disjunct = union_of(query)[0].epsilon_free_union()[0]
    first = list(_qinj_solutions(disjunct, graph))
    second = list(_qinj_solutions(disjunct, graph))
    assert first == second


def test_shared_mask_tables_fill_consistently_under_threads():
    """Threads racing on a fresh automaton's step tables (filled on
    first lookup, without a lock) all enumerate the reference paths."""
    import sys
    import threading

    graph = uniform_random(7, 18, {"a", "b"}, seed=11)
    nodes = sorted(graph.nodes, key=repr)
    pairs = [(source, target) for source in nodes for target in nodes]
    regex = parse_regex("a(a+b)*b+(ab)^+")

    def enumerate_all(nfa):
        return [
            [(path.nodes, path.labels)
             for path in simple_paths(graph, source, target, language=nfa)]
            for source, target in pairs
        ]

    shared = NFA.from_regex(regex)
    barrier = threading.Barrier(8, timeout=10)
    results = []

    def run():
        barrier.wait()
        results.append(enumerate_all(shared))

    threads = [threading.Thread(target=run) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    want = enumerate_all(NFA.from_regex(regex))
    assert any(want)
    assert results == [want] * 8
