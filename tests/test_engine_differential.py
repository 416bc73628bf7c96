"""Differential tests: engine hot paths vs the brute-force references.

The engine layer (``repro.engine``) replaces the seed's per-source BFS
with a single product sweep, adds NFA/relation caches, and prunes the
simple-path backtracking with co-reachability sets.  None of that may
change a single answer.  This suite pins output equality (and, for the
path enumerators, *order* equality) against :mod:`tests.reference.brute`
on randomized graphs, including ``forbidden``-set interactions, and
checks ``evaluate`` on pinned query shapes (loop atoms, ε languages,
permuted, repeated and projected heads) under all three semantics.  The
configuration axes run in the differential matrix
(:mod:`tests.differential_matrix`).
"""

import random

import pytest

from repro.engine.cache import compiled_nfa
from repro.engine.qinj import plan_qinj
from repro.graphdb.generators import uniform_random
from repro.graphdb.graph import GraphDatabase
from repro.graphdb.paths import all_paths_up_to, simple_cycles_through, simple_paths
from repro.queries.crpq import union_of
from repro.queries.parser import parse_query
from repro.regular.nfa import NFA
from repro.regular.parser import parse_regex
from repro.semantics.base import ALL_SEMANTICS
from repro.semantics.evaluation import evaluate
from repro.semantics.rpq import simple_cycle_nodes, simple_path_pairs, standard_pairs
from repro.semantics.trails import trails
from tests.reference import brute


def _random_graph(rng, seed, node_range, edge_factor, labels="ab"):
    num_nodes = rng.randrange(*node_range)
    return uniform_random(num_nodes, rng.randrange(1, edge_factor * num_nodes + 1),
                          set(labels), seed=seed)


def _language(regex_text):
    """The compiled ``language`` argument for ``regex_text``; ``None`` is
    the unconstrained search."""
    return None if regex_text is None else compiled_nfa(parse_regex(regex_text))


# ----------------------------------------------------------------------
# RPQ-level differentials
# ----------------------------------------------------------------------

REGEXES = ["a*", "(ab)^+", "a(a+b)*b", "c?a^+", "(a+bc)*", "abc", "a+b+c"]


@pytest.mark.parametrize("seed", range(12))
def test_standard_pairs_differential(seed):
    rng = random.Random(seed)
    graph = _random_graph(rng, seed, (2, 12), 3, "abc")
    for regex_text in REGEXES:
        regex = parse_regex(regex_text)
        assert set(standard_pairs(graph, regex)) == brute.walk_pairs(graph, regex)


@pytest.mark.parametrize("seed", range(8))
def test_simple_path_pairs_differential(seed):
    rng = random.Random(100 + seed)
    graph = _random_graph(rng, seed, (2, 7), 2)
    for regex_text in ["a*", "(ab)^+", "a(a+b)*b", "a+b"]:
        regex = parse_regex(regex_text)
        assert set(simple_path_pairs(graph, regex)) == \
            brute.simple_path_pairs(graph, regex)


@pytest.mark.parametrize("seed", range(8))
def test_simple_paths_order_and_forbidden_differential(seed):
    """Pruning may skip dead branches but must preserve the exact yield
    sequence (paths and their order), for every forbidden set."""
    rng = random.Random(200 + seed)
    graph = _random_graph(rng, seed, (2, 7), 3)
    nodes = sorted(graph.nodes, key=repr)
    for regex_text in ["a*", "(ab)^+", "a(a+b)*b", None]:
        language = _language(regex_text)
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
            want = list(brute.simple_paths(graph, source, target, forbidden,
                                           language))
            assert got == want, (regex_text, source, target, forbidden)


@pytest.mark.parametrize("seed", range(8))
def test_simple_cycles_differential(seed):
    rng = random.Random(300 + seed)
    graph = _random_graph(rng, seed, (2, 7), 3)
    nodes = sorted(graph.nodes, key=repr)
    for regex_text in ["a*", "(ab)^+", "(a+b)^+", None]:
        language = _language(regex_text)
        for node in nodes:
            forbidden = frozenset(n for n in nodes if n != node and rng.random() < 0.3)
            got = [
                (path.nodes, path.labels)
                for path in simple_cycles_through(
                    graph, node, language=language, forbidden=forbidden,
                    include_empty=False,
                )
            ]
            want = list(brute.simple_cycles(graph, node, forbidden, language))
            assert got == want, (regex_text, node, forbidden)
        if regex_text is None:
            continue
        regex = parse_regex(regex_text)
        for include_empty in (False, True):
            assert simple_cycle_nodes(graph, regex, include_empty) == \
                brute.simple_cycle_nodes(graph, regex, include_empty)


@pytest.mark.parametrize("seed", range(8))
def test_trails_order_differential(seed):
    """The edge-injective kernel mode yields exactly the seed DFS's
    trails, in order, under every forbidden-edge set and with and
    without the empty trail."""
    rng = random.Random(500 + seed)
    graph = _random_graph(rng, seed, (3, 6), 3)
    nodes = sorted(graph.nodes, key=repr)
    edges = sorted(graph.edges, key=repr)
    for regex_text in ["a*", "(ab)^+", "a(a+b)*b", None]:
        language = _language(regex_text)
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
            want = list(brute.trails(graph, source, target, forbidden,
                                     require_nonempty, language))
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
    graph = _random_graph(rng, seed, (2, 6), 2)
    query = parse_query(query_text)
    got = evaluate(query, graph, semantics)
    assert got == brute.answers(query, graph, semantics)
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
    graph = uniform_random(5, 10, {"a", "b"}, seed=3)
    query = parse_query("Q(x, y) :- x -[a^+]-> y")
    disjunct = union_of(query)[0].epsilon_free_union()[0]
    first = list(plan_qinj(disjunct, graph).solutions())
    second = list(plan_qinj(disjunct, graph).solutions())
    assert first and first == second


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
