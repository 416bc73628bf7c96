"""A loop atom's st relation is its walk diagonal (``"walk-loop"``).

Under st a loop atom ``x -[L]-> x`` constrains one variable: the
planner and the q-inj pruning plan read only ``{v : (v, v) ∈ walks}``.
The ``"walk-loop"`` relation kind computes just that diagonal, so the
kernel decodes no other pair.  These tests pin that the kind equals the
diagonal of the full walk relation under both kernels, that an
attached incremental store serves its maintained walk relation in its
place, that the pair-set helpers give the same diagonal in every cache
state, that st and q-inj answers of loop-atom queries do not change,
and that a cycle closed by path fusion never builds its fused
language's full walk relation.
"""

import pytest

from repro.engine.backend import BACKEND_NAMES, use_backend
from repro.engine.cache import compiled_nfa
from repro.engine.incremental import incremental_store
from repro.engine.planner import plan_eps_free
from repro.engine.product import product_reachability_pairs
from repro.engine.relations import atom_relation, relation_for
from repro.graphdb.generators import uniform_random
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.semantics.base import Semantics
from repro.semantics.evaluation import atom_pairs, evaluate
from repro.semantics.rpq import standard_pairs
from tests.reference import brute

ST = Semantics.STANDARD

#: ε-accepting (a*, (ab)?), acyclic (aba) and cyclic ((ab)^+) automata.
LANGUAGES = ["a*", "(ab)?", "aba", "(ab)^+"]

TRIANGLE = "Q() :- x -[a]-> y, y -[a]-> z, z -[a]-> x"


def _graph(seed, nodes=24):
    return uniform_random(nodes, 3 * nodes, {"a", "b"}, seed=seed)


def _stored_kinds(graph, nfa):
    """The relation kinds the graph cache holds for ``nfa`` at the
    graph's current version."""
    _version, cache = graph._engine_cache
    return {key[1] for key in cache if key[0] == "relation" and key[2] is nfa}


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("text", LANGUAGES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_walk_loop_is_the_walk_diagonal(backend, text, seed):
    graph, nfa = _graph(seed), compiled_nfa(parse_regex(text))
    with use_backend(backend):
        walks = product_reachability_pairs(graph.copy(), nfa)
        fresh = graph.copy()
        loops = atom_relation(fresh, nfa, "walk-loop")
    assert loops.pairs == {(u, v) for u, v in walks if u == v}
    assert _stored_kinds(fresh, nfa) == {"walk-loop"}


@pytest.mark.parametrize("text", LANGUAGES)
def test_both_kernels_agree_on_the_diagonal(text):
    graph, nfa = _graph(3, nodes=40), compiled_nfa(parse_regex(text))
    diagonals = []
    for backend in BACKEND_NAMES:
        with use_backend(backend):
            diagonals.append(product_reachability_pairs(
                graph.copy(), nfa, diagonal=True))
    assert diagonals[0] == diagonals[1]


@pytest.mark.parametrize("text", LANGUAGES)
def test_loop_pairs_are_the_diagonal_in_every_cache_state(text):
    """Cold, with the walk relation materialized, and store-attached,
    a loop atom's pairs are the same diagonal."""
    graph, language = _graph(4), parse_regex(text)
    (atom,) = parse_query(f"Q(x) :- x -[{text}]-> x").atoms
    expected = atom_pairs(graph.copy(), atom, ST)
    materialized = graph.copy()
    walks = standard_pairs(materialized, language)
    assert expected == {(u, v) for u, v in walks if u == v}
    assert atom_pairs(materialized, atom, ST) == expected
    stored = graph.copy()
    incremental_store(stored)
    assert atom_pairs(stored, atom, ST) == expected
    assert atom_relation(stored, language, "walk-loop").diagonal() == {
        node for node, _node in expected}


@pytest.mark.parametrize("text", LANGUAGES)
def test_store_attached_graph_serves_the_maintained_walk_relation(text):
    graph, language = _graph(5), parse_regex(text)
    store = incremental_store(graph)
    query = parse_query(f"Q(x) :- x -[{text}]-> x")
    for step in range(3):
        maintained = store.standard_relation(language)
        assert atom_relation(graph, language, "walk-loop") is maintained
        assert evaluate(query, graph, ST) == brute.answers(
            query, graph.copy(), ST)
        assert "walk-loop" not in _stored_kinds(graph, compiled_nfa(language))
        graph.add_edge(step, "a", step + 7)
        graph.add_edge(step + 7, "b", step)


@pytest.mark.parametrize("semantics", ["st", "q-inj"])
@pytest.mark.parametrize("text", [
    "Q(x) :- x -[aba]-> x",
    "Q(x) :- x -[a*]-> x",
    "Q(x, y) :- x -[(ab)^+]-> x, x -[a]-> y",
    "Q(x) :- x -[(ab)?]-> x, x -[ba]-> x",
    # Path fusion closes these cycles into one loop atom under st.
    "Q(x) :- x -[a]-> y, y -[b]-> x",
    "Q() :- x -[a]-> y, y -[b]-> z, z -[a]-> x",
])
@pytest.mark.parametrize("seed", [0, 1])
def test_loop_atom_answers_match_the_reference(semantics, text, seed):
    graph = _graph(seed, nodes=7)
    query = parse_query(text)
    assert evaluate(query, graph.copy(), semantics) == brute.answers(
        query, graph.copy(), semantics)


@pytest.mark.parametrize(("seed", "expected"), [(1, {()}), (4, set())])
def test_fused_triangle_reads_only_the_diagonal(seed, expected):
    graph = uniform_random(300, 450, {"a"}, seed=seed)
    query = parse_query(TRIANGLE)
    plan = plan_eps_free(query, graph, ST)
    ((_index, loop, _size),) = plan.loop_atoms
    assert plan.fusions and not plan.components[0].atoms
    unfused = plan_eps_free(query, graph.copy(), ST,
                            relation_for=relation_for)
    assert not unfused.fusions
    assert plan.answers() == unfused.answers() == expected
    assert evaluate(query, graph, ST) == expected
    assert _stored_kinds(graph, compiled_nfa(loop.language)) == {"walk-loop"}
