"""The one atom-relation store (:func:`repro.engine.relations.atom_relation`).

Every evaluation path — the join planner, the q-inj pruning plan, the
batch executor, ``--explain`` and the pair-set helpers of
:mod:`repro.semantics.rpq` — reads its atom relations from one
version-keyed lookup.  These tests pin that there is exactly one graph
cache entry per (version, kind, NFA), that every consumer receives the
same object, that a failed compute publishes nothing, and that the
graph cache's cap-and-clear keeps the relations a batch warmed.
"""

import pytest

from repro.engine import cache, planner, qinj, relations
from repro.engine.cache import compiled_nfa, graph_cached
from repro.engine.incremental import incremental_store
from repro.engine.planner import explain_query
from repro.engine.qinj import plan_qinj
from repro.engine.relations import Relation, atom_relation
from repro.engine.telemetry import registry
from repro.errors import EvaluationCancelled
from repro.graphdb.generators import uniform_random
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.semantics.evaluation import (
    evaluate,
    evaluate_batch,
    in_evaluation,
)
from repro.semantics.rpq import (
    relation_by_kind,
    simple_cycle_nodes,
    simple_path_pairs,
    standard_pairs,
)


def stored_relations(graph):
    """``{(kind, nfa): Relation}`` stored for the graph's current version."""
    _version, cache = graph._engine_cache
    return {key[1:]: value for key, value in cache.items()
            if key[0] == "relation"}


def cycle_graph():
    return GraphDatabase(edges=[(1, "a", 2), (2, "b", 3), (3, "a", 1),
                                (3, "b", 1), (1, "b", 1)])


def test_one_graph_cache_entry_per_version_kind_nfa():
    graph = cycle_graph()
    ab, loop = parse_regex("ab"), parse_regex("ab*a")
    for semantics in ("st", "a-inj", "q-inj"):
        evaluate(parse_query("Q(x, y) :- x -[ab]-> y"), graph, semantics)
        evaluate(parse_query("Q(x) :- x -[ab*a]-> x"), graph, semantics)
    walk = standard_pairs(graph, ab)
    simple = simple_path_pairs(graph, ab)
    cycles = relation_by_kind(graph, loop, "simple-cycle-nonempty")
    stored = stored_relations(graph)
    # The loop atom is a diagonal under every semantics: its walk
    # diagonal under st and q-inj, its simple cycles under a-inj.
    assert set(stored) == {
        ("standard", compiled_nfa(ab)),
        ("walk-loop", compiled_nfa(loop)),
        ("simple-path", compiled_nfa(ab)),
        ("simple-cycle-nonempty", compiled_nfa(loop)),
    }
    assert all(isinstance(value, Relation) for value in stored.values())
    # The pair-set helpers hand out the entry's own frozenset.
    assert walk is stored[("standard", compiled_nfa(ab))].pairs
    assert simple is stored[("simple-path", compiled_nfa(ab))].pairs
    cycle_key = ("simple-cycle-nonempty", compiled_nfa(loop))
    assert cycles is stored[cycle_key].pairs
    # A mutation moves the store to the new version: no stale entry.
    graph.add_edge(2, "a", 2)
    fresh = atom_relation(graph, ab, "standard")
    assert set(stored_relations(graph)) == {("standard", compiled_nfa(ab))}
    assert fresh.pairs == standard_pairs(graph, ab)


def test_simple_cycle_diagonal_is_stored_once():
    graph = cycle_graph()
    loop = parse_regex("ab*a")
    first = relation_by_kind(graph, loop, "simple-cycle-nonempty")
    assert first == {(1, 1)}
    assert relation_by_kind(graph, loop, "simple-cycle-nonempty") is first
    assert simple_cycle_nodes(graph, loop, include_empty=False) == {1}
    # ε ∈ L adds the empty cycle at every node.
    assert simple_cycle_nodes(graph, parse_regex("a*")) == {1, 2, 3}


def test_every_entry_point_receives_the_identical_relation(monkeypatch):
    graph = uniform_random(8, 20, {"a", "b"}, seed=3)
    received = []
    entry = [None]

    def spy(hook):
        def recording(graph_, atom, semantics=None, nfa=None):
            relation = hook(graph_, atom, semantics, nfa)
            if graph_ is graph:  # not the analyzer's canonical databases
                received.append((entry[0], relation))
            return relation
        return recording

    monkeypatch.setattr(planner, "default_relation_for",
                        spy(planner.default_relation_for))
    monkeypatch.setattr(qinj, "default_relation_for",
                        spy(qinj.default_relation_for))
    entry[0] = "evaluate"
    evaluate(parse_query("Q(x, y) :- x -[ab]-> y"), graph, "st")
    entry[0] = "evaluate_batch"
    evaluate_batch([parse_query("Q(x, z) :- x -[ab]-> y, y -[ab]-> z")],
                   graph, "st")
    entry[0] = "plan_qinj"
    (disjunct,) = parse_query("Q(x) :- x -[ab]-> y").epsilon_free_union()
    plan_qinj(disjunct, graph)
    entry[0] = "explain_query"
    explain_query(parse_query("Q(y, x) :- x -[ab]-> y"), graph, "st")
    assert {name for name, _relation in received} == {
        "evaluate", "evaluate_batch", "plan_qinj", "explain_query"}
    shared = atom_relation(graph, parse_regex("ab"), "standard")
    assert all(relation is shared for _name, relation in received)


def test_failed_compute_publishes_nothing(monkeypatch):
    graph = cycle_graph()
    ab = parse_regex("ab")

    def interrupted(graph_, nfa):
        raise EvaluationCancelled("cancelled mid-compute")

    original = relations._KIND_PAIRS["standard"]
    monkeypatch.setitem(relations._KIND_PAIRS, "standard", interrupted)
    with pytest.raises(EvaluationCancelled):
        atom_relation(graph, ab, "standard")
    assert stored_relations(graph) == {}
    monkeypatch.setitem(relations._KIND_PAIRS, "standard", original)
    assert atom_relation(graph, ab, "standard").pairs == {(1, 3), (3, 1)}


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown atom relation kind"):
        relation_by_kind(cycle_graph(), parse_regex("a"), "walks")


def relation_lookups():
    return (registry().counter("cache.relation.hits").value,
            registry().counter("cache.relation.misses").value)


def test_cap_and_clear_keeps_atom_relations(monkeypatch):
    monkeypatch.setattr(cache, "_GRAPH_CACHE_CAP", 8)
    graph = cycle_graph()
    ab, a = parse_regex("ab"), parse_regex("a")
    warmed = {regex: atom_relation(graph, regex, "standard")
              for regex in (ab, a)}
    for index in range(20):
        graph_cached(graph, ("filler", index), lambda: index + 1)
        assert len(graph._engine_cache[1]) <= 8
    _hits, misses = relation_lookups()
    for regex, relation in warmed.items():
        assert atom_relation(graph, regex, "standard") is relation
    assert relation_lookups()[1] == misses


def test_cap_and_clear_drops_relations_that_fill_the_cache(monkeypatch):
    monkeypatch.setattr(cache, "_GRAPH_CACHE_CAP", 4)
    graph = cycle_graph()
    for symbols in ("a", "b", "ab", "ba"):
        atom_relation(graph, parse_regex(symbols), "standard")
    atom_relation(graph, parse_regex("aa"), "standard")
    assert set(stored_relations(graph)) == {
        ("standard", compiled_nfa(parse_regex("aa")))}


def test_batch_computes_each_relation_once_past_the_cap(monkeypatch):
    # A q-inj batch on a graph whose witness entries overflow the
    # cache: the warmed relations are still computed once.
    monkeypatch.setattr(cache, "_GRAPH_CACHE_CAP", 16)
    graph = uniform_random(20, 40, {"a", "b"}, seed=5)
    queries = [parse_query(text) for text in (
        "Q(x, y) :- x -[ab]-> y",
        "Q(x, z) :- x -[ab]-> y, y -[a]-> z",
        "Q(x, z) :- x -[a]-> y, y -[ab]-> z",
    )] * 3
    _hits, misses = relation_lookups()
    answers = evaluate_batch(queries, graph, "q-inj")
    # The ab and a walk relations, and the simple-path relation of ab
    # that the one-atom query answers from (its candidates are the ab
    # walk relation), once each.
    assert relation_lookups()[1] - misses == 3
    assert answers == [evaluate(query, graph.copy(), "q-inj")
                       for query in queries]


def test_store_served_lookup_counts_as_a_hit():
    graph = cycle_graph()
    store = incremental_store(graph)
    ab = parse_regex("ab")
    hits, misses = relation_lookups()
    assert atom_relation(graph, ab, "standard") is store.standard_relation(ab)
    assert relation_lookups() == (hits + 1, misses)


def index_builds():
    return registry().counter("relations.index.builds").value


@pytest.mark.parametrize("query_text", [
    "Q(x, y) :- x -[(ab)^+]-> y",
    "Q(x, y, z) :- x -[ab]-> y, y -[b]-> z, z -[ab*]-> x",
    "Q(x) :- x -[aba]-> x",
])
def test_plans_that_read_no_index_build_none(query_text):
    graph = uniform_random(12, 36, {"a", "b"}, seed=4)
    before = index_builds()
    answers = evaluate(parse_query(query_text), graph, "st")
    assert answers
    assert index_builds() == before


def test_bound_membership_and_qinj_build_indexes():
    graph = uniform_random(12, 36, {"a", "b"}, seed=4)
    query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
    answer = next(iter(evaluate(query, graph.copy(), "st")))
    before = index_builds()
    assert in_evaluation(query, graph.copy(), answer, "st")
    assert index_builds() >= before + 1
    before = index_builds()
    evaluate(parse_query("Q(x, z) :- x -[a]-> y, y -[b]-> z"),
             graph.copy(), "q-inj")
    assert index_builds() >= before + 1


def test_index_sides_build_on_first_read_only():
    relation = Relation({(1, 2), (1, 3), (2, 2)})
    before = index_builds()
    assert relation.diagonal() == {2}
    assert relation.restrict() is relation.pairs
    assert index_builds() == before
    assert relation.targets_of(1) == {2, 3}
    assert relation.targets_of(4) == frozenset()
    assert index_builds() == before + 1
    assert relation.sources_of(2) == {1, 2}
    assert relation.restrict(targets={3}) == {(1, 3)}
    assert index_builds() == before + 2


# ----------------------------------------------------------------------
# The a-inj relation shares one kernel harvest per source
# ----------------------------------------------------------------------


def _count_searches(monkeypatch):
    from repro.graphdb import paths

    calls = []
    original = paths.search

    def counting(*args, **kwargs):
        calls.append(args[2:4])
        return original(*args, **kwargs)

    monkeypatch.setattr(paths, "search", counting)
    return calls


def test_simple_path_relation_runs_fewer_searches_than_candidates(
        monkeypatch):
    from repro.graphdb.paths import search

    graph = uniform_random(22, 66, {"a", "b"}, seed=1)
    nfa = compiled_nfa(parse_regex("(ab)^+"))
    candidates = [(u, v) for u, v in atom_relation(graph, nfa, "standard").pairs
                  if u != v]
    # One full search per candidate pair: the relation without harvest.
    expected = {(u, v) for u, v in candidates if any(search(graph, nfa, u, v))}
    calls = _count_searches(monkeypatch)
    assert atom_relation(graph, nfa, "simple-path").pairs == expected
    assert 0 < len(calls) < len(candidates)
    assert len(set(calls)) == len(calls)


_HASH_SEED_PROBE = """
from repro.engine.relations import atom_relation
from repro.graphdb import paths
from repro.graphdb.generators import uniform_random
from repro.regular.parser import parse_regex

base = uniform_random(22, 66, {"a", "b"}, seed=1)
graph = base.rename_nodes({node: f"n{node}" for node in base.nodes})
calls = []
original = paths.search

def counting(*args, **kwargs):
    calls.append(args[2:4])
    return original(*args, **kwargs)

paths.search = counting
pairs = atom_relation(graph, parse_regex("(ab)^+"), "simple-path").pairs
print(len(calls), len(pairs), sorted(calls)[:5])
"""


def test_simple_path_search_count_ignores_hash_seed():
    """String node ids iterate in a hash-seeded order; the relation
    walks sources and targets in ``nodes_sorted`` order instead, so two
    interpreters with different hash seeds run the same searches."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE], env=env, check=True,
            capture_output=True, text=True,
        ).stdout)
    assert outputs[0] == outputs[1]
    assert int(outputs[0].split()[0]) > 0
