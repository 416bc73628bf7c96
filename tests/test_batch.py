"""Differential tests for the batch execution layer.

``evaluate_batch`` must return exactly the per-query ``evaluate``
answers — for every semantics, with and without the thread pool, across
random shared-atom workloads, unions, ε-containing languages, and graph
mutation between batches.  Sequential references run on *fresh graph
copies* with the compilation caches cleared so the comparison never
degenerates into reading the batch's own cache entries back.
"""

import random

import pytest

from repro.analysis.batching import (
    batch_report_text,
    run_batch_throughput,
    shared_atom_workload,
)
from repro.analysis.workloads import random_query
from repro.engine.analyze import analyzed_disjuncts
from repro.engine.batch import AtomJob, BatchExecutor, QueryBatch, atom_job
from repro.engine.cache import clear_compilation_caches, compiled_nfa
from repro.engine.relations import atom_relation
from repro.graphdb.generators import figure2_graph_prime, uniform_random
from repro.queries.crpq import QueryClass
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.semantics.base import ALL_SEMANTICS, Semantics
from repro.semantics.evaluation import evaluate, evaluate_batch


def _sequential_reference(queries, graph, semantics):
    """Per-query evaluation with no shared state from the batch run."""
    reference_graph = graph.copy()
    clear_compilation_caches()
    return [evaluate(query, reference_graph, semantics) for query in queries]


def _languages_by_loopness(queries, semantics):
    """The distinct (interned NFA, is-loop) pairs over the analyzed
    atoms: one atom job each under st."""
    return {
        (compiled_nfa(atom.language), atom.is_loop())
        for query in queries
        for disjunct in analyzed_disjuncts(query, semantics)
        for atom in disjunct.atoms
    }


def _random_workload(seed, count=8):
    rng = random.Random(seed)
    return [
        random_query(
            rng,
            QueryClass.CRPQ,
            num_variables=3,
            num_atoms=rng.randint(1, 2),
            arity=rng.randint(0, 2),
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=str)
@pytest.mark.parametrize("seed", [0, 1], ids=lambda s: f"seed={s}")
def test_batch_equals_sequential_random(semantics, seed):
    graph = uniform_random(6, 14, {"a", "b"}, seed=seed)
    queries = _random_workload(seed)
    batched = evaluate_batch(queries, graph, semantics)
    assert batched == _sequential_reference(queries, graph, semantics)


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=str)
def test_batch_equals_sequential_figure2(semantics):
    graph = figure2_graph_prime()
    queries = [
        parse_query("Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x"),
        parse_query("Q(x, y) :- x -[(ab)*]-> y"),
        parse_query("Q(x) :- x -[c*]-> x"),  # loop atom, ε ∈ L
        parse_query("Q() :- x -[a]-> y"),
    ]
    batched = evaluate_batch(queries, graph, semantics)
    assert batched == _sequential_reference(queries, graph, semantics)


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=str)
def test_batch_threaded_equals_serial(semantics):
    graph = uniform_random(6, 14, {"a", "b"}, seed=2)
    queries = _random_workload(2)
    serial = evaluate_batch(queries, graph, semantics)
    threaded = evaluate_batch(queries, graph.copy(), semantics, max_workers=4)
    assert threaded == serial


def test_batch_accepts_unions_and_preserves_order():
    graph = figure2_graph_prime()
    union = (
        parse_query("Q(x, y) :- x -[ab]-> y"),
        parse_query("Q(x, y) :- x -[c]-> y"),
    )
    single = parse_query("Q(x, y) :- x -[a]-> y")
    batched = evaluate_batch([union, single], graph, "st")
    assert batched == [
        evaluate(union, graph.copy(), "st"),
        evaluate(single, graph.copy(), "st"),
    ]


def test_empty_batch():
    graph = figure2_graph_prime()
    assert evaluate_batch([], graph, "st") == []


def test_plan_dedups_structurally():
    graph = figure2_graph_prime()
    queries = [
        parse_query("Q(x, y) :- x -[(ab)*]-> y"),
        parse_query("Q(u, v) :- u -[(ab)*]-> v, v -[c]-> u"),
        parse_query("Q(x) :- x -[(ab)*]-> x"),  # loop: distinct under a-inj
    ]
    batch = QueryBatch(queries)

    st_plan = BatchExecutor(graph, "st").plan(batch)
    # (ab)* appears three times; ε-elimination also spawns (ab)+ variants,
    # but structurally equal languages collapse to one job per kind.
    assert st_plan.num_atoms > len(st_plan.jobs)
    assert st_plan.num_shared_atoms == (
        st_plan.num_atoms - st_plan.num_distinct_languages
    )
    # A loop atom's job is its walk diagonal, every other atom's its
    # walk relation: one job per distinct (language, loop-ness).
    assert {(job.nfa, job.kind == "walk-loop") for job in st_plan.jobs} == (
        _languages_by_loopness(queries, Semantics.STANDARD))
    assert {job.kind for job in st_plan.jobs} == {"standard", "walk-loop"}
    assert len(st_plan.jobs) == len(
        _languages_by_loopness(queries, Semantics.STANDARD))
    assert "distinct atom relations" in str(st_plan)

    ainj_plan = BatchExecutor(graph, "a-inj").plan(batch)
    kinds = {job.kind for job in ainj_plan.jobs}
    assert "simple-path" in kinds and "simple-cycle-nonempty" in kinds

    qinj_plan = BatchExecutor(graph, "q-inj").plan(batch)
    # The guided q-inj search prunes with walk relations, so a q-inj
    # batch warms the st job of a multi-atom disjunct's atoms; an
    # RPQ-shaped disjunct (one atom, every variable an endpoint and in
    # the head) answers from its atom's a-inj relation instead.
    ab_plus = compiled_nfa(parse_regex("(ab)^+"))
    c = compiled_nfa(parse_regex("c"))
    assert len(qinj_plan.jobs) == 5
    assert set(qinj_plan.jobs) == {
        AtomJob(ab_plus, "simple-path"),            # x -[(ab)+]-> y
        AtomJob(ab_plus, "standard"),               # u -[(ab)+]-> v, ...
        AtomJob(c, "standard"),                     # ..., v -[c]-> u
        AtomJob(c, "simple-cycle-nonempty"),        # ε-branch u -[c]-> u
        AtomJob(ab_plus, "simple-cycle-nonempty"),  # x -[(ab)+]-> x
    }
    assert len({job.nfa for job in qinj_plan.jobs}) == (
        qinj_plan.num_distinct_languages)
    assert qinj_plan.num_distinct_languages > 0
    assert "distinct atom relations" in str(qinj_plan)


def test_qinj_batch_warms_shared_pruning_relations():
    """Regression: q-inj batches used to carry an empty job list and
    silently degrade to sequential per-query evaluation — no shared
    relation warm-up, inconsistent NFA interning.  The guided evaluator
    prunes with standard relations (and answers an RPQ-shaped disjunct
    from its a-inj relation), so a q-inj batch must dedupe atom
    languages into those jobs, warm each exactly once into the shared
    relation store, and serve every query from it."""
    graph = uniform_random(7, 16, {"a", "b"}, seed=9)
    queries = [
        parse_query("Q(x, y) :- x -[(ab)*]-> y"),
        parse_query("Q(u, v) :- u -[(ab)*]-> v, v -[a]-> u"),
        parse_query("Q() :- x -[(ab)*]-> y, y -[a]-> z"),
    ]
    executor = BatchExecutor(graph, "q-inj")
    batch = QueryBatch(queries)
    plan = executor.warm(batch)
    # The ε-free ``x -[(ab)+]-> y`` and the ε-branch ``Q(u, u) :-
    # u -[a]-> u`` of the second query are RPQ-shaped: their jobs are
    # the a-inj relations their answers read.  The other atoms prune
    # with walk relations.
    ab_plus = compiled_nfa(parse_regex("(ab)^+"))
    a = compiled_nfa(parse_regex("a"))
    assert set(plan.jobs) == {
        AtomJob(ab_plus, "simple-path"), AtomJob(ab_plus, "standard"),
        AtomJob(a, "standard"), AtomJob(a, "simple-cycle-nonempty"),
    }
    # (ab)* occurs three times (plus the (ab)+ ε-elimination variants)
    # but each distinct (language, kind) warms exactly one store
    # entry, and every job reads its own.
    assert plan.num_shared_atoms > 0
    _version, cache = graph._engine_cache
    stored = [key[1:] for key in cache if key[0] == "relation"]
    assert sorted(stored, key=repr) == sorted(
        ((job.kind, job.nfa) for job in plan.jobs), key=repr)
    for job in plan.jobs:
        assert atom_relation(graph, job.nfa, job.kind) is cache[
            ("relation", job.kind, job.nfa)]
    got = [answers for _i, _q, answers in executor.results(batch,
                                                           warmed=True)]
    assert got == _sequential_reference(queries, graph, "q-inj")


def test_atom_job_interning():
    q1 = parse_query("Q(x, y) :- x -[(ab)*]-> y")
    q2 = parse_query("Q(u, v) :- u -[(ab)*]-> v")
    job1 = atom_job(q1.atoms[0], Semantics.STANDARD)
    job2 = atom_job(q2.atoms[0], Semantics.STANDARD)
    assert isinstance(job1, AtomJob)
    assert job1 == job2 and job1.nfa is job2.nfa
    qinj_job = atom_job(q1.atoms[0], Semantics.QUERY_INJECTIVE)
    assert qinj_job == AtomJob(job1.nfa, "standard")  # the pruning relation


def test_executor_tracks_graph_mutation():
    graph = uniform_random(5, 10, {"a", "b"}, seed=4)
    queries = [parse_query("Q(x, y) :- x -[(ab)^+]-> y")]
    executor = BatchExecutor(graph, "st")
    batch = QueryBatch(queries)
    before = executor.execute(batch)
    assert before == _sequential_reference(queries, graph, "st")

    graph.add_edge("fresh-1", "a", "fresh-2")
    graph.add_edge("fresh-2", "b", "fresh-1")
    after = executor.execute(batch)
    assert after == _sequential_reference(queries, graph, "st")
    assert after != before  # the new ab-cycle must show up


def test_executor_results_stream_in_input_order():
    graph = figure2_graph_prime()
    queries = [
        parse_query("Q() :- x -[a]-> y"),
        parse_query("Q(x, y) :- x -[ab]-> y"),
    ]
    executor = BatchExecutor(graph, "st", max_workers=2)
    streamed = list(executor.results(QueryBatch(queries)))
    assert [index for index, _q, _a in streamed] == [0, 1]
    assert [query for _i, query, _a in streamed] == queries


def test_shared_atom_workload_is_deterministic_and_shared():
    first = shared_atom_workload(10, 3, seed=5)
    second = shared_atom_workload(10, 3, seed=5)
    assert first == second
    languages = {
        atom.language for query in first for atom in query.atoms
    }
    assert len(languages) <= 3


def test_run_batch_throughput_smoke():
    rows = run_batch_throughput(num_queries=6, num_languages=3, seed=5,
                                uniform_nodes=8)
    assert len(rows) == 4  # two modes per family
    by_family = {}
    for row in rows:
        by_family.setdefault(row.family, []).append(row)
    for family_rows in by_family.values():
        modes = {row.mode for row in family_rows}
        assert modes == {"independent", "batch"}
        answers = {row.answers for row in family_rows}
        assert len(answers) == 1  # both modes agreed (checked inside too)
    assert "speedup" in batch_report_text(rows)
