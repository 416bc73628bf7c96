"""Fault-injection sweeps: interrupting any checkpoint site at any hit
must leave every version-keyed cache and the incremental store sound.

The differential oracle: after an interrupt, re-evaluating **in the
same process** (same graph object, same partially-warmed caches) must
produce exactly what a **fresh process** would (here: the same workload
on an independently rebuilt graph, whose engine caches start empty).
The sweep covers every registered site at its first, middle, and last
hit, across all three semantics; batch isolation and partial-result
soundness ride on the same machinery.
"""

import pytest

from repro.devtools.faultinject import (
    FaultInjected,
    all_sites,
    hit_counts,
    inject,
    pristine_answers,
)
from repro.engine import relations
from repro.engine.analyze import analyzed_disjuncts
from repro.engine.batch import BatchError, BatchExecutor, QueryBatch
from repro.engine.incremental import incremental_store
from repro.engine.runtime import PartialAnswers
from repro.errors import EvaluationCancelled
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.semantics.base import Semantics
from repro.semantics.evaluation import evaluate, evaluate_batch
from repro.semantics.trails import evaluate_trails

ACYCLIC = parse_query("Q(x, z) :- x -[a*]-> y, y -[b]-> z")
CYCLIC = parse_query("Q(x) :- x -[aa*]-> y, y -[bb*]-> z, z -[a*]-> x")
QINJ = parse_query("Q(x, z) :- x -[aa]-> y, y -[(a+b)^+]-> z")
SECOND = parse_query("Q(x, z) :- x -[bb]-> y, y -[aa*]-> z")


def make_graph():
    """Deterministic graph with cycles, chords, and both labels — rich
    enough that the composite workload reaches every evaluation site."""
    graph = GraphDatabase()
    graph.add_path(["n0", "n1", "n2", "n3", "n0"], ["a", "a", "a", "a"])
    graph.add_edge("n0", "b", "n2")
    graph.add_edge("n2", "b", "n0")
    graph.add_edge("n1", "b", "n3")
    graph.add_edge("n3", "a", "n4")
    graph.add_edge("n4", "b", "n1")
    return graph


def eval_workload(graph):
    """Evaluate across all three semantics; the tuple of answer sets is
    the differential unit of comparison."""
    out = []
    for semantics in ("st", "a-inj"):
        for query in (ACYCLIC, CYCLIC):
            out.append(evaluate(query, graph, semantics))
    out.append(evaluate(QINJ, graph, "q-inj"))
    return tuple(out)


EVAL_SITES = (
    "join.natural-join",
    "paths.dfs",
    "planner.eliminate",
    "planner.reduce",
    "product.sweep",
    "qinj.search",
)

INCREMENTAL_SITES = ("incremental.grow", "incremental.shrink")

TRAIL_SITES = ("trails.dfs",)

TRAIL_QUERY = parse_query("Q(x, y) :- x -[a*b]-> y")


def trail_workload(graph):
    """Both edge-injective semantics; every trail DFS checkpoints at
    ``trails.dfs``."""
    return (
        evaluate_trails(TRAIL_QUERY, graph, "atom-trail"),
        evaluate_trails(TRAIL_QUERY, graph, "query-trail"),
    )


def incr_env():
    graph = make_graph()
    incremental_store(graph)
    return graph


def incr_workload(graph):
    """Maintained evaluation across an insert delta (grow) and a delete
    delta (shrink)."""
    evaluate(ACYCLIC, graph, "st")
    graph.add_edge("n4", "a", "n0")
    graph.add_edge("n2", "a", "n4")
    evaluate(ACYCLIC, graph, "st")
    graph.remove_edge("n2", "a", "n3")
    return evaluate(ACYCLIC, graph, "st")


def sweep_hits(total):
    """First, middle, and last hit of a site (deduplicated)."""
    assert total > 0
    return sorted({1, total // 2 + 1, total})


def test_every_registered_site_is_swept():
    """The sweep below must cover the full registry — a new site added
    without sweep coverage fails here, not silently."""
    covered = (
        set(EVAL_SITES) | set(INCREMENTAL_SITES) | set(TRAIL_SITES)
        | {"batch.entry"}
    )
    assert covered == set(all_sites())


@pytest.mark.parametrize("site", EVAL_SITES)
def test_eval_interrupt_sweep_leaves_caches_sound(site):
    # Warm the graph-independent caches (analysis, NFA compilation)
    # first: hit counts must be a pure function of the graph-scoped
    # work, independent of test ordering.
    expected = eval_workload(make_graph())
    total = hit_counts(lambda: eval_workload(make_graph()))[site]
    for hit in sweep_hits(total):
        graph = make_graph()
        with inject(site, hit) as report:
            with pytest.raises(FaultInjected):
                eval_workload(graph)
        assert report.fired
        assert report.hits[site] == hit
        # Same process, same partially-warmed caches — must equal the
        # fresh-process result across all three semantics.
        assert eval_workload(graph) == expected


@pytest.mark.parametrize("site", INCREMENTAL_SITES)
def test_incremental_interrupt_sweep_never_sticks_mid_repair(site):
    incr_workload(incr_env())  # warm graph-independent caches
    total = hit_counts(lambda: incr_workload(incr_env()))[site]
    for hit in sweep_hits(total):
        graph = incr_env()
        with inject(site, hit) as report:
            with pytest.raises(FaultInjected):
                incr_workload(graph)
        assert report.fired
        # The store must not be stuck mid-repair: serving the query at
        # the graph's *current* (possibly mid-workload) state must
        # equal a fresh store-less evaluation of a pristine copy.
        assert evaluate(ACYCLIC, graph, "st") == \
            pristine_answers(ACYCLIC, graph, "st")


@pytest.mark.parametrize("site", TRAIL_SITES)
def test_trail_interrupt_sweep_leaves_caches_sound(site):
    expected = trail_workload(make_graph())  # warm query-scoped caches
    total = hit_counts(lambda: trail_workload(make_graph()))[site]
    for hit in sweep_hits(total):
        graph = make_graph()
        with inject(site, hit) as report:
            with pytest.raises(FaultInjected):
                trail_workload(graph)
        assert report.fired
        assert report.hits[site] == hit
        assert trail_workload(graph) == expected


def test_cancellation_interrupt_is_equally_sound():
    expected = eval_workload(make_graph())
    graph = make_graph()
    with inject("product.sweep", 1, mode="cancel") as report:
        with pytest.raises(EvaluationCancelled):
            eval_workload(graph)
    assert report.fired
    assert eval_workload(graph) == expected


# ----------------------------------------------------------------------
# Partial results
# ----------------------------------------------------------------------


def test_partial_results_are_sound_subsets_at_every_cancel_point():
    """Sweep every product.sweep hit as a cancellation point: each
    partial result must be a subset of the full answer set (only
    completed disjuncts contribute, never partial disjunct output),
    and somewhere in the sweep a nonempty proper subset must appear
    (the first query's disjuncts completed, the second's interrupted).
    """
    union = [ACYCLIC, SECOND]
    full = evaluate(union, make_graph(), "st")  # also warms analysis
    assert evaluate(ACYCLIC, make_graph(), "st") < full
    total = hit_counts(
        lambda: evaluate(union, make_graph(), "st")
    )["product.sweep"]
    observed = set()
    for hit in range(1, total + 1):
        graph = make_graph()
        with inject("product.sweep", hit, mode="cancel") as report:
            partial = evaluate(union, graph, "st", on_budget="partial")
        assert report.fired
        assert isinstance(partial, PartialAnswers)
        assert not partial.complete
        assert isinstance(partial.error, EvaluationCancelled)
        assert partial <= full
        observed.add(frozenset(partial))
        # And the interrupt left the graph's caches sound:
        assert evaluate(union, graph, "st") == full
    assert any(0 < len(result) < len(full) for result in observed)


# ----------------------------------------------------------------------
# Batch fault isolation
# ----------------------------------------------------------------------


def _first_hit_of_second_query():
    """batch.entry ticks once per analyzed disjunct, queries in order —
    so the poisoned-query hit index is one past the first query's
    disjunct count."""
    return len(analyzed_disjuncts(ACYCLIC, Semantics.STANDARD)) + 1


@pytest.mark.parametrize("workers", [None, 2])
def test_poisoned_query_yields_one_error_entry_others_flow(workers):
    graph = make_graph()
    clean = evaluate_batch([ACYCLIC, CYCLIC, QINJ], graph, "st",
                           max_workers=workers)
    assert not any(isinstance(entry, BatchError) for entry in clean)

    poisoned = make_graph()
    with inject("batch.entry", _first_hit_of_second_query()):
        results = evaluate_batch([ACYCLIC, CYCLIC, QINJ], poisoned, "st")
    errors = [r for r in results if isinstance(r, BatchError)]
    assert len(errors) == 1
    assert errors[0].index == 1
    assert errors[0].query == CYCLIC
    assert isinstance(errors[0].error, FaultInjected)
    assert "failed" in str(errors[0])
    # Error entries are falsy and iterate as empty, so set-shaped
    # consumers stay sound.
    assert not errors[0]
    assert list(errors[0]) == []
    # Every other query's slot holds its full answers.
    assert results[0] == clean[0]
    assert results[2] == clean[2]
    # And the poisoned run corrupted nothing: re-running is clean.
    assert evaluate_batch([ACYCLIC, CYCLIC, QINJ], poisoned, "st") == clean


def test_batch_on_budget_raise_propagates_cancellation():
    graph = make_graph()
    executor = BatchExecutor(graph, "st")
    batch = QueryBatch([ACYCLIC, CYCLIC])
    with inject("batch.entry", 1, mode="cancel"):
        with pytest.raises(EvaluationCancelled):
            list(executor.results(batch))


def test_batch_on_budget_partial_degrades_to_error_entries():
    graph = make_graph()
    executor = BatchExecutor(graph, "st")
    batch = QueryBatch([ACYCLIC, CYCLIC])
    with inject("batch.entry", 1, mode="cancel"):
        results = list(executor.results(batch, on_budget="partial"))
    assert [index for index, _q, _a in results] == [0, 1]
    for _index, _query, answers in results:
        assert isinstance(answers, BatchError)
        assert isinstance(answers.error, EvaluationCancelled)
    # The same executor still serves cleanly afterwards.
    clean = list(executor.results(batch))
    assert all(not isinstance(a, BatchError) for _i, _q, a in clean)
    assert clean[0][2] == evaluate(ACYCLIC, make_graph(), "st")


def test_batch_rejects_unknown_on_budget():
    executor = BatchExecutor(make_graph(), "st")
    with pytest.raises(ValueError, match="on_budget"):
        list(executor.results(QueryBatch([ACYCLIC]), on_budget="ignore"))


def test_warm_failure_of_one_job_does_not_poison_store(monkeypatch):
    graph = make_graph()
    executor = BatchExecutor(graph, "st")
    batch = QueryBatch([ACYCLIC, CYCLIC])
    plan = executor.plan(batch)
    doomed = plan.jobs[0]
    original = relations._KIND_PAIRS[doomed.kind]

    def flaky(graph_, nfa):
        if nfa is doomed.nfa:
            raise RuntimeError("transient failure")
        return original(graph_, nfa)

    monkeypatch.setitem(relations._KIND_PAIRS, doomed.kind, flaky)
    executor.warm(batch)  # must not raise
    _version, cache = graph._engine_cache
    stored = {key[1:] for key in cache if key[0] == "relation"}
    assert (doomed.kind, doomed.nfa) not in stored
    assert {(job.kind, job.nfa) for job in plan.jobs[1:]} <= stored
    monkeypatch.setitem(relations._KIND_PAIRS, doomed.kind, original)
    # The affected queries recover at lookup time on the next run.
    results = list(executor.results(batch, warmed=True))
    assert all(not isinstance(a, BatchError) for _i, _q, a in results)
    assert results[0][2] == evaluate(ACYCLIC, make_graph(), "st")
