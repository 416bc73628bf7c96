"""CRPQ evaluation under the three semantics (§2.1, §3).

The entry points accept a CRPQ, a CQ, or a union thereof; ε-containing
languages are handled by the ε-elimination of §2.1 (evaluation of the
equivalent union of ε-free queries).

Algorithms:

- standard: per-atom walk relations (product-automaton BFS, NL in data
  complexity) glued by the join planner (:mod:`repro.engine.planner`):
  min-degree variable elimination over hash joins for every disjunct;
  past its row cap, semijoin reduction and an uncapped second
  elimination of the reduced tables;
- atom-injective: per-atom *simple-path* relations (NP-hard already per
  atom, Prop 3.2) glued the same way — atoms need not be disjoint;
- query-injective: a *relation-guided* joint backtracking search
  (:mod:`repro.engine.qinj`), because node-disjointness couples the
  atoms: the standard atom relations over-approximate the endpoint
  candidates, a semijoin reduction shrinks them to the arc-consistent
  fixpoint, and only surviving bindings feed the injective search
  (Prop 2.2's injective expansion homomorphism, run directly on the
  database), each atom's witness path enumerated under the search's
  forbidden-node set.  An RPQ-shaped disjunct (one atom, its endpoints
  the whole head) reads its a-inj relation instead, with no search.

Dynamic graphs: attaching an
:class:`~repro.engine.incremental.IncrementalRelationStore` to a graph
changes none of these entry points — the planners and the atom-relation
caches transparently read *maintained* standard relations (grown /
repaired across versions from the graph's change-log) instead of
rebuilding them per mutation, and the a-inj simple-path searches prune
through the same maintained tables.
"""

from __future__ import annotations

from repro.engine import telemetry
from repro.engine.analyze import analyzed_disjuncts
from repro.engine.cache import query_result
from repro.engine.planner import plan_eps_free
from repro.engine.qinj import plan_qinj
from repro.engine.runtime import (
    ExecutionContext,
    PartialAnswers,
    ResourceBudget,
    activated_context,
    active_context,
)
from repro.errors import EvaluationCancelled, ResourceExhausted
from repro.queries.crpq import union_of
from repro.semantics.base import Semantics
from repro.semantics.rpq import atom_relation_kind, relation_by_kind


def _bounded_context(budget, timeout):
    """The :class:`ExecutionContext` for an entry point's ``budget`` /
    ``timeout`` kwargs, or ``None`` when neither is given (the ambient
    context — usually unbounded — then governs, and the fast path is
    byte-for-byte the pre-governor behavior)."""
    if budget is None and timeout is None:
        return None
    if budget is None:
        budget = ResourceBudget(timeout=timeout)
    elif timeout is not None:
        raise ValueError("pass either budget= or timeout=, not both")
    return ExecutionContext(budget)


def _check_on_budget(on_budget):
    if on_budget not in ("raise", "partial"):
        raise ValueError(
            f"on_budget must be 'raise' or 'partial', got {on_budget!r}"
        )


def evaluate(query, graph, semantics, *, budget=None, timeout=None,
             on_budget="raise", trace=False):
    """Return Q(G)★ as a frozenset of node tuples.

    ``query`` may be a CRPQ, a CQ, or a union (tuple/list) of them; the
    union's evaluation is the union of the evaluations.

    The ε-free disjuncts actually executed come from the static
    analyzer (:mod:`repro.engine.analyze`): unsatisfiable or duplicate
    disjuncts are pruned and atoms implied by a sibling atom's language
    dropped, under rewrites sound for ``semantics`` — the answer set is
    unchanged.
    The analysis is memoized per query structure (graph-independent);
    :func:`repro.engine.analyze.analysis_disabled` restores the
    unanalyzed path, which only reference comparisons (the differential
    matrix, benchmark baselines) use.

    Resource governance: ``budget`` (a
    :class:`~repro.engine.runtime.ResourceBudget`) or the ``timeout``
    shorthand bounds the evaluation; with neither, the ambient
    execution context governs (see :mod:`repro.engine.runtime`).  When
    a limit trips, ``on_budget="raise"`` (default) propagates the
    :class:`~repro.errors.ResourceExhausted` /
    :class:`~repro.errors.EvaluationTimeout`; ``on_budget="partial"``
    instead returns a :class:`~repro.engine.runtime.PartialAnswers`
    (a frozenset subclass with ``complete=False`` and the triggering
    ``error``) holding the answers of the disjuncts that *completed* —
    a sound subset of the full answer set, never partial output of an
    interrupted disjunct.

    ``trace=True`` records a structured
    :class:`~repro.engine.telemetry.QueryTrace` (span tree plus the
    query's counter deltas) and returns a
    :class:`~repro.engine.telemetry.TracedAnswers` — the same frozenset
    with the trace on ``.trace``.  A trace needs an execution context to
    ride on: the bounded one, else the ambient active context, else a
    fresh unbounded one scoped to this call.
    """
    _check_on_budget(on_budget)
    semantics = Semantics.coerce(semantics)
    ctx = _bounded_context(budget, timeout)
    if trace and ctx is None and activated_context() is None:
        ctx = ExecutionContext()
    results = set()
    query_trace = None
    try:
        with active_context(ctx):
            if trace:
                with telemetry.tracing(ctx or activated_context()) \
                        as query_trace:
                    answers = _union_disjuncts(query, graph, semantics,
                                               results)
            else:
                answers = _union_disjuncts(query, graph, semantics, results)
    except (ResourceExhausted, EvaluationCancelled) as error:
        if on_budget == "raise":
            raise
        partial = PartialAnswers(results, complete=False, error=error)
        if query_trace is not None:
            partial.trace = query_trace
        return partial
    if query_trace is not None:
        return telemetry.TracedAnswers(
            answers, trace=query_trace, span=query_trace.root
        )
    return frozenset(answers)


def _union_disjuncts(query, graph, semantics, results):
    """The union of every analyzed disjunct's answers, under an
    ``analyze`` span when a trace is active.  A lone disjunct's result
    frozenset comes back as is (``frozenset()`` of it copies nothing);
    several accumulate into ``results``, mutated in place so
    ``on_budget="partial"`` sees completed disjuncts."""
    with telemetry.span("analyze", semantics=str(semantics)):
        disjuncts = analyzed_disjuncts(query, semantics)
    if len(disjuncts) == 1:
        return evaluate_eps_free(disjuncts[0], graph, semantics)
    for eps_free in disjuncts:
        results |= evaluate_eps_free(eps_free, graph, semantics)
    return results


def evaluate_batch(queries, graph, semantics, max_workers=None, *,
                   budget=None, timeout=None, on_budget="raise"):
    """Evaluate many queries over one graph, amortizing shared work.

    ``queries`` is a sequence; each element may itself be a CRPQ, CQ, or
    union.  Returns a list with one frozenset of answer tuples per input
    query, in input order — each entry equals
    ``evaluate(queries[i], graph, semantics)`` exactly.  A query whose
    evaluation fails contributes a
    :class:`~repro.engine.batch.BatchError` in its slot instead of
    aborting the batch; budget / cancellation exhaustion follows
    ``on_budget`` (``"raise"`` propagates, ``"partial"`` degrades the
    affected queries to error entries too).  ``budget`` / ``timeout``
    bound the *whole batch* jointly, not each query separately.

    The heavy lifting lives in :mod:`repro.engine.batch`: atom languages
    are deduplicated structurally across the whole batch, each distinct
    NFA is compiled once, each distinct atom relation is computed once
    into the engine's atom-relation store, and only then are the queries
    glued.
    ``max_workers`` > 1 runs the independent per-relation / per-query
    units on a thread pool.
    """
    from repro.engine.batch import BatchExecutor, QueryBatch

    _check_on_budget(on_budget)
    ctx = _bounded_context(budget, timeout)
    executor = BatchExecutor(graph, semantics, max_workers=max_workers)
    with active_context(ctx):
        return executor.execute(QueryBatch(queries), on_budget=on_budget)


def in_evaluation(query, graph, target_tuple, semantics):
    """Decide ``target_tuple ∈ Q(G)★`` with early exit.

    This is the *evaluation problem* of §3 (Boolean queries pass ``()``).
    """
    semantics = Semantics.coerce(semantics)
    target_tuple = tuple(target_tuple)
    # Validate arity against *every* disjunct head before evaluating any
    # of them: an ill-typed target tuple must raise, not return True from
    # an earlier disjunct (regression: the check used to sit inside the
    # evaluation loop below).  ε-elimination preserves head length, so
    # checking the top-level heads covers every ε-free disjunct without
    # materializing the (worst-case exponential) unions up front.
    disjuncts = union_of(query)
    for disjunct in disjuncts:
        if len(target_tuple) != len(disjunct.head):
            raise ValueError("target tuple arity mismatch")
    for eps_free in analyzed_disjuncts(query, semantics):
        if _check_eps_free(eps_free, graph, target_tuple, semantics):
            return True
    return False


# ----------------------------------------------------------------------
# Per-semantics evaluation of ε-free CRPQs
# ----------------------------------------------------------------------


def evaluate_eps_free(query, graph, semantics):
    """Evaluate one ε-free CRPQ disjunct (no coercion, no ε-elimination).

    Full per-disjunct results are memoized per graph version: repeated
    evaluation of an unchanged (query, graph, semantics) triple — the
    query-serving hot path — reduces to a dictionary lookup.  The batch
    executor shares this cache, so batched and one-at-a-time serving
    interleave freely.
    """
    return query_result(
        graph,
        semantics,
        query,
        lambda: eps_free_answers_uncached(query, graph, semantics),
    )


def eps_free_answers_uncached(query, graph, semantics):
    """The uncached body of :func:`evaluate_eps_free`: plan and run one
    disjunct over the atom relations of the engine's one store (the
    glue's base tables under st / a-inj, the standard pruning relations
    of the guided search under q-inj, or the a-inj relation of an
    RPQ-shaped q-inj disjunct)."""
    if semantics is Semantics.QUERY_INJECTIVE:
        with telemetry.span("plan", kind="qinj"):
            plan = plan_qinj(query, graph)
        with telemetry.span("execute", kind="qinj"):
            return plan.answers()
    with telemetry.span("plan", kind="join"):
        plan = plan_eps_free(query, graph, semantics)
    with telemetry.span("execute", kind="join"):
        return plan.answers()


def _check_eps_free(query, graph, target_tuple, semantics):
    binding = {}
    for variable, node in zip(query.head, target_tuple):
        if binding.get(variable, node) != node:
            return False
        binding[variable] = node
    if semantics is Semantics.QUERY_INJECTIVE:
        plan = plan_qinj(query, graph, binding=binding)
        return plan.is_satisfiable()
    plan = plan_eps_free(query, graph, semantics, binding=binding)
    return plan.is_satisfiable()


def atom_pairs(graph, atom, semantics):
    """The pair relation of one atom under st / a-inj semantics (a
    :class:`Semantics` or its name): walks for standard, simple paths
    for atom-injective; a loop atom gives its diagonal, ``(v, v)`` with
    a closed walk (st) or a nonempty simple cycle (a-inj) at ``v``.
    Cached per graph version via the engine layer.  q-inj raises
    ``ValueError``: one atom has no q-inj relation outside its query."""
    return relation_by_kind(
        graph, atom.language, atom_relation_kind(atom, semantics)
    )
