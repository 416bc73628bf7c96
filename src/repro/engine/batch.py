"""Batched multi-query execution over one graph database.

The paper's motivating setting (§1) is knowledge-graph workloads where
*many* CRPQs run against the same database.  The per-call engine caches
(:mod:`repro.engine.cache`) already make repeated evaluation of one
query cheap; this module adds the cross-query layer:

- :class:`QueryBatch` — an ordered collection of queries (CRPQs, CQs,
  or unions); the executor runs each one's memoized analyzed ε-free
  disjuncts (:func:`repro.engine.analyze.analyzed_disjuncts`);
- :class:`BatchExecutor` — plans the batch by structurally
  deduplicating atom languages (compiled NFAs are interned, so equal
  regexes collapse to one automaton), compiles each distinct NFA once,
  computes each distinct atom relation once, then evaluates every query.

The relations live in the engine's one atom-relation store
(:func:`repro.engine.relations.atom_relation`): hash-indexed
:class:`~repro.engine.relations.Relation` tables of kind "standard" /
"walk-loop" / "simple-path" / "simple-cycle-nonempty", one per (graph
version, kind, interned NFA).  Warm-up fills it; under st / a-inj the
join planner (:mod:`repro.engine.planner`) then reads its base tables
from it, and under q-inj the guided joint search
(:mod:`repro.engine.qinj`) reads its st pruning relations from it, so
a q-inj batch dedupes and warms one walk relation (or loop diagonal)
per distinct atom language, plus the a-inj relation of every
RPQ-shaped disjunct's atom, which the q-inj plan answers from (and
still amortizes NFA compilation and the per-(automaton, target)
co-reachability sets).

``max_workers`` enables a thread pool for the independent units of
work (one distinct atom relation, one query).  The per-unit code is
pure Python, so the GIL bounds the parallelism; the pool mainly helps
when relation computations interleave with cache-warm evaluations.
Results are always yielded in input order regardless of worker count.

Layering note: the engine sits *under* the semantics modules, so the
imports of :mod:`repro.semantics.rpq` / ``evaluation`` here are local
to the methods that need them (the same inversion-avoidance used by
``rpq_evaluate``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.engine import telemetry
from repro.engine.cache import compiled_nfa
from repro.engine.relations import atom_relation
from repro.engine.runtime import (
    active_context,
    checkpoint_site,
    current_context,
    resolve_context,
)
from repro.errors import EvaluationCancelled, ResourceExhausted
from repro.semantics.base import Semantics

SITE_BATCH_ENTRY = checkpoint_site(
    "batch.entry", "batch query evaluation (per analyzed disjunct)"
)

_ATOMS_TOTAL = telemetry.registry().counter("batch.atoms.total")
_ATOMS_SHARED = telemetry.registry().counter("batch.atoms.shared")
_WORKERS = telemetry.registry().gauge("batch.workers")


@dataclass(frozen=True)
class BatchError:
    """The structured error entry of one failed batch query.

    Yielded by :meth:`BatchExecutor.results` in the failed query's
    input-order slot; the remaining queries keep flowing.  Falsy (so
    ``if answers:`` style consumers treat it as "no answers") and
    iterable-as-empty, which keeps set-shaped consumers sound.
    """

    index: int
    query: object
    error: BaseException

    def __bool__(self):
        return False

    def __iter__(self):
        return iter(())

    def __str__(self):
        return (f"query {self.index} failed: "
                f"{type(self.error).__name__}: {self.error}")


@dataclass(frozen=True)
class AtomJob:
    """One distinct unit of shared atom work: an interned automaton plus
    the relation kind the semantics needs for it.

    Equality follows ``(nfa, kind)``; NFAs hash by identity and the
    compilation cache interns them, so two atoms with structurally equal
    languages (and the same loop-ness under a-inj) collapse to one job.
    """

    nfa: object
    # "standard" | "walk-loop" | "simple-path" | "simple-cycle-nonempty";
    # the two loop kinds are a loop atom's diagonal under st / a-inj.
    kind: str


def atom_job(atom, semantics):
    """The :class:`AtomJob` an atom contributes under ``semantics``.

    Query-injective atoms contribute their st job (``"standard"``, or
    ``"walk-loop"`` for a loop atom): the guided joint search
    (:mod:`repro.engine.qinj`) prunes with the walk relations and loop
    diagonals, so a q-inj batch dedupes and warms exactly those (the
    atom of an RPQ-shaped q-inj disjunct is planned under a-inj by
    :meth:`BatchExecutor.plan`).  The st / a-inj kind dispatch is
    :func:`repro.semantics.rpq.atom_relation_kind` — the same table the
    per-query relational encoding uses, so batched and sequential
    evaluation can never disagree about which relation an atom needs.
    """
    from repro.semantics.rpq import atom_relation_kind

    if semantics is Semantics.QUERY_INJECTIVE:
        semantics = Semantics.STANDARD
    return AtomJob(compiled_nfa(atom.language),
                   atom_relation_kind(atom, semantics))


@dataclass(frozen=True)
class BatchPlan:
    """The shared-work summary for one (batch, semantics) pairing."""

    semantics: Semantics
    num_queries: int
    num_disjuncts: int
    num_atoms: int
    num_distinct_languages: int
    jobs: tuple  # distinct AtomJobs, first-seen order

    @property
    def num_shared_atoms(self):
        """Atom occurrences collapsing onto an already-seen language."""
        return self.num_atoms - self.num_distinct_languages

    def __str__(self):
        summary = (f"{self.num_queries} queries, {self.num_disjuncts} ε-free "
                   f"disjuncts, {self.num_atoms} atoms, "
                   f"{self.num_distinct_languages} distinct atom languages")
        if self.jobs:
            summary += f", {len(self.jobs)} distinct atom relations"
        return summary


class QueryBatch:
    """An ordered collection of queries destined for one graph.

    Queries are stored as given; the executor normalizes each through
    the memoized static analyzer, so repeated executions share one
    ε-elimination per query structure.
    """

    def __init__(self, queries=()):
        self._queries = list(queries)

    def add(self, query):
        """Append a query; returns ``self`` for chaining."""
        self._queries.append(query)
        return self

    def __len__(self):
        return len(self._queries)

    def __iter__(self):
        return iter(self._queries)


class BatchExecutor:
    """Evaluate a :class:`QueryBatch` over one graph under one semantics.

    The executor keeps no relations of its own: :meth:`warm` fills the
    engine's one atom-relation store
    (:func:`repro.engine.relations.atom_relation`) with every distinct
    relation the batch needs, and the queries then plan against that
    store through the planners' default hooks.  A graph mutated between
    calls moves the store to the new version, so stale relations are
    never served.  The executor is reusable across batches against the
    same graph.
    """

    def __init__(self, graph, semantics, max_workers=None):
        self.graph = graph
        self.semantics = Semantics.coerce(semantics)
        self.max_workers = max_workers

    # ------------------------------------------------------------------
    # Planning and warm-up
    # ------------------------------------------------------------------

    def _analyzed(self, query):
        """The ε-free disjuncts to execute for one query: the static
        analyzer's pruned/rewritten list under the executor's semantics
        (:mod:`repro.engine.analyze`).  Reports are memoized per query
        structure, so every phase (plan / warm / results / explain) and
        every repeat of the same query across batches shares one
        analysis; with analysis disabled this degrades to the plain
        ε-free normalization."""
        from repro.engine.analyze import analyzed_disjuncts

        return analyzed_disjuncts(query, self.semantics)

    def plan(self, batch):
        """Summarize the shared work without computing any relation.

        Counts reflect the *analyzed* disjunct lists: work pruned by the
        static analyzer never contributes an atom job.  Under q-inj the
        atom of an RPQ-shaped disjunct
        (:func:`repro.engine.analyze.rpq_atom`) contributes its a-inj
        job: the q-inj plan answers that disjunct from the a-inj
        relation."""
        from repro.engine.analyze import rpq_atom

        jobs = {}
        languages = {}
        num_disjuncts = 0
        num_atoms = 0
        for query in batch:
            for disjunct in self._analyzed(query):
                num_disjuncts += 1
                semantics = self.semantics
                if (semantics is Semantics.QUERY_INJECTIVE
                        and rpq_atom(disjunct) is not None):
                    semantics = Semantics.ATOM_INJECTIVE
                for atom in disjunct.atoms:
                    num_atoms += 1
                    languages.setdefault(compiled_nfa(atom.language), None)
                    jobs.setdefault(atom_job(atom, semantics), None)
        plan = BatchPlan(
            semantics=self.semantics,
            num_queries=len(batch),
            num_disjuncts=num_disjuncts,
            num_atoms=num_atoms,
            num_distinct_languages=len(languages),
            jobs=tuple(jobs),
        )
        _ATOMS_TOTAL.inc(plan.num_atoms)
        _ATOMS_SHARED.inc(plan.num_shared_atoms)
        return plan

    def warm(self, batch):
        """Compute every distinct atom relation the batch needs into the
        shared store (on the pool when ``max_workers`` allows).

        Returns the :class:`BatchPlan`.  Relations already stored for
        the graph's current version (by a previous batch, or by any
        other evaluation) are lookups.

        Fault isolation: a job that fails with an ordinary exception
        stores nothing — the queries needing it retry the relation when
        they plan, and fail individually if it fails again, while every
        other query keeps its warmed relations.  Budget/cancellation
        exceptions abort the warm-up as a whole; the store publishes a
        relation only once it is fully computed, so an interrupt never
        leaves partial data behind.
        """
        plan = self.plan(batch)
        ctx = current_context()
        pool_size = self._pool_size(len(plan.jobs))
        if pool_size > 1:
            with ThreadPoolExecutor(pool_size) as pool:
                list(pool.map(lambda job: self._guarded_job(job, ctx),
                              plan.jobs))
        else:
            for job in plan.jobs:
                self._guarded_job(job, ctx)
        return plan

    def _guarded_job(self, job, ctx):
        """Store one atom relation under the batch's execution context
        (re-activated explicitly: context variables do not propagate
        into pool worker threads).  Ordinary failures warm nothing for
        this job; governor interrupts propagate."""
        try:
            with active_context(ctx):
                atom_relation(self.graph, job.nfa, job.kind)
        except (ResourceExhausted, EvaluationCancelled):
            raise
        except Exception:
            pass

    def _pool_size(self, num_units):
        if not self.max_workers or self.max_workers <= 1:
            return 1
        return min(self.max_workers, max(num_units, 1))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, batch, on_budget="raise"):
        """Evaluate the whole batch; one frozenset of answer tuples per
        query, in input order.  A query that fails contributes a
        :class:`BatchError` in its slot instead of aborting the batch
        (see :meth:`results` for the ``on_budget`` contract)."""
        return [
            answers
            for _index, _query, answers in self.results(
                batch, on_budget=on_budget
            )
        ]

    def results(self, batch, warmed=False, on_budget="raise"):
        """Yield ``(index, query, answers)`` in input order as each
        query completes (the streaming interface behind the CLI's
        ``batch`` command).  ``warmed=True`` skips the warm-up pass for
        callers that already ran :meth:`warm` on this batch (the CLI
        warms once to print the plan, then streams); a graph mutated
        between the calls simply recomputes its relations lazily.

        Fault isolation: one poisoned query never takes down the batch.
        A query whose evaluation raises an ordinary exception yields a
        :class:`BatchError` in its input-order slot and the remaining
        queries keep flowing.  Budget / cancellation exceptions follow
        ``on_budget``: ``"raise"`` (default) aborts the whole batch by
        propagating, ``"partial"`` converts them to :class:`BatchError`
        entries as well (after exhaustion, every remaining query
        typically trips the same limit at its first checkpoint).
        """
        if on_budget not in ("raise", "partial"):
            raise ValueError(
                f"on_budget must be 'raise' or 'partial', got {on_budget!r}"
            )
        try:
            if not warmed:
                self.warm(batch)
        except (ResourceExhausted, EvaluationCancelled):
            if on_budget == "raise":
                raise
            # Exhausted during warm-up: fall through and let each entry
            # report its own structured error (nothing partial was
            # published into the store).
        queries = list(batch)
        ctx = current_context()
        pool_size = self._pool_size(len(queries))
        _WORKERS.set(pool_size)
        if pool_size > 1:
            with ThreadPoolExecutor(pool_size) as pool:
                answer_stream = pool.map(
                    lambda indexed: self._entry_result(
                        indexed[0], indexed[1], ctx, on_budget
                    ),
                    enumerate(queries),
                )
                for index, (query, answers) in enumerate(
                        zip(queries, answer_stream)):
                    yield index, query, answers
        else:
            for index, query in enumerate(queries):
                yield index, query, self._entry_result(
                    index, query, ctx, on_budget
                )

    def _entry_result(self, index, query, ctx, on_budget):
        """One isolated query evaluation: its answers, or the
        structured :class:`BatchError` carrying what went wrong.  The
        batch's execution context is re-activated explicitly — context
        variables do not propagate into pool worker threads (so an
        entry span opened on a pool thread parents to the trace root,
        the documented contract)."""
        try:
            with active_context(ctx):
                with telemetry.span("batch-entry", index=index) as span:
                    answers = self._entry_answers(query, ctx)
                trace = telemetry.current_trace()
                if trace is not None:
                    return telemetry.TracedAnswers(
                        answers, trace=trace, span=span
                    )
                return answers
        except (ResourceExhausted, EvaluationCancelled) as error:
            if on_budget == "raise":
                raise
            return BatchError(index=index, query=query, error=error)
        except Exception as error:
            return BatchError(index=index, query=query, error=error)

    def _entry_answers(self, query, ctx=None):
        ctx = resolve_context(ctx)
        answers = set()
        for disjunct in self._analyzed(query):
            ctx.checkpoint(SITE_BATCH_ENTRY)
            answers |= self._disjunct_answers(disjunct)
        return frozenset(answers)

    def _disjunct_answers(self, disjunct):
        from repro.semantics.evaluation import evaluate_eps_free

        return evaluate_eps_free(disjunct, self.graph, self.semantics)

    def explain(self, batch):
        """Render the batch plan plus every disjunct's join plan without
        executing any glue (the CLI's ``batch --explain``).  Relations
        are warmed first — plan rendering reports their sizes.  Each
        query's section opens with its static-analysis audit trail when
        the analyzer pruned or rewrote anything."""
        from repro.engine.analyze import analyze
        from repro.engine.planner import plan_eps_free
        from repro.engine.qinj import plan_qinj

        plan = self.warm(batch)
        lines = [f"batch plan: {plan} "
                 f"({plan.num_shared_atoms} atom occurrence(s) shared)"]
        for index, query in enumerate(batch):
            lines.append("")
            lines.append(f"[{index + 1}] {query}")
            report = analyze(query, self.semantics)
            if report.pruned:
                lines.extend(
                    "  " + line for line in report.explain().splitlines()
                )
            for disjunct in report.disjuncts:
                if self.semantics is Semantics.QUERY_INJECTIVE:
                    disjunct_plan = plan_qinj(disjunct, self.graph)
                else:
                    disjunct_plan = plan_eps_free(
                        disjunct, self.graph, self.semantics
                    )
                lines.extend(
                    "  " + line
                    for line in disjunct_plan.explain().splitlines()
                )
        return "\n".join(lines)
