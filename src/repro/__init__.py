"""repro — a reproduction of "Conjunctive Regular Path Queries under
Injective Semantics" (Figueira & Romero, PODS 2023).

Public API highlights:

- :class:`repro.GraphDatabase` — edge-labeled directed graphs (§2);
- :func:`repro.parse_query` / :class:`repro.CRPQ` / :class:`repro.CQ` —
  the query model;
- :class:`repro.Semantics` and :func:`repro.evaluate` — evaluation under
  standard, atom-injective, and query-injective semantics (§2.1, §3);
- :func:`repro.evaluate_batch` — batched multi-query evaluation that
  amortizes NFA compilation and atom-relation work across queries;
- :func:`repro.analyze` / :class:`repro.AnalysisReport` — the static
  query analyzer every evaluation flows through: disjunct and
  sibling-atom pruning, each certified by a containment or
  language-inclusion verdict (audited decisions), plus warning-level
  lints, memoized per query structure;
- :func:`repro.incremental_store` /
  :class:`repro.IncrementalRelationStore` — incremental view
  maintenance for dynamic graphs: standard atom relations are grown /
  repaired from the graph's change-log (including deletions via
  :meth:`GraphDatabase.remove_edge` / ``remove_node``) instead of
  rebuilt per mutation;
- :func:`repro.explain_query` — per ε-free disjunct, the st / a-inj
  join plan (components, elimination order, relation sizes) or the
  q-inj relation-guided pruning plan (reduced candidate tables,
  variable domains, atom search order), without executing any glue or
  search;
- :class:`repro.QueryTrace` / :class:`repro.TracedAnswers` — structured
  query tracing: ``evaluate(..., trace=True)`` returns the answers with
  a span tree, per-query counters, and (via
  :func:`repro.devtools.obs.trace_session`) a checkpoint-site profile
  attached; :func:`repro.metrics_registry` is the process-wide metrics
  registry every engine subsystem counts into;
- :func:`repro.contains` — containment deciders for every cell of
  Figure 1 (§4–§6), with honest bounded verdicts on the undecidable cell;
- :mod:`repro.reductions` — executable hardness reductions (PCP, GCP2,
  ∀∃-QBF, subgraph isomorphism).
"""

from repro.containment import ContainmentResult, Verdict, containment_cell, contains
from repro.errors import (
    EvaluationCancelled,
    EvaluationTimeout,
    NotSupportedError,
    QuerySyntaxError,
    RegexSyntaxError,
    ReproError,
    ResourceExhausted,
    SearchBudgetExceeded,
)
from repro.engine.analyze import (
    AnalysisDecision,
    AnalysisLint,
    AnalysisReport,
    analysis_disabled,
    analyze,
)
from repro.engine.incremental import IncrementalRelationStore, incremental_store
from repro.engine.planner import explain_query
from repro.engine.telemetry import QueryTrace, TracedAnswers, current_trace
from repro.engine.telemetry import registry as metrics_registry
from repro.engine.runtime import (
    CancellationToken,
    ExecutionContext,
    PartialAnswers,
    ResourceBudget,
    active_context,
    current_context,
)
from repro.graphdb import GraphDatabase, GraphDelta
from repro.queries import CQ, CRPQ, Atom, CQAtom, parse_query, union_of
from repro.regular import NFA, parse_regex
from repro.semantics import Semantics, evaluate, evaluate_batch, in_evaluation

__version__ = "1.0.0"

__all__ = [
    "GraphDatabase",
    "GraphDelta",
    "IncrementalRelationStore",
    "incremental_store",
    "CQ",
    "CRPQ",
    "Atom",
    "CQAtom",
    "parse_query",
    "parse_regex",
    "union_of",
    "NFA",
    "Semantics",
    "AnalysisDecision",
    "AnalysisLint",
    "AnalysisReport",
    "analysis_disabled",
    "analyze",
    "evaluate",
    "evaluate_batch",
    "explain_query",
    "in_evaluation",
    "contains",
    "containment_cell",
    "ContainmentResult",
    "Verdict",
    "ReproError",
    "RegexSyntaxError",
    "QuerySyntaxError",
    "ResourceExhausted",
    "EvaluationTimeout",
    "EvaluationCancelled",
    "SearchBudgetExceeded",
    "NotSupportedError",
    "ResourceBudget",
    "CancellationToken",
    "ExecutionContext",
    "PartialAnswers",
    "QueryTrace",
    "TracedAnswers",
    "active_context",
    "current_context",
    "current_trace",
    "metrics_registry",
    "__version__",
]
