"""The hot-path evaluation engine.

This package is a performance layer *under* the semantics modules — it
changes how atom relations are computed, never what they contain.  Its
main modules (ARCHITECTURE.md has the full picture, including the
analyzer, the q-inj search, the incremental store and the governor):

- :mod:`repro.engine.adjacency` — a per-graph :class:`AdjacencyIndex`
  with pre-sorted, label-partitioned out/in edge lists, so the
  backtracking searches stop re-sorting adjacency inside their inner
  loops;
- :mod:`repro.engine.cache` — a structural ``Regex → NFA`` compilation
  cache, the version-tagged graph-scoped cache (invalidated by the
  graph's mutation counter) that the atom-relation store lives in, and
  the per-target co-reachability masks (:func:`coreachable_masks`)
  that prune the simple-path backtracking searches;
- :mod:`repro.engine.product` — a single-sweep product-automaton
  reachability replacing the per-source BFS of the classical NL
  algorithm;
- :mod:`repro.engine.batch` — the cross-query layer: a
  :class:`QueryBatch`/:class:`BatchExecutor` pair that deduplicates
  atom languages structurally across many queries, computes each
  distinct atom relation once into the shared atom-relation store, and
  evaluates every query against it (optionally on a thread pool);
- :mod:`repro.engine.relations` — hash-indexed binary
  :class:`Relation` tables (by-source / by-target dicts built per
  side on first read), the base tables of the join engine, and
  :func:`atom_relation`, the one store that hands them out per
  (graph version, kind, NFA);
- :mod:`repro.engine.join` — the tuple-relation algebra (hash join,
  semijoin, projection) the planner executes;
- :mod:`repro.engine.planner` — the st / a-inj glue: min-degree
  variable elimination over the base tables for every component; past
  the elimination row cap, semijoin reduction and a second elimination
  of the reduced tables with no cap;
- :mod:`repro.engine.telemetry` — the layer-0 observability substrate:
  the process-wide :class:`MetricsRegistry` every subsystem above
  counts into, and the :class:`QueryTrace`/span machinery riding
  :class:`~repro.engine.runtime.ExecutionContext`.

Everything here is output-equivalent to the seed implementations; the
differential matrix (``tests/differential_matrix.py``) pins that.
"""

from repro.engine.adjacency import AdjacencyIndex, adjacency_index
from repro.engine.batch import AtomJob, BatchExecutor, BatchPlan, QueryBatch
from repro.engine.cache import compiled_nfa, invalidate_engine_caches
from repro.engine.join import TupleRelation, natural_join, project, semijoin
from repro.engine.planner import JoinPlan, explain_query, plan_eps_free
from repro.engine.product import product_reachability_pairs
from repro.engine.relations import Relation, atom_relation
from repro.engine.telemetry import (
    MetricsRegistry,
    QueryTrace,
    TracedAnswers,
    current_trace,
)
from repro.engine.telemetry import registry as metrics_registry

__all__ = [
    "AdjacencyIndex",
    "adjacency_index",
    "atom_relation",
    "AtomJob",
    "BatchExecutor",
    "BatchPlan",
    "compiled_nfa",
    "explain_query",
    "invalidate_engine_caches",
    "JoinPlan",
    "MetricsRegistry",
    "QueryTrace",
    "TracedAnswers",
    "current_trace",
    "metrics_registry",
    "natural_join",
    "plan_eps_free",
    "product_reachability_pairs",
    "project",
    "QueryBatch",
    "Relation",
    "semijoin",
    "TupleRelation",
]
