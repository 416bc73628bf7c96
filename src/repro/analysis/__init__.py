"""Experiment harness: the Figure 1 complexity table as an executable
artifact, instance generators per cell, and paper-style row printers."""

from repro.analysis.figure1 import FIGURE1, Figure1Cell, figure1_table_text
from repro.analysis.batching import (
    batch_report_text,
    drop_all_caches,
    evaluate_independent,
    run_batch_throughput,
    shared_atom_workload,
)
from repro.analysis.experiments import (
    agreement_matrix,
    hierarchy_check,
    semantics_census,
)
from repro.analysis.join_glue import chain_query

__all__ = [
    "FIGURE1",
    "Figure1Cell",
    "figure1_table_text",
    "agreement_matrix",
    "batch_report_text",
    "chain_query",
    "drop_all_caches",
    "evaluate_independent",
    "hierarchy_check",
    "run_batch_throughput",
    "semantics_census",
    "shared_atom_workload",
]
