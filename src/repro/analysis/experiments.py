"""Experiment runners (the E-series of ``benchmarks/bench_e*_*.py``).

These print the rows the paper's claims translate to:

- :func:`semantics_census` (E1/E2): evaluation results per semantics over
  a graph, with the Remark 2.1 hierarchy check;
- :func:`hierarchy_check` (E2): property check on random inputs;
- :func:`agreement_matrix` (E5): per Figure 1 cell, run the cell's decider
  on generated query pairs and cross-validate against the bounded
  reference search.
"""

from __future__ import annotations

import random
import time

from repro.analysis.figure1 import FIGURE1
from repro.analysis.workloads import query_pair_family, random_query, random_word_graph
from repro.containment.api import contains
from repro.containment.bounded import search_counterexample
from repro.containment.result import Verdict
from repro.queries.crpq import QueryClass
from repro.semantics.base import ALL_SEMANTICS, Semantics
from repro.semantics.evaluation import evaluate


def semantics_census(query, graph):
    """Evaluate ``query`` over ``graph`` under all three semantics and
    verify the Remark 2.1 hierarchy; returns {semantics: frozenset}."""
    results = {s: evaluate(query, graph, s) for s in ALL_SEMANTICS}
    assert results[Semantics.QUERY_INJECTIVE] <= results[Semantics.ATOM_INJECTIVE]
    assert results[Semantics.ATOM_INJECTIVE] <= results[Semantics.STANDARD]
    return results


def hierarchy_check(trials=20, seed=0, num_nodes=4, num_edges=6):
    """E2: Remark 2.1 on random query/graph pairs; returns trial count."""
    rng = random.Random(seed)
    for _ in range(trials):
        query = random_query(
            rng, QueryClass.CRPQ, num_variables=2, num_atoms=2, arity=1
        )
        graph = random_word_graph(rng, query.alphabet or {"a"},
                                  num_nodes=num_nodes, num_edges=num_edges)
        semantics_census(query, graph)
    return trials


def agreement_matrix(pairs_per_cell=6, seed=0, reference_bound=3,
                     include_undecidable=True):
    """E5: for each Figure 1 cell, run the cell's decider on generated
    query pairs and cross-check against the bounded reference search.

    Returns a list of row dicts (cell, checked, agreements, mean time).
    The reference search can only certify NOT_CONTAINED; agreement means:
    decider says NOT_CONTAINED iff the reference finds a counterexample
    within the bound, and decider NOT_CONTAINED verdicts always carry a
    verified witness.  A negative ``pairs_per_cell`` is a
    :class:`ValueError`.
    """
    if pairs_per_cell < 0:
        raise ValueError(
            f"pairs_per_cell must be non-negative, got {pairs_per_cell}"
        )
    rows = []
    seen_pairs = set()
    for cell in FIGURE1:
        key = (cell.left, cell.right, cell.semantics)
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        if not cell.decidable and not include_undecidable:
            continue
        checked = 0
        agreements = 0
        not_contained = 0
        elapsed = 0.0
        for q1, q2 in query_pair_family(cell.left, cell.right,
                                        count=pairs_per_cell, seed=seed):
            start = time.perf_counter()
            result = contains(q1, q2, cell.semantics, max_word_length=2)
            elapsed += time.perf_counter() - start
            checked += 1
            if result.verdict is Verdict.NOT_CONTAINED:
                # A NOT_CONTAINED verdict ships a witness; verify it
                # directly (Q2 must miss the witness tuple).
                from repro.semantics.evaluation import in_evaluation

                not_contained += 1
                witness = result.counterexample
                agreements += not in_evaluation(
                    q2, witness.as_graph(), witness.head, cell.semantics
                )
            else:
                reference = search_counterexample(
                    q1, q2, cell.semantics, max_word_length=reference_bound
                )
                agreements += reference.verdict is not Verdict.NOT_CONTAINED
        rows.append(
            {
                "cell": f"{cell.left}/{cell.right}",
                "semantics": str(cell.semantics),
                "complexity": cell.complexity,
                "decider": cell.decider,
                "checked": checked,
                "agreements": agreements,
                "not_contained": not_contained,
                "mean_seconds": elapsed / max(checked, 1),
            }
        )
    return rows


def agreement_matrix_text(rows):
    """Render agreement rows as a fixed-width table."""
    header = f"{'cell':<22}{'semantics':<10}{'complexity':<20}{'ok':<7}{'¬⊆':<5}{'mean s':<8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['cell']:<22}{row['semantics']:<10}{row['complexity']:<20}"
            f"{row['agreements']}/{row['checked']:<5}{row['not_contained']:<5}"
            f"{row['mean_seconds']:<8.3f}"
        )
    return "\n".join(lines)
