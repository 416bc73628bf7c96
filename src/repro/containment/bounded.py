"""Bounded counterexample search for any semantics (reference/fallback).

Enumerates ★-expansions of Q1 with atom words up to a length bound and
evaluates Q2 on each (the §4.1 counterexample characterization).  Sound for
NOT_CONTAINED under every semantics; complete only in the limit.  The test
suite uses this as ground truth to cross-validate the exact deciders.
"""

from __future__ import annotations

from repro.containment.result import ContainmentResult, Verdict
from repro.errors import SearchBudgetExceeded
from repro.queries.crpq import union_of
from repro.semantics.base import Semantics
from repro.semantics.evaluation import in_evaluation
from repro.semantics.expansion import atom_injective_expansions, expansions


def search_counterexample(q1, q2, semantics, max_word_length,
                          expansion_budget=50000, quotient_budget=50000):
    """Search for a ★-expansion of Q1 (word length ≤ bound) on which Q2
    fails; returns NOT_CONTAINED with witness, or CONTAINED_UP_TO_BOUND.

    Like every decider, the membership checks read Q2's memoized
    analysis report (see finite_left).
    """
    semantics = Semantics.coerce(semantics)
    right = union_of(q2)
    left_disjuncts = []
    for disjunct in union_of(q1):
        left_disjuncts.extend(disjunct.epsilon_free_union())
    checked = 0
    truncated = False
    for disjunct in left_disjuncts:
        try:
            for expansion in expansions(disjunct, max_word_length,
                                        max_count=expansion_budget):
                if semantics is Semantics.ATOM_INJECTIVE:
                    try:
                        candidates = list(
                            atom_injective_expansions(
                                expansion, max_count=quotient_budget
                            )
                        )
                    except SearchBudgetExceeded:
                        truncated = True
                        continue
                else:
                    candidates = [expansion]
                for candidate in candidates:
                    checked += 1
                    cq = candidate.cq
                    if not in_evaluation(right, cq.as_graph(), cq.head,
                                         semantics):
                        return ContainmentResult(
                            Verdict.NOT_CONTAINED,
                            semantics,
                            method="bounded-search",
                            counterexample=cq,
                            bound=max_word_length,
                            details={"candidates_checked": checked},
                        )
        except SearchBudgetExceeded:
            truncated = True
    return ContainmentResult(
        Verdict.CONTAINED_UP_TO_BOUND,
        semantics,
        method="bounded-search",
        bound=max_word_length,
        details={"candidates_checked": checked, "truncated": truncated},
    )
