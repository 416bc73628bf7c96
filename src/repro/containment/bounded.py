"""Bounded counterexample search for any semantics.

Enumerates ★-expansions of Q1 with atom words up to a length bound and
evaluates Q2 on each (the §4.1 counterexample characterization).  Sound for
NOT_CONTAINED under every semantics; complete only in the limit.  The a-inj
semi-decider deepens over it, and the test suite uses it as ground truth to
cross-validate the exact deciders.
"""

from __future__ import annotations

from repro.containment.result import ContainmentResult, Verdict
from repro.errors import SearchBudgetExceeded
from repro.queries.crpq import eps_free_disjuncts, union_of
from repro.semantics.base import Semantics
from repro.semantics.evaluation import in_evaluation
from repro.semantics.expansion import candidate_cqs, expansions


def search_counterexample(q1, q2, semantics, max_word_length,
                          expansion_budget=50000, quotient_budget=50000):
    """Search for a ★-expansion of Q1 (word length ≤ bound) on which Q2
    fails; returns NOT_CONTAINED with witness, or CONTAINED_UP_TO_BOUND.

    Candidates are checked as they are enumerated; a tripped budget
    skips the rest of its disjunct (expansions) or expansion (quotients)
    and marks the verdict truncated.
    Like every decider, the membership checks read Q2's memoized
    analysis report (see finite_left).
    """
    semantics = Semantics.coerce(semantics)
    right = union_of(q2)
    left_disjuncts = eps_free_disjuncts(q1)
    checked = 0
    truncated = False
    for disjunct in left_disjuncts:
        try:
            for expansion in expansions(disjunct, max_word_length,
                                        max_count=expansion_budget):
                try:
                    for cq in candidate_cqs(expansion, semantics,
                                            quotient_budget):
                        checked += 1
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
        except SearchBudgetExceeded:
            truncated = True
    return ContainmentResult(
        Verdict.CONTAINED_UP_TO_BOUND,
        semantics,
        method="bounded-search",
        bound=max_word_length,
        details={"candidates_checked": checked, "truncated": truncated},
    )
