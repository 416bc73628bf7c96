"""Bounded semi-decider for atom-injective containment (undecidable cell).

Theorem 5.2 shows CRPQ/CRPQ (even CRPQ/CRPQfin) containment under
atom-injective semantics is undecidable, by reduction from PCP.  The best
any implementation can offer for an unrestricted left-hand side is a
counterexample search that is complete in the limit:

  Q1 ⊈a-inj Q2  iff  some F1 ∈ Exp_a-inj(Q1) has ȳ1 ∉ Q2(F1)a-inj,

and Exp_a-inj(Q1) is recursively enumerable (expansions by word length,
quotients per expansion).  We search with an increasing word-length bound;
a hit is a sound NOT_CONTAINED with witness; exhausting the bound yields
the honest verdict CONTAINED_UP_TO_BOUND.
"""

from __future__ import annotations

from repro.containment.result import ContainmentResult, Verdict
from repro.errors import SearchBudgetExceeded
from repro.queries.crpq import union_of
from repro.semantics.base import Semantics
from repro.semantics.evaluation import in_evaluation
from repro.semantics.expansion import atom_injective_expansions, expansions


def search_ainj_counterexample(q1, q2, max_word_length, expansion_budget=20000,
                               quotient_budget=20000):
    """Search for an a-inj containment counterexample with atom words of
    length ≤ ``max_word_length``.  Returns a ContainmentResult.

    Membership checks over candidate databases read Q2's memoized
    analysis report (see finite_left).
    """
    semantics = Semantics.ATOM_INJECTIVE
    right = union_of(q2)
    left_disjuncts = []
    for disjunct in union_of(q1):
        left_disjuncts.extend(disjunct.epsilon_free_union())
    checked = 0
    truncated = False
    for disjunct in left_disjuncts:
        try:
            expansion_iter = expansions(
                disjunct, max_word_length, max_count=expansion_budget
            )
            for expansion in expansion_iter:
                try:
                    quotients = atom_injective_expansions(
                        expansion, max_count=quotient_budget
                    )
                    for candidate in quotients:
                        checked += 1
                        cq = candidate.cq
                        if not in_evaluation(right, cq.as_graph(), cq.head,
                                             semantics):
                            return ContainmentResult(
                                Verdict.NOT_CONTAINED,
                                semantics,
                                method="ainj-bounded-search",
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
        method="ainj-bounded-search",
        bound=max_word_length,
        details={"candidates_checked": checked, "truncated": truncated},
    )


def semi_decide_ainj(q1, q2, max_word_length=4, expansion_budget=20000,
                     quotient_budget=20000):
    """Iterative-deepening counterexample search for Q1 ⊆a-inj Q2.

    Deepens the word-length bound from 1 to ``max_word_length``; returns at
    the first counterexample (smallest witnesses first), else the bounded
    verdict at the final depth.  ``max_word_length=0`` runs the single
    bound-0 search (ε-words only); a negative bound is a ``ValueError``.
    """
    if max_word_length < 0:
        raise ValueError(
            f"max_word_length must be non-negative, got {max_word_length}"
        )
    for bound in range(1, max_word_length + 1) or (0,):
        result = search_ainj_counterexample(
            q1, q2, bound,
            expansion_budget=expansion_budget,
            quotient_budget=quotient_budget,
        )
        if result.verdict is Verdict.NOT_CONTAINED:
            return result
    return result
