"""Bounded semi-decider for atom-injective containment (undecidable cell).

Theorem 5.2 shows CRPQ/CRPQ (even CRPQ/CRPQfin) containment under
atom-injective semantics is undecidable, by reduction from PCP.  The best
any implementation can offer for an unrestricted left-hand side is a
counterexample search that is complete in the limit:

  Q1 ⊈a-inj Q2  iff  some F1 ∈ Exp_a-inj(Q1) has ȳ1 ∉ Q2(F1)a-inj,

and Exp_a-inj(Q1) is recursively enumerable (expansions by word length,
quotients per expansion).  That search is
:func:`repro.containment.bounded.search_counterexample` under a-inj; this
module deepens its word-length bound.  A hit is a sound NOT_CONTAINED
with witness; exhausting the bound yields the honest verdict
CONTAINED_UP_TO_BOUND.
"""

from __future__ import annotations

from dataclasses import replace

from repro.containment.bounded import search_counterexample
from repro.containment.result import Verdict
from repro.semantics.base import Semantics


def semi_decide_ainj(q1, q2, max_word_length=4, expansion_budget=20000,
                     quotient_budget=20000):
    """Iterative-deepening counterexample search for Q1 ⊆a-inj Q2.

    Deepens the word-length bound from 1 to ``max_word_length``; returns at
    the first counterexample (smallest witnesses first), else the bounded
    verdict at the final depth, labelled ``ainj-bounded-search``.
    ``max_word_length=0`` runs the single bound-0 search (ε-words only); a
    negative bound is a ``ValueError``.
    """
    if max_word_length < 0:
        raise ValueError(
            f"max_word_length must be non-negative, got {max_word_length}"
        )
    for bound in range(1, max_word_length + 1) or (0,):
        result = search_counterexample(
            q1, q2, Semantics.ATOM_INJECTIVE, bound,
            expansion_budget=expansion_budget,
            quotient_budget=quotient_budget,
        )
        if result.verdict is Verdict.NOT_CONTAINED:
            break
    return replace(result, method="ainj-bounded-search")
