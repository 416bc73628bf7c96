"""Exact containment for star-free left-hand sides (CQ/★, CRPQfin/★).

By the counterexample characterization of §4.1 (and Props 4.2/4.3/4.6):

  Q1 ⊈★ Q2  iff  some ★-expansion F1(ȳ) of Q1 satisfies ȳ ∉ Q2(F1)★.

When Q1 is star-free the set of expansions is finite; for atom-injective
semantics the a-inj-expansion space (expansions + quotients avoiding
atom-related merges, Lemma 4.4) is also finite.  Membership ȳ ∈ Q2(F1)★ is
plain evaluation of Q2 over F1 viewed as a graph database, which is always
decidable — so this decider is exact for all three semantics, giving the
Π2p-cells of Figure 1.
"""

from __future__ import annotations

from repro.containment.result import ContainmentResult, Verdict
from repro.queries.crpq import union_of
from repro.semantics.base import Semantics
from repro.semantics.evaluation import in_evaluation
from repro.semantics.expansion import all_expansions, atom_injective_expansions


def contains_finite_left(q1, q2, semantics, expansion_budget=200000,
                         quotient_budget=200000):
    """Decide Q1 ⊆★ Q2 exactly, for star-free Q1 (possibly a union).

    Returns a :class:`ContainmentResult`; counterexamples are the failing
    expansion CQs.

    The membership checks over expansion databases run on the analyzed
    path: Q2 is analyzed once (the report is memoized by query
    structure), and every check reuses its ε-free disjunct list.
    """
    semantics = Semantics.coerce(semantics)
    left_disjuncts = []
    for disjunct in union_of(q1):
        left_disjuncts.extend(disjunct.epsilon_free_union())
    right = union_of(q2)
    checked = 0
    for disjunct in left_disjuncts:
        if not disjunct.is_star_free():
            raise ValueError(
                "contains_finite_left requires a star-free left-hand side; "
                f"got {disjunct!r}"
            )
        for expansion in all_expansions(disjunct, max_count=expansion_budget):
            if semantics is Semantics.ATOM_INJECTIVE:
                candidates = atom_injective_expansions(
                    expansion, max_count=quotient_budget
                )
            else:
                candidates = (expansion,)
            for candidate in candidates:
                checked += 1
                cq = candidate.cq
                if not in_evaluation(right, cq.as_graph(), cq.head, semantics):
                    return ContainmentResult(
                        Verdict.NOT_CONTAINED,
                        semantics,
                        method="finite-left",
                        counterexample=cq,
                        details={"expansions_checked": checked},
                    )
    return ContainmentResult(
        Verdict.CONTAINED,
        semantics,
        method="finite-left",
        details={"expansions_checked": checked},
    )
