"""Containment front door: dispatch to the right decider per Figure 1 cell.

``contains(q1, q2, semantics)`` picks:

- star-free left (CQ or CRPQfin, including every disjunct of a union):
  the exact finite-left decider — covers ten of the twelve Figure 1 cells;
- unrestricted left, standard or query-injective semantics: the
  abstraction-class decider (Theorem 5.1);
- unrestricted left, atom-injective semantics: the bounded semi-decider
  (the cell is undecidable, Theorem 5.2); pass ``exact=True`` to get a
  :class:`NotSupportedError` instead, documenting the impossibility.
"""

from __future__ import annotations

from repro.containment.abstraction import contains_abstraction
from repro.containment.ainj_semi import semi_decide_ainj
from repro.containment.finite_left import contains_finite_left
from repro.errors import NotSupportedError
from repro.queries.crpq import QueryClass, union_of
from repro.semantics.base import Semantics


def containment_cell(q1, q2):
    """The Figure 1 cell (left class, right class) for a query pair.

    Unions are classified by their coarsest member.
    """
    order = [QueryClass.CQ, QueryClass.CRPQ_FIN, QueryClass.CRPQ]

    def classify(query):
        classes = [d.query_class() for d in union_of(query)]
        return max(classes, key=order.index) if classes else QueryClass.CQ

    return classify(q1), classify(q2)


def check_head_arities(q1, q2):
    """Raise :class:`ValueError` unless Q1 and Q2 (CRPQs, CQs or unions)
    have heads of one arity: containment compares answer tuples."""
    left, right = union_of(q1), union_of(q2)
    if left and right and len(left[0].head) != len(right[0].head):
        raise ValueError(
            f"Q1 has head arity {len(left[0].head)} but Q2 has head "
            f"arity {len(right[0].head)}: containment compares answers "
            f"of one arity"
        )


#: Every keyword ``contains(**budgets)`` accepts.
_BUDGET_NAMES = frozenset(
    {"expansion_budget", "quotient_budget", "max_classes", "max_candidates"}
)


def contains(q1, q2, semantics, exact=False, max_word_length=4, **budgets):
    """Decide Q1 ⊆★ Q2.  Accepts CRPQs, CQs, or unions on both sides.

    Returns a :class:`repro.containment.result.ContainmentResult`.  With
    ``exact=True`` the call raises :class:`NotSupportedError` when only a
    bounded verdict is possible (undecidable cell) instead of returning
    a CONTAINED_UP_TO_BOUND verdict.  Heads of different arity raise
    :class:`ValueError`.

    ``budgets`` forwards the deciders' search caps: ``expansion_budget``
    and ``quotient_budget`` (finite-left and the a-inj semi-decider),
    ``max_classes`` and ``max_candidates`` (abstraction).  The decider
    the cell picks reads only its own; any other name is a
    :class:`TypeError`.
    """
    unknown = sorted(set(budgets) - _BUDGET_NAMES)
    if unknown:
        raise TypeError(
            f"contains() got unexpected budget keyword(s) "
            f"{', '.join(unknown)}; expected one of "
            f"{', '.join(sorted(_BUDGET_NAMES))}"
        )
    check_head_arities(q1, q2)
    semantics = Semantics.coerce(semantics)
    left_class, _right_class = containment_cell(q1, q2)
    if left_class in (QueryClass.CQ, QueryClass.CRPQ_FIN):
        return contains_finite_left(
            q1, q2, semantics,
            **_pick(budgets, "expansion_budget", "quotient_budget"),
        )
    if semantics in (Semantics.STANDARD, Semantics.QUERY_INJECTIVE):
        return contains_abstraction(
            q1, q2, semantics,
            **_pick(budgets, "max_classes", "max_candidates"),
        )
    if exact:
        raise NotSupportedError(
            "CRPQ/CRPQ containment under atom-injective semantics is "
            "undecidable (Theorem 5.2); only bounded verdicts are possible"
        )
    return semi_decide_ainj(
        q1, q2, max_word_length=max_word_length,
        **_pick(budgets, "expansion_budget", "quotient_budget"),
    )


def _pick(budgets, *names):
    return {name: budgets[name] for name in names if name in budgets}
