"""Direct tests for the bounded counterexample search and the a-inj
semi-decider that deepens over it (the fallback machinery on the
undecidable cells)."""

import pytest

from repro.containment.ainj_semi import semi_decide_ainj
from repro.containment.bounded import search_counterexample
from repro.containment.result import Verdict
from repro.queries.parser import parse_query


class TestBoundedSearch:
    def test_finds_short_counterexample(self):
        q1 = parse_query("Q(x, y) :- x -[a^+]-> y")
        q2 = parse_query("Q(x, y) :- x -[aa^+]-> y")
        result = search_counterexample(q1, q2, "st", max_word_length=2)
        assert result.verdict is Verdict.NOT_CONTAINED
        # The shortest counterexample is the single-a expansion.
        assert len(result.counterexample.atoms) == 1

    def test_misses_long_counterexample_bound_reported(self):
        q1 = parse_query("Q(x, y) :- x -[a^+]-> y")
        q2 = parse_query("Q(x, y) :- x -[a+aa+aaa]-> y")
        shallow = search_counterexample(q1, q2, "st", max_word_length=3)
        assert shallow.verdict is Verdict.CONTAINED_UP_TO_BOUND
        assert shallow.bound == 3
        deeper = search_counterexample(q1, q2, "st", max_word_length=4)
        assert deeper.verdict is Verdict.NOT_CONTAINED

    def test_budget_marks_truncation(self):
        q1 = parse_query("Q() :- x -[(a+b)^+]-> y, u -[(a+b)^+]-> v")
        q2 = parse_query("Q() :- x -[ab]-> y")
        result = search_counterexample(q1, q2, "st", max_word_length=4,
                                       expansion_budget=5)
        if result.verdict is Verdict.CONTAINED_UP_TO_BOUND:
            assert result.details["truncated"]

    def test_union_left_searched_per_disjunct(self):
        q1a = parse_query("Q() :- x -[a]-> y")
        q1b = parse_query("Q() :- x -[b]-> y")
        q2 = parse_query("Q() :- x -[a]-> y")
        result = search_counterexample((q1a, q1b), q2, "st",
                                       max_word_length=1)
        assert result.verdict is Verdict.NOT_CONTAINED
        assert result.counterexample.atoms[0].label == "b"

    def test_quotient_budget_keeps_checked_candidates(self):
        # The identity quotient is already a counterexample (w is not x);
        # a quotient budget tripping on the second quotient must not
        # discard the first.
        q1 = parse_query("Q(x, y) :- x -[aa]-> y, y -[b]-> w")
        q2 = parse_query("Q(x, y) :- x -[aa]-> y, y -[b]-> x")
        result = search_counterexample(q1, q2, "a-inj", max_word_length=2,
                                       quotient_budget=1)
        assert result.verdict is Verdict.NOT_CONTAINED
        assert result.details["candidates_checked"] == 1


class TestAInjSemiDecider:
    def test_iterative_deepening_stops_at_first_hit(self):
        q1 = parse_query("Q() :- x -[a^+]-> y, y -[b]-> z")
        q2 = parse_query("Q() :- x -[a^+b]-> y")
        result = semi_decide_ainj(q1, q2, max_word_length=3)
        assert result.verdict is Verdict.NOT_CONTAINED
        # Deepening finds the smallest witness (one a, quotient x=z).
        assert len(result.counterexample.variables) == 2

    def test_counts_candidates(self):
        q1 = parse_query("Q() :- x -[a^+]-> y")
        q2 = parse_query("Q() :- x -[a]-> y")
        result = search_counterexample(q1, q2, "a-inj", max_word_length=2)
        assert result.details["candidates_checked"] >= 2

    def test_bounded_contained_verdict_is_honest(self):
        # a^+ vs reaching an a-edge: genuinely contained; the semi-decider
        # must not claim more than the bound.
        q1 = parse_query("Q() :- x -[a^+]-> y")
        q2 = parse_query("Q() :- u -[a]-> v")
        result = semi_decide_ainj(q1, q2, max_word_length=3)
        assert result.verdict is Verdict.CONTAINED_UP_TO_BOUND
        assert not result.conclusive
