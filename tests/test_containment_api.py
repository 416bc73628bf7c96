"""Tests for the containment front door: dispatch, cells, the undecidable
cell's bounded verdicts, and the preprocessing normalizations."""

import pytest

from repro.containment.api import containment_cell, contains
from repro.containment.preprocess import (
    merge_degree_one_variables,
    nfa_to_regex,
    split_parallel_singletons,
)
from repro.containment.result import Verdict
from repro.errors import NotSupportedError
from repro.queries.crpq import QueryClass
from repro.queries.parser import parse_query


class TestDispatch:
    def test_cell_classification(self):
        cq = parse_query("Q() :- x -a-> y")
        fin = parse_query("Q() :- x -[ab]-> y")
        full = parse_query("Q() :- x -[a*]-> y")
        assert containment_cell(cq, cq) == (QueryClass.CQ, QueryClass.CQ)
        assert containment_cell(fin, full) == (QueryClass.CRPQ_FIN, QueryClass.CRPQ)
        assert containment_cell((cq, full), cq) == (QueryClass.CRPQ, QueryClass.CQ)

    def test_finite_left_dispatch(self):
        q1 = parse_query("Q() :- x -[ab]-> y")
        q2 = parse_query("Q() :- x -[(ab)*]-> y")
        result = contains(q1, q2, "st")
        assert result.method == "finite-left"
        assert result.verdict is Verdict.CONTAINED

    def test_abstraction_dispatch(self):
        q1 = parse_query("Q() :- x -[(ab)*]-> y")
        q2 = parse_query("Q() :- x -[(a+b)*]-> y")
        result = contains(q1, q2, "q-inj")
        assert result.method == "abstraction-classes"

    def test_ainj_semi_dispatch(self):
        q1 = parse_query("Q() :- x -[a*]-> y")
        q2 = parse_query("Q() :- x -[a]-> y")
        result = contains(q1, q2, "a-inj", max_word_length=2)
        assert result.method == "ainj-bounded-search"

    def test_ainj_exact_raises(self):
        q1 = parse_query("Q() :- x -[a*]-> y")
        q2 = parse_query("Q() :- x -[a]-> y")
        with pytest.raises(NotSupportedError):
            contains(q1, q2, "a-inj", exact=True)

    @pytest.mark.parametrize("semantics", ["st", "a-inj", "q-inj"])
    @pytest.mark.parametrize("left", [
        "Q(x) :- x -[a]-> y",       # finite left
        "Q(x) :- x -[a^+]-> y",     # starred left
    ])
    def test_head_arity_mismatch_names_both_arities(self, left, semantics):
        q1 = parse_query(left)
        q2 = parse_query("Q(x, y) :- x -[a]-> y")
        with pytest.raises(ValueError, match="head arity 1 .* arity 2"):
            contains(q1, q2, semantics)
        with pytest.raises(ValueError, match="head arity 2 .* arity 1"):
            contains(q2, q1, semantics)

    def test_bool_semantics_of_result(self):
        q = parse_query("Q() :- x -a-> y")
        assert bool(contains(q, q, "st"))
        bounded = contains(
            parse_query("Q() :- x -[a*]-> y"),
            parse_query("Q() :- x -[a^+]-> y"),
            "a-inj",
            max_word_length=2,
        )
        # ε-branch of a* gives a counterexample (Boolean: empty graph has
        # the trivial answer, a^+ needs an edge) — so this is actually
        # NOT_CONTAINED; just check bool() mirrors the verdict.
        assert bool(bounded) == (bounded.verdict is Verdict.CONTAINED)


class TestAInjSemiDecider:
    def test_finds_quotient_counterexample(self):
        # Starred variant of Example 4.7: x -[a^+]-> y ∧ y -[b]-> z vs
        # x -[a^+ b]-> y; the quotient x=z defeats the right-hand side.
        q1 = parse_query("Q() :- x -[a^+]-> y, y -[b]-> z")
        q2 = parse_query("Q() :- x -[a^+b]-> y")
        result = contains(q1, q2, "a-inj", max_word_length=2)
        assert result.verdict is Verdict.NOT_CONTAINED
        assert result.counterexample is not None

    def test_bounded_verdict_when_contained(self):
        q1 = parse_query("Q() :- x -[(ab)^+]-> y")
        q2 = parse_query("Q() :- x -[ab]-> z")
        # Under a-inj semantics, a simple (ab)^k path contains an honest
        # ab simple path prefix; quotients of it still do (cycles keep an
        # ab-labeled simple path unless everything collapses, which
        # atom-relatedness forbids).  The semi-decider cannot prove it —
        # it reports the bounded verdict.
        result = contains(q1, q2, "a-inj", max_word_length=2)
        assert result.verdict in (Verdict.CONTAINED_UP_TO_BOUND,
                                  Verdict.NOT_CONTAINED)
        if result.verdict is Verdict.NOT_CONTAINED:
            # If a witness was found it must be genuine.
            from repro.semantics.evaluation import in_evaluation

            w = result.counterexample
            assert not in_evaluation(q2, w.as_graph(), w.head, "a-inj")


class TestAInjBoundValidation:
    STAR = parse_query("Q(x) :- x -[a*]-> y")

    def test_bound_zero_returns_the_bound_zero_result(self):
        result = contains(self.STAR, parse_query("Q(x) :- x -[(a+b)*]-> y"),
                          "a-inj", max_word_length=0)
        assert result is not None
        assert result.verdict is Verdict.CONTAINED_UP_TO_BOUND
        assert result.bound == 0

    def test_bound_zero_still_finds_epsilon_counterexamples(self):
        # The ε-word of a* needs no edge; x -[b]-> y needs one.
        result = contains(self.STAR, parse_query("Q(x) :- x -[b]-> y"),
                          "a-inj", max_word_length=0)
        assert result.verdict is Verdict.NOT_CONTAINED
        assert result.counterexample is not None
        assert result.bound == 0

    @pytest.mark.parametrize("bound", [-1, -7])
    def test_negative_bound_is_rejected(self, bound):
        with pytest.raises(ValueError, match="non-negative"):
            contains(self.STAR, parse_query("Q(x) :- x -[(a+b)*]-> y"),
                     "a-inj", max_word_length=bound)


class TestRemarkC1Merge:
    def test_merges_chain(self):
        q = parse_query("Q() :- x -[a*]-> y, y -[b]-> z")
        merged = merge_degree_one_variables(q)
        assert len(merged.atoms) == 1
        assert "y" not in merged.variables

    def test_keeps_free_variables(self):
        q = parse_query("Q(y) :- x -[a]-> y, y -[b]-> z")
        merged = merge_degree_one_variables(q)
        assert len(merged.atoms) == 2

    def test_keeps_branching(self):
        q = parse_query("Q() :- x -[a]-> y, y -[b]-> z, y -[c]-> w")
        merged = merge_degree_one_variables(q)
        assert len(merged.atoms) == 3

    def test_keeps_loops(self):
        q = parse_query("Q() :- x -[a]-> y, y -[b]-> x")
        merged = merge_degree_one_variables(q)
        # y has in/out degree 1 but merging collapses onto x -ab-> x: that
        # is legal (y ∉ {x, x'} fails? y ∉ {x, x}: y ≠ x holds, so the
        # merge applies, producing a loop atom).
        assert len(merged.atoms) == 1
        assert merged.atoms[0].source == merged.atoms[0].target

    def test_language_preserved(self):
        from repro.regular.nfa import NFA

        q = parse_query("Q() :- x -[a^+]-> y, y -[b*]-> z")
        merged = merge_degree_one_variables(q)
        nfa = NFA.from_regex(merged.atoms[0].language)
        assert nfa.accepts(("a",))
        assert nfa.accepts(("a", "b", "b"))
        assert not nfa.accepts(("b",))


class TestRemarkC2Split:
    def test_no_parallel_atoms_identity(self):
        q = parse_query("Q() :- x -[a+b]-> y, y -[a]-> z")
        assert split_parallel_singletons(q) == (q,)

    def test_split_produces_clean_union(self):
        q = parse_query("Q() :- x -[a+b]-> y, x -[a+c]-> y")
        parts = split_parallel_singletons(q)
        assert len(parts) >= 2
        # No disjunct retains a shared single-letter pair.
        from repro.containment.preprocess import _find_offending_pair

        for part in parts:
            assert _find_offending_pair(part) is None

    def test_split_preserves_standard_semantics(self):
        from repro.graphdb.graph import GraphDatabase
        from repro.semantics.evaluation import evaluate

        q = parse_query("Q() :- x -[a+b]-> y, x -[a+c]-> y")
        parts = split_parallel_singletons(q)
        graphs = [
            GraphDatabase(edges=[(0, "a", 1)]),
            GraphDatabase(edges=[(0, "a", 1), (0, "b", 1)]),
            GraphDatabase(edges=[(0, "b", 1), (0, "c", 1)]),
            GraphDatabase(edges=[(0, "b", 1), (1, "c", 0)]),
        ]
        for g in graphs:
            assert evaluate(q, g, "st") == evaluate(list(parts), g, "st")


class TestNfaToRegex:
    def test_state_elimination_roundtrip(self):
        from repro.regular.nfa import NFA
        from repro.regular.parser import parse_regex
        from repro.regular.dfa import nfa_language_equal

        for pattern in ["(ab)*", "a^+b?", "(a+b)c*", "a"]:
            nfa = NFA.from_regex(parse_regex(pattern))
            back = NFA.from_regex(nfa_to_regex(nfa))
            assert nfa_language_equal(nfa, back), pattern
