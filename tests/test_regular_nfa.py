"""Unit and property tests for the NFA layer (Glushkov construction,
runs, boolean operations)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.regular.nfa import NFA
from repro.regular.parser import parse_regex
from repro.regular.syntax import (
    Epsilon,
    Symbol,
    concat,
    plus,
    star,
    union,
    word,
)


class TestValidation:
    """Every state an NFA mentions must be declared: the incremental
    store walks ``nfa.states`` while the product kernels follow
    transitions, so an undeclared endpoint would make them disagree."""

    @pytest.mark.parametrize("transitions", [
        {(0, "a"): {1}, (1, "a"): {0}},    # undeclared target (and source)
        {(0, "a"): {0, 1}},                # undeclared target only
        {(1, "a"): {0}},                   # undeclared source only
    ])
    def test_undeclared_transition_endpoints_rejected(self, transitions):
        with pytest.raises(ValueError, match="transition endpoints"):
            NFA(states={0}, alphabet={"a"}, transitions=transitions,
                initials={0}, finals={0})

    def test_undeclared_initial_and_final_rejected(self):
        with pytest.raises(ValueError, match="initial"):
            NFA({0}, {"a"}, {}, {1}, {0})
        with pytest.raises(ValueError, match="final"):
            NFA({0}, {"a"}, {}, {0}, {1})

    def test_empty_target_sets_are_dropped_not_checked(self):
        nfa = NFA({0}, {"a"}, {(0, "a"): set()}, {0}, {0})
        assert nfa.transitions == {}


class TestFromRegex:
    @pytest.mark.parametrize(
        "pattern,accepted,rejected",
        [
            ("(ab)*", [(), ("a", "b"), ("a", "b", "a", "b")], [("a",), ("b", "a")]),
            ("(a+b)^+", [("a",), ("b", "a")], [()]),
            ("a*b", [("b",), ("a", "a", "b")], [(), ("a",), ("b", "b")]),
            ("ab?c", [("a", "c"), ("a", "b", "c")], [("a", "b")]),
        ],
    )
    def test_membership(self, pattern, accepted, rejected):
        nfa = NFA.from_regex(parse_regex(pattern))
        for w in accepted:
            assert nfa.accepts(w), (pattern, w)
        for w in rejected:
            assert not nfa.accepts(w), (pattern, w)

    def test_epsilon_free(self):
        # Glushkov automata accept ε only via an initial-final state and
        # have no ε-transitions by construction; spot-check the state
        # count: positions + 1.
        nfa = NFA.from_regex(parse_regex("(ab)*c"))
        assert len(nfa.states) == 4  # 3 positions + initial

    def test_prefixed_states_disjoint(self):
        left = NFA.from_regex(Symbol("a"), state_prefix="L")
        right = NFA.from_regex(Symbol("a"), state_prefix="R")
        assert not (left.states & right.states)

    def test_from_word(self):
        nfa = NFA.from_word("abc")
        assert nfa.accepts(tuple("abc"))
        assert not nfa.accepts(tuple("ab"))
        assert not nfa.accepts(tuple("abcc"))


class TestRuns:
    def test_partial_run(self):
        nfa = NFA.from_regex(parse_regex("ab"))
        (initial,) = nfa.initials
        mid = nfa.run(("a",), sources={initial})
        assert mid
        assert nfa.run(("b",), sources=mid) & nfa.finals

    def test_dead_run_is_empty(self):
        nfa = NFA.from_regex(parse_regex("ab"))
        assert nfa.run(("b",)) == frozenset()

    def test_has_run(self):
        nfa = NFA.from_regex(parse_regex("a*"))
        (initial,) = nfa.initials
        assert nfa.has_run(initial, initial, ())


class TestOperations:
    def test_union_language(self):
        u = NFA.from_regex(word("ab")).union(NFA.from_regex(word("cd")))
        assert u.accepts(("a", "b"))
        assert u.accepts(("c", "d"))
        assert not u.accepts(("a", "d"))

    def test_intersection_language(self):
        left = NFA.from_regex(parse_regex("(ab)*"))
        right = NFA.from_regex(parse_regex("a(ba)*b"))
        both = left.intersection(right)
        assert both.accepts(("a", "b"))
        assert both.accepts(("a", "b", "a", "b"))
        assert not both.accepts(())

    def test_intersection_empty(self):
        left = NFA.from_regex(word("a"))
        right = NFA.from_regex(word("b"))
        assert left.intersection(right).is_empty()

    def test_reverse(self):
        nfa = NFA.from_regex(word("abc")).reverse()
        assert nfa.accepts(("c", "b", "a"))
        assert not nfa.accepts(("a", "b", "c"))

    def test_trim_preserves_language(self):
        nfa = NFA.from_regex(parse_regex("(a+b)c")).trim()
        assert nfa.accepts(("a", "c"))
        assert nfa.accepts(("b", "c"))
        assert not nfa.accepts(("c",))

    def test_shortest_word(self):
        assert NFA.from_regex(parse_regex("aaa+b")).shortest_word() == ("b",)
        assert NFA.from_regex(parse_regex("(ab)^+")).shortest_word() == ("a", "b")

    def test_shortest_word_of_empty(self):
        empty = NFA.from_regex(word("a")).intersection(NFA.from_regex(word("b")))
        assert empty.shortest_word() is None
        assert empty.is_empty()

    def test_relabel(self):
        nfa = NFA.from_regex(word("ab")).relabel({"a": "x"})
        assert nfa.accepts(("x", "b"))
        assert not nfa.accepts(("a", "b"))


@st.composite
def regexes(draw, depth=3):
    """Random small regexes over {a, b}."""
    if depth == 0:
        return draw(st.sampled_from([Symbol("a"), Symbol("b"), Epsilon()]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.sampled_from([Symbol("a"), Symbol("b")]))
    if kind == 1:
        return concat(draw(regexes(depth=depth - 1)), draw(regexes(depth=depth - 1)))
    if kind == 2:
        return union(draw(regexes(depth=depth - 1)), draw(regexes(depth=depth - 1)))
    if kind == 3:
        return star(draw(regexes(depth=depth - 1)))
    return plus(draw(regexes(depth=depth - 1)))


class TestGlushkovProperties:
    @given(regexes(), st.lists(st.sampled_from("ab"), max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_nullable_agrees_with_acceptance_of_epsilon(self, regex, _w):
        assert NFA.from_regex(regex).accepts(()) == regex.nullable()

    @given(regexes())
    @settings(max_examples=80, deadline=None)
    def test_reverse_reverse_same_language(self, regex):
        nfa = NFA.from_regex(regex)
        double = nfa.reverse().reverse()
        from repro.regular.words import enumerate_words

        assert set(enumerate_words(nfa, 4)) == set(enumerate_words(double, 4))

    @given(regexes(), regexes())
    @settings(max_examples=60, deadline=None)
    def test_intersection_is_conjunction(self, left, right):
        from repro.regular.words import enumerate_words

        nl, nr = NFA.from_regex(left), NFA.from_regex(right)
        both = nl.intersection(nr)
        words_l = set(enumerate_words(nl, 4))
        words_r = set(enumerate_words(nr, 4))
        words_b = set(enumerate_words(both, 4))
        assert words_b == (words_l & words_r)
