"""Deeper edge-case coverage for evaluation under all semantics:
parallel edges, repeated head variables, large arities, self-loop webs,
label types, the empty-query corner, and the identity of returned
answer sets."""

import pytest

from repro.engine.telemetry import TracedAnswers
from repro.graphdb.graph import GraphDatabase
from repro.queries.atoms import Atom
from repro.queries.crpq import CRPQ
from repro.queries.parser import parse_query
from repro.regular.syntax import Symbol, word
from repro.semantics.evaluation import evaluate, in_evaluation


class TestParallelEdges:
    def graph(self):
        g = GraphDatabase()
        g.add_edge("u", "a", "v")
        g.add_edge("u", "b", "v")
        return g

    def test_parallel_edges_both_usable(self):
        q = parse_query("Q() :- x -[a]-> y, x -[b]-> y")
        for semantics in ("st", "a-inj", "q-inj"):
            assert evaluate(q, self.graph(), semantics) == {()}, semantics

    def test_parallel_paths_between_same_endpoints_qinj(self):
        # Two single-edge paths between the SAME endpoint pair share no
        # internal nodes (there are none): allowed under q-inj.
        q = parse_query("Q(x, y) :- x -[a+b]-> y, x -[a+b]-> y")
        assert ("u", "v") in evaluate(q, self.graph(), "q-inj")


class TestRepeatedHeads:
    def test_head_variable_twice(self):
        q = parse_query("Q(x, x, y) :- x -[a]-> y")
        g = GraphDatabase(edges=[("u", "a", "v")])
        assert evaluate(q, g, "st") == {("u", "u", "v")}

    def test_in_evaluation_with_repeated_positions(self):
        q = parse_query("Q(x, x) :- x -[a]-> y")
        g = GraphDatabase(edges=[("u", "a", "v")])
        assert in_evaluation(q, g, ("u", "u"), "st")
        assert not in_evaluation(q, g, ("u", "v"), "st")


class TestSelfLoopWebs:
    def graph(self):
        g = GraphDatabase()
        g.add_edge("n", "a", "n")
        g.add_edge("n", "b", "m")
        g.add_edge("m", "a", "m")
        return g

    def test_standard_pumps_loops(self):
        q = parse_query("Q(x, y) :- x -[aaab]-> y")
        assert ("n", "m") in evaluate(q, self.graph(), "st")

    def test_simple_path_cannot_pump(self):
        q = parse_query("Q(x, y) :- x -[aaab]-> y")
        # A simple path uses the loop edge at most... not at all: a loop
        # edge repeats its node immediately.
        assert evaluate(q, self.graph(), "a-inj") == frozenset()

    def test_single_loop_use_is_a_cycle_not_path(self):
        q = parse_query("Q(x, y) :- x -[ab]-> y")
        # n -a-> n -b-> m revisits n: not simple.
        assert ("n", "m") in evaluate(q, self.graph(), "st")
        assert ("n", "m") not in evaluate(q, self.graph(), "a-inj")

    def test_loop_atom_on_loop_edge(self):
        q = parse_query("Q(x) :- x -[a]-> x")
        answers = evaluate(q, self.graph(), "a-inj")
        assert answers == {("n",), ("m",)}


class TestExoticLabels:
    def test_tuple_labels(self):
        label = ("edge", 3, ("nested",))
        g = GraphDatabase(edges=[("u", label, "v")])
        q = CRPQ(("x", "y"), (Atom("x", Symbol(label), "y"),))
        assert evaluate(q, g, "q-inj") == {("u", "v")}

    def test_integer_nodes_and_labels(self):
        g = GraphDatabase(edges=[(1, 2, 3)])
        q = CRPQ((), (Atom("x", Symbol(2), "y"),))
        assert evaluate(q, g, "st") == {()}


class TestDegenerateQueries:
    def test_empty_boolean_query(self):
        q = CRPQ((), ())
        g = GraphDatabase(nodes=[1])
        for semantics in ("st", "a-inj", "q-inj"):
            assert evaluate(q, g, semantics) == {()}, semantics

    def test_empty_query_on_empty_graph(self):
        q = CRPQ((), ())
        g = GraphDatabase()
        # No variables to map: the empty mapping answers ().
        for semantics in ("st", "a-inj", "q-inj"):
            assert evaluate(q, g, semantics) == {()}, semantics

    def test_head_only_query_on_empty_graph(self):
        q = CRPQ(("x",), (), extra_variables=["x"])
        g = GraphDatabase()
        for semantics in ("st", "a-inj", "q-inj"):
            assert evaluate(q, g, semantics) == frozenset(), semantics

    def test_arity_three(self):
        q = parse_query("Q(x, y, z) :- x -[a]-> y, y -[b]-> z")
        g = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "w")])
        assert evaluate(q, g, "q-inj") == {("u", "v", "w")}


class TestAnswerSetIdentity:
    def test_lone_disjunct_answers_are_returned_without_a_copy(self):
        g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
        q = parse_query("Q(x, y) :- x -[a^+]-> y")
        for semantics in ("st", "a-inj", "q-inj"):
            first = evaluate(q, g, semantics)
            assert type(first) is frozenset, semantics
            # The cached per-disjunct frozenset itself, not a copy.
            assert evaluate(q, g, semantics) is first, semantics
            traced = evaluate(q, g, semantics, trace=True)
            assert isinstance(traced, TracedAnswers) and traced == first

    def test_several_disjuncts_are_merged(self):
        g = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "w")])
        union = (parse_query("Q(x, y) :- x -[a]-> y"),
                 parse_query("Q(x, y) :- x -[b]-> y"))
        for semantics in ("st", "a-inj", "q-inj"):
            answers = evaluate(union, g, semantics)
            assert type(answers) is frozenset, semantics
            assert answers == {("u", "v"), ("v", "w")}, semantics


class TestArityValidation:
    def test_arity_mismatch_raises_even_when_earlier_disjunct_matches(self):
        # Regression: the arity check used to run lazily inside the
        # disjunct loop, so a matching first disjunct returned True
        # before the ill-typed second disjunct could raise.
        g = GraphDatabase(edges=[("u", "a", "v")])
        matching = parse_query("Q(x, y) :- x -[a]-> y")
        ill_typed = parse_query("Q(x) :- x -[a]-> y")
        assert in_evaluation(matching, g, ("u", "v"), "st")
        for semantics in ("st", "a-inj", "q-inj"):
            with pytest.raises(ValueError):
                in_evaluation((matching, ill_typed), g, ("u", "v"), semantics)

    def test_well_typed_unions_still_short_circuit(self):
        g = GraphDatabase(edges=[("u", "a", "v")])
        first = parse_query("Q(x, y) :- x -[a]-> y")
        second = parse_query("Q(x, y) :- x -[b]-> y")
        assert in_evaluation((first, second), g, ("u", "v"), "st")
        assert not in_evaluation((second,), g, ("u", "v"), "st")


class TestEpsilonInteractions:
    def test_two_epsilon_atoms_chain_collapse(self):
        q = parse_query("Q(x, z) :- x -[a*]-> y, y -[b*]-> z")
        g = GraphDatabase(nodes=["n"])
        # Everything collapses onto n via the double ε-branch.
        for semantics in ("st", "a-inj", "q-inj"):
            assert ("n", "n") in evaluate(q, g, semantics), semantics

    def test_epsilon_collapse_respects_other_atoms(self):
        q = parse_query("Q() :- x -[a*]-> y, x -[c]-> y")
        g = GraphDatabase(edges=[("n", "c", "n")])
        # ε-branch collapses x=y, leaving the c-atom as a loop demand.
        assert evaluate(q, g, "st") == {()}
        g2 = GraphDatabase(edges=[("n", "c", "m")])
        # Without the loop, the ε-branch fails but a-branch needs an 'a'.
        assert evaluate(q, g2, "st") == frozenset()
