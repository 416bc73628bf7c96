"""Query identity: a CRPQ is its head, its variable set and its atom
*multiset*.

Under query-injective semantics the witness paths of distinct atoms must
be internally disjoint, so ``x -[ab]-> y`` written twice needs two
disjoint paths where one copy needs one.  Every cache keyed by a query
(per-disjunct results, analysis reports) and ε-elimination's branch
dedup must therefore keep a query and its doubled-atom twin apart.
Expected answers are written by hand: the reference evaluators call the
same ``epsilon_free_union`` the engine does.
"""

import pytest

from repro.engine.analyze import analyze
from repro.graphdb.graph import GraphDatabase
from repro.queries.atoms import Atom
from repro.queries.crpq import CRPQ, eps_free_disjuncts
from repro.queries.parser import parse_query
from repro.regular.syntax import Concat, Symbol
from repro.semantics.evaluation import evaluate, evaluate_batch

AB = Concat(Symbol("a"), Symbol("b"))
SEMANTICS = ("st", "a-inj", "q-inj")


def path_graph():
    """x -a-> m -b-> y: one ab-path from x to y, with one internal node."""
    graph = GraphDatabase()
    graph.add_edge("x", "a", "m")
    graph.add_edge("m", "b", "y")
    return graph


def cycle_graph():
    """x -a-> m -b-> x: one ab-cycle through x."""
    graph = GraphDatabase()
    graph.add_edge("x", "a", "m")
    graph.add_edge("m", "b", "x")
    return graph


SINGLE = parse_query("Q(x, y) :- x -[ab]-> y")
DOUBLED = parse_query("Q(x, y) :- x -[ab]-> y, x -[ab]-> y")
# Two disjoint ab-paths are needed for the doubled atom under q-inj only.
DOUBLED_ANSWERS = {"st": {("x", "y")}, "a-inj": {("x", "y")}, "q-inj": set()}


class TestEquality:
    def test_duplicate_atoms_make_a_different_query(self):
        assert SINGLE != DOUBLED
        assert len({SINGLE, DOUBLED}) == 2

    def test_atom_order_is_free(self):
        first = parse_query("Q(x, y) :- x -[a]-> y, x -[b]-> y")
        second = parse_query("Q(x, y) :- x -[b]-> y, x -[a]-> y")
        assert first == second
        assert hash(first) == hash(second)

    def test_multiplicities_are_compared_not_just_counts(self):
        a = Atom("x", Symbol("a"), "y")
        b = Atom("x", Symbol("b"), "y")
        aab = CRPQ(("x", "y"), (a, a, b))
        abb = CRPQ(("x", "y"), (a, b, b))
        assert aab != abb
        assert aab == CRPQ(("x", "y"), (b, a, a))

    def test_variable_set_is_part_of_identity(self):
        atom = Atom("x", AB, "y")
        plain = CRPQ(("x", "y"), (atom,))
        padded = CRPQ(("x", "y"), (atom,), extra_variables=("z",))
        assert plain != padded


class TestResultCache:
    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_doubled_atom_after_single_on_one_graph(self, semantics):
        """The per-disjunct result cache must not serve the single-atom
        answer for the doubled-atom query."""
        graph = path_graph()
        assert evaluate(SINGLE, graph, semantics) == {("x", "y")}
        expected = DOUBLED_ANSWERS[semantics]
        assert evaluate(DOUBLED, graph, semantics) == expected
        assert evaluate(DOUBLED, path_graph(), semantics) == expected

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_batch_keeps_both_queries(self, semantics):
        answers = evaluate_batch([SINGLE, DOUBLED], path_graph(), semantics)
        assert answers == [{("x", "y")}, DOUBLED_ANSWERS[semantics]]

    def test_union_keeps_both_disjuncts(self):
        report = analyze((DOUBLED, SINGLE), "q-inj")
        assert [len(d.atoms) for d in report.disjuncts] == [2, 1]
        assert evaluate((DOUBLED, SINGLE), path_graph(), "q-inj") \
            == {("x", "y")}


class TestEpsilonElimination:
    QUERY = parse_query("Q(x) :- x -[ab]-> x, x -[(ab)?]-> x")

    def test_both_branches_survive(self):
        """Keeping the optional atom gives two ab-loops; dropping it
        gives one.  The two branches are different queries."""
        loop = Atom("x", AB, "x")
        assert self.QUERY.epsilon_free_union() == (
            CRPQ(("x",), (loop, loop)),
            CRPQ(("x",), (loop,)),
        )

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_answers(self, semantics):
        """On one ab-cycle the drop branch x -[ab]-> x holds under every
        semantics; the keep branch needs two internally disjoint
        ab-cycles under q-inj, but the union still answers x."""
        assert evaluate(self.QUERY, cycle_graph(), semantics) == {("x",)}

    def test_equal_branches_collapse(self):
        query = parse_query("Q(x) :- x -[a?]-> x, x -[a?]-> x")
        loop = Atom("x", Symbol("a"), "x")
        # Dropping either atom alone gives the same query: kept once.
        assert query.epsilon_free_union() == (
            CRPQ(("x",), (loop, loop)),
            CRPQ(("x",), (loop,)),
            CRPQ(("x",), ()),
        )


class TestEpsFreeDisjuncts:
    def test_flattens_a_union_in_order(self):
        plain = parse_query("Q(x) :- x -[a]-> x")
        optional = TestEpsilonElimination.QUERY
        assert eps_free_disjuncts((plain, optional)) == (
            (plain,) + optional.epsilon_free_union()
        )

    def test_keeps_duplicates_across_disjuncts(self):
        """Duplicate disjuncts of a union are the analyzer's to drop,
        with an audited decision."""
        assert eps_free_disjuncts((SINGLE, SINGLE)) == (SINGLE, SINGLE)
        report = analyze((SINGLE, SINGLE), "st")
        assert [d.kind for d in report.decisions] \
            == ["drop-disjunct-duplicate"]
