"""Tests for the query model: CQs, equality collapse, CRPQ classes,
ε-elimination, and the query parser."""

import pytest

from repro.errors import QuerySyntaxError
from repro.queries.atoms import Atom, CQAtom
from repro.queries.cq import CQ, CQWithEqualities
from repro.queries.crpq import CRPQ, QueryClass, union_of
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.regular.syntax import Symbol, star, word


class TestCQ:
    def test_variables(self):
        q = CQ(("x",), [CQAtom("x", "a", "y")])
        assert q.variables == {"x", "y"}

    def test_boolean(self):
        assert CQ((), [CQAtom("x", "a", "y")]).is_boolean()
        assert not CQ(("x",), [CQAtom("x", "a", "y")]).is_boolean()

    def test_as_graph(self):
        q = CQ((), [CQAtom("x", "a", "y"), CQAtom("y", "b", "x")])
        g = q.as_graph()
        assert g.nodes == {"x", "y"}
        assert g.has_edge("y", "b", "x")

    def test_rename_identifies(self):
        q = CQ(("x", "z"), [CQAtom("x", "a", "y"), CQAtom("y", "a", "z")])
        renamed = q.rename({"z": "x"})
        assert renamed.head == ("x", "x")
        assert renamed.variables == {"x", "y"}

    def test_isolated_variable_kept(self):
        q = CQ(("x",), [], extra_variables=["x"])
        assert q.variables == {"x"}

    def test_conjoin(self):
        left = CQ((), [CQAtom("x", "a", "y")])
        right = CQ((), [CQAtom("y", "b", "z")])
        both = left.conjoin(right)
        assert len(both.atoms) == 2
        assert both.variables == {"x", "y", "z"}

    def test_to_crpq_roundtrip(self):
        q = CQ(("x",), [CQAtom("x", "a", "y")])
        back = q.to_crpq().as_cq()
        assert back == q


class TestEqualityCollapse:
    def test_collapse_merges_classes(self):
        q = CQWithEqualities(
            ("x",),
            [CQAtom("x", "a", "y")],
            [("y", "z"), ("z", "w")],
        )
        collapsed, phi = q.collapse()
        assert phi["y"] == phi["z"] == phi["w"]
        assert collapsed.variables == {phi["x"], phi["y"]}

    def test_forces_equal_is_transitive(self):
        q = CQWithEqualities((), [], [("a", "b"), ("b", "c")],
                             extra_variables=["a", "b", "c", "d"])
        assert q.forces_equal("a", "c")
        assert not q.forces_equal("a", "d")

    def test_head_is_renamed(self):
        q = CQWithEqualities(("x", "y"), [], [("x", "y")])
        collapsed, phi = q.collapse()
        assert collapsed.head == (phi["x"], phi["x"])


class TestCRPQClasses:
    def test_cq_class(self):
        q = CRPQ((), (Atom("x", Symbol("a"), "y"),))
        assert q.query_class() is QueryClass.CQ
        assert q.is_cq() and q.is_star_free()

    def test_fin_class(self):
        q = CRPQ((), (Atom("x", word("ab"), "y"),))
        assert q.query_class() is QueryClass.CRPQ_FIN
        assert not q.is_cq() and q.is_star_free()

    def test_full_class(self):
        q = CRPQ((), (Atom("x", star(Symbol("a")), "y"),))
        assert q.query_class() is QueryClass.CRPQ
        assert not q.is_star_free()

    def test_as_cq_requires_symbols(self):
        q = CRPQ((), (Atom("x", word("ab"), "y"),))
        with pytest.raises(ValueError):
            q.as_cq()

    def test_alphabet(self):
        q = parse_query("Q() :- x -[(ab)*]-> y, y -[c]-> x")
        assert q.alphabet == {"a", "b", "c"}


class TestEpsilonElimination:
    def test_no_epsilon_is_identity(self):
        q = parse_query("Q(x, y) :- x -[ab]-> y")
        assert q.epsilon_free_union() == (q,)

    def test_star_splits_into_two(self):
        q = parse_query("Q(x, y) :- x -[a*]-> y")
        disjuncts = q.epsilon_free_union()
        assert len(disjuncts) == 2
        kinds = {len(d.atoms) for d in disjuncts}
        assert kinds == {0, 1}
        collapsed = [d for d in disjuncts if not d.atoms][0]
        assert collapsed.head[0] == collapsed.head[1] if len(collapsed.head) == 2 else True
        # The collapsed disjunct identifies x and y in the head.
        assert len(set(collapsed.head)) == 1

    def test_collapse_rewires_other_atoms(self):
        q = parse_query("Q() :- x -[a*]-> y, y -[b]-> z")
        disjuncts = q.epsilon_free_union()
        dropped = [d for d in disjuncts if len(d.atoms) == 1][0]
        atom = dropped.atoms[0]
        # After collapsing x=y the b-atom starts at the merged variable.
        assert atom.source in dropped.variables

    def test_two_nullable_atoms_give_four_disjuncts(self):
        q = parse_query("Q() :- x -[a*]-> y, y -[b*]-> z")
        assert len(q.epsilon_free_union()) == 4

    def test_epsilon_only_language(self):
        from repro.regular.syntax import Epsilon

        q = CRPQ(("x", "y"), (Atom("x", Epsilon(), "y"),))
        disjuncts = q.epsilon_free_union()
        assert len(disjuncts) == 1
        assert disjuncts[0].atoms == ()
        assert len(set(disjuncts[0].head)) == 1

    def test_no_epsilon_free_words_drops_branch(self):
        # a* minus ε is a+, still nonempty: both branches survive.
        q = parse_query("Q() :- x -[a*]-> y")
        assert len(q.epsilon_free_union()) == 2


class TestUnionOf:
    def test_flattens_and_converts(self):
        cq = CQ((), [CQAtom("x", "a", "y")])
        crpq = parse_query("Q() :- x -[a*]-> y")
        flat = union_of([cq, crpq], crpq)
        assert len(flat) == 3
        assert all(isinstance(q, CRPQ) for q in flat)

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            union_of(42)

    def test_rejects_mixed_arities(self):
        """A union's disjuncts share one head arity: every evaluator
        agrees on that instead of ``evaluate`` returning mixed tuples."""
        from repro.graphdb.graph import GraphDatabase
        from repro.semantics.evaluation import evaluate

        binary = parse_query("Q(x, y) :- x -[a]-> y")
        boolean = parse_query("Q() :- x -[a]-> y")
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            union_of(binary, [boolean])
        graph = GraphDatabase(nodes=["u", "v"])
        graph.add_edge("u", "a", "v")
        with pytest.raises(ValueError):
            evaluate((binary, boolean), graph, "st")


class TestQueryParser:
    def test_parse_single_letter_shorthand(self):
        q = parse_query("Q(x) :- x -a-> y")
        assert q.query_class() is QueryClass.CQ
        assert q.head == ("x",)

    def test_parse_boolean(self):
        q = parse_query("Q() :- x -[a*]-> y")
        assert q.is_boolean()

    def test_parse_repeated_head(self):
        q = parse_query("Q(x, x) :- x -a-> y")
        assert q.head == ("x", "x")

    def test_parse_empty_body(self):
        q = parse_query("Q(x) :- ")
        assert q.atoms == ()
        assert q.variables == {"x"}

    @pytest.mark.parametrize("body", [
        ",",
        "x -[a]-> y,",
        ", x -[a]-> y",
        "x -[a]-> y,,y -[b]-> x",
        "x -[a]-> y, ,y -[b]-> x",
    ])
    def test_empty_atoms_are_syntax_errors(self, body):
        # A stray comma used to be dropped silently: `Q(x, y) :- ,`
        # parsed as the always-true query.
        with pytest.raises(QuerySyntaxError, match="empty atom"):
            parse_query(f"Q(x, y) :- {body}")

    def test_empty_body_still_means_true(self):
        q = parse_query("Q() :- ")
        assert q.atoms == ()
        assert q.is_boolean()

    @pytest.mark.parametrize("bad", [
        "Q(x) x -a-> y",
        "Q :- x -a-> y",
        "Q() :- x => y",
        "Q() :- x -[a-> y",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)

    @pytest.mark.parametrize("chained", [
        "Q(x) :- x -[a]-> y -[b]-> z",
        "Q(x) :- x -[a]-> y -b-> z",
        "Q(x) :- x -[a]-> y | Q(y) :- y -[b]-> z",
        "Q() :- x -[a]-> y, y -[b]]-> z",
    ])
    def test_bracketed_regex_stops_at_first_close_bracket(self, chained):
        # A greedy regex group used to run past the first ']' and parse
        # these typos as one atom with a nonsense language.
        with pytest.raises(QuerySyntaxError, match="malformed atom"):
            parse_query(chained)

    @pytest.mark.parametrize("head", ["Q(x y)", "Q(x,)", "Q(x, -y)",
                                      "Q(x, y z)"])
    def test_head_variables_must_be_identifiers(self, head):
        with pytest.raises(QuerySyntaxError, match="head variable"):
            parse_query(f"{head} :- x -[a]-> y")

    def test_empty_head_with_spaces_is_boolean(self):
        assert parse_query("Q( ) :- x -a-> y").head == ()

    def test_regex_brackets_with_commas_unsupported_gracefully(self):
        # Commas only split atoms outside brackets.
        q = parse_query("Q() :- x -[(a+b)c]-> y, y -c-> z")
        assert len(q.atoms) == 2
