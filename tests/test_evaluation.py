"""Tests for CRPQ evaluation under the three semantics, including
cross-validation against the expansion-based reference evaluator
(Props 2.2 / 2.3)."""

import random

import pytest

from repro.graphdb import generators
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.semantics.base import ALL_SEMANTICS, Semantics
from repro.semantics.evaluation import atom_pairs, evaluate, in_evaluation
from repro.semantics.rpq import (
    rpq_evaluate,
    simple_cycle_nodes,
    simple_path_pairs,
    standard_pairs,
)

from tests.conftest import reference_evaluate


class TestRPQPrimitives:
    def graph(self):
        # Cycle u -a-> v -a-> w -a-> u plus a chord u -b-> w.
        return GraphDatabase(
            edges=[("u", "a", "v"), ("v", "a", "w"), ("w", "a", "u"),
                   ("u", "b", "w")]
        )

    def test_standard_pairs_walks(self):
        from repro.regular.parser import parse_regex

        pairs = standard_pairs(self.graph(), parse_regex("aaa"))
        assert ("u", "u") in pairs
        assert ("u", "v") not in pairs

    def test_standard_pairs_epsilon(self):
        from repro.regular.parser import parse_regex

        pairs = standard_pairs(self.graph(), parse_regex("a*"))
        assert all((n, n) in pairs for n in self.graph().nodes)

    def test_simple_path_pairs_exclude_revisits(self):
        from repro.regular.parser import parse_regex

        # aaaa from u wraps the cycle: a walk exists but no simple path.
        assert ("u", "v") in standard_pairs(self.graph(), parse_regex("aaaa"))
        assert ("u", "v") not in simple_path_pairs(
            self.graph(), parse_regex("aaaa")
        )

    def test_simple_path_diagonal_needs_epsilon(self):
        from repro.regular.parser import parse_regex

        assert ("u", "u") in simple_path_pairs(self.graph(), parse_regex("a*"))
        assert ("u", "u") not in simple_path_pairs(
            self.graph(), parse_regex("a^+")
        )

    def test_simple_cycle_nodes(self):
        from repro.regular.parser import parse_regex

        nodes = simple_cycle_nodes(
            self.graph(), parse_regex("aaa"), include_empty=False
        )
        assert nodes == {"u", "v", "w"}

    def test_atom_pairs_reads_semantics_names(self):
        from repro.queries.atoms import Atom
        from repro.regular.parser import parse_regex

        graph = generators.uniform_random(10, 30, {"a", "b"}, seed=1)
        language = parse_regex("(ab)^+")
        binary, loop = Atom("x", language, "y"), Atom("x", language, "x")
        names = {Semantics.STANDARD: ("st", "standard"),
                 Semantics.ATOM_INJECTIVE: ("a-inj", "atom-injective",
                                            "ainj")}
        for atom in (binary, loop):
            for semantics, aliases in names.items():
                expected = atom_pairs(graph, atom, semantics)
                for name in aliases:
                    assert atom_pairs(graph, atom, name) == expected
        assert len(atom_pairs(graph, binary, "st")) == 27
        assert len(atom_pairs(graph, binary, "a-inj")) == 20

    @pytest.mark.parametrize("semantics", [
        Semantics.QUERY_INJECTIVE, "q-inj", "qinj"])
    def test_atom_pairs_has_no_qinj_relation(self, semantics):
        from repro.queries.atoms import Atom
        from repro.regular.parser import parse_regex

        atom = Atom("x", parse_regex("(ab)^+"), "y")
        with pytest.raises(ValueError,
                           match="no q-inj pair relation outside its query"):
            atom_pairs(self.graph(), atom, semantics)

    def test_rpq_evaluate_dispatch(self):
        from repro.regular.parser import parse_regex

        regex = parse_regex("aaaa")
        st = rpq_evaluate(self.graph(), regex, "st")
        inj = rpq_evaluate(self.graph(), regex, "q-inj")
        assert inj < st


class TestEvaluationSemantics:
    def test_figure2_graph(self):
        q = parse_query("Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x")
        g = generators.figure2_graph()
        st = evaluate(q, g, "st")
        ainj = evaluate(q, g, "a-inj")
        qinj = evaluate(q, g, "q-inj")
        assert ("u", "w") in ainj and ("u", "w") not in qinj
        assert st == ainj

    def test_boolean_query(self):
        q = parse_query("Q() :- x -[ab]-> y")
        assert evaluate(q, generators.labeled_path("ab"), "st") == {()}
        assert evaluate(q, generators.labeled_path("ba"), "st") == frozenset()

    def test_in_evaluation_early_exit(self):
        q = parse_query("Q(x, y) :- x -[a^+]-> y")
        g = generators.labeled_path("aaa")
        assert in_evaluation(q, g, ("p0", "p3"), "st")
        assert not in_evaluation(q, g, ("p3", "p0"), "st")

    def test_in_evaluation_arity_check(self):
        q = parse_query("Q(x) :- x -[a]-> y")
        g = generators.labeled_path("a")
        with pytest.raises(ValueError):
            in_evaluation(q, g, ("p0", "p1"), "st")

    def test_qinj_requires_injective_head(self):
        q = parse_query("Q(x, y) :- x -[a]-> y, y -[b]-> x")
        g = GraphDatabase(edges=[("n", "a", "m"), ("m", "b", "n")])
        assert ("n", "m") in evaluate(q, g, "q-inj")
        # Self-pair impossible: x ≠ y must map to distinct nodes and the
        # languages lack ε.
        assert ("n", "n") not in evaluate(q, g, "q-inj")

    def test_qinj_internal_disjointness(self):
        # Two atoms x -[ab]-> y forced through the same middle node.
        q = parse_query("Q() :- x -[ab]-> y, x -[ab]-> z")
        g = GraphDatabase(
            edges=[("s", "a", "m"), ("m", "b", "t1"), ("m", "b", "t2")]
        )
        # Both paths must pass through m internally: a-inj fine (atoms
        # independent), q-inj impossible.
        assert evaluate(q, g, "a-inj") == {()}
        assert evaluate(q, g, "q-inj") == frozenset()

    def test_qinj_loop_atom_uses_simple_cycle(self):
        q = parse_query("Q(x) :- x -[ab]-> x")
        g = GraphDatabase(edges=[("n", "a", "m"), ("m", "b", "n")])
        assert evaluate(q, g, "q-inj") == {("n",)}

    def test_ainj_loop_atom(self):
        q = parse_query("Q(x) :- x -[ab]-> x")
        g = GraphDatabase(edges=[("n", "a", "m"), ("m", "b", "n")])
        # Simple cycle through n labeled ab: yes; through m labeled ab: the
        # cycle from m reads "ba" — no.
        assert evaluate(q, g, "a-inj") == {("n",)}

    def test_epsilon_union_semantics(self):
        q = parse_query("Q(x, y) :- x -[a*]-> y")
        g = generators.labeled_path("a")
        st = evaluate(q, g, "st")
        assert ("p0", "p0") in st and ("p0", "p1") in st

    def test_isolated_head_variable(self):
        q = parse_query("Q(z) :- x -[a]-> y")
        g = generators.labeled_path("a")
        # z ranges over all nodes under st/a-inj.
        assert evaluate(q, g, "st") == {("p0",), ("p1",)}
        # Under q-inj, z must be distinct from x, y images — impossible
        # on a 2-node graph.
        assert evaluate(q, g, "q-inj") == frozenset()


class TestCrossValidation:
    """The direct evaluators agree with the expansion+homomorphism
    reference (Props 2.2 / 2.3) on random instances."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        from repro.analysis.workloads import random_query, random_word_graph
        from repro.queries.crpq import QueryClass

        query = random_query(
            rng, QueryClass.CRPQ, num_variables=2, num_atoms=2,
            alphabet=("a", "b"), arity=1,
        )
        graph = random_word_graph(rng, {"a", "b"}, num_nodes=4, num_edges=6)
        for semantics in ALL_SEMANTICS:
            fast = evaluate(query, graph, semantics)
            slow = reference_evaluate(query, graph, semantics,
                                      max_word_length=5)
            if semantics is Semantics.STANDARD:
                # The reference is complete only up to its word bound for
                # standard semantics; it must still be a subset.
                assert slow <= fast
            else:
                # Injective semantics: words longer than |V| cannot embed,
                # so bound 5 ≥ |V|+1 makes the reference exact.
                assert fast == slow, (seed, semantics)

    @pytest.mark.parametrize("seed", range(4))
    def test_standard_reference_exact_on_dags(self, seed):
        # On acyclic graphs all walks are simple, so bound |V| is exact
        # for standard semantics too.
        rng = random.Random(100 + seed)
        from repro.analysis.workloads import random_query
        from repro.queries.crpq import QueryClass

        query = random_query(
            rng, QueryClass.CRPQ, num_variables=2, num_atoms=2,
            alphabet=("a", "b"), arity=1,
        )
        graph = GraphDatabase()
        for i in range(5):
            for j in range(i + 1, 5):
                if rng.random() < 0.5:
                    graph.add_edge(i, rng.choice("ab"), j)
        for i in range(5):
            graph.add_node(i)
        fast = evaluate(query, graph, "st")
        slow = reference_evaluate(query, graph, "st", max_word_length=5)
        assert fast == slow
