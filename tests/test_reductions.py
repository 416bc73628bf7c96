"""Tests for the executable hardness reductions (E3, E7, E8, E9)."""

import pytest

from repro.containment.api import contains
from repro.containment.result import Verdict
from repro.reductions import gcp2, pcp, qbf, subgraph_iso
from repro.semantics.evaluation import evaluate, in_evaluation


class TestSubgraphIso:
    """Prop 3.1: injective pattern matching ≡ q-inj/a-inj evaluation."""

    def cases(self):
        triangle = subgraph_iso.symmetric_graph_db(
            [("a", "b"), ("b", "c"), ("a", "c")]
        )
        square = subgraph_iso.symmetric_graph_db(
            [(1, 2), (2, 3), (3, 4), (4, 1)]
        )
        k3 = subgraph_iso.clique_cq(3)
        k2 = subgraph_iso.clique_cq(2)
        return [(k3, triangle, True), (k3, square, False),
                (k2, square, True)]

    def test_qinj_evaluation_decides_subgraph_iso(self):
        for pattern, graph, expected in self.cases():
            q, g = subgraph_iso.subgraph_iso_to_qinj_instance(pattern, graph)
            answer = bool(evaluate(q.to_crpq(), g, "q-inj"))
            assert answer == expected

    def test_ainj_reduction_with_r_completion(self):
        for pattern, graph, expected in self.cases():
            q_plus, g_plus = subgraph_iso.subgraph_iso_to_ainj_instance(
                pattern, graph
            )
            answer = bool(evaluate(q_plus.to_crpq(), g_plus, "a-inj"))
            assert answer == expected, (len(pattern.variables), expected)

    def test_r_completion_shapes(self):
        g = subgraph_iso.symmetric_graph_db([(1, 2)])
        g_plus = subgraph_iso.r_complete_graph(g)
        assert g_plus.edge_count() == 2 + 2  # E both ways + R both ways
        q = subgraph_iso.clique_cq(2)
        q_plus = subgraph_iso.r_complete_query(q)
        assert len(q_plus.atoms) == 2 + 2


class TestPCP:
    def test_solver_finds_classic_solution(self):
        solution = pcp.SOLVABLE_EXAMPLE.solve()
        assert solution is not None
        assert pcp.SOLVABLE_EXAMPLE.is_solution(solution)

    def test_solver_rejects_unsolvable(self):
        assert pcp.UNSOLVABLE_EXAMPLE.solve(max_depth=8) is None

    def test_apply_and_is_solution(self):
        u, v = pcp.SOLVABLE_EXAMPLE.apply([1])
        assert (u, v) == ("a", "baa")
        assert not pcp.SOLVABLE_EXAMPLE.is_solution([1])
        assert not pcp.SOLVABLE_EXAMPLE.is_solution([])

    def test_q1_structure(self):
        q1 = pcp.build_q1(pcp.TRIVIAL_EXAMPLE)
        assert len(q1.atoms) == 4
        assert q1.is_boolean()
        sources = [a.source for a in q1.atoms]
        targets = [a.target for a in q1.atoms]
        assert sources.count("x") == 2 and targets.count("x") == 2

    def test_q2_is_crpqfin(self):
        from repro.queries.crpq import QueryClass

        for disjunct in pcp.build_q2_union(pcp.TRIVIAL_EXAMPLE):
            assert disjunct.query_class() in (QueryClass.CQ, QueryClass.CRPQ_FIN)
        single = pcp.build_q2_single(pcp.TRIVIAL_EXAMPLE)
        assert single.query_class() is QueryClass.CRPQ_FIN

    @pytest.mark.parametrize("instance,solution", [
        (pcp.TRIVIAL_EXAMPLE, [1]),
        (pcp.SOLVABLE_EXAMPLE, None),  # filled by the solver
    ])
    def test_forward_direction(self, instance, solution):
        """PCP solution ⇒ the well-formed witness defeats Q2 (Theorem 5.2
        forward direction)."""
        if solution is None:
            solution = instance.solve()
        witness = pcp.solution_witness(instance, solution)
        q2 = pcp.build_q2_union(instance)
        cq = witness.cq
        assert not in_evaluation(q2, cq.as_graph(), (), "a-inj")

    def test_witness_is_valid_ainj_expansion(self):
        """The witness respects atom-relatedness: no merged pair shares an
        atom expansion."""
        witness = pcp.solution_witness(pcp.TRIVIAL_EXAMPLE, [1])
        related = witness.expansion.atom_related_pairs()
        for block in witness.blocks:
            for x in block:
                for y in block:
                    if x != y:
                        assert (x, y) not in related and (y, x) not in related

    def test_witness_rejected_for_non_solution(self):
        with pytest.raises(ValueError):
            pcp.solution_witness(pcp.SOLVABLE_EXAMPLE, [1])

    @pytest.mark.parametrize("pairs,expected_solvable", [
        ([("aa", "a"), ("b", "ab")], True),     # solution [1, 2]
        ([("a", "ab"), ("ba", "a")], True),     # solution [1, 2] variant
        ([("a", "ab"), ("bb", "b")], True),     # solution [1, 2]
        ([("a", "b")], False),
        ([("ab", "ba"), ("ba", "ab")], False),  # swaps can never agree
    ])
    def test_instance_sweep(self, pairs, expected_solvable):
        """More instances: solver verdicts and, when solvable, witness
        counterexamples."""
        instance = pcp.PCPInstance.from_pairs(pairs)
        solution = instance.solve(max_depth=8)
        assert (solution is not None) == expected_solvable, pairs
        if solution is not None:
            witness = pcp.solution_witness(instance, solution)
            q2 = pcp.build_q2_union(instance)
            assert not in_evaluation(q2, witness.cq.as_graph(), (), "a-inj")

    def test_semi_decider_discovers_counterexample(self):
        """End-to-end: without being handed the solution, the bounded
        a-inj search *finds* a counterexample for the solvable instance —
        the reduction loop closed by machine."""
        from repro.containment.bounded import search_counterexample

        q1, q2 = pcp.build_reduction(pcp.TRIVIAL_EXAMPLE)
        result = search_counterexample(
            q1, q2, "a-inj", max_word_length=4,
            expansion_budget=50, quotient_budget=100000,
        )
        assert result.verdict is Verdict.NOT_CONTAINED
        witness = result.counterexample
        assert not in_evaluation(q2, witness.as_graph(), (), "a-inj")

    def test_mismatched_indices_are_caught(self):
        """An expansion whose index tracks disagree is matched by Q2
        (it contains a forbidden pattern), so it is not a counterexample."""
        inst = pcp.PCPInstance.from_pairs([("ab", "ab"), ("ba", "ba")])
        from repro.semantics.expansion import Expansion

        q1 = pcp.build_q1(inst)
        # Index tracks claim tile 1 incoming but tile 2 outgoing.
        w_i, w_ah, w_ih, w_a = pcp.solution_tracks(inst, [1])
        bad_w_ih = tuple(
            ("Ih", 2) if sym == ("Ih", 1) else sym for sym in w_ih
        )
        expansion = Expansion(q1, (w_i, w_ah, bad_w_ih, w_a))
        q2 = pcp.build_q2_union(inst)
        # Even without identifications the I_1 Î_2 mismatch path at x.
        cq = expansion.cq
        assert in_evaluation(q2, cq.as_graph(), (), "a-inj")


class TestGCP2:
    def test_brute_force_triangle_negative(self):
        edges, verts, n = gcp2.triangle_instance()
        assert gcp2.gcp2_brute_force(edges, verts, n) is None

    def test_brute_force_path_positive(self):
        edges, verts, n = gcp2.path_instance()
        partition = gcp2.gcp2_brute_force(edges, verts, n)
        assert partition is not None
        # Verify the partition really avoids monochromatic edges (n=2).
        for u, v in edges:
            assert partition[u] != partition[v]

    def test_has_clique(self):
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
        assert gcp2.has_clique(edges, {"a", "b", "c"}, 3)
        assert not gcp2.has_clique(edges, {"a", "b", "d"}, 3)

    @pytest.mark.parametrize("instance_fn", [gcp2.triangle_instance,
                                             gcp2.path_instance])
    def test_reduction_agrees_with_brute_force(self, instance_fn):
        edges, verts, n = instance_fn()
        positive = gcp2.gcp2_brute_force(edges, verts, n) is not None
        q1, q2 = gcp2.build_reduction(edges, verts, n)
        result = contains(q1, q2, "q-inj")
        assert (result.verdict is Verdict.NOT_CONTAINED) == positive

    def test_query_classes(self):
        from repro.queries.crpq import QueryClass

        edges, verts, n = gcp2.path_instance()
        q1, q2 = gcp2.build_reduction(edges, verts, n)
        assert q1.query_class() in (QueryClass.CQ, QueryClass.CRPQ_FIN)
        assert q2.to_crpq().is_cq()


class TestQBF:
    def test_brute_force(self):
        assert qbf.tautology_example().is_valid()
        assert not qbf.invalid_example().is_valid()

    def test_evaluate(self):
        formula = qbf.tautology_example()
        assert formula.evaluate({1: True}, {1: False})
        assert not formula.evaluate({1: False}, {1: False})

    def test_literal_validation(self):
        with pytest.raises(ValueError):
            qbf.ForallExistsQBF(1, 0, [(("y", 1, True),)])
        with pytest.raises(ValueError):
            qbf.ForallExistsQBF(1, 1, [(("z", 1, True),)])

    @pytest.mark.parametrize("formula_fn,expected", [
        (qbf.tautology_example, True),
        (qbf.invalid_example, False),
    ])
    def test_reduction_agrees_with_brute_force(self, formula_fn, expected):
        formula = formula_fn()
        assert formula.is_valid() == expected
        q1, q2 = qbf.build_reduction(formula)
        result = contains(q1, q2, "a-inj")
        assert bool(result) == expected

    def test_no_universals(self):
        # ∃y (y): valid.
        formula = qbf.ForallExistsQBF(0, 1, [(("y", 1, True),)])
        assert formula.is_valid()
        q1, q2 = qbf.build_reduction(formula)
        assert bool(contains(q1, q2, "a-inj"))

    def test_unsatisfiable_clause_pair(self):
        # ∃y (y) ∧ (¬y): invalid.
        formula = qbf.ForallExistsQBF(
            0, 1, [(("y", 1, True),), (("y", 1, False),)]
        )
        assert not formula.is_valid()
        q1, q2 = qbf.build_reduction(formula)
        assert not bool(contains(q1, q2, "a-inj"))

    def test_query_classes(self):
        formula = qbf.tautology_example()
        q1, q2 = qbf.build_reduction(formula)
        assert q1.is_boolean() and q2.is_boolean()
        from repro.queries.crpq import QueryClass

        assert q2.query_class() in (QueryClass.CQ, QueryClass.CRPQ_FIN)
