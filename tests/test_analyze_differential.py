"""The differential matrix's analyzer axes (:mod:`tests.differential_matrix`):
``analysis_disabled()`` must not change an answer.  Engineered shapes
(∅ atoms, sibling subsumption, subsumed and duplicate disjuncts) check
that the analyzer fires there and that analyzed equals unanalyzed.
"""

import random

import pytest

from repro.analysis.workloads import random_word_graph
from repro.engine.analyze import analysis_disabled, analyze
from repro.queries.atoms import Atom
from repro.queries.crpq import CRPQ
from repro.queries.parser import parse_query
from repro.regular.syntax import Concat, Empty, Symbol
from repro.semantics.base import ALL_SEMANTICS
from repro.semantics.evaluation import evaluate
from tests.differential_matrix import check, stripe, union_seeds

ALPHABET = ("a", "b")


def both_ways(query, graph, semantics):
    analyzed = evaluate(query, graph, semantics)
    with analysis_disabled():
        baseline = evaluate(query, graph, semantics)
    return analyzed, baseline


class TestRandomSingleQueries:
    @pytest.mark.parametrize("seed", range(18))
    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_analyzed_equals_unanalyzed(self, seed, semantics):
        check("analysis-off", stripe(seed, 18, union_seeds(False)),
              [semantics])


class TestRandomUnions:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_union_analyzed_equals_unanalyzed(self, seed, semantics):
        check("analysis-off", stripe(seed, 12, union_seeds()), [semantics])

    @pytest.mark.parametrize("seed", range(8))
    def test_in_evaluation_agrees(self, seed):
        check("in-evaluation-analysis-off", stripe(seed, 8, union_seeds()))


class TestEngineeredPruningShapes:
    """Shapes where the analyzer is known to fire; equality must hold
    *and* the report must show the expected decision."""

    def graph(self, seed=5):
        rng = random.Random(seed)
        return random_word_graph(rng, ALPHABET, num_nodes=5, num_edges=10)

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_empty_atom_union(self, semantics):
        live = parse_query("Q(x, y) :- x -[a]-> y")
        dead = CRPQ(("x", "y"),
                    (Atom("x", Concat(Symbol("a"), Empty()), "y"),))
        union = (live, dead)
        analyzed, baseline = both_ways(union, self.graph(), semantics)
        assert analyzed == baseline
        report = analyze(union, semantics)
        assert any(d.kind == "drop-disjunct-unsatisfiable"
                   for d in report.decisions)

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_sibling_subsumption_shape(self, semantics):
        query = parse_query("Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y")
        analyzed, baseline = both_ways(query, self.graph(), semantics)
        assert analyzed == baseline

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_subsumed_disjunct_shape(self, semantics):
        union = (
            parse_query("Q(x, y) :- x -[a]-> y, y -[b]-> z"),
            parse_query("Q(x, y) :- x -[a]-> y"),
        )
        analyzed, baseline = both_ways(union, self.graph(), semantics)
        assert analyzed == baseline

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    def test_duplicate_disjunct_shape(self, semantics):
        q = parse_query("Q(x, y) :- x -[(a+b)]-> y, y -[a]-> z")
        analyzed, baseline = both_ways((q, q), self.graph(), semantics)
        assert analyzed == baseline

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS)
    @pytest.mark.parametrize("seed", range(4))
    def test_redundant_atom_shape(self, semantics, seed):
        query = parse_query(
            "Q(x, z) :- x -[a]-> y, y -[b]-> z, x -[ab]-> z"
        )
        rng = random.Random(2100 + seed)
        graph = random_word_graph(rng, ALPHABET, num_nodes=5, num_edges=10)
        analyzed, baseline = both_ways(query, graph, semantics)
        assert analyzed == baseline, (seed, semantics)
