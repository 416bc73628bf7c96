"""Unit tests for the static query analyzer (engine/analyze.py).

Covers the decision kinds (unsatisfiable / duplicate / subsumed
disjuncts, sibling-language subsumption), the semantics-soundness
gating (q-inj gets a lint where st / a-inj get a rewrite), budget
exhaustion, that chain queries run no containment decider, memoization
across graph mutations, the planner/qinj empty-language short-circuits,
and the CLI surfaces (``analyze`` subcommand, ``--explain`` analysis
section, the per-disjunct fact line).
"""

import pytest

from repro.analysis.catalog import by_name
from repro.analysis.qinj_pruning import rare_chain_workload
from repro.cli import main
from repro.engine.analyze import (
    AnalysisBudget,
    analysis_disabled,
    analyze,
    analyzed_disjuncts,
)
from repro.engine.cache import (
    analysis_cache_stats,
    clear_analysis_cache,
    clear_compilation_caches,
)
from repro.engine.planner import explain_query, plan_eps_free
from repro.engine.qinj import plan_qinj
from repro.graphdb.graph import GraphDatabase
from repro.queries.atoms import Atom
from repro.queries.crpq import CRPQ
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.regular.syntax import Concat, Empty, Symbol, plus
from repro.semantics.base import ALL_SEMANTICS
from repro.semantics.evaluation import evaluate


def empty_language():
    """A regex denoting ∅ that survives the smart constructors."""
    return Concat(Symbol("a"), Empty())


def decision_kinds(report):
    return [decision.kind for decision in report.decisions]


def lint_codes(report):
    return [lint.code for lint in report.lints]


@pytest.fixture
def small_graph():
    graph = GraphDatabase(nodes=["u", "v", "w"])
    graph.add_edge("u", "a", "v")
    graph.add_edge("v", "b", "w")
    graph.add_edge("u", "b", "v")
    return graph


class TestHardFacts:
    def test_empty_atom_drops_disjunct(self, small_graph):
        satisfiable = parse_query("Q(x, y) :- x -[a]-> y")
        unsat = CRPQ(("x", "y"), (Atom("x", empty_language(), "y"),))
        report = analyze((satisfiable, unsat), "st")
        assert "drop-disjunct-unsatisfiable" in decision_kinds(report)
        assert len(report.disjuncts) == 1
        for semantics in ALL_SEMANTICS:
            assert evaluate((satisfiable, unsat), small_graph, semantics) \
                == evaluate(satisfiable, small_graph, semantics)

    def test_duplicate_disjunct_collapses(self):
        q = parse_query("Q(x, y) :- x -[a]-> y")
        report = analyze((q, q), "st")
        assert decision_kinds(report) == ["drop-disjunct-duplicate"]
        assert len(report.disjuncts) == 1

    def test_duplicate_atoms_do_not_alias(self):
        """CRPQ.__eq__ collapses duplicate atoms (set comparison), but
        Q(x,y) :- x-[a^+]->y and the same query with the atom doubled
        differ under q-inj: the analysis cache must keep them apart."""
        atom = Atom("x", plus(Symbol("a")), "y")
        single = CRPQ(("x", "y"), (atom,))
        doubled = CRPQ(("x", "y"), (atom, atom))
        assert single == doubled  # the trap this test guards against
        clear_analysis_cache()
        report_single = analyze(single, "q-inj")
        report_doubled = analyze(doubled, "q-inj")
        assert len(report_single.disjuncts[0].atoms) == 1
        assert len(report_doubled.disjuncts[0].atoms) == 2
        # Distinct cache entries, not one aliased report.
        assert analysis_cache_stats()["entries"] >= 2

    def test_isolated_head_variable_lint(self):
        q = CRPQ(("x", "z"), (Atom("x", Symbol("a"), "y"),),
                 extra_variables=("x", "y", "z"))
        report = analyze(q, "st")
        assert "isolated-head-variable" in lint_codes(report)

    def test_disconnected_components_lint(self):
        q = parse_query("Q() :- x -[a]-> y, u -[b]-> v")
        report = analyze(q, "st")
        assert "disconnected-components" in lint_codes(report)


class TestSiblingSubsumption:
    def setup_method(self):
        self.query = parse_query("Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y")

    @pytest.mark.parametrize("semantics", ["st", "a-inj"])
    def test_superset_atom_dropped(self, semantics):
        report = analyze(self.query, semantics)
        assert "drop-atom-language-subsumed" in decision_kinds(report)
        assert len(report.disjuncts[0].atoms) == 1

    def test_qinj_gets_lint_not_sibling_drop(self):
        """q-inj witness paths must be internally disjoint, so the
        sibling rewrite is unsound there — phase 2 only lints."""
        report = analyze(self.query, "q-inj")
        assert "drop-atom-language-subsumed" not in decision_kinds(report)
        assert "atom-language-subsumed" in lint_codes(report)

    @pytest.mark.parametrize("semantics", ["st", "a-inj", "q-inj"])
    def test_answers_unchanged(self, semantics, small_graph):
        expected_all = evaluate(self.query, small_graph, semantics)
        with analysis_disabled():
            baseline = evaluate(self.query, small_graph, semantics)
        assert expected_all == baseline


class TestCertifiedRewrites:
    def test_disjunct_subsumption_with_verdict(self, small_graph):
        general = parse_query("Q(x, y) :- x -[a]-> y")
        specialized = parse_query("Q(x, y) :- x -[a]-> y, y -[b]-> z")
        report = analyze((specialized, general), "st")
        assert "drop-disjunct-subsumed" in decision_kinds(report)
        assert len(report.disjuncts) == 1
        decision = next(d for d in report.decisions
                        if d.kind == "drop-disjunct-subsumed")
        assert "finite-left" in decision.verdict
        assert evaluate((specialized, general), small_graph, "st") \
            == evaluate(general, small_graph, "st")

    def test_ainj_unrestricted_cell_not_rewritten(self):
        """Starred left side under a-inj: undecidable cell (Thm 5.2) —
        subsumption checks are skipped with an explanatory lint."""
        starred_special = parse_query(
            "Q(x, y) :- x -[a^+]-> y, y -[b]-> z"
        )
        general = parse_query("Q(x, y) :- x -[a^+]-> y")
        report = analyze((starred_special, general), "a-inj")
        assert "drop-disjunct-subsumed" not in decision_kinds(report)
        assert "rewrite-skipped-inconclusive-cell" in lint_codes(report)

    def test_budget_exhaustion_lint(self):
        query = parse_query("Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y")
        report = analyze(query, "st", budget=AnalysisBudget(max_checks=0))
        assert "analysis-budget-exhausted" in lint_codes(report)
        assert report.decisions == ()  # nothing licensed without checks

    @pytest.mark.parametrize("query, semantics", [
        *(pytest.param(q, s, id=f"rare-chain-{len(q.atoms)}-{s}")
          for q in rare_chain_workload((2, 3, 4))
          for s in ("a-inj", "q-inj")),
        pytest.param(by_name("diamond").query, "q-inj", id="diamond-q-inj"),
    ])
    def test_chains_run_no_containment_decider(
        self, monkeypatch, query, semantics
    ):
        """Single-disjunct queries have nothing for disjunct subsumption
        to compare, and the sibling phase decides language inclusion on
        automata: a cold analysis makes no ``contains`` call."""
        import repro.containment.api as api
        import repro.optimize as optimize

        calls = []
        real_contains = api.contains

        def counting_contains(*args, **kwargs):
            calls.append(args)
            return real_contains(*args, **kwargs)

        # optimize binds ``contains`` at import: count that name too.
        monkeypatch.setattr(api, "contains", counting_contains)
        monkeypatch.setattr(optimize, "contains", counting_contains)
        clear_analysis_cache()
        report = analyze(query, semantics)
        assert not report.from_cache
        assert calls == []


class TestMemoization:
    def test_cache_hit_and_from_cache_flag(self):
        clear_analysis_cache()
        q = parse_query("Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y")
        first = analyze(q, "st")
        again = analyze(q, "st")
        assert not first.from_cache
        assert again.from_cache
        assert again.disjuncts == first.disjuncts
        stats = analysis_cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_reports_survive_graph_mutations(self):
        """The cache key is graph-independent: mutating the graph must
        hit the memoized report, not recompute it — this is what the
        incremental layer relies on."""
        clear_analysis_cache()
        q = parse_query("Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y")
        graph = GraphDatabase(nodes=["u", "v"])
        graph.add_edge("u", "a", "v")
        evaluate(q, graph, "st")
        misses_before = analysis_cache_stats()["misses"]
        for extra in range(3):
            graph.add_edge("v", "b", f"n{extra}")
            evaluate(q, graph, "st")
        stats = analysis_cache_stats()
        assert stats["misses"] == misses_before
        assert stats["hits"] >= 3

    def test_deciders_do_not_populate_analysis_cache(self):
        """containment deciders evaluate throwaway expansion queries
        with analysis off; they must not pollute (or pay for) the
        analysis cache."""
        from repro.containment.api import contains

        clear_analysis_cache()
        q1 = parse_query("Q() :- x -[a]-> y, y -[b]-> z")
        q2 = parse_query("Q() :- x -[a]-> y")
        contains(q1, q2, "st")
        assert analysis_cache_stats()["entries"] == 0

    def test_analysis_disabled_is_passthrough(self):
        q = parse_query("Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y")
        with analysis_disabled():
            report = analyze(q, "st")
        assert report.decisions == ()
        assert len(report.disjuncts[0].atoms) == 2
        assert analyzed_disjuncts(q, "st") != report.disjuncts


class TestEmptyLanguageShortCircuit:
    def test_planner_never_fetches_relations(self):
        query = CRPQ(("x", "y"), (Atom("x", empty_language(), "y"),
                                  Atom("y", Symbol("a"), "z")))
        graph = GraphDatabase(nodes=["u", "v"])
        graph.add_edge("u", "a", "v")

        def forbidden_relation_for(atom, graph_, semantics_):
            raise AssertionError(
                "relation_for must not run for an unsatisfiable disjunct"
            )

        plan = plan_eps_free(query, graph, "st",
                             relation_for=forbidden_relation_for)
        assert plan.empty_reason is not None
        assert plan.answers() == frozenset()
        assert not plan.is_satisfiable()
        assert "pruned empty" in plan.explain()

    def test_qinj_planner_short_circuits(self):
        query = CRPQ(("x", "y"), (Atom("x", empty_language(), "y"),))
        graph = GraphDatabase(nodes=["u", "v", "w"])
        graph.add_edge("u", "a", "v")

        def forbidden_relation_for(atom, graph_, semantics_):
            raise AssertionError(
                "relation_for must not run for an unsatisfiable disjunct"
            )

        plan = plan_qinj(query, graph, relation_for=forbidden_relation_for)
        assert plan.empty_reason is not None
        assert "empty language" in plan.empty_reason
        assert plan.answers() == frozenset()


class TestSurfaces:
    def test_cli_analyze_subcommand(self, capsys):
        code = main([
            "analyze", "Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y",
            "--semantics", "st",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "analysis [st]" in out
        assert "drop-atom-language-subsumed" in out
        assert "answer(s)" not in out

    def test_cli_analyze_qinj_lints(self, capsys):
        code = main([
            "analyze", "Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y",
            "--semantics", "q-inj",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "atom-language-subsumed" in out

    def test_explain_has_analysis_section(self, small_graph):
        general = parse_query("Q(x, y) :- x -[a]-> y")
        specialized = parse_query("Q(x, y) :- x -[a]-> y, y -[b]-> z")
        text = explain_query((specialized, general), small_graph, "st")
        assert "analysis [st]" in text
        assert "drop-disjunct-subsumed" in text
        # Only the surviving disjunct gets a plan section.
        assert text.count("disjunct:") == 1
        assert "answer(s)" not in text

    def test_report_explain_mentions_counts(self):
        q = parse_query("Q(x, y) :- x -[a]-> y")
        text = analyze(q, "st").explain()
        assert "1 ε-free disjunct(s) in, 1 out" in text

    def test_explain_fact_line(self):
        """The per-disjunct fact line: a b^+ loop (infinite), a finite
        ac-atom, head variable w in no atom, components {x, y} and
        {w}, and three variables for the injective floor."""
        q = CRPQ(("y", "w"), (Atom("x", parse_regex("b^+"), "x"),
                              Atom("x", parse_regex("ac"), "y")),
                 extra_variables=("w",))
        lines = analyze(q, "st").explain().splitlines()
        assert lines[-2] == f"disjunct 0: {q}"
        assert lines[-1] == (
            "  2 atom(s); loops [0]; finite languages [1]; "
            "domain-scan head vars {w}; 2 component(s); "
            "injective floor 3 node(s)"
        )


class TestBatchAndIncrementalWiring:
    def test_batch_uses_analyzed_disjuncts(self, small_graph):
        from repro.semantics.evaluation import evaluate_batch

        satisfiable = parse_query("Q(x, y) :- x -[a]-> y")
        unsat = CRPQ(("x", "y"), (Atom("x", empty_language(), "y"),))
        batch_answers = evaluate_batch(
            [(satisfiable, unsat), satisfiable], small_graph, "st"
        )
        assert batch_answers[0] == batch_answers[1]

    def test_incremental_evaluation_reuses_reports(self):
        from repro.engine.incremental import incremental_store

        clear_compilation_caches()
        clear_analysis_cache()
        q = parse_query("Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y")
        graph = GraphDatabase(nodes=["u", "v"])
        graph.add_edge("u", "a", "v")
        incremental_store(graph)
        before = evaluate(q, graph, "st")
        misses = analysis_cache_stats()["misses"]
        graph.add_edge("u", "b", "v")
        graph.remove_edge("u", "a", "v")
        after = evaluate(q, graph, "st")
        assert analysis_cache_stats()["misses"] == misses
        assert before == frozenset({("u", "v")})
        assert after == frozenset()
