"""Unit tests for the static query analyzer (engine/analyze.py).

Covers the decision kinds (unsatisfiable / duplicate disjuncts,
sibling-language subsumption), the semantics-soundness gating (q-inj
gets a lint where st / a-inj get a rewrite), check-cap exhaustion,
that no analysis runs a containment decider, memoization
across graph mutations, the planner/qinj empty-language short-circuits,
and the CLI surfaces (``analyze`` subcommand, ``--explain`` analysis
section, the per-disjunct fact line).
"""

import pytest

from repro.analysis.catalog import by_name
from repro.analysis.qinj_pruning import rare_chain_workload
from repro.cli import main
import repro.engine.analyze as analyze_module
from repro.engine.analyze import (
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
        """Q(x,y) :- x-[a^+]->y and the same query with the atom doubled
        differ under q-inj, so they are different queries (CRPQ equality
        counts atom multiplicity) and the analysis cache keeps them
        apart."""
        atom = Atom("x", plus(Symbol("a")), "y")
        single = CRPQ(("x", "y"), (atom,))
        doubled = CRPQ(("x", "y"), (atom, atom))
        assert single != doubled
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
    def test_budget_exhaustion_lint(self, monkeypatch):
        query = parse_query("Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y")
        clear_analysis_cache()
        monkeypatch.setattr(analyze_module, "MAX_CHECKS", 0)
        report = analyze(query, "st")
        assert "analysis-budget-exhausted" in lint_codes(report)
        assert report.decisions == ()  # nothing licensed without checks

    @pytest.mark.parametrize("query, semantics", [
        *(pytest.param(q, s, id=f"rare-chain-{len(q.atoms)}-{s}")
          for q in rare_chain_workload((2, 3, 4))
          for s in ("a-inj", "q-inj")),
        pytest.param(by_name("diamond").query, "q-inj", id="diamond-q-inj"),
        *(pytest.param(
            (parse_query("Q(x, y) :- x -[a]-> y, y -[b]-> z"),
             parse_query("Q(x, y) :- x -[a]-> y")),
            s, id=f"specialized-general-union-{s}")
          for s in ("st", "a-inj", "q-inj")),
    ])
    def test_chains_run_no_containment_decider(
        self, monkeypatch, query, semantics
    ):
        """The analyzer decides language inclusion on automata only: a
        cold analysis makes no ``contains`` call, also on a union whose
        first disjunct is contained in its second."""
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
        analyze(query, semantics)
        stats = analysis_cache_stats()
        assert (stats["misses"], stats["hits"]) == (1, 0)
        assert calls == []


class TestMemoization:
    def test_cache_hit_and_miss_counters(self):
        clear_analysis_cache()
        q = parse_query("Q(x, y) :- x -[a]-> y, x -[(a+b)]-> y")
        first = analyze(q, "st")
        stats = analysis_cache_stats()
        assert (stats["misses"], stats["hits"]) == (1, 0)
        again = analyze(parse_query("Q(x, y) :- x -[(a+b)]-> y, x -[a]-> y"),
                        "st")
        stats = analysis_cache_stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)
        assert again is first

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
        query = parse_query("Q(x, y) :- x -[a]-> y, y -[b]-> z")
        text = explain_query((query, query), small_graph, "st")
        assert "analysis [st]" in text
        assert "drop-disjunct-duplicate" in text
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
