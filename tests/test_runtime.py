"""Execution governor unit tests: budgets, deadlines, cancellation,
amortized checkpoints, partial results, and the CLI budget surface."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import runtime
from repro.engine.runtime import (
    CHECK_INTERVAL,
    CancellationToken,
    ExecutionContext,
    PartialAnswers,
    ResourceBudget,
    active_context,
    checkpoint_site,
    current_context,
    registered_sites,
    resolve_context,
    site_descriptions,
)
from repro.errors import (
    EvaluationCancelled,
    EvaluationTimeout,
    ReproError,
    ResourceExhausted,
    SearchBudgetExceeded,
)
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.semantics.evaluation import evaluate


def _chain_graph(length=300):
    """A chain long enough that even one amortization interval of
    checkpoint hits is guaranteed (the product sweep ticks per pop)."""
    graph = GraphDatabase()
    nodes = [f"v{i}" for i in range(length)]
    graph.add_path(nodes, ["a"] * (length - 1))
    return graph


# ----------------------------------------------------------------------
# ResourceBudget / CancellationToken
# ----------------------------------------------------------------------


class TestBudgetAndToken:
    def test_default_budget_is_unbounded(self):
        budget = ResourceBudget()
        assert not budget.bounded()
        assert budget.timeout is budget.row_cap is None
        assert budget.witness_cap is budget.step_cap is None

    def test_any_field_makes_it_bounded(self):
        for kwargs in ({"timeout": 1.0}, {"row_cap": 10},
                       {"witness_cap": 5}, {"step_cap": 100}):
            assert ResourceBudget(**kwargs).bounded()

    @pytest.mark.parametrize("kwargs", [
        {"timeout": -3}, {"timeout": float("nan")}, {"row_cap": -5},
        {"witness_cap": -1}, {"step_cap": -1},
    ])
    def test_negative_or_nan_limits_are_rejected(self, kwargs):
        with pytest.raises(ValueError, match="non-negative"):
            ResourceBudget(**kwargs)

    def test_zero_limits_are_valid(self):
        budget = ResourceBudget(timeout=0, row_cap=0, witness_cap=0,
                                step_cap=0)
        assert budget.bounded()

    def test_evaluate_rejects_negative_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            evaluate(parse_query("Q(x, y) :- x -[a]-> y"), _chain_graph(3),
                     "st", timeout=-1)

    def test_token_starts_clear_and_latches(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled


# ----------------------------------------------------------------------
# Checkpoints: amortization, step cap, cancellation, deadline
# ----------------------------------------------------------------------


class TestCheckpoint:
    def test_step_cap_enforced_with_unit_interval(self):
        ctx = ExecutionContext(ResourceBudget(step_cap=3), interval=1)
        for _ in range(3):
            ctx.checkpoint("t.site")
        with pytest.raises(ResourceExhausted) as excinfo:
            ctx.checkpoint("t.site")
        error = excinfo.value
        assert error.kind == "steps"
        assert error.limit == 3
        assert error.progress == 4
        assert error.site == "t.site"

    def test_default_interval_amortizes_real_checks(self):
        # Bounded staleness: a tripped limit is only observed at the
        # next real check, up to CHECK_INTERVAL hits later.
        ctx = ExecutionContext(ResourceBudget(step_cap=1))
        for _ in range(CHECK_INTERVAL - 1):
            ctx.checkpoint("t.site")
        with pytest.raises(ResourceExhausted):
            ctx.checkpoint("t.site")

    def test_cancellation_token_observed_at_checkpoint(self):
        ctx = ExecutionContext(interval=1)
        ctx.checkpoint("t.site")
        ctx.token.cancel()
        with pytest.raises(EvaluationCancelled) as excinfo:
            ctx.checkpoint("t.other")
        assert excinfo.value.site == "t.other"

    def test_zero_timeout_raises_evaluation_timeout(self):
        ctx = ExecutionContext(ResourceBudget(timeout=0.0), interval=1)
        with pytest.raises(EvaluationTimeout) as excinfo:
            ctx.checkpoint("t.site")
        error = excinfo.value
        assert isinstance(error, ResourceExhausted)
        assert error.kind == "deadline"
        assert error.limit == 0.0
        assert error.site == "t.site"

    def test_probe_forces_per_hit_checks(self):
        ctx = ExecutionContext(ResourceBudget(step_cap=1))
        seen = []
        ctx.install_probe(seen.append)
        ctx.checkpoint("t.site")  # tick 1 == cap, still fine
        with pytest.raises(ResourceExhausted):
            ctx.checkpoint("t.site")  # tick 2 > cap: immediate, no interval
        assert seen == ["t.site", "t.site"]

    def test_remove_probe_restores_amortization(self):
        ctx = ExecutionContext(ResourceBudget(step_cap=1))
        ctx.install_probe(lambda site: None)
        ctx.remove_probe()
        for _ in range(CHECK_INTERVAL - 2):
            ctx.checkpoint("t.site")  # no real check until a full interval

    def test_probes_stack_and_all_fire(self):
        ctx = ExecutionContext()
        first, second = [], []
        ctx.install_probe(first.append)
        ctx.install_probe(second.append)
        ctx.checkpoint("t.site")
        assert first == ["t.site"]
        assert second == ["t.site"]

    def test_remove_probe_by_handle_pops_only_that_probe(self):
        # Regression: installing a second probe used to clobber the
        # first, and remove_probe() dropped whichever was installed
        # last.  Handles make install/remove properly nest.
        ctx = ExecutionContext(ResourceBudget(step_cap=1))
        first, second = [], []
        handle_first = ctx.install_probe(first.append)
        handle_second = ctx.install_probe(second.append)
        ctx.remove_probe(handle_second)
        ctx.checkpoint("t.site")  # tick 1 == cap: fine
        assert first == ["t.site"]
        assert second == []
        # The surviving probe still forces per-hit real checks.
        with pytest.raises(ResourceExhausted):
            ctx.checkpoint("t.site")
        ctx.remove_probe(handle_first)
        assert first == ["t.site", "t.site"]

    def test_remove_probe_without_handle_clears_all(self):
        ctx = ExecutionContext(ResourceBudget(step_cap=1))
        seen = []
        ctx.install_probe(seen.append)
        ctx.install_probe(seen.append)
        ctx.remove_probe()
        for _ in range(CHECK_INTERVAL - 2):
            ctx.checkpoint("t.site")  # amortization restored
        assert seen == []

    def test_remove_probe_with_stale_handle_is_a_noop(self):
        ctx = ExecutionContext()
        seen = []
        handle = ctx.install_probe(seen.append)
        ctx.remove_probe(handle)
        ctx.remove_probe(handle)  # second removal of same handle: no-op
        ctx.checkpoint("t.site")
        assert seen == []

    def test_check_rows_is_direct_not_amortized(self):
        ctx = ExecutionContext(ResourceBudget(row_cap=10))
        ctx.check_rows(10, "t.join")
        with pytest.raises(ResourceExhausted) as excinfo:
            ctx.check_rows(11, "t.join")
        assert excinfo.value.kind == "rows"
        assert excinfo.value.limit == 10
        assert excinfo.value.progress == 11

    def test_consume_witnesses_accumulates(self):
        ctx = ExecutionContext(ResourceBudget(witness_cap=3))
        ctx.consume_witnesses(2, "t.search")
        ctx.consume_witnesses(1, "t.search")
        with pytest.raises(ResourceExhausted) as excinfo:
            ctx.consume_witnesses(1, "t.search")
        assert excinfo.value.kind == "witnesses"
        assert ctx.witnesses == 4


# ----------------------------------------------------------------------
# Ambient context flow
# ----------------------------------------------------------------------


class TestAmbientContext:
    def test_default_context_is_shared_and_unbounded(self):
        ctx = current_context()
        assert current_context() is ctx
        assert not ctx.budget.bounded()

    def test_active_context_installs_and_restores(self):
        outer = current_context()
        ctx = ExecutionContext()
        with active_context(ctx) as installed:
            assert installed is ctx
            assert current_context() is ctx
        assert current_context() is outer

    def test_active_context_none_is_passthrough(self):
        ctx = ExecutionContext()
        with active_context(ctx):
            with active_context(None) as seen:
                assert seen is ctx
                assert current_context() is ctx

    def test_resolve_context_prefers_explicit(self):
        explicit = ExecutionContext()
        assert resolve_context(explicit) is explicit
        assert resolve_context(None) is current_context()


# ----------------------------------------------------------------------
# Site registry
# ----------------------------------------------------------------------


class TestSiteRegistry:
    def test_registration_is_idempotent(self, monkeypatch):
        # Register into a copy so the test site does not outlive the test
        # (the fault-injection sweep must cover the whole registry).
        monkeypatch.setattr(runtime, "_SITE_REGISTRY",
                            dict(runtime._SITE_REGISTRY))
        first = checkpoint_site("t.registry", "first description")
        second = checkpoint_site("t.registry", "ignored on re-registration")
        assert first == second == "t.registry"
        assert site_descriptions()["t.registry"] == "first description"

    def test_engine_sites_are_registered(self):
        sites = registered_sites()
        for site in ("product.sweep", "join.natural-join", "qinj.search",
                     "paths.dfs", "batch.entry",
                     "incremental.grow", "incremental.shrink",
                     "planner.reduce", "planner.eliminate"):
            assert site in sites

    def test_architecture_doc_table_lists_every_engine_site(self):
        """The ARCHITECTURE.md checkpoint-sites table must stay in sync
        with the registry: a site added without a doc row fails here."""
        from repro.devtools.faultinject import all_sites

        doc = Path(__file__).resolve().parent.parent / "ARCHITECTURE.md"
        text = doc.read_text(encoding="utf-8")
        for site in all_sites():
            assert f"| `{site}` |" in text, (
                f"checkpoint site {site!r} missing from the "
                f"ARCHITECTURE.md sites table"
            )


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_resource_exhausted_carries_structured_fields(self):
        error = ResourceExhausted("out of rope", kind="rows", limit=5,
                                  progress=9, site="t.join")
        assert isinstance(error, ReproError)
        assert (error.kind, error.limit, error.progress, error.site) == \
            ("rows", 5, 9, "t.join")

    def test_timeout_is_resource_exhausted(self):
        error = EvaluationTimeout("too slow", limit=1.5, progress=2.0)
        assert isinstance(error, ResourceExhausted)
        assert error.kind == "deadline"

    def test_search_budget_exceeded_subsumed_by_taxonomy(self):
        error = SearchBudgetExceeded("expansion search exhausted", 128)
        assert isinstance(error, ResourceExhausted)
        assert error.kind == "search"
        assert error.budget == error.limit == 128
        assert str(error) == "expansion search exhausted (budget=128)"

    def test_cancelled_is_repro_error_not_exhaustion(self):
        error = EvaluationCancelled(site="t.site")
        assert isinstance(error, ReproError)
        assert not isinstance(error, ResourceExhausted)
        assert error.site == "t.site"


# ----------------------------------------------------------------------
# PartialAnswers
# ----------------------------------------------------------------------


class TestPartialAnswers:
    def test_behaves_like_frozenset(self):
        answers = PartialAnswers({("u", "v")}, complete=False,
                                 error=ResourceExhausted("x"))
        assert answers == frozenset({("u", "v")})
        assert ("u", "v") in answers
        assert answers | {("w", "w")} == {("u", "v"), ("w", "w")}

    def test_carries_completion_state(self):
        error = EvaluationTimeout("late")
        partial = PartialAnswers((), complete=False, error=error)
        assert not partial.complete
        assert partial.error is error
        assert "partial" in repr(partial)
        complete = PartialAnswers({(1,)})
        assert complete.complete and complete.error is None
        assert "complete" in repr(complete)


# ----------------------------------------------------------------------
# evaluate() governance kwargs
# ----------------------------------------------------------------------


class TestEvaluateGovernance:
    QUERY = parse_query("Q(x, y) :- x -[a*]-> y")

    def test_budget_and_timeout_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            evaluate(self.QUERY, _chain_graph(5), "st",
                     budget=ResourceBudget(timeout=1.0), timeout=1.0)

    def test_bad_on_budget_rejected(self):
        with pytest.raises(ValueError, match="on_budget"):
            evaluate(self.QUERY, _chain_graph(5), "st", on_budget="ignore")

    def test_zero_timeout_raises(self):
        with pytest.raises(EvaluationTimeout):
            evaluate(self.QUERY, _chain_graph(), "st", timeout=0.0)

    def test_zero_timeout_partial_returns_marked_subset(self):
        graph = _chain_graph()
        partial = evaluate(self.QUERY, graph, "st", timeout=0.0,
                           on_budget="partial")
        assert isinstance(partial, PartialAnswers)
        assert not partial.complete
        assert isinstance(partial.error, EvaluationTimeout)
        full = evaluate(self.QUERY, graph.copy(), "st")
        assert partial <= full

    def test_row_cap_trips_on_join(self):
        graph = _chain_graph(6)
        query = parse_query("Q(x, z) :- x -[a]-> y, y -[a]-> z")
        with pytest.raises(ResourceExhausted) as excinfo:
            evaluate(query, graph, "st",
                     budget=ResourceBudget(row_cap=1))
        assert excinfo.value.kind == "rows"

    def test_unbounded_call_matches_historical_behavior(self):
        graph = _chain_graph(10)
        plain = evaluate(self.QUERY, graph, "st")
        assert type(plain) is frozenset
        assert plain == evaluate(self.QUERY, graph.copy(), "st",
                                 budget=ResourceBudget())


# ----------------------------------------------------------------------
# CLI budget flags and exit codes
# ----------------------------------------------------------------------


class TestCLIBudget:
    @pytest.fixture
    def chain_file(self, tmp_path):
        lines = [f"v{i} a v{i + 1}" for i in range(299)]
        path = tmp_path / "chain.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_evaluate_timeout_exits_budget_code(self, chain_file, capsys):
        code = main(["evaluate", "Q(x, y) :- x -[a*]-> y", chain_file,
                     "--timeout", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "deadline" in err

    def test_evaluate_max_rows_exits_budget_code(self, chain_file, capsys):
        code = main(["evaluate", "Q(x, z) :- x -[a]-> y, y -[a]-> z",
                     chain_file, "--max-rows", "1"])
        assert code == 3
        assert "row budget" in capsys.readouterr().err

    def test_batch_timeout_exits_budget_code(self, chain_file, tmp_path,
                                             capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("Q(x, y) :- x -[a*]-> y\n")
        code = main(["batch", chain_file, str(queries), "--timeout", "0"])
        assert code == 3
        assert "deadline" in capsys.readouterr().err

    def test_update_timeout_exits_budget_code(self, chain_file, tmp_path,
                                              capsys):
        script = tmp_path / "ops.txt"
        script.write_text("add v0 a v5\n")
        code = main(["update", chain_file, str(script),
                     "Q(x, y) :- x -[a*]-> y", "--timeout", "0"])
        assert code == 3
        assert "deadline" in capsys.readouterr().err

    def test_without_flags_succeeds(self, chain_file, capsys):
        code = main(["evaluate", "Q(x, y) :- x -[aa]-> y", chain_file])
        assert code == 0
        assert "answer(s)" in capsys.readouterr().out
