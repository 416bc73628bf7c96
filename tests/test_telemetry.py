"""Tests for the engine telemetry substrate and the obs devtools.

Covers the :mod:`repro.engine.telemetry` instruments (exactness under
threads, name discipline, kind conflicts), structured tracing
(span-tree shape, pool-thread parenting, the per-query counter
mirror), the ``metrics-report-v1`` document, checkpoint-site
profiling, and the CLI surface (``--trace`` / ``--metrics-out`` /
``stats``).
"""

import json
import threading

import pytest

from repro.cli import main
from repro.devtools.obs import (
    METRICS_SCHEMA,
    SiteProfiler,
    build_report,
    load_report,
    profiling,
    render_report,
    trace_session,
    validate_report,
    write_report,
)
from repro.engine import telemetry
from repro.engine.batch import BatchExecutor, QueryBatch
from repro.engine.runtime import ExecutionContext, active_context
from repro.engine.telemetry import MetricsRegistry, TracedAnswers
from repro.graphdb.generators import uniform_random
from repro.queries import parse_query
from repro.semantics import evaluate


@pytest.fixture(autouse=True)
def _fresh_metrics():
    telemetry.reset_for_tests()
    yield
    telemetry.reset_for_tests()


@pytest.fixture
def graph():
    return uniform_random(30, 90, {"a", "b"}, seed=5)


# ----------------------------------------------------------------------
# Instruments and the registry
# ----------------------------------------------------------------------


class TestInstruments:
    def test_counter_counts_and_snapshots(self):
        counter = MetricsRegistry().counter("t.count")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == {"type": "counter", "value": 5}

    def test_gauge_keeps_last_value(self):
        gauge = MetricsRegistry().gauge("t.gauge")
        gauge.set(3)
        gauge.set(7.5)
        assert gauge.value == 7.5
        assert gauge.snapshot() == {"type": "gauge", "value": 7.5}

    def test_histogram_tracks_count_sum_min_max(self):
        histogram = MetricsRegistry().histogram("t.hist")
        assert histogram.snapshot()["count"] == 0
        for value in (0.25, 0.75, 0.5):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot == {
            "type": "histogram",
            "count": 3,
            "sum": 1.5,
            "min": 0.25,
            "max": 0.75,
        }

    def test_reset_zeroes_without_unregistering(self):
        registry = MetricsRegistry()
        counter = registry.counter("t.count")
        counter.inc(9)
        registry.reset_for_tests()
        assert counter.value == 0
        assert registry.counter("t.count") is counter

    def test_metrics_disabled_suppresses_updates(self):
        counter = MetricsRegistry().counter("t.count")
        with telemetry.metrics_disabled():
            counter.inc(100)
        assert counter.value == 0
        counter.inc()
        assert counter.value == 1


class TestRegistryDiscipline:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_kind_conflict_is_a_type_error(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(TypeError, match="counter"):
            registry.gauge("a.b")
        with pytest.raises(TypeError, match="not a histogram"):
            registry.histogram("a.b")

    @pytest.mark.parametrize(
        "bad", ["", "flat", "Upper.case", "a..b", ".lead", "trail.",
                "sp ace.x"]
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError):
            MetricsRegistry().counter(bad)

    def test_snapshot_and_names_are_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z.last")
        registry.gauge("a.first")
        assert registry.names() == ("a.first", "z.last")
        assert list(registry.snapshot()) == ["a.first", "z.last"]

    def test_report_text_aligns_rows(self):
        registry = MetricsRegistry()
        registry.counter("t.count").inc(2)
        text = registry.report_text()
        assert "t.count" in text
        assert text.rstrip().endswith("2")

    def test_analysis_cache_stats_live_on_the_registry(self, graph):
        # The old cache._analysis_hits/_misses module globals are gone;
        # the registry (resettable per test) is the only tally.
        hits = telemetry.registry().counter("cache.analysis.hits")
        misses = telemetry.registry().counter("cache.analysis.misses")
        query = parse_query("Tstats(x, y) :- x -[(ba)^+]-> y")
        first = evaluate(query, graph, "st")
        assert misses.value >= 1
        baseline = hits.value
        assert evaluate(query, graph, "st") == first
        assert hits.value > baseline


class TestThreadSafety:
    def test_sixteen_thread_storm_is_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("t.storm")
        histogram = registry.histogram("t.storm_seconds")
        rounds, workers = 1000, 16

        def storm():
            for _ in range(rounds):
                counter.inc()
                histogram.observe(0.001)

        threads = [threading.Thread(target=storm) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == rounds * workers
        snapshot = histogram.snapshot()
        assert snapshot["count"] == rounds * workers
        assert snapshot["min"] == snapshot["max"] == 0.001


# ----------------------------------------------------------------------
# Structured tracing
# ----------------------------------------------------------------------


class TestTracing:
    def test_span_without_a_trace_is_a_noop(self):
        with telemetry.span("orphan") as opened:
            assert opened is None

    def test_evaluate_trace_returns_traced_answers(self, graph):
        query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
        traced = evaluate(query, graph, "st", trace=True)  # cold caches
        plain = evaluate(query, graph, "st")
        assert isinstance(traced, TracedAnswers)
        assert traced == plain  # still a frozenset of the same answers
        names = [child.name for child in traced.trace.root.children]
        assert names == ["analyze", "plan", "execute"]
        assert traced.trace.root.duration is not None
        for child in traced.trace.root.children:
            assert child.duration is not None

    def test_trace_counters_cover_only_this_query(self, graph):
        query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
        evaluate(query, graph, "st")  # warm caches outside any trace
        traced = evaluate(query, graph, "st", trace=True)
        counters = traced.trace.counters
        assert counters.get("cache.result.hits", 0) >= 1
        # The warm-up's misses happened before the trace existed.
        assert "cache.result.misses" not in counters

    def test_trace_render_lists_tree_and_counters(self, graph):
        query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
        traced = evaluate(query, graph, "st", trace=True)
        rendered = traced.trace.render()
        assert rendered.startswith("trace:")
        assert "analyze" in rendered and "counters:" in rendered

    def test_spans_from_bare_threads_parent_to_the_root(self):
        ctx = ExecutionContext()
        with telemetry.tracing(ctx) as trace:
            def worker():
                # Pool threads re-activate the captured context but not
                # the parent thread's contextvars: no current span.
                with active_context(ctx):
                    with telemetry.span("worker-side"):
                        pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert [s.name for s in trace.root.children] == ["worker-side"]

    def test_batch_entries_trace_under_a_session(self, graph):
        queries = [
            parse_query("Q(x, y) :- x -[(ab)^+]-> y"),
            parse_query("P(x, y) :- x -[a]-> y"),
        ]
        batch = QueryBatch(queries)
        plain = [
            answers
            for _i, _q, answers in
            BatchExecutor(graph, "st", max_workers=2).results(batch)
        ]
        with trace_session(profile=False) as trace:
            executor = BatchExecutor(graph, "st", max_workers=2)
            traced = list(executor.results(batch))
        entries = [s for s in trace.root.children if s.name == "batch-entry"]
        assert len(entries) == len(queries)
        for (index, _query, answers), expected in zip(traced, plain):
            assert answers == expected
            assert isinstance(answers, TracedAnswers)
            assert answers.span.name == "batch-entry"
            assert ("index", index) in answers.span.attributes

    def test_trace_session_traces_plain_evaluate(self, graph):
        query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
        with trace_session() as trace:
            evaluate(query, graph, "st")
        assert "analyze" in [s.name for s in trace.root.children]
        assert trace.root.duration is not None
        # Profiling was on by default: the hot loops left site rows.
        assert trace.site_profile
        assert all(hits > 0 for _site, hits, _s in trace.site_profile)


# ----------------------------------------------------------------------
# Checkpoint-site profiling
# ----------------------------------------------------------------------


class TestSiteProfiler:
    def test_hits_are_exact_and_sorted_hottest_first(self):
        profiler = SiteProfiler(sample_every=2)
        for _ in range(5):
            profiler("hot.site")
        profiler("cold.site")
        rows = profiler.rows()
        assert [(site, hits) for site, hits, _s in rows] == [
            ("hot.site", 5), ("cold.site", 1),
        ]

    def test_hits_stay_exact_across_threads(self):
        import sys
        import threading

        profiler = SiteProfiler(sample_every=3)
        barrier = threading.Barrier(8, timeout=10)

        def hit():
            barrier.wait()
            for _ in range(2000):
                profiler("t.shared")

        threads = [threading.Thread(target=hit) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        (site, hits, _seconds), = profiler.rows()
        assert (site, hits) == ("t.shared", 16000)

    def test_profiling_pops_its_probe_and_attaches_rows(self):
        ctx = ExecutionContext()
        with telemetry.tracing(ctx) as trace:
            with profiling(ctx, sample_every=1):
                for _ in range(8):
                    ctx.checkpoint("t.loop")
            # Probe removed: new checkpoints no longer profiled.
            ctx.checkpoint("t.after")
        assert trace.site_profile
        (site, hits, _seconds), = [
            row for row in trace.site_profile if row[0] == "t.loop"
        ]
        assert (site, hits) == ("t.loop", 8)
        assert all(row[0] != "t.after" for row in trace.site_profile)


# ----------------------------------------------------------------------
# The metrics-report-v1 document
# ----------------------------------------------------------------------


class TestMetricsReport:
    def test_build_report_is_valid(self):
        telemetry.count("t.report")
        document = build_report()
        assert validate_report(document) == []
        assert document["schema"] == METRICS_SCHEMA
        assert document["metrics"]["t.report"] == {
            "type": "counter", "value": 1,
        }

    def test_context_names_backend_and_python_only(self):
        document = build_report()
        assert set(document["context"]) == {"backend", "python_version"}
        # A document written while the context still carried a NumPy
        # flag stays a valid metrics-report-v1.
        document["context"]["numpy"] = True
        assert validate_report(document) == []

    def test_write_then_load_round_trips(self, tmp_path):
        telemetry.count("t.report", 3)
        path = tmp_path / "metrics.json"
        written = write_report(path)
        loaded = load_report(path)
        assert loaded == written
        assert loaded["metrics"]["t.report"]["value"] == 3

    @pytest.mark.parametrize(
        "document, fragment",
        [
            ([], "not an object"),
            ({"schema": "metrics-report-v0"}, "schema"),
            (
                {"schema": METRICS_SCHEMA, "created_unix": "now",
                 "context": {}, "metrics": {}},
                "created_unix",
            ),
            (
                {"schema": METRICS_SCHEMA, "created_unix": 1.0,
                 "context": {"backend": "array", "python_version": "3"},
                 "metrics": {"a.b": {"type": "counter"}}},
                "lacks 'value'",
            ),
            (
                {"schema": METRICS_SCHEMA, "created_unix": 1.0,
                 "context": {"backend": "array", "python_version": "3"},
                 "metrics": {"a.b": {"type": "timer", "value": 1}}},
                "timer",
            ),
        ],
    )
    def test_validate_report_rejects(self, document, fragment):
        problems = validate_report(document)
        assert any(fragment in problem for problem in problems)

    def test_load_report_raises_listing_problems(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError, match="metrics-report-v1"):
            load_report(path)

    def test_render_report_lists_every_metric(self):
        telemetry.count("t.report")
        telemetry.observe("t.seconds", 0.5)
        rendered = render_report(build_report())
        assert "t.report" in rendered
        assert "count=1" in rendered


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCli:
    @pytest.fixture
    def graph_file(self, tmp_path, graph):
        path = tmp_path / "graph.txt"
        path.write_text(
            "\n".join(
                f"{e.source} {e.label} {e.target}"
                for e in sorted(graph.edges)
            )
        )
        return str(path)

    def test_evaluate_trace_and_metrics_out(
        self, graph_file, tmp_path, capsys
    ):
        report = tmp_path / "metrics.json"
        code = main([
            "evaluate", "Q(x, y) :- x -[(ab)^+]-> y", graph_file,
            "--trace", "--metrics-out", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# --- trace ---" in out
        assert "# trace:" in out
        assert "#     analyze" in out and "#     execute" in out
        assert "# checkpoint sites:" in out
        document = load_report(report)
        assert document["metrics"]["trace.query_seconds"]["count"] >= 1

    def test_stats_renders_a_report(self, tmp_path, capsys):
        telemetry.count("t.report", 2)
        path = tmp_path / "metrics.json"
        write_report(path)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"metrics report ({METRICS_SCHEMA})" in out
        assert "t.report" in out

    def test_batch_trace_prints_entry_spans(
        self, graph_file, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "Q(x, y) :- x -[(ab)^+]-> y\nP(x, y) :- x -[a]-> y\n"
        )
        code = main([
            "batch", graph_file, str(queries), "--trace", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("batch-entry") == 2
