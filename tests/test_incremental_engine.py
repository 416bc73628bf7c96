"""Unit tests for the incremental maintenance engine
(:mod:`repro.engine.incremental`): decision rules, shared-object reuse,
query-result reuse, and the CLI / batch surfaces."""

import pytest

from repro.analysis.qinj_pruning import rare_backbone_graph
from repro.cli import load_mutations, main
from repro.engine.batch import BatchExecutor, QueryBatch
from repro.engine import incremental
from repro.engine.incremental import (
    DELETION_REPAIR_CAP,
    IncrementalRelationStore,
    MaintainedRelation,
    incremental_store,
)
from repro.engine.cache import compiled_nfa
from repro.engine.product import _decode_mask, product_reachability_pairs
from repro.engine.runtime import ExecutionContext, active_context
from repro.engine.relations import atom_relation
from repro.graphdb import graph as graph_module
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.semantics.evaluation import evaluate


def _chain_graph():
    return GraphDatabase(edges=[(1, "a", 2), (2, "b", 3), (3, "a", 4)])


LANG = parse_regex("(ab)^+")


def _reference_pairs(graph, language):
    fresh = GraphDatabase(nodes=graph.nodes, edges=graph.edges)
    return frozenset(product_reachability_pairs(fresh, compiled_nfa(language)))


class TestDecisions:
    def test_first_lookup_builds(self):
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        assert (store.standard_relation(LANG).pairs
                == _reference_pairs(graph, LANG))
        assert store.counts["built"] == 1
        assert store.counts["maintained"] == store.counts["rebuilt"] == 0

    def test_insert_only_delta_maintains(self):
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        store.standard_relation(LANG)
        graph.add_edge(4, "b", 5)
        graph.add_node("island")
        assert (store.standard_relation(LANG).pairs
                == _reference_pairs(graph, LANG))
        assert store.counts["maintained"] == 1
        assert store.counts["rebuilt"] == 0

    def test_small_deletion_delta_repairs_in_place(self):
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        store.standard_relation(LANG)
        graph.remove_edge(2, "b", 3)
        assert (store.standard_relation(LANG).pairs
                == _reference_pairs(graph, LANG))
        assert store.counts["maintained"] == 1
        assert store.counts["rebuilt"] == 0

    def test_large_deletion_delta_rebuilds(self, monkeypatch):
        monkeypatch.setattr(incremental, "DELETION_REPAIR_CAP", 0)
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        store.standard_relation(LANG)
        graph.remove_edge(2, "b", 3)
        assert (store.standard_relation(LANG).pairs
                == _reference_pairs(graph, LANG))
        assert store.counts["rebuilt"] == 1
        assert "repair cap" in store.decisions[-1][2]

    def test_node_removal_rebuilds(self):
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        store.standard_relation(LANG)
        graph.remove_node(4, cascade=True)
        assert (store.standard_relation(LANG).pairs
                == _reference_pairs(graph, LANG))
        assert store.counts["rebuilt"] == 1
        assert "node" in store.decisions[-1][2]

    def test_changelog_window_exceeded_rebuilds(self, monkeypatch):
        monkeypatch.setattr(graph_module, "CHANGELOG_CAP", 2)
        graph = GraphDatabase(edges=[(1, "a", 2)])
        store = IncrementalRelationStore(graph)
        store.standard_relation(LANG)
        for index in range(5):
            graph.add_edge(index + 10, "a", index + 11)
        assert (store.standard_relation(LANG).pairs
                == _reference_pairs(graph, LANG))
        assert store.counts["rebuilt"] == 1
        assert "window" in store.decisions[-1][2]

    def test_explain_text_renders_decisions(self):
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        store.standard_relation(LANG)
        graph.add_edge(4, "b", 5)
        store.standard_relation(LANG)
        text = store.explain_text()
        assert "built relation" in text
        assert "maintained across delta" in text
        assert "totals:" in text
        store.clear_decisions()
        assert store.explain_text() == "no relation decisions recorded"

    def test_store_caps_maintained_relations(self, monkeypatch):
        monkeypatch.setattr(incremental, "STORE_RELATION_CAP", 2)
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        for symbol in ("a", "b", "ab", "ba"):
            store.standard_relation(parse_regex(symbol))
        assert len(store._states) == 2

    def test_incremental_store_helper_attaches_once(self):
        graph = _chain_graph()
        store = incremental_store(graph)
        assert incremental_store(graph) is store
        assert graph._incremental_store is store
        store.detach()
        assert not hasattr(graph, "_incremental_store")

    def test_relation_for_serves_qinj_standard_without_store(self):
        # The default hook must behave identically with and without an
        # attached store when asked for the q-inj pruning relation.
        from repro.engine.relations import relation_for
        from repro.queries.atoms import Atom
        from repro.semantics.base import Semantics

        atom = Atom("x", LANG, "y")
        plain = _chain_graph()
        bare = relation_for(plain, atom, Semantics.QUERY_INJECTIVE)
        stored_graph = _chain_graph()
        IncrementalRelationStore(stored_graph)
        maintained = relation_for(stored_graph, atom,
                                  Semantics.QUERY_INJECTIVE)
        assert bare.pairs == maintained.pairs == {(1, 3)}


class TestSharedObjects:
    def test_unaffected_update_keeps_relation_identity(self):
        # An update on a label the automaton never reads must not even
        # re-materialize the Relation — same object, zero copies.
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        before = store.standard_relation(LANG)
        graph.add_edge(1, "zzz", 4)
        after = store.standard_relation(LANG)
        assert after is before
        assert store.counts["maintained"] == 1

    def test_affected_update_rematerializes(self):
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        before = store.standard_relation(LANG)
        graph.add_edge(4, "b", 1)  # extends the (ab)+ backbone
        after = store.standard_relation(LANG)
        assert after is not before
        assert after.pairs == _reference_pairs(graph, LANG)

    def test_evaluation_reads_maintained_pairs_through_caches(self):
        # The atom_relation / relation_for hooks must hand every consumer
        # the store's pairs: evaluate on the mutated graph equals a
        # fresh-graph evaluation without dropping any cache by hand.
        graph = _chain_graph()
        IncrementalRelationStore(graph)
        query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
        first = evaluate(query, graph, "st")
        assert first == {(1, 3)}
        graph.add_edge(3, "a", 30)
        graph.add_edge(30, "b", 31)
        assert evaluate(query, graph, "st") == {(1, 3), (1, 31), (3, 31)}


class TestQueryResultReuse:
    def test_irrelevant_update_reuses_answers(self):
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        query = parse_query("Q(x, y) :- x -[(ab)^+]-> y")
        evaluate(query, graph, "st")
        graph.add_edge(1, "zzz", 4)
        evaluate(query, graph, "st")
        assert store.counts["results_reused"] == 1

    def test_node_set_change_blocks_reuse(self):
        # Same tables, new node: a domain-scan query would change, so
        # the fingerprint includes the node set and must miss.
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        query = parse_query("Q(z) :- x -[(ab)^+]-> y")
        assert evaluate(query, graph, "st") == {(1,), (2,), (3,), (4,)}
        graph.add_node("island")
        assert evaluate(query, graph, "st") == {
            (1,), (2,), (3,), (4,), ("island",)
        }
        assert store.counts["results_reused"] == 0

    @pytest.mark.parametrize("semantics", ["q-inj", "a-inj"])
    def test_qinj_never_reuses(self, semantics):
        # q-inj answers depend on witness paths and a-inj answers on
        # version-discard simple-path tables — only standard answers are
        # reused, so the reuse layer must step aside for both.
        graph = GraphDatabase(edges=[(1, "a", 2), (2, "a", 3)])
        store = IncrementalRelationStore(graph)
        query = parse_query("Q(x, y) :- x -[aa]-> y")
        assert evaluate(query, graph, semantics) == {(1, 3)}
        graph.add_edge(9, "zzz", 9)
        assert evaluate(query, graph, semantics) == {(1, 3)}
        assert store.counts["results_reused"] == 0


class TestBatchIntegration:
    def test_batch_store_shares_maintained_relations(self):
        graph = _chain_graph()
        store = IncrementalRelationStore(graph)
        queries = [
            parse_query("Q(x, y) :- x -[(ab)^+]-> y"),
            parse_query("Q(x, y) :- x -[(ab)^+]-> y, y -[a]-> z"),
        ]
        executor = BatchExecutor(graph, "st")
        batch = QueryBatch(queries)
        first = executor.execute(batch)
        assert first == [evaluate(q, graph, "st") for q in queries]
        graph.add_edge(4, "b", 1)
        second = executor.execute(batch)
        fresh = GraphDatabase(nodes=graph.nodes, edges=graph.edges)
        assert second == [evaluate(q, fresh, "st") for q in queries]
        # The batch reads the *same object* the incremental store
        # maintains — no re-indexing, no private copy in the graph cache.
        assert atom_relation(graph, LANG, "standard") is \
            store.standard_relation(LANG)
        _version, cache = graph._engine_cache
        assert not [key for key in cache if key[0] == "relation"]


class TestMaintainedRelationUnit:
    def test_update_on_an_unread_label_runs_no_pass(self, monkeypatch):
        """Edges whose label the automaton never reads are dropped from
        the delta: neither the deletion repair nor the insert pass runs,
        and the same relation object is handed out again."""
        graph = GraphDatabase(edges=[("u", "a", "v"), ("v", "b", "u"),
                                     ("u", "c", "v")])
        store = IncrementalRelationStore(graph)
        before = store.standard_relation(LANG)
        passes = []
        for name in ("grow", "shrink"):
            monkeypatch.setattr(
                MaintainedRelation, name,
                lambda *args, name=name: passes.append(name))
        graph.add_edge("v", "c", "u")
        graph.remove_edge("u", "c", "v")
        assert store.standard_relation(LANG) is before
        assert passes == []
        assert store.counts["maintained"] == 1
        graph.add_edge("v", "a", "u")
        store.standard_relation(LANG)
        assert passes == ["grow"]

    def test_rebuild_matches_reference_on_dense_cycles(self):
        graph = GraphDatabase()
        for index in range(6):
            graph.add_edge(index, "a", (index + 1) % 6)
            graph.add_edge(index, "b", (index + 2) % 6)
        state = MaintainedRelation(compiled_nfa(parse_regex("(a+b)*")))
        state.rebuild(graph)
        assert frozenset(state.pairs) == _reference_pairs(
            graph, parse_regex("(a+b)*"))

    def test_epsilon_diagonal_tracks_node_additions(self):
        graph = GraphDatabase(nodes=["u"])
        store = IncrementalRelationStore(graph)
        star = parse_regex("a*")
        assert store.standard_relation(star).pairs == {("u", "u")}
        graph.add_node("v")
        assert store.standard_relation(star).pairs == {("u", "u"), ("v", "v")}


def _decoded_sources(state):
    """A maintained relation's source masks as node sets (bit tables
    differ between stores)."""
    return {
        product_state: frozenset(_decode_mask(mask, state.node_of))
        for product_state, mask in state.sources.items()
    }


def _repair_and_rebuild(graph, language, mutate, monkeypatch):
    """Apply ``mutate`` to two store-attached copies of ``graph`` — one
    repairing in place, one forced to rebuild — and return both stores'
    maintained states after the refresh."""
    states = []
    for cap in (DELETION_REPAIR_CAP, 0):
        monkeypatch.setattr(incremental, "DELETION_REPAIR_CAP", cap)
        copy = graph.copy()
        store = IncrementalRelationStore(copy)
        store.standard_relation(language)
        mutate(copy)
        assert (store.standard_relation(language).pairs
                == _reference_pairs(copy, language))
        action = "maintained" if cap else "rebuilt"
        assert store.counts[action] == 1
        states.append(store._states[compiled_nfa(language)])
    return states


class TestDeletionRepair:
    """The SCC-settled deletion repair and the rebuild share one settle;
    both must reach the fixpoint of a fresh kernel run."""

    def test_repair_work_is_bounded_by_the_product(self):
        """One deleted edge settles each dirty product state once: the
        closure's checkpoint hits stay within twice the product-state
        count, where re-propagating bit deltas popped a state once per
        partial mask (~10x the product on this graph)."""
        graph = rare_backbone_graph(80, seed=3)
        edge = min((e for e in graph.edges if e.label == "a"), key=repr)
        store = IncrementalRelationStore(graph)
        store.standard_relation(LANG)
        product_states = len(store._states[compiled_nfa(LANG)].sources)
        graph.remove_edge(edge.source, edge.label, edge.target)
        hits = []
        ctx = ExecutionContext()
        ctx.install_probe(lambda site: hits.append(site))
        with active_context(ctx):
            relation = store.standard_relation(LANG)
        assert relation.pairs == _reference_pairs(graph, LANG)
        assert store.counts["maintained"] == 1
        shrink_hits = hits.count("incremental.shrink")
        assert 0 < shrink_hits <= 2 * product_states

    def test_mixed_delta_leaves_and_reenters_the_region(self, monkeypatch):
        """Removing ``u -a-> v`` dirties ``(v, a)`` and ``(m, a)``; the
        added ``m -a-> n`` leads to ``(n, a)``, unreachable before, and
        the existing ``n -a-> m`` carries the new bit ``m`` back into
        the region."""
        graph = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "m"),
                                     ("n", "a", "m")])
        language = parse_regex("a^+")

        def mutate(copy):
            copy.remove_edge("u", "a", "v")
            copy.add_edge("m", "a", "n")

        repaired, rebuilt = _repair_and_rebuild(graph, language, mutate,
                                                monkeypatch)
        assert _decoded_sources(repaired) == _decoded_sources(rebuilt)
        assert ("m", "m") in repaired.pairs and ("m", "n") in repaired.pairs

    def test_pure_deletion_empties_a_whole_component(self, monkeypatch):
        """``b a*`` from ``u``: removing ``u -b-> v`` strips every bit from
        the product cycle ``(v, a) <-> (w, a)``, so the whole component
        leaves the maintained state and only the three seeds stay."""
        graph = GraphDatabase(edges=[("u", "b", "v"), ("v", "a", "w"),
                                     ("w", "a", "v")])
        language = parse_regex("b a*")

        def mutate(copy):
            copy.remove_edge("u", "b", "v")

        repaired, rebuilt = _repair_and_rebuild(graph, language, mutate,
                                                monkeypatch)
        assert not repaired.pairs and not repaired.target_masks
        assert _decoded_sources(repaired) == _decoded_sources(rebuilt)
        assert len(repaired.sources) == 3


class TestCLIUpdate:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("u a v\nv b w\n")
        return str(path)

    def test_update_reports_stages_and_decisions(self, graph_file, tmp_path,
                                                 capsys):
        script = tmp_path / "ops.txt"
        script.write_text(
            "# extend the chain, then cut it\n"
            "add w a x\n"
            "add x b y\n"
            "eval\n"
            "remove v b w\n"
        )
        code = main([
            "update", graph_file, str(script),
            "Q(x, y) :- x -[(ab)^+]-> y", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# [initial]" in out
        assert "# [after 2 update(s)]" in out
        assert "# [final]" in out
        assert "built relation" in out
        assert "maintained across delta" in out
        assert "u\tw" in out

    def test_update_answers_match_final_graph_evaluate(self, graph_file,
                                                       tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("add w a u\nremove u a v\nadd v a w\n")
        code = main([
            "update", graph_file, str(script), "Q(x, y) :- x -[ab]-> y",
        ])
        assert code == 0
        final_section = capsys.readouterr().out.split("# [final]")[1]
        assert "v\tw" not in final_section  # (v,a,w)(w,b,?) has no b edge
        assert "# 0 answer(s)" in final_section

    def test_update_rejects_trail_semantics(self, graph_file, tmp_path,
                                            capsys):
        # Input errors map to exit code 4 with a one-line stderr message.
        script = tmp_path / "ops.txt"
        script.write_text("add w a x\n")
        code = main(["update", graph_file, str(script), "Q() :- x -[a]-> y",
                     "--semantics", "atom-trail"])
        assert code == 4
        assert "trail" in capsys.readouterr().err

    def test_update_reports_script_line_on_bad_operation(self, graph_file,
                                                         tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("add w a x\nremove u zzz v\n")
        code = main(["update", graph_file, str(script), "Q() :- x -[a]-> y"])
        assert code == 4
        assert "ops.txt:2" in capsys.readouterr().err

    def test_update_cascade_removal(self, graph_file, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("remove v cascade\n")
        code = main([
            "update", graph_file, str(script), "Q() :- x -[a]-> y",
        ])
        assert code == 0
        final_section = capsys.readouterr().out.split("# [final]")[1]
        assert "# 0 answer(s)" in final_section


class TestDynamicsExperiment:
    def test_run_incremental_dynamics_smoke(self):
        from repro.analysis.incremental import (
            incremental_report_text,
            run_incremental_dynamics,
        )

        rows = run_incremental_dynamics(delta_sizes=(1, 3), num_steps=4,
                                        num_nodes=24, chain_lengths=(2,),
                                        seed=5)
        assert len(rows) == 4  # two modes per delta size
        by_delta = {}
        for row in rows:
            by_delta.setdefault(row.delta_size, set()).add(row.mode)
        assert all(modes == {"recompute", "incremental"}
                   for modes in by_delta.values())
        assert "speedup" in incremental_report_text(rows)

    def test_dynamic_update_stream_is_deterministic_and_replayable(self):
        from repro.analysis.incremental import (
            apply_update_batch,
            dynamic_update_stream,
        )
        from repro.analysis.qinj_pruning import rare_backbone_graph

        base = rare_backbone_graph(15, seed=3)
        first = dynamic_update_stream(base, 5, 3, seed=9)
        second = dynamic_update_stream(base, 5, 3, seed=9)
        assert first == second
        replay_a, replay_b = base.copy(), base.copy()
        for batch in first:
            apply_update_batch(replay_a, batch)
            apply_update_batch(replay_b, batch)
        assert replay_a == replay_b
        ops = {op for batch in first for op, *_rest in batch}
        assert ops == {"add", "remove"}  # both delta directions exercised


class TestLoadMutations:
    def test_parses_all_forms(self, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_text(
            "add u a v\n"
            "add lonely   # isolated node\n"
            "remove u a v\n"
            "remove lonely\n"
            "remove hub cascade\n"
            "\n"
            "eval\n"
        )
        operations = load_mutations(str(path))
        assert [op for _line, op, _payload in operations] == [
            "add-edge", "add-node", "remove-edge", "remove-node",
            "remove-node", "eval",
        ]
        assert operations[3][2] == ("lonely", False)
        assert operations[4][2] == ("hub", True)

    def test_malformed_line_reports_location_and_text(self, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_text("add u a v\nfrobnicate everything\n")
        with pytest.raises(ValueError) as excinfo:
            load_mutations(str(path))
        message = str(excinfo.value)
        assert "ops.txt:2" in message
        assert "frobnicate everything" in message
