"""Tests for the command-line interface."""

import pytest

from repro.cli import _semantics_argument, build_parser, load_graph, main
from repro.io import graph_from_dict, graph_to_dict


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(
        "# Figure 2's G, reconstructed\n"
        "u a v\n"
        "v b w\n"
        "w c v\n"
        "v c u\n"
    )
    return str(path)


class TestLoadGraph:
    def test_loads_edges(self, graph_file):
        graph = load_graph(graph_file)
        assert graph.node_count() == 3
        assert graph.edge_count() == 4

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n# comment\nu a v  # trailing\n")
        graph = load_graph(str(path))
        assert graph.edge_count() == 1

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("u a\n")
        with pytest.raises(ValueError, match="source label target"):
            load_graph(str(path))

    def test_malformed_line_reports_location_and_text(self, tmp_path):
        # The error must carry the 1-based line number and the offending
        # text, not just the format reminder — a 10k-line graph file is
        # undebuggable otherwise.
        path = tmp_path / "g.txt"
        path.write_text("u a v\n\n# fine so far\nu a v extra-token\n")
        with pytest.raises(ValueError) as excinfo:
            load_graph(str(path))
        message = str(excinfo.value)
        assert "g.txt:4" in message
        assert "u a v extra-token" in message

    def test_malformed_two_token_line_reports_location(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("only two\n")
        with pytest.raises(ValueError, match=r"g\.txt:1.*'only two'"):
            load_graph(str(path))

    def test_isolated_node_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("u a v\nlonely\n")
        graph = load_graph(str(path))
        assert graph.node_count() == 3
        assert "lonely" in graph.nodes
        assert graph.edge_count() == 1

    def test_isolated_node_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("u a v\nlonely  # an isolated node\n")
        graph = load_graph(str(path))
        assert graph_from_dict(graph_to_dict(graph)) == graph


class TestCommands:
    def test_evaluate(self, graph_file, capsys):
        code = main([
            "evaluate", "Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x",
            graph_file, "--semantics", "a-inj",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "u\tw" in out
        assert "answer(s)" in out

    def test_evaluate_trail_semantics(self, graph_file, capsys):
        code = main([
            "evaluate", "Q(x, y) :- x -[ab]-> y", graph_file,
            "--semantics", "atom-trail",
        ])
        assert code == 0
        assert "u\tw" in capsys.readouterr().out

    def test_contains_exit_codes(self, capsys):
        contained = main([
            "contains", "Q() :- x -a-> y, y -b-> z", "Q() :- x -[ab]-> y",
            "--semantics", "st",
        ])
        assert contained == 0
        not_contained = main([
            "contains", "Q() :- x -a-> y, y -b-> z", "Q() :- x -[ab]-> y",
            "--semantics", "a-inj",
        ])
        assert not_contained == 1
        assert "counterexample" in capsys.readouterr().out

    def test_contains_ainj_bound_zero_reports_a_verdict(self, capsys):
        code = main([
            "contains", "Q(x) :- x -[a*]-> y", "Q(x) :- x -[(a+b)*]-> y",
            "--semantics", "a-inj", "--bound", "0",
        ])
        captured = capsys.readouterr()
        assert code == 1  # bounded verdicts are not "contained"
        assert "contained-up-to-bound" in captured.out
        assert "bound=0" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("bound", ["-1", "-3"])
    def test_contains_negative_bound_exits_input_code(self, bound, capsys):
        code = main([
            "contains", "Q(x) :- x -[a*]-> y", "Q(x) :- x -[(a+b)*]-> y",
            "--semantics", "a-inj", "--bound", bound,
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "non-negative" in err

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "ExpSpace-complete" in out and "undecidable" in out

    def test_examples_listing(self, capsys):
        assert main(["examples"]) == 0
        assert "quickstart.py" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_boolean_answer_rendering(self, graph_file, capsys):
        code = main(["evaluate", "Q() :- x -[a]-> y", graph_file])
        assert code == 0
        assert "()" in capsys.readouterr().out

    def test_certify_contained(self, capsys):
        code = main([
            "certify", "Q() :- x -a-> y, y -b-> z", "Q() :- x -[ab]-> y",
            "--semantics", "q-inj",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "verify() = True" in out
        assert "↦" in out

    def test_certify_not_contained(self, capsys):
        code = main([
            "certify", "Q() :- x -a-> y, y -b-> z", "Q() :- x -[ab]-> y",
            "--semantics", "a-inj",
        ])
        assert code == 1
        assert "counterexample" in capsys.readouterr().out


class TestSemanticsArgument:
    def test_accepts_all_five(self):
        for name in ("st", "a-inj", "q-inj", "atom-trail", "query-trail"):
            assert str(_semantics_argument(name)) == name

    def test_unknown_value_reports_union_of_names(self, graph_file, capsys):
        # Input errors map to exit code 4 with a one-line stderr message
        # (no traceback), per the CLI error taxonomy.
        code = main(["evaluate", "Q() :- x -[a]-> y", graph_file,
                     "--semantics", "bogus"])
        assert code == 4
        message = capsys.readouterr().err
        for name in ("st", "a-inj", "q-inj", "atom-trail", "query-trail"):
            assert name in message


class TestQuerySyntaxExitCode:
    @pytest.mark.parametrize("query", [
        "Q(x) :- x -[a]-> y -[b]-> z",
        "Q(x y) :- x -[a]-> y",
    ])
    def test_malformed_query_exits_input_code(self, graph_file, query,
                                              capsys):
        code = main(["evaluate", query, graph_file])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("repro: malformed")
        assert "Traceback" not in err


class TestBudgetFlagValidation:
    @pytest.mark.parametrize("flags", [
        ["--max-rows", "-5"],
        ["--timeout", "-1"],
        ["--timeout", "nan"],
    ])
    def test_nonsense_limits_exit_input_code(self, graph_file, flags,
                                             capsys):
        code = main(["evaluate", "Q(x, y) :- x -[a]-> y", graph_file]
                    + flags)
        assert code == 4
        assert "non-negative" in capsys.readouterr().err

    def test_row_cap_binds_a_single_atom_query(self, tmp_path, capsys):
        # A one-atom query joins only against the unit relation; that
        # identity join must still enforce --max-rows.
        chain = tmp_path / "chain.txt"
        chain.write_text("".join(f"v{i} a v{i + 1}\n" for i in range(9)))
        query = "Q(x, y) :- x -[a^+]-> y"  # 45 answers, one disjunct
        assert main(["evaluate", query, str(chain), "--max-rows", "45"]) == 0
        capsys.readouterr()
        code = main(["evaluate", query, str(chain), "--max-rows", "44"])
        assert code == 3
        assert "row budget of 44 exceeded (45 rows)" in capsys.readouterr().err

    def test_zero_timeout_is_still_a_budget(self, tmp_path, capsys):
        chain = tmp_path / "chain.txt"
        chain.write_text("".join(f"v{i} a v{i + 1}\n" for i in range(299)))
        code = main(["evaluate", "Q(x, y) :- x -[a*]-> y", str(chain),
                     "--timeout", "0"])
        assert code == 3


class TestBatchCommand:
    @pytest.fixture
    def queries_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            "# a small shared-atom workload\n"
            "Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x\n"
            "\n"
            "Q(x, y) :- x -[(ab)*]-> y\n"
            "Q() :- x -[a]-> y\n"
        )
        return str(path)

    def test_batch_matches_evaluate(self, graph_file, queries_file, capsys):
        code = main(["batch", graph_file, queries_file,
                     "--semantics", "a-inj"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# plan: 3 queries" in out
        assert "distinct atom relations" in out
        assert "# [1]" in out and "# [3]" in out
        assert "u\tw" in out
        assert "()" in out

    def test_batch_with_workers(self, graph_file, queries_file, capsys):
        code = main(["batch", graph_file, queries_file, "--workers", "2"])
        assert code == 0
        assert "# [3]" in capsys.readouterr().out

    def test_batch_rejects_trail_semantics(self, graph_file, queries_file,
                                           capsys):
        code = main(["batch", graph_file, queries_file,
                     "--semantics", "atom-trail"])
        assert code == 4
        assert "trail" in capsys.readouterr().err

    def test_batch_reports_query_parse_location(self, graph_file, tmp_path,
                                                capsys):
        path = tmp_path / "queries.txt"
        path.write_text("Q(x) :- x -[a]-> y\nthis is not a query\n")
        code = main(["batch", graph_file, str(path)])
        assert code == 4
        assert "queries.txt:2" in capsys.readouterr().err
