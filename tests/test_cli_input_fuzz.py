"""Fuzzing the CLI's file inputs: graph files (``load_graph``, read by
``repro evaluate``) and mutation scripts (``load_mutations``, read by
``repro update``).  Whatever bytes the file holds, the command exits 0,
or 4 with one ``repro: ...`` line on stderr — never a traceback.  A
valid graph file round-trips to the edge set it was written from.

Inputs are arbitrary bytes, lines of grammar tokens, and single-byte
edits of valid files, which reach the loaders' per-line branches.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import load_graph, main

QUERY = "Q(x, y) :- x -[a]-> y"

VALID_GRAPH = b"u a v\nv b w  # comment\nw a u\nisolated\n"
VALID_SCRIPT = (b"add w b x\neval\nremove u a v\nadd lone\n"
                b"remove lone\nremove w cascade\neval\n")

NODES = ["u", "v", "w", "x", "n1", "é"]
LABELS = ["a", "b"]
#: Words the two loaders give meaning to, plus a few they do not.
TOKENS = NODES + LABELS + ["add", "remove", "eval", "cascade", "ADD", "#",
                           "", "\t", "\x00", " ", "a#b"]
SEPARATORS = ["\n", "\r\n", "\r", " "]


@st.composite
def token_lines(draw):
    lines = draw(st.lists(
        st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join),
        max_size=6,
    ))
    return draw(st.sampled_from(SEPARATORS)).join(lines).encode()


@st.composite
def edited(draw, valid):
    position = draw(st.integers(0, len(valid)))
    byte = draw(st.sampled_from([b"", b" ", b"\n", b"#", b"\xff"])
                | st.binary(min_size=1, max_size=1))
    kept = draw(st.sampled_from([position, position + 1]))
    return valid[:position] + byte + valid[kept:]


graph_bytes = st.binary(max_size=60) | token_lines() | edited(VALID_GRAPH)
script_bytes = st.binary(max_size=60) | token_lines() | edited(VALID_SCRIPT)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-fuzz")
    (path / "graph.txt").write_bytes(VALID_GRAPH)
    return path


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _assert_clean_exit(code, stderr):
    assert "Traceback" not in stderr
    if code == 0:
        assert stderr == ""
    else:
        assert code == 4, stderr
        assert stderr.startswith("repro: ")
        assert stderr.count("\n") == 1, stderr


@settings(max_examples=60, deadline=None)
@given(graph_bytes)
def test_evaluate_graph_file_exits_0_or_4(workdir, data):
    path = workdir / "fuzzed-graph.txt"
    path.write_bytes(data)
    code, _stdout, stderr = _run(["evaluate", QUERY, str(path)])
    _assert_clean_exit(code, stderr)


@settings(max_examples=60, deadline=None)
@given(script_bytes)
def test_update_mutation_script_exits_0_or_4(workdir, data):
    path = workdir / "fuzzed-script.txt"
    path.write_bytes(data)
    code, _stdout, stderr = _run(
        ["update", str(workdir / "graph.txt"), str(path), QUERY]
    )
    _assert_clean_exit(code, stderr)


edge_sets = st.frozensets(
    st.tuples(st.sampled_from(NODES), st.sampled_from(LABELS),
              st.sampled_from(NODES)),
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(edge_sets, st.sampled_from(SEPARATORS[:3]),
       st.sampled_from(["", "  # trailing comment"]))
def test_valid_graph_file_round_trips(workdir, edges, newline, comment):
    path = workdir / "round-trip.txt"
    lines = ["# edge list"] + [f"{s} {label} {t}{comment}"
                               for s, label, t in sorted(edges)]
    path.write_bytes(newline.join(lines).encode())
    graph = load_graph(path)
    assert {(e.source, e.label, e.target) for e in graph.edges} == edges

    code, stdout, stderr = _run(["evaluate", QUERY, str(path)])
    assert (code, stderr) == (0, "")
    answers = {tuple(line.split("\t")) for line in stdout.splitlines()
               if not line.startswith("#")}
    assert answers == {(s, t) for s, label, t in edges if label == "a"}
