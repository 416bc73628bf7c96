"""Fuzzing the query and regex parsers and ``repro evaluate``: malformed
text fails with a :class:`~repro.errors.ReproError` subclass, and the
CLI turns it into exit code 4 and one line, never a traceback.  Inputs
are arbitrary text and single-character edits of valid queries, which
reach deeper parser states.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.errors import ReproError
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex

VALID_QUERIES = [
    "Q(x, y) :- x -[(ab)^+]-> y",
    "Q() :- x -[a*b]-> y, y -[b?]-> z",
    "Q(x) :- x -[(a+b)*a]-> x",
    "Q(y, x) :- x -[a]-> y, y -[ε+ba]-> z",
]

#: Characters the grammar gives meaning to, plus a few it does not.
GRAMMAR_CHARS = "Qxyz(),:-[]>ab+*?^ε. 0\\\"'\n"


@st.composite
def edited_queries(draw):
    text = draw(st.sampled_from(VALID_QUERIES))
    position = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(GRAMMAR_CHARS) | st.characters())
    # Text resumes at ``position`` (an insert) or one past it (a replace,
    # or a delete when the new character is "").
    kept = draw(st.sampled_from([position, position + 1]))
    return text[:position] + draw(st.sampled_from([char, ""])) + text[kept:]


texts = st.text(alphabet=st.sampled_from(GRAMMAR_CHARS) | st.characters(),
                max_size=40) | edited_queries()


def _parses(parse, text):
    try:
        parse(text)
    except ReproError:
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(texts)
def test_parse_query_raises_only_repro_errors(text):
    _parses(parse_query, text)


@settings(max_examples=40, deadline=None)
@given(texts | st.sampled_from(VALID_QUERIES).map(lambda q: q.split("[")[1]))
def test_parse_regex_raises_only_repro_errors(text):
    _parses(parse_regex, text)


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "graph.txt"
    path.write_text("u a v\nv b w\nw a u\n")
    return path


@settings(max_examples=20, deadline=None)
@given(texts)
def test_cli_evaluate_exits_4_without_traceback(graph_file, text):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["evaluate", "--", text, str(graph_file)])
    assert "Traceback" not in stderr.getvalue()
    if _parses(parse_query, text):
        assert code == 0, stderr.getvalue()
    else:
        assert code == 4
        assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
