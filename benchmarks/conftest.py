"""Shared fixtures for the benchmark harness.

Each bench_* module regenerates one paper artifact (table/figure/example;
the ``bench_eN_*`` modules are experiments E1–E10) and measures the
corresponding decision procedure with pytest-benchmark.  Benchmarks print the
paper-shaped result rows in addition to timing, so running

    pytest benchmarks/ --benchmark-only -s

reproduces both the qualitative claims and the performance profile.
"""

import pytest

from repro.graphdb import generators
from repro.queries.parser import parse_query


@pytest.fixture(scope="session")
def figure2_query():
    return parse_query("Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x")


@pytest.fixture(scope="session")
def figure2_g():
    return generators.figure2_graph()


@pytest.fixture(scope="session")
def figure2_g_prime():
    return generators.figure2_graph_prime()
