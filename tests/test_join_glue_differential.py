"""The differential matrix's st / a-inj glue axes
(:mod:`tests.differential_matrix`): ``evaluate``, ``in_evaluation`` and
``evaluate_batch`` against the reference's CSP glue over brute-force
relations, plus the overflow ladder (``ELIMINATION_ROW_CAP`` patched to
0 and 2: semijoin reduction, then elimination with no cap) and
``on_budget="partial"`` under every semantics.  Named fixed
shapes (the repo benchmark's cold st queries, parallel atoms, a star, a
long chain) are checked against the CSP glue over engine relations.
"""

import random

import pytest

from repro.analysis.catalog import by_name
from repro.graphdb.generators import uniform_random
from repro.queries.parser import parse_query
from repro.semantics.base import ALL_SEMANTICS, Semantics
from repro.semantics.evaluation import evaluate, in_evaluation
from tests.differential_matrix import CASE_COUNT, ST_AINJ, case, check, expected, stripe
from tests.reference.baselines import csp_glue_evaluate


@pytest.mark.parametrize("semantics", ST_AINJ, ids=str)
@pytest.mark.parametrize("seed", range(10))
def test_evaluate_matches_old_glue(seed, semantics):
    check("evaluate", stripe(seed, 10), [semantics])


@pytest.mark.parametrize("semantics", ST_AINJ, ids=str)
@pytest.mark.parametrize("seed", range(6))
def test_in_evaluation_matches_old_glue(seed, semantics):
    check("in-evaluation", stripe(seed, 6), [semantics])


@pytest.mark.parametrize("semantics", ST_AINJ, ids=str)
@pytest.mark.parametrize("seed", range(6))
def test_evaluate_batch_matches_old_glue(seed, semantics):
    check("batch", stripe(seed, 6), [semantics])
    check("batch-threaded", stripe(seed, 6), [semantics])


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=str)
@pytest.mark.parametrize("cap", [0, 2])
def test_overflow_ladder_matches_reference(cap, semantics):
    check(f"row-cap-{cap}", range(CASE_COUNT), [semantics])


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=str)
def test_partial_answers_within_full(semantics):
    check("partial", range(CASE_COUNT), [semantics])


@pytest.mark.parametrize("seed", range(4))
def test_qinj_untouched_and_below_ainj(seed):
    """Remark 2.1 on the reference itself: q-inj ⊆ a-inj ⊆ st."""
    for subject in map(case, stripe(seed, 4)):
        qinj, ainj, st = (expected(subject, semantics) for semantics in (
            Semantics.QUERY_INJECTIVE, Semantics.ATOM_INJECTIVE,
            Semantics.STANDARD))
        assert qinj <= ainj <= st, str(subject)


FIXED_SHAPES = {
    # The cold standard-semantics shapes of perfbench/workloads.py.
    "reach-plus": "Q(x, y) :- x -[(ab)^+]-> y",
    "reach-star": "Q(x, y) :- x -[a* b]-> y",
    "triangle": "Q(x, y, z) :- x -[ab]-> y, y -[b]-> z, z -[a b*]-> x",
    "boolean": "Q() :- x -[(ab)^+]-> y, y -[ba]-> x",
    "chain": "Q(x, y) :- x -[ab]-> z, z -[(ab)^+]-> y",
    "parallel-atoms": "Q(x, y) :- x -[a^+ b]-> y, x -[(a+b) b]-> y",
    "star-3": "Q(x, y, z) :- w -[a]-> x, w -[b]-> y, w -[ab]-> z",
}


def _fixed_shape(name):
    if name == "chain-6":
        entry = by_name(name)
        return entry.query, entry.graph()
    graph = uniform_random(10, 30, {"a", "b"}, seed=5)
    return parse_query(FIXED_SHAPES[name]), graph


@pytest.mark.parametrize("semantics", ST_AINJ, ids=str)
@pytest.mark.parametrize("name", [*FIXED_SHAPES, "chain-6"])
def test_fixed_shape_matches_old_glue(name, semantics):
    """The planner against the CSP glue over the same engine atom
    relations: on these 10-node graphs the brute a-inj relations would
    dominate the suite's time, and the relations are checked against
    the brute reference by the matrix and the kernel-level tests."""
    query, graph = _fixed_shape(name)
    want = csp_glue_evaluate(query, graph, semantics)
    assert evaluate(query, graph, semantics) == want
    rng = random.Random(name)
    nodes = sorted(graph.nodes, key=repr)
    candidates = sorted(want, key=repr)[:3] + [
        tuple(rng.choice(nodes) for _ in query.head) for _ in range(3)
    ]
    for target in candidates:
        assert in_evaluation(query, graph, target, semantics) == \
            (target in want), target
