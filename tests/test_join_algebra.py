"""The join algebra against naive tuple-comprehension references.

:mod:`repro.engine.join` runs its row loops in C (``itemgetter`` keys,
``compress`` masks, set intersections, grouped products).  Each
operator here is checked against a one-line reference on seeded random
relations: arities 0–3, one-variable keys (a scalar key, not a 1-tuple),
swapped column orders, empty and nullary operands, and projections that
collapse duplicates.  Values mix strings, integers and 1-tuples, so a
key confused with a 1-tuple row cannot go unnoticed.

The fused :func:`join_project` must also report the *full* join's row
count and trip the row budget exactly when the materialized join would.
"""

import random

import pytest

from repro.engine import planner, telemetry
from repro.engine.join import (
    TupleRelation,
    filter_rows,
    join_project,
    natural_join,
    project,
    semijoin,
    true_relation,
)
from repro.engine.runtime import ExecutionContext, ResourceBudget
from repro.errors import ResourceExhausted
from repro.graphdb.generators import uniform_random
from repro.queries.parser import parse_query
from repro.semantics.evaluation import evaluate

VARIABLES = ("x", "y", "z", "w")
VALUES = ("a", "b", 1, 2, ("a",))
SEEDS = range(6)
CASES_PER_SEED = 60


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------


def _value(row, relation, variable):
    return row[relation.variables.index(variable)]


def _agree(left, lrow, right, rrow):
    return all(
        _value(lrow, left, v) == _value(rrow, right, v)
        for v in left.variables if v in right.variables
    )


def ref_semijoin(left, right):
    return {l for l in left.rows
            if any(_agree(left, l, right, r) for r in right.rows)}


def ref_join_variables(left, right):
    return left.variables + tuple(
        v for v in right.variables if v not in left.variables
    )


def ref_join(left, right):
    extra = [v for v in right.variables if v not in left.variables]
    return {l + tuple(_value(r, right, v) for v in extra)
            for l in left.rows for r in right.rows
            if _agree(left, l, right, r)}


def ref_project(relation, variables):
    return {tuple(_value(row, relation, v) for v in variables)
            for row in relation.rows}


# ----------------------------------------------------------------------
# Random operands
# ----------------------------------------------------------------------


def _relation(rng, variables=None):
    if variables is None:
        variables = rng.sample(VARIABLES, rng.randint(0, 3))
    if not variables:
        return TupleRelation((), rng.choice([(), ((),)]))
    size = rng.choice([0, 1, 3, 8, 20])
    rows = {tuple(rng.choice(VALUES) for _ in variables)
            for _ in range(size)}
    return TupleRelation(variables, rows)


def _operands(seed):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        yield rng, _relation(rng), _relation(rng)


def _keep(rng, left, right):
    joined = list(ref_join_variables(left, right))
    keep = rng.sample(joined, rng.randint(0, len(joined)))
    return tuple(keep)


@pytest.mark.parametrize("seed", SEEDS)
def test_semijoin_matches_reference(seed):
    for _rng, left, right in _operands(seed):
        result = semijoin(left, right)
        assert result.variables == left.variables
        assert result.rows == ref_semijoin(left, right), (left, right)


@pytest.mark.parametrize("seed", SEEDS)
def test_natural_join_matches_reference(seed):
    for _rng, left, right in _operands(seed):
        result = natural_join(left, right)
        assert result.variables == ref_join_variables(left, right)
        assert result.rows == ref_join(left, right), (left, right)


@pytest.mark.parametrize("seed", SEEDS)
def test_join_project_matches_reference(seed):
    for rng, left, right in _operands(seed):
        keep = _keep(rng, left, right)
        full = TupleRelation(ref_join_variables(left, right),
                             ref_join(left, right))
        result, full_rows = join_project(left, right, keep)
        assert result.variables == keep
        assert result.rows == ref_project(full, keep), (left, right, keep)
        assert full_rows == len(full.rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_project_filter_and_column_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        relation = _relation(rng)
        variables = tuple(rng.choice(relation.variables)
                          for _ in range(rng.randint(0, 3))
                          ) if relation.variables else ()
        projected = project(relation, variables)
        assert projected.variables == variables
        assert projected.rows == ref_project(relation, variables)
        for variable in relation.variables:
            column = {_value(row, relation, variable)
                      for row in relation.rows}
            assert relation.column(variable) == column
            allowed = set(rng.sample(VALUES, rng.randint(0, 3)))
            assert filter_rows(relation, variable, allowed).rows == {
                row for row in relation.rows
                if _value(row, relation, variable) in allowed
            }


# ----------------------------------------------------------------------
# Named corners
# ----------------------------------------------------------------------


XY = TupleRelation(("x", "y"), {(1, 2), (2, 1), (3, 3), (1, 4)})
YX = TupleRelation(("y", "x"), {(2, 1), (4, 1), (9, 9)})
X = TupleRelation(("x",), {(1,), (3,)})
FALSE = TupleRelation((), ())


def test_swapped_variable_orders():
    assert semijoin(XY, YX).rows == {(1, 2), (1, 4)}
    assert semijoin(YX, XY).rows == {(2, 1), (4, 1)}
    assert natural_join(XY, YX).rows == {(1, 2), (1, 4)}
    result, full = join_project(XY, YX, ("y",))
    assert result.rows == {(2,), (4,)} and full == 2


def test_one_variable_keys_are_not_one_tuples():
    # Values that are themselves 1-tuples must not match a scalar key.
    tricky = TupleRelation(("x", "z"), {(("a",), 5), ("a", 6)})
    unary = TupleRelation(("x",), {("a",)})
    assert semijoin(tricky, unary).rows == {("a", 6)}
    assert semijoin(unary, tricky).rows == {("a",)}
    assert natural_join(unary, tricky).rows == {("a", 6)}
    assert semijoin(X, XY).rows == {(1,), (3,)}
    assert semijoin(XY, X).rows == {(1, 2), (3, 3), (1, 4)}


def test_empty_and_nullary_operands():
    empty = TupleRelation(("x", "y"), ())
    for relation in (XY, X, empty):
        assert natural_join(true_relation(), relation) is relation
        assert natural_join(relation, true_relation()) is relation
        assert natural_join(FALSE, relation).is_empty()
        assert natural_join(relation, FALSE).is_empty()
        assert semijoin(relation, FALSE).is_empty()
        assert semijoin(relation, true_relation()) is relation
        keep = relation.variables[:1]
        assert join_project(relation, FALSE, keep)[0].is_empty()
        assert join_project(FALSE, relation, keep)[1] == 0
        fused, full = join_project(true_relation(), relation, keep)
        assert fused.rows == ref_project(relation, keep)
        assert full == len(relation)
    fused, full = join_project(XY, empty, ("x",))
    assert fused.is_empty() and full == 0
    assert semijoin(true_relation(), FALSE).is_empty()
    assert semijoin(FALSE, true_relation()).is_empty()


def test_projections_collapse_duplicates():
    left = TupleRelation(("x", "y"), {(1, 1), (2, 1), (3, 1)})
    right = TupleRelation(("y", "z"), {(1, 7), (1, 8)})
    result, full = join_project(left, right, ("z",))
    assert result.rows == {(7,), (8,)}
    assert full == 6
    nullary, full = join_project(left, right, ())
    assert nullary.rows == {()} and full == 6
    assert project(left, ("y",)).rows == {(1,)}
    assert project(left, ()).rows == {()}


# ----------------------------------------------------------------------
# The row budget counts the full join
# ----------------------------------------------------------------------


def _capped(cap):
    return ExecutionContext(ResourceBudget(row_cap=cap))


def test_fused_join_trips_the_row_cap_like_the_materialized_join():
    rng = random.Random(7)
    for _ in range(200):
        left, right = _relation(rng), _relation(rng)
        keep = _keep(rng, left, right)
        size = len(ref_join(left, right))
        for cap in {max(size - 1, 0), size, size + 1}:
            outcomes = []
            for run in (lambda ctx: natural_join(left, right, ctx),
                        lambda ctx: join_project(left, right, keep, ctx)):
                try:
                    run(_capped(cap))
                except ResourceExhausted as exc:
                    outcomes.append(exc.progress)
                else:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1], (left, right, keep, cap)
            assert (outcomes[0] is not None) == (size > cap)


def test_chain_step_matches_reference_in_every_column_order():
    """The two-column chain step (``_compose``) in all four placements
    of the shared column and both output orders, with fan-out on both
    sides and output pairs reached through several keys."""
    pairs_l = {(0, 1), (0, 2), (5, 1), (6, 9)}
    pairs_r = {(1, 7), (1, 8), (2, 7), (3, 4)}
    for left_vars, left_rows in ((("x", "y"), pairs_l),
                                 (("y", "x"), {(b, a) for a, b in pairs_l})):
        for right_vars, right_rows in (
                (("y", "z"), pairs_r),
                (("z", "y"), {(b, a) for a, b in pairs_r})):
            left = TupleRelation(left_vars, left_rows)
            right = TupleRelation(right_vars, right_rows)
            full = TupleRelation(ref_join_variables(left, right),
                                 ref_join(left, right))
            for keep in (("x", "z"), ("z", "x")):
                result, full_rows = join_project(left, right, keep)
                assert result.variables == keep
                assert result.rows == ref_project(full, keep)
                assert full_rows == len(full.rows) == 5


def test_full_join_over_the_cap_raises_even_when_its_projection_fits():
    left = TupleRelation(("x", "y"), {(i, 0) for i in range(5)})
    right = TupleRelation(("y", "z"), {(0, j) for j in range(5)})
    # 25 joined rows, but only one (y,) row and five (z,) rows survive.
    with pytest.raises(ResourceExhausted) as raised:
        join_project(left, right, ("y",), _capped(24))
    assert raised.value.progress == 25
    with pytest.raises(ResourceExhausted):
        join_project(left, right, ("z",), _capped(24))
    fused, full = join_project(left, right, ("z",), _capped(25))
    assert len(fused) == 5 and full == 25


def _fallbacks():
    return telemetry.registry().counter("planner.fallback.matcher").value


def _count_reduces(monkeypatch):
    """Count the planner's ``semijoin_reduce`` calls from now on."""
    calls = []
    original = planner.semijoin_reduce

    def spy(tables, ctx=None):
        calls.append(len(tables))
        return original(tables, ctx)

    monkeypatch.setattr(planner, "semijoin_reduce", spy)
    return calls


# One cyclic query and graph.  The matcher-fallback counts below were
# recorded with the materializing join, whose largest intermediate here
# has 190 rows; the fused join must reach the same verdict at the edge.
# Elimination first runs over the unreduced base tables, so every cap
# under that first run's largest join reduces once; only a cap the
# reduced tables also outgrow reaches the matcher.  The z → y chord
# gives z three atoms, so path fusion leaves the cycle to the join.
CYCLIC = parse_query(
    "Q(x, y) :- x -[a]-> y, y -[b]-> z, z -[a b]-> x, z -[a]-> y"
)
FALLBACKS_BY_CAP = {0: 1, 56: 1, 189: 1, 190: 0, 10_000: 0}
REDUCES_BY_CAP = {0: 1, 56: 1, 189: 1, 190: 1, 10_000: 0}


@pytest.mark.parametrize("cap,fallbacks", sorted(FALLBACKS_BY_CAP.items()))
def test_elimination_cap_fallback_count_is_unchanged(monkeypatch, cap,
                                                     fallbacks):
    graph = uniform_random(40, 160, {"a", "b"}, seed=3)
    want = evaluate(CYCLIC, graph.copy(), "st")
    monkeypatch.setattr(planner, "ELIMINATION_ROW_CAP", cap)
    reduces = _count_reduces(monkeypatch)
    before = _fallbacks()
    assert evaluate(CYCLIC, graph.copy(), "st") == want
    assert _fallbacks() - before == fallbacks
    assert len(reduces) == REDUCES_BY_CAP[cap]


STAR = parse_query("Q(p, q, r) :- x -[a]-> p, x -[b]-> q, x -[a]-> r")


@pytest.mark.parametrize("query", [CYCLIC, STAR], ids=["cycle", "star"])
def test_no_join_output_over_the_elimination_cap_is_built(monkeypatch,
                                                          query):
    """The elimination cap is checked on the full row count before a
    join builds anything.  The cap sits just below the largest join of
    an uncapped run (the largest materialized one, when a plain join
    runs at all); under it every join output (the full count, for the
    fused join) stays within the cap, and the ladder still finds the
    same answers."""
    graph = uniform_random(40, 160, {"a", "b"}, seed=3)
    built, fused = [], []
    original_join, original_fused = planner.natural_join, planner.join_project

    def join_spy(left, right, *args, **kwargs):
        result = original_join(left, right, *args, **kwargs)
        if left.variables and right.variables:
            built.append(len(result))
        return result

    def fused_spy(*args, **kwargs):
        result, full = original_fused(*args, **kwargs)
        fused.append(full)
        return result, full

    monkeypatch.setattr(planner, "natural_join", join_spy)
    monkeypatch.setattr(planner, "join_project", fused_spy)
    want = evaluate(query, graph.copy(), "st")
    cap = max(built or fused) - 1
    built.clear()
    fused.clear()
    monkeypatch.setattr(planner, "ELIMINATION_ROW_CAP", cap)
    reduces = _count_reduces(monkeypatch)
    assert evaluate(query, graph.copy(), "st") == want
    assert reduces  # the cap was hit
    assert max(built + fused, default=0) <= cap


ONE_ATOM = parse_query("Q(x, y) :- x -[(a b)^+]-> y")
TWO_ATOM_CHAIN = parse_query("Q(x, y, z) :- x -[a]-> y, y -[b]-> z")


@pytest.mark.parametrize("query", [ONE_ATOM, TWO_ATOM_CHAIN],
                         ids=["one-atom", "two-atom-chain"])
def test_answer_larger_than_the_elimination_cap_is_not_an_overflow(
        monkeypatch, query):
    """The last join of a component keeps only head variables, so its
    row count is the answer size.  A cap just below that size must
    neither reduce nor reach the matcher."""
    graph = uniform_random(40, 160, {"a", "b"}, seed=3)
    want = evaluate(query, graph.copy(), "st")
    cap = len(want) - 1
    monkeypatch.setattr(planner, "ELIMINATION_ROW_CAP", cap)
    reduces = _count_reduces(monkeypatch)
    before = _fallbacks()
    assert evaluate(query, graph.copy(), "st") == want
    assert reduces == [] and _fallbacks() == before
