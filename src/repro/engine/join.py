"""Relational algebra over variable-labelled tuple sets.

The planner (:mod:`repro.engine.planner`) lowers an ε-free CRPQ disjunct
to operations on :class:`TupleRelation` — an immutable set of rows over
a named tuple of variables.  Three operators cover everything Yannakakis
and variable elimination need:

- :func:`semijoin` — ``L ⋉ R``: the rows of L that agree with at least
  one row of R on their shared variables (hash lookup, no output growth);
- :func:`natural_join` — ``L ⋈ R`` by hash join on the shared variables
  (degenerates to the cartesian product when none are shared, which is
  exactly how disconnected query components combine);
- :func:`project` — ``π_vars`` with set-level deduplication.

Rows are plain tuples; the empty-variable relation has either zero rows
(false) or the single empty row (true), which makes Boolean queries fall
out of the same algebra.
"""

from __future__ import annotations

from repro.engine.runtime import checkpoint_site, resolve_context

SITE_JOIN = checkpoint_site(
    "join.natural-join", "hash-join materialization (per call + row cap)"
)

_EMPTY_ROWS = frozenset()
TRUE_RELATION_ROWS = frozenset({()})


class TupleRelation:
    """An immutable set of rows over an ordered tuple of variables."""

    __slots__ = ("variables", "rows")

    def __init__(self, variables, rows):
        self.variables = tuple(variables)
        self.rows = frozenset(rows)

    def __len__(self):
        return len(self.rows)

    def is_empty(self):
        return not self.rows

    def column(self, variable):
        """The set of values the given variable takes across all rows."""
        position = self.variables.index(variable)
        return {row[position] for row in self.rows}

    def __repr__(self):
        return f"TupleRelation(vars={self.variables!r}, rows={len(self.rows)})"


def from_binary(relation, source_var, target_var):
    """Lift a binary :class:`~repro.engine.relations.Relation` (or raw
    pair iterable) over distinct endpoint variables into a
    :class:`TupleRelation`."""
    if source_var == target_var:
        raise ValueError("loop atoms are unary constraints, not binary tables")
    return TupleRelation((source_var, target_var), relation)


def true_relation():
    """The nullary relation {()} — the unit of ``natural_join``."""
    return TupleRelation((), TRUE_RELATION_ROWS)


def _shared_positions(left, right):
    """Positions of the shared variables in both relations, paired."""
    right_index = {v: i for i, v in enumerate(right.variables)}
    left_positions = []
    right_positions = []
    for i, variable in enumerate(left.variables):
        j = right_index.get(variable)
        if j is not None:
            left_positions.append(i)
            right_positions.append(j)
    return tuple(left_positions), tuple(right_positions)


def _key(row, positions):
    return tuple(row[p] for p in positions)


def semijoin(left, right):
    """``left ⋉ right``: rows of ``left`` with a join partner in
    ``right``.  With no shared variables this keeps ``left`` intact iff
    ``right`` is non-empty (the nullary/Boolean case)."""
    left_positions, right_positions = _shared_positions(left, right)
    if not left_positions:
        return left if right.rows else TupleRelation(
            left.variables, _EMPTY_ROWS
        )
    keys = {_key(row, right_positions) for row in right.rows}
    return TupleRelation(
        left.variables,
        (row for row in left.rows if _key(row, left_positions) in keys),
    )


def natural_join(left, right, ctx=None):
    """``left ⋈ right`` by hash join on the shared variables.

    Output variables are ``left.variables`` followed by the right-only
    variables; with no shared variables this is the cartesian product.
    The execution context bounds the output: one checkpoint per call
    plus a row-cap check on the materialized result.  The unit
    ``{()}`` is an identity: the other operand comes back as is, still
    checked against the row cap.
    """
    ctx = resolve_context(ctx)
    ctx.checkpoint(SITE_JOIN)
    for unit, other in ((left, right), (right, left)):
        if not unit.variables and unit.rows:
            ctx.check_rows(len(other), SITE_JOIN)
            return other
    left_positions, right_positions = _shared_positions(left, right)
    right_only = [
        i for i, v in enumerate(right.variables) if v not in set(left.variables)
    ]
    variables = left.variables + tuple(right.variables[i] for i in right_only)
    # Hash index on the right operand's shared-key projection (callers
    # put the accumulating side on the left).
    index = {}
    for row in right.rows:
        index.setdefault(_key(row, right_positions), []).append(
            tuple(row[i] for i in right_only)
        )
    rows = []
    for row in left.rows:
        for extension in index.get(_key(row, left_positions), ()):
            rows.append(row + extension)
    ctx.check_rows(len(rows), SITE_JOIN)
    return TupleRelation(variables, rows)


def project(relation, variables):
    """``π_variables`` — reorder/select columns, deduplicating rows.

    Every requested variable must be a column of ``relation``;
    repetitions in ``variables`` are honoured positionally.
    """
    variables = tuple(variables)
    if variables == relation.variables:
        return relation
    positions = tuple(relation.variables.index(v) for v in variables)
    return TupleRelation(
        variables,
        (tuple(row[p] for p in positions) for row in relation.rows),
    )


def filter_rows(relation, variable, allowed):
    """Keep the rows whose ``variable`` column lies in ``allowed``."""
    position = relation.variables.index(variable)
    return TupleRelation(
        relation.variables,
        (row for row in relation.rows if row[position] in allowed),
    )
