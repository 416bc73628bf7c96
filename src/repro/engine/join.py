"""Relational algebra over variable-labelled tuple sets.

The planner (:mod:`repro.engine.planner`) lowers an ε-free CRPQ disjunct
to operations on :class:`TupleRelation` — an immutable set of rows over
a named tuple of variables.  Four operators cover everything Yannakakis
and variable elimination need:

- :func:`semijoin` — ``L ⋉ R``: the rows of L that agree with at least
  one row of R on their shared variables (hash lookup, no output growth;
  a set intersection or probe when one side's columns are all shared);
- :func:`natural_join` — ``L ⋈ R`` by hash join on the shared variables
  (degenerates to the cartesian product when none are shared, which is
  exactly how disconnected query components combine);
- :func:`project` — ``π_vars`` with set-level deduplication;
- :func:`join_project` — the fused ``π_keep(L ⋈ R)``: both operands are
  grouped as ``key → set(kept tail)`` and the answer is the union of the
  per-key products, so the wide intermediate join is never built.

The row budget sees the same number either way: :func:`join_project`
counts the *full* join's rows (per-key multiplicities multiplied) and
checks that count against the row cap before producing anything, so a
query trips ``ResourceExhausted`` exactly when the materialized join
would.

Every per-row loop runs in C: keys are :func:`operator.itemgetter`
results (a scalar for a one-variable key, a tuple otherwise), filters are
:func:`itertools.compress` masks, and grouping maps ``set.add`` over
``defaultdict`` buckets.  Rows are plain tuples; the empty-variable
relation has either zero rows (false) or the single empty row (true),
which makes Boolean queries fall out of the same algebra.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from itertools import chain, compress, product, repeat, starmap
from operator import add, itemgetter, mul

from repro.engine.runtime import checkpoint_site, resolve_context

SITE_JOIN = checkpoint_site(
    "join.natural-join",
    "hash join and fused join-project (per call + row cap on the full join)",
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
        return set(map(itemgetter(self.variables.index(variable)), self.rows))

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


def _tails(relation, positions):
    """``relation``'s rows cut down to ``positions``, in row iteration
    order and always as tuples: a one-column cut is a 1-tuple, unlike
    the scalar a one-position ``itemgetter`` key gives."""
    rows = relation.rows
    if positions == tuple(range(len(relation.variables))):
        return rows
    if not positions:
        return repeat((), len(rows))
    if len(positions) == 1:
        return zip(map(itemgetter(positions[0]), rows))
    return map(itemgetter(*positions), rows)


def _grouped(relation, key_positions, kept):
    """``(key → set(kept tail), key → row count)`` for one join operand.

    The buckets fill in C: ``set.add`` is mapped over the looked-up
    ``defaultdict`` buckets and the (all-``None``) results discarded."""
    key = itemgetter(*key_positions)
    groups = defaultdict(set)
    deque(map(set.add, map(groups.__getitem__, map(key, relation.rows)),
              _tails(relation, kept)), maxlen=0)
    if len(set(kept) | set(key_positions)) == len(relation.variables):
        # Key and tail cover the row: distinct rows, distinct tails.
        return groups, dict(zip(groups, map(len, groups.values())))
    return groups, Counter(map(key, relation.rows))


def semijoin(left, right):
    """``left ⋉ right``: rows of ``left`` with a join partner in
    ``right``.  With no shared variables this keeps ``left`` intact iff
    ``right`` is non-empty (the nullary/Boolean case).  When one side's
    columns are all shared, its rows are the keys themselves and the
    semijoin is a set probe or intersection."""
    left_positions, right_positions = _shared_positions(left, right)
    if not left_positions:
        return left if right.rows else TupleRelation(
            left.variables, _EMPTY_ROWS
        )
    left_covered = len(left_positions) == len(left.variables)
    if len(right_positions) == len(right.variables) and (
        not left_covered or len(left) <= len(right)
    ):
        # Probe right's rows with left's rows cut to right's order.
        at = dict(zip(right_positions, left_positions))
        order = tuple(at[j] for j in range(len(right.variables)))
        if order == tuple(range(len(left.variables))):
            return TupleRelation(left.variables, left.rows & right.rows)
        rows = compress(left.rows, map(right.rows.__contains__,
                                       _tails(left, order)))
    elif left_covered:
        rows = left.rows & frozenset(_tails(right, right_positions))
    else:
        keys = set(map(itemgetter(*right_positions), right.rows))
        rows = compress(left.rows, map(
            keys.__contains__, map(itemgetter(*left_positions), left.rows)
        ))
    return TupleRelation(left.variables, rows)


def joined_variables(left, right):
    """The column order of ``left ⋈ right``: ``left``'s variables, then
    the right-only ones."""
    return left.variables + tuple(
        v for v in right.variables if v not in left.variables
    )


def natural_join(left, right, ctx=None):
    """``left ⋈ right`` by hash join on the shared variables.

    Output variables are ``left.variables`` followed by the right-only
    variables; with no shared variables this is the cartesian product.
    The execution context bounds the output: one checkpoint per call
    plus a row-cap check on the join's row count.  The unit ``{()}`` is
    an identity: the other operand comes back as is, still checked
    against the row cap.
    """
    ctx = resolve_context(ctx)
    ctx.checkpoint(SITE_JOIN)
    result, _ = _join(left, right, joined_variables(left, right), ctx)
    return result


def join_project(left, right, keep, ctx=None):
    """The fused ``π_keep(left ⋈ right)``, and the full join's row count.

    Returns ``(relation, full_rows)``.  ``keep`` names distinct
    variables of either operand, in any order.  Each side is grouped as
    ``shared key → set(kept tail)``; the answer is the union over common
    keys of the tails' products, so no row of the wide join is built.
    ``full_rows`` — the sum over common keys of the two sides' row
    multiplicities multiplied — is what :func:`natural_join` would
    materialize; it is checked against the row cap (one checkpoint per
    call, as there) before any output is produced, and callers compare
    it with their own caps.
    """
    ctx = resolve_context(ctx)
    ctx.checkpoint(SITE_JOIN)
    return _join(left, right, tuple(keep), ctx)


def _join(left, right, keep, ctx):
    """``(π_keep(left ⋈ right), |left ⋈ right|)`` under the row cap."""
    for unit, other in ((left, right), (right, left)):
        if not unit.variables and unit.rows:
            ctx.check_rows(len(other), SITE_JOIN)
            return project(other, keep), len(other)
    left_positions, right_positions = _shared_positions(left, right)
    if len(right_positions) == len(right.variables):
        # right's variables are all left's: the join is the semijoin.
        result = semijoin(left, right)
        ctx.check_rows(len(result), SITE_JOIN)
        return project(result, keep), len(result)
    wanted = set(keep)
    left_kept = tuple(
        i for i, v in enumerate(left.variables) if v in wanted
    )
    shared = set(right_positions)
    right_kept = tuple(
        i for i, v in enumerate(right.variables)
        if v in wanted and i not in shared
    )
    if not left_positions:
        full = len(left) * len(right)
        ctx.check_rows(full, SITE_JOIN)
        lefts = [set(_tails(left, left_kept))] if full else []
        rights = [set(_tails(right, right_kept))]
    else:
        left_groups, left_counts = _grouped(left, left_positions, left_kept)
        right_groups, right_counts = _grouped(right, right_positions,
                                              right_kept)
        common = left_counts.keys() & right_counts.keys()
        full = sum(map(mul, map(left_counts.__getitem__, common),
                       map(right_counts.__getitem__, common)))
        ctx.check_rows(full, SITE_JOIN)
        lefts = map(left_groups.__getitem__, common)
        rights = map(right_groups.__getitem__, common)
    produced = (tuple(left.variables[i] for i in left_kept),
                tuple(right.variables[i] for i in right_kept))
    if keep == produced[1] + produced[0]:
        # Build the rows in the asked order rather than reorder them.
        lefts, rights, produced = rights, lefts, produced[::-1]
    rows = starmap(add, chain.from_iterable(map(product, lefts, rights)))
    return project(TupleRelation(produced[0] + produced[1], rows), keep), full


def project(relation, variables):
    """``π_variables`` — reorder/select columns, deduplicating rows.

    Every requested variable must be a column of ``relation``;
    repetitions in ``variables`` are honoured positionally.
    """
    variables = tuple(variables)
    if variables == relation.variables:
        return relation
    positions = tuple(relation.variables.index(v) for v in variables)
    return TupleRelation(variables, _tails(relation, positions))


def filter_rows(relation, variable, allowed):
    """Keep the rows whose ``variable`` column lies in ``allowed``."""
    position = relation.variables.index(variable)
    return TupleRelation(relation.variables, compress(
        relation.rows,
        map(allowed.__contains__, map(itemgetter(position), relation.rows)),
    ))
