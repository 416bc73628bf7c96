"""The differential matrix: every engine configuration against one
brute-force reference per semantics (McKeeman, *Differential Testing
for Software*, 1998).

- :func:`case` draws one seeded (graph, query or union, mutation
  stream) case.  The :data:`CASE_COUNT` cases cover the CQ, CRPQfin and
  CRPQ classes, loop atoms, unions, head arity 0–2, integer and string
  node ids, and edge and node removals.
- :func:`expected` is the answer of :mod:`tests.reference.brute` on the
  graph after a prefix of the mutation stream.
- :data:`AXES` maps each configuration to a runner that evaluates a case
  that way, on a fresh graph, and compares with the reference.

Each axis is hosted by tests in the ``tests/test_*_differential.py``
modules.  A host calls :func:`check` on a slice of the seeds (usually a
:func:`stripe`); the slices of one host partition the seeds, so every
case runs under every axis once per semantics.  The one exception is
``in-evaluation-analysis-off``, which runs on the union cases only.
"""

import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import pytest

from repro.analysis.workloads import random_query
from repro.engine import incremental, planner
from repro.engine.analyze import analysis_disabled
from repro.engine.backend import use_backend
from repro.engine.incremental import IncrementalRelationStore
from repro.engine.runtime import PartialAnswers, ResourceBudget
from repro.graphdb import graph as graph_module
from repro.graphdb.graph import GraphDatabase
from repro.queries.crpq import QueryClass, union_of
from repro.semantics.base import ALL_SEMANTICS, Semantics
from repro.semantics.evaluation import evaluate, evaluate_batch, in_evaluation
from tests.reference.brute import answers

CASE_COUNT = 50
ROUNDS = 2
ST_AINJ = (Semantics.STANDARD, Semantics.ATOM_INJECTIVE)
QUERY_CLASSES = (QueryClass.CQ, QueryClass.CRPQ_FIN, QueryClass.CRPQ)


@dataclass(frozen=True)
class Case:
    seed: int
    nodes: tuple
    edges: tuple
    query: object  # a CRPQ, or a tuple of CRPQs (a union)
    rounds: tuple  # ROUNDS tuples of mutations

    @property
    def arity(self):
        return len(union_of(self.query)[0].head)

    @property
    def is_union(self):
        return isinstance(self.query, tuple)

    def graph(self, rounds=0):
        """A fresh graph after the first ``rounds`` mutation rounds."""
        graph = GraphDatabase(nodes=self.nodes, edges=self.edges)
        for mutation in itertools.chain(*self.rounds[:rounds]):
            mutate(graph, mutation)
        return graph

    def __str__(self):
        queries = " ∪ ".join(str(query) for query in union_of(self.query))
        return f"case {self.seed}: {queries}"


def mutate(graph, mutation):
    kind, *args = mutation
    if kind == "add-edge":
        graph.add_edge(*args)
    elif kind == "remove-edge":
        graph.remove_edge(*args)
    elif kind == "remove-node":
        graph.remove_node(*args, cascade=True)
    else:
        graph.add_node(*args)


def _draw_mutation(rng, graph, fresh):
    nodes = sorted(graph.nodes, key=repr)
    edges = sorted(graph.edges, key=repr)
    roll = rng.random()
    if roll < 0.45 or not edges:
        ends = nodes + [fresh]
        return ("add-edge", rng.choice(ends), rng.choice("ab"), rng.choice(ends))
    if roll < 0.8:
        edge = rng.choice(edges)
        return ("remove-edge", edge.source, edge.label, edge.target)
    if roll < 0.9:
        return ("remove-node", rng.choice(nodes))
    return ("add-node", fresh)


@lru_cache(maxsize=None)
def case(seed):
    """3–5 nodes, 1–3 atoms per query, a union of two queries one time in
    four, and 1–3 mutations per round."""
    rng = random.Random(seed)
    num_nodes = rng.randrange(3, 6)
    name = (lambda i: i) if rng.random() < 0.5 else (lambda i: f"n{i}")
    nodes = [name(i) for i in range(num_nodes)]
    edges = sorted({
        (rng.choice(nodes), rng.choice("ab"), rng.choice(nodes))
        for _ in range(rng.randrange(num_nodes, 2 * num_nodes + 3))
    }, key=repr)
    query_class, arity = rng.choice(QUERY_CLASSES), rng.randrange(3)

    def draw():
        return random_query(rng, query_class,
                            num_variables=rng.randrange(2, 5),
                            num_atoms=rng.randrange(1, 4), arity=arity)

    query = draw() if rng.random() < 0.75 else (draw(), draw())
    graph = GraphDatabase(nodes=nodes, edges=edges)
    fresh = map(name, itertools.count(num_nodes))
    rounds = []
    for _ in range(ROUNDS):
        mutations = []
        for _ in range(rng.randrange(1, 4)):
            mutations.append(_draw_mutation(rng, graph, next(fresh)))
            mutate(graph, mutations[-1])
        rounds.append(tuple(mutations))
    return Case(seed, tuple(nodes), tuple(edges), query, tuple(rounds))


@lru_cache(maxsize=None)
def _expected_disjuncts(seed, semantics, rounds):
    graph = case(seed).graph(rounds)
    return tuple(answers(query, graph, semantics)
                 for query in union_of(case(seed).query))


def expected(subject, semantics, rounds=0, disjunct=None):
    """The reference answers of the case's query, or of its top-level
    disjunct ``disjunct``, after ``rounds`` mutation rounds."""
    per_disjunct = _expected_disjuncts(subject.seed, semantics, rounds)
    if disjunct is not None:
        return per_disjunct[disjunct]
    return frozenset().union(*per_disjunct)


def stripe(slot, slots, seeds=range(CASE_COUNT)):
    return seeds[slot::slots]


def union_seeds(unions=True):
    """The seeds whose query is (or, with ``unions=False``, is not) a
    union."""
    return [seed for seed in range(CASE_COUNT)
            if case(seed).is_union == unions]


def check(axis, seeds, semantics_list=ALL_SEMANTICS):
    """Run ``axis`` on the cases of ``seeds`` under every semantics of
    ``semantics_list``; an empty slice fails rather than passing
    vacuously."""
    assert seeds, f"no case for axis {axis}"
    for subject in map(case, seeds):
        for semantics in semantics_list:
            AXES[axis](subject, semantics)


def _agree(got, subject, semantics, rounds=0):
    want = expected(subject, semantics, rounds)
    assert got == want, (f"{semantics} round {rounds}: {subject}; "
                         f"differ on {sorted(got ^ want, key=repr)}")


# ----------------------------------------------------------------------
# Axes
# ----------------------------------------------------------------------


def _default(subject, semantics):
    got = evaluate(subject.query, subject.graph(), semantics)
    assert type(got) is frozenset
    _agree(got, subject, semantics)


def _under(context):
    def run(subject, semantics):
        with context():
            got = evaluate(subject.query, subject.graph(), semantics)
        _agree(got, subject, semantics)
    return run


@contextmanager
def _elimination_cap(cap):
    """Joins past ``cap`` rows overflow into semijoin reduction, then
    into elimination of the reduced tables with no cap."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner, "ELIMINATION_ROW_CAP", cap)
        yield


def _in_evaluation(subject, semantics):
    """Membership of every tuple in V^arity."""
    graph = subject.graph()
    want = expected(subject, semantics)
    for target in itertools.product(sorted(graph.nodes, key=repr),
                                    repeat=subject.arity):
        got = in_evaluation(subject.query, graph, target, semantics)
        assert got == (target in want), (str(subject), semantics, target)


def _in_evaluation_analysis_off(subject, semantics):
    with analysis_disabled():
        _in_evaluation(subject, semantics)


def _batch(max_workers):
    def run(subject, semantics):
        """The query and each top-level disjunct in one batch, so atom
        languages repeat across entries."""
        disjuncts = union_of(subject.query)
        got = evaluate_batch([subject.query, *disjuncts], subject.graph(),
                             semantics, max_workers=max_workers)
        want = [expected(subject, semantics)] + [
            expected(subject, semantics, disjunct=index)
            for index in range(len(disjuncts))
        ]
        assert got == want, (str(subject), semantics, max_workers)
    return run


def _partial(subject, semantics):
    """Under a two-row budget a partial result is a subset of the
    answers, and a complete one is all of them."""
    got = evaluate(subject.query, subject.graph(), semantics,
                   budget=ResourceBudget(row_cap=2), on_budget="partial")
    if isinstance(got, PartialAnswers):
        assert got <= expected(subject, semantics), (str(subject), semantics)
    else:
        _agree(got, subject, semantics)


def _store(*constants):
    def run(subject, semantics):
        """A store attached before the first evaluation, and the mutation
        stream replayed on the same graph object, with each ``(module,
        name, value)`` of ``constants`` patched in."""
        with pytest.MonkeyPatch.context() as patch:
            for module, name, value in constants:
                patch.setattr(module, name, value)
            graph = subject.graph()
            store = IncrementalRelationStore(graph)
            _agree(evaluate(subject.query, graph, semantics), subject,
                   semantics)
            for rounds, mutations in enumerate(subject.rounds, 1):
                for mutation in mutations:
                    mutate(graph, mutation)
                _agree(evaluate(subject.query, graph, semantics), subject,
                       semantics, rounds)
        return store
    return run


def _store_short_log(subject, semantics):
    """A change-log that holds no entry: every refresh rebuilds."""
    store = _store((graph_module, "CHANGELOG_CAP", 0))(subject, semantics)
    assert store.counts["maintained"] == 0


AXES = {
    "evaluate": _default,
    "analysis-off": _under(analysis_disabled),
    "in-evaluation": _in_evaluation,
    "in-evaluation-analysis-off": _in_evaluation_analysis_off,
    "batch": _batch(None),
    "batch-threaded": _batch(3),
    "python-backend": _under(lambda: use_backend("python")),
    # On these cases cap 0 overflows 17 st / a-inj eliminations and cap 2
    # overflows 9; each then eliminates its semijoin-reduced tables with
    # no cap, so both steps of the ladder run.
    "row-cap-0": _under(lambda: _elimination_cap(0)),
    "row-cap-2": _under(lambda: _elimination_cap(2)),
    "partial": _partial,
    "store": _store(),
    "store-no-repair": _store((incremental, "DELETION_REPAIR_CAP", 0)),
    "store-short-log": _store_short_log,
}
