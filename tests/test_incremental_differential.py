"""The differential matrix's store axes (:mod:`tests.differential_matrix`):
a store attached before the first evaluation, the case's mutation stream
replayed on the same graph object, and the answers checked after every
round.  Two variants force the other side of each refresh decision: a
``deletion_repair_cap`` of 0, and a change-log that holds no entry.
"""

import pytest

from repro.queries.crpq import union_of
from repro.semantics.base import ALL_SEMANTICS
from tests.differential_matrix import CASE_COUNT, QUERY_CLASSES, ROUNDS, case, check


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=str)
@pytest.mark.parametrize("seed", range(CASE_COUNT))
def test_incremental_equals_fresh_rebuild(seed, semantics):
    check("store", [seed], [semantics])


@pytest.mark.parametrize("seed", range(0, CASE_COUNT, 5))
def test_forced_rebuild_path_agrees(seed):
    check("store-no-repair", range(seed, seed + 5))


@pytest.mark.parametrize("seed", range(0, CASE_COUNT, 5))
def test_narrow_changelog_window_agrees(seed):
    check("store-short-log", range(seed, seed + 5))


def test_case_generator_sweeps_deletions_and_inserts():
    """The generator reaches every feature the matrix claims to cover."""
    cases = [case(seed) for seed in range(CASE_COUNT)]
    queries = [query for subject in cases for query in union_of(subject.query)]
    mutations = {mutation[0] for subject in cases
                 for mutations in subject.rounds for mutation in mutations}
    assert {query.query_class() for query in queries} == set(QUERY_CLASSES)
    assert any(atom.is_loop() for query in queries for atom in query.atoms)
    assert any(subject.is_union for subject in cases)
    assert {subject.arity for subject in cases} == {0, 1, 2}
    assert {type(subject.nodes[0]) for subject in cases} == {int, str}
    assert mutations == {"add-edge", "remove-edge", "remove-node", "add-node"}
    assert all(len(subject.rounds) == ROUNDS for subject in cases)
