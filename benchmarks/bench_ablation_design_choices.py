"""Ablations of three design choices of the containment and a-inj code.

- Remark C.1 merging before abstraction-class construction: merging Q2's
  degree-(1,1) variables shrinks its combined automaton and is required
  for completeness of the pairwise class elements; ablation measures the
  performance side of the coin.
- Walk-relation pruning inside the simple-path evaluator: a simple path
  is a walk, so product-automaton reachability prunes candidate pairs
  before the NP-hard search; ablation quantifies the speedup.
- Quotient-conflict pruning in a-inj-expansion enumeration: partitions are
  grown with atom-related conflicts checked incrementally; compare against
  post-hoc filtering of all partitions.
"""

from itertools import product

import pytest

from repro.containment.abstraction import _combined_q2_nfa, atom_classes
from repro.containment.preprocess import merge_degree_one_variables
from repro.engine.cache import compiled_nfa
from repro.engine.relations import simple_path_pairs_among
from repro.graphdb.generators import uniform_random
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.semantics.rpq import simple_path_pairs

CHAIN_Q2 = parse_query(
    "Q() :- x -[a^+]-> m1, m1 -[ba]-> m2, m2 -[(a+b)]-> y"
)
LEFT_ATOM = parse_query("Q() :- x -[(a+b)*]-> y").atoms[0]


def test_bench_classes_with_merge(benchmark):
    merged = merge_degree_one_variables(CHAIN_Q2)
    assert len(merged.atoms) == 1
    q2_nfa = _combined_q2_nfa((merged,))

    def run():
        return atom_classes(LEFT_ATOM, q2_nfa, max_classes=200000)

    classes = benchmark(run)
    print(f"\n  merged Q2: {len(q2_nfa.states)} states, "
          f"{len(classes)} accepting classes")


def test_bench_classes_without_merge(benchmark):
    q2_nfa = _combined_q2_nfa((CHAIN_Q2,))

    def run():
        return atom_classes(LEFT_ATOM, q2_nfa, max_classes=200000)

    classes = benchmark(run)
    print(f"\n  unmerged Q2: {len(q2_nfa.states)} states, "
          f"{len(classes)} accepting classes")


HARD_REGEX = parse_regex("(aa)*")


def _unpruned_simple_path_pairs(graph, regex):
    """Every node pair is a candidate: no walk-relation filter."""
    return simple_path_pairs_among(
        graph, compiled_nfa(regex), product(graph.nodes, repeat=2)
    )


@pytest.mark.parametrize("prune", [True, False],
                         ids=["pruned", "unpruned"])
def test_bench_simple_path_pruning(benchmark, prune):
    graph = uniform_random(8, 16, {"a"}, seed=9)
    run = simple_path_pairs if prune else _unpruned_simple_path_pairs
    pairs = benchmark(run, graph, HARD_REGEX)
    # Same result either way — the ablation is performance-only.
    assert pairs == simple_path_pairs(graph, HARD_REGEX)


def _partitions_posthoc(items, conflicting):
    """Naive a-inj-expansion enumeration: generate all partitions, filter."""
    items = list(items)

    def all_partitions(index, blocks):
        if index == len(items):
            yield [list(b) for b in blocks]
            return
        item = items[index]
        blocks.append([item])
        yield from all_partitions(index + 1, blocks)
        blocks.pop()
        for block in blocks:
            block.append(item)
            yield from all_partitions(index + 1, blocks)
            block.pop()

    for partition in all_partitions(0, []):
        ok = True
        for block in partition:
            for i, x in enumerate(block):
                for y in block[i + 1:]:
                    if frozenset((x, y)) in conflicting:
                        ok = False
        if ok:
            yield partition


def _quotient_setup():
    from repro.semantics.expansion import expansion_for_profile

    query = parse_query(
        "Q() :- x -[abc]-> y, u -[ab]-> v"
    )
    expansion = expansion_for_profile(query, [("a", "b", "c"), ("a", "b")])
    conflicting = {frozenset(p) for p in expansion.atom_related_pairs()}
    variables = sorted(expansion.cq.variables, key=repr)
    return variables, conflicting


def test_bench_quotients_incremental(benchmark):
    from repro.semantics.expansion import _partitions_avoiding

    variables, conflicting = _quotient_setup()
    count = benchmark(lambda: sum(
        1 for _ in _partitions_avoiding(variables, conflicting)
    ))
    assert count > 0


def test_bench_quotients_posthoc(benchmark):
    variables, conflicting = _quotient_setup()
    count = benchmark(lambda: sum(
        1 for _ in _partitions_posthoc(variables, conflicting)
    ))
    # Cross-check the two enumerations agree in count.
    from repro.semantics.expansion import _partitions_avoiding

    assert count == sum(1 for _ in _partitions_avoiding(variables, conflicting))
