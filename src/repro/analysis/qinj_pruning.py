"""q-inj pruning workload (E8): rare-label chains over noise.

PR 3 left query-injective semantics on the seed-era joint backtracking
search: every variable drew its candidates from *all* nodes, so even a
query whose atoms touch a handful of edges paid a full quadratic
endpoint sweep per atom before the injective search could start.  The
relation-guided evaluator (:mod:`repro.engine.qinj`) prunes those
candidates with the polynomial standard relations (semijoin-reduced to
the arc-consistent fixpoint).  E8 is the workload shape it targets:
rare-label chain CRPQs over graphs dominated by noise edges, so the
true candidate sets are tiny while the node count grows.

:mod:`benchmarks.bench_qinj` times the guided evaluator against the
unguided search (``tests/reference/baselines.py``) on this workload;
the rare-label languages are single symbols, so the standard pruning
relations are trivial to compute and the *search* dominates both
timings — exactly the cost the guidance removes.
"""

from __future__ import annotations

import random

from repro.analysis.join_glue import chain_query
from repro.graphdb.generators import uniform_random

#: The rare backbone label the E8 chain queries follow.
RARE_LABEL = "r"


def rare_backbone_graph(num_nodes, edge_factor=3, num_chains=None,
                        chain_nodes=6, seed=11):
    """A noise-dominated graph with a sparse rare-label backbone.

    ``edge_factor * num_nodes`` uniform a/b noise edges, plus
    ``num_chains`` (default ``max(2, num_nodes // 15)``) chains of
    ``RARE_LABEL`` edges through randomly sampled distinct nodes — the
    only edges the E8 queries can use.  The unguided search still sweeps
    every node per variable; the guided search sees only the backbone.
    """
    graph = uniform_random(num_nodes, edge_factor * num_nodes, {"a", "b"},
                           seed=seed)
    rng = random.Random(seed + 1)
    nodes = sorted(graph.nodes, key=repr)
    if num_chains is None:
        num_chains = max(2, num_nodes // 15)
    for _ in range(num_chains):
        members = rng.sample(nodes, min(chain_nodes, len(nodes)))
        for source, target in zip(members, members[1:]):
            graph.add_edge(source, RARE_LABEL, target)
    return graph


def rare_chain_workload(chain_lengths=(2, 3, 4)):
    """Length-k chain CRPQs over the rare backbone label, endpoints in
    the head — the E8 query stream."""
    return [
        chain_query(length, (RARE_LABEL,)) for length in chain_lengths
    ]
