"""A curated catalog of CRPQs: the paper's examples plus knowledge-graph
query shapes from the query-log studies the paper cites ([7, 8] analyse
Wikidata/DBpedia SPARQL logs; property paths there are dominated by small
star/chain/cycle shapes).

Used by the examples and benchmarks; each entry records the query, its
class, and the graph generator it is meant to run against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphdb import generators
from repro.queries.crpq import CRPQ
from repro.queries.parser import parse_query


@dataclass(frozen=True)
class CatalogEntry:
    """A named workload query."""

    name: str
    description: str
    query: CRPQ
    graph_factory: object          # () -> GraphDatabase
    source: str                    # paper artifact or workload family

    def graph(self):
        return self.graph_factory()


def _social():
    return generators.social_knowledge_graph(num_people=8, num_papers=5,
                                             seed=11)


def _rare_backbone():
    # Lazy import: qinj_pruning pulls in the evaluation stack.
    from repro.analysis.qinj_pruning import rare_backbone_graph

    return rare_backbone_graph(30, seed=11)


CATALOG = (
    CatalogEntry(
        "paper-running-example",
        "Figure 2's query: an (ab)*-path with a c*-path back",
        parse_query("Q(x, y) :- x -[(ab)*]-> y, y -[c*]-> x"),
        generators.figure2_graph,
        "Example 2.1",
    ),
    CatalogEntry(
        "chain-2",
        "two-hop chain (the most common SPARQL property-path shape)",
        parse_query("Q(x, y) :- x -[<knows><knows>]-> y"),
        _social,
        "Wikidata-log shape [7]",
    ),
    CatalogEntry(
        "reach-star",
        "transitive closure reachability",
        parse_query("Q(x, y) :- x -[<knows><knows>*]-> y"),
        _social,
        "Wikidata-log shape [7]",
    ),
    CatalogEntry(
        "cycle-detect",
        "membership on a citation cycle",
        parse_query("Q(p) :- p -[<cites><cites>*]-> p"),
        _social,
        "Wikidata-log shape [8]",
    ),
    CatalogEntry(
        "diamond",
        "two disjoint-route atoms (q-inj's motivating pattern)",
        parse_query("Q(x, y) :- x -[<knows><knows>]-> y, "
                    "x -[<knows><knows>]-> y"),
        _social,
        "§1 motivation",
    ),
    CatalogEntry(
        "collab-triangle",
        "coauthor triangle through papers",
        parse_query(
            "Q(a, b) :- a -[<wrote>]-> p, b -[<wrote>]-> p, a -[<knows>]-> b"
        ),
        _social,
        "CQ shape",
    ),
    CatalogEntry(
        "alternation",
        "union-labeled chain (finite language)",
        parse_query("Q(x, y) :- x -[(<knows>+<wrote>)(<knows>+<cites>)]-> y"),
        _social,
        "CRPQfin shape",
    ),
    CatalogEntry(
        "chain-6",
        "length-6 chain — the join engine's acceptance workload (E7): "
        "min-degree elimination drops its five inner variables in turn",
        parse_query(
            "Q(x0, x6) :- x0 -[<knows>]-> x1, x1 -[<knows>]-> x2, "
            "x2 -[<knows>]-> x3, x3 -[<wrote>]-> x4, "
            "x4 -[<cites>]-> x5, x5 -[<cites>]-> x6"
        ),
        _social,
        "E7 workload / Wikidata-log shape [7]",
    ),
    CatalogEntry(
        "dynamic-rare-chain-2",
        "length-2 rare-backbone chain served across a stream of small "
        "update batches — the incremental maintenance engine's "
        "acceptance workload (E9): the attached relation store grows / "
        "repairs the standard relations from the graph's change-log "
        "and reuses results whose maintained base tables did not move, "
        "instead of discarding every cache per mutation",
        parse_query("Q(x0, x2) :- x0 -[r]-> x1, x1 -[r]-> x2"),
        _rare_backbone,
        "E9 workload",
    ),
    CatalogEntry(
        "rare-chain-3",
        "length-3 chain over a rare backbone label in a noise-dominated "
        "graph — the guided q-inj evaluator's acceptance workload (E8): "
        "standard-relation pruning shrinks every variable domain to the "
        "backbone before the joint injective search runs",
        parse_query(
            "Q(x0, x3) :- x0 -[r]-> x1, x1 -[r]-> x2, x2 -[r]-> x3"
        ),
        _rare_backbone,
        "E8 workload",
    ),
)


def by_name(name):
    """Look up a catalog entry."""
    for entry in CATALOG:
        if entry.name == name:
            return entry
    raise KeyError(name)
