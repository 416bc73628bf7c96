"""Join-glue scaling experiment (E7): hash-join elimination vs the CSP glue.

PRs 1–2 made the per-atom relations cheap; what remained on the st /
a-inj serving path was the *glue* — the pre-join-engine code rebuilt a
relation ``GraphDatabase`` edge-by-edge and ran the backtracking CQ
matcher over it, enumerating every homomorphism even when the query was
a chain.  E7 measures what the join planner buys on exactly that shape:
length-k chain CRPQs (the dominant SPARQL property-path shape in the
query-log studies the paper cites) over growing random graphs, so the
answer count sweeps upward while the query stays fixed.

Modes:

- **csp** — the transcribed pre-join glue (:func:`csp_glue_evaluate`):
  relation graph materialization + homomorphism enumeration.  This is
  the baseline :mod:`benchmarks.bench_join` gates against;
- **join** — the shipping path (:func:`repro.semantics.evaluation.
  evaluate`), which eliminates the chain's inner variables one at a
  time by min-degree variable elimination, each step one fused
  hash join and projection.

Caches are dropped before every timed call (the per-query cost profile
of a cache-less service); with single-symbol chain languages the atom
relations are trivial, so the glue dominates both timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analysis.batching import drop_all_caches
from repro.graphdb.generators import uniform_random
from repro.graphdb.graph import GraphDatabase
from repro.homomorphism.matcher import homomorphisms
from repro.queries.atoms import Atom, CQAtom
from repro.queries.cq import CQ
from repro.queries.crpq import CRPQ, union_of
from repro.regular.syntax import Symbol
from repro.semantics.base import Semantics
from repro.semantics.evaluation import atom_pairs, evaluate


@dataclass
class GlueRow:
    """One measurement: graph size, glue mode, time, answer count."""

    family: str
    mode: str  # "csp" | "join"
    num_nodes: int
    chain_length: int
    seconds: float
    answers: int

    def __str__(self):
        return (f"{self.family:<14} {self.mode:<6} n={self.num_nodes:<4} "
                f"k={self.chain_length:<2} {self.seconds:>9.4f}s  "
                f"{self.answers:>7} answers")


def chain_query(length=6, alphabet=("a", "b"), head_arity=2):
    """A length-``length`` chain CRPQ x0 -[l1]-> x1 -[l2]-> ... -[lk]-> xk
    with single-symbol languages cycling through ``alphabet`` (the
    common-case CRPQ shape; trivial atom relations keep the glue cost
    dominant)."""
    variables = [f"x{i}" for i in range(length + 1)]
    atoms = tuple(
        Atom(variables[i], Symbol(alphabet[i % len(alphabet)]),
             variables[i + 1])
        for i in range(length)
    )
    head = tuple(v for v in (variables[0], variables[-1])[:head_arity])
    return CRPQ(head, atoms)


def csp_glue_evaluate(query, graph, semantics):
    """The pre-join-engine st / a-inj evaluation path, transcribed: each
    ε-free disjunct materializes a relation ``GraphDatabase`` and the
    backtracking CQ matcher enumerates every homomorphism.  Atom
    relations come from the same engine caches the join path uses, so
    the two modes differ *only* in the glue."""
    semantics = Semantics.coerce(semantics)
    if semantics is Semantics.QUERY_INJECTIVE:
        raise ValueError("the CSP-glue baseline only exists for st / a-inj")
    results = set()
    for disjunct in union_of(query):
        for eps_free in disjunct.epsilon_free_union():
            relation_graph = GraphDatabase(nodes=graph.nodes)
            cq_atoms = []
            for index, atom in enumerate(eps_free.atoms):
                label = ("rel", index)
                for source, target in atom_pairs(graph, atom, semantics):
                    relation_graph.add_edge(source, label, target)
                cq_atoms.append(CQAtom(atom.source, label, atom.target))
            relation_cq = CQ(eps_free.head, cq_atoms,
                             extra_variables=eps_free.variables)
            results |= {
                tuple(hom[v] for v in eps_free.head)
                for hom in homomorphisms(relation_cq, relation_graph)
            }
    return frozenset(results)


def _timed(callable_):
    start = time.perf_counter()
    value = callable_()
    return time.perf_counter() - start, value


def run_join_glue_scaling(num_nodes_list=(12, 18, 24, 30), chain_length=6,
                          alphabet=("a", "b"), edge_factor=3, seed=11,
                          semantics=Semantics.STANDARD):
    """Run the E7 sweep: two rows (csp then join) per graph size, with
    identical answer sets asserted.  The answer count grows with the
    graph, so the sweep reads as join-glue cost *per answer*."""
    semantics = Semantics.coerce(semantics)
    query = chain_query(chain_length, alphabet)
    rows = []
    for num_nodes in num_nodes_list:
        graph = uniform_random(num_nodes, edge_factor * num_nodes,
                               set(alphabet), seed=seed)
        family = f"chain-{chain_length}"

        drop_all_caches(graph)
        csp_seconds, csp_answers = _timed(
            lambda: csp_glue_evaluate(query, graph, semantics))
        drop_all_caches(graph)
        join_seconds, join_answers = _timed(
            lambda: evaluate(query, graph, semantics))

        if csp_answers != join_answers:
            raise AssertionError(
                f"join/CSP glue divergence at n={num_nodes}"
            )
        rows.append(GlueRow(family, "csp", num_nodes, chain_length,
                            csp_seconds, len(csp_answers)))
        rows.append(GlueRow(family, "join", num_nodes, chain_length,
                            join_seconds, len(join_answers)))
    return rows


def join_glue_report_text(rows):
    """Render rows plus the per-size join-over-CSP speedup."""
    lines = ["family         mode   size    k     seconds  answers",
             "-" * 56]
    lines.extend(str(row) for row in rows)
    lines.append("")
    by_key = {(r.num_nodes, r.mode): r.seconds for r in rows}
    for num_nodes in sorted({r.num_nodes for r in rows}):
        csp = by_key.get((num_nodes, "csp"))
        join = by_key.get((num_nodes, "join"))
        if csp and join and join > 0:
            lines.append(
                f"n={num_nodes}: join glue speedup = {csp / join:.1f}× "
                f"over the CSP glue"
            )
    return "\n".join(lines)
