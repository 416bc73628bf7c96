"""Containment certificates: human-checkable evidence for verdicts.

A NOT_CONTAINED verdict already carries a counterexample CQ.  This module
produces the complementary artifact for CONTAINED verdicts on star-free
left-hand sides: per expansion of Q1, a concrete homomorphism from an
expansion of Q2 (the Props 4.2/4.3/4.6 witnesses), so a reviewer — or a
test — can re-check the containment claim without re-running the decider.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.containment.api import check_head_arities
from repro.containment.result import Verdict
from repro.homomorphism.matcher import cq_homomorphisms
from repro.queries.crpq import eps_free_disjuncts
from repro.semantics.base import Semantics
from repro.semantics.expansion import all_expansions, candidate_cqs


@dataclass
class ContainmentCertificate:
    """Per-expansion witnesses for Q1 ⊆★ Q2 (star-free Q1).

    ``entries`` is a list of (left_cq, right_cq, hom) triples: for the
    left ★-expansion ``left_cq``, ``hom`` maps ``right_cq`` (a
    ★-expansion of Q2) into it respecting the semantics' injectivity
    regime.  ``verify()`` re-checks every entry from scratch.
    """

    semantics: Semantics
    entries: list

    def verify(self):
        """Re-check every witness homomorphism independently."""
        injective = self.semantics is not Semantics.STANDARD
        for left_cq, right_cq, hom in self.entries:
            graph = left_cq.as_graph()
            for variable in right_cq.variables:
                if variable not in hom:
                    return False
            # Head alignment.
            if tuple(hom[v] for v in right_cq.head) != left_cq.head:
                return False
            # Edges preserved.
            for atom in right_cq.atoms:
                if not graph.has_edge(hom[atom.source], atom.label,
                                      hom[atom.target]):
                    return False
            if injective:
                values = [hom[v] for v in right_cq.variables]
                if len(set(values)) != len(values):
                    return False
        return True

    def __len__(self):
        return len(self.entries)


def containment_certificate(q1, q2, semantics, expansion_budget=100000,
                            quotient_budget=100000):
    """Build a certificate for Q1 ⊆★ Q2, or return the counterexample.

    Returns ``(verdict, certificate_or_counterexample)``.  Star-free Q1
    only (the finite cells of Figure 1).
    """
    check_head_arities(q1, q2)
    semantics = Semantics.coerce(semantics)
    left_disjuncts = eps_free_disjuncts(q1)
    right_disjuncts = eps_free_disjuncts(q2)

    right_cqs = []
    for disjunct in right_disjuncts:
        if not disjunct.is_star_free():
            raise ValueError(
                "certificates require star-free right-hand sides too "
                "(use contains() for starred Q2)"
            )
        for expansion in all_expansions(disjunct, max_count=expansion_budget):
            right_cqs.extend(
                candidate_cqs(expansion, semantics, quotient_budget)
            )

    injective = semantics is not Semantics.STANDARD
    entries = []
    for disjunct in left_disjuncts:
        if not disjunct.is_star_free():
            raise ValueError("certificates require a star-free left side")
        for expansion in all_expansions(disjunct, max_count=expansion_budget):
            for left_cq in candidate_cqs(expansion, semantics,
                                         quotient_budget):
                witness = None
                for right_cq in right_cqs:
                    for hom in cq_homomorphisms(right_cq, left_cq,
                                                injective=injective):
                        witness = (left_cq, right_cq, hom)
                        break
                    if witness:
                        break
                if witness is None:
                    return Verdict.NOT_CONTAINED, left_cq
                entries.append(witness)
    return Verdict.CONTAINED, ContainmentCertificate(semantics, entries)
