"""Containment deciders — one per cell of Figure 1.

Entry point: :func:`repro.containment.api.contains`.

- ``finite_left``: exact decider for CQ/★ and CRPQfin/★ left-hand sides
  (all three semantics) via the counterexample characterization of §4.1:
  Q1 ⊈★ Q2 iff some ★-expansion F1 of Q1 has ȳ1 ∉ Q2(F1)★.
- ``abstraction``: exact decider for CRPQ/CRPQ under query-injective
  semantics (Theorem 5.1's abstraction classes), also used for standard
  semantics (see module docstring for the completeness discussion).
- ``ainj_semi``: bounded semi-decider for atom-injective containment with
  an unrestricted left-hand side, iterative deepening over ``bounded``'s
  counterexample search — necessarily incomplete (Theorem 5.2: the
  problem is undecidable).
"""

from repro.containment.result import ContainmentResult, Verdict
from repro.containment.api import contains, containment_cell

__all__ = ["ContainmentResult", "Verdict", "contains", "containment_cell"]
