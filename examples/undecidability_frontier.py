"""The undecidability frontier: PCP inside atom-injective containment.

Theorem 5.2 encodes the Post Correspondence Problem into CRPQ/CRPQfin
containment under atom-injective semantics.  This script makes the
reduction tangible: it builds the Figure-4 queries for a solvable and an
unsolvable PCP instance, constructs the well-formed counterexample
expansion from the solution (the Figure-5 zippers), and shows the bounded
semi-decider — the best any tool can do on an undecidable problem —
reporting honest verdicts.

Run:  python examples/undecidability_frontier.py
"""

from repro.containment.bounded import search_counterexample
from repro.reductions import pcp
from repro.semantics.evaluation import in_evaluation


def main():
    solvable = pcp.TRIVIAL_EXAMPLE
    print(f"solvable instance pairs: {solvable.pairs}")
    solution = solvable.solve()
    print(f"solver found solution: {solution}")
    u, v = solvable.apply(solution)
    print(f"streams agree: {u!r} == {v!r}")
    print()

    q1, q2 = pcp.build_reduction(solvable)
    print(f"Q1: {len(q1.atoms)} atoms around the middle variable x")
    print(f"Q2: union of K-cycle and M-path queries "
          f"({len(q2)} disjuncts, both star-free)")
    witness = pcp.solution_witness(solvable, solution)
    cq = witness.cq
    print(f"well-formed a-inj-expansion: {len(cq.variables)} variables, "
          f"{len(cq.atoms)} atoms")
    matched = in_evaluation(q2, cq.as_graph(), (), "a-inj")
    print(f"Q2 matches the witness? {matched}  "
          f"(False = it IS a counterexample: Q1 ⊄a-inj Q2)")
    print()

    unsolvable = pcp.UNSOLVABLE_EXAMPLE
    print(f"unsolvable instance pairs: {unsolvable.pairs}")
    print(f"solver (depth 8): {unsolvable.solve(max_depth=8)}")
    q1u, q2u = pcp.build_reduction(unsolvable)
    result = search_counterexample(
        q1u, q2u, "a-inj", max_word_length=4,
        expansion_budget=300, quotient_budget=300,
    )
    print(f"bounded counterexample search: {result}")
    print()
    print(
        "The asymmetry is the theorem: solutions always yield finite\n"
        "counterexamples, but no bound suffices in general — atom-injective\n"
        "CRPQ containment is undecidable, so 'contained-up-to-bound' is the\n"
        "strongest honest verdict for the unsolvable side."
    )


if __name__ == "__main__":
    main()
