"""Reproduce Figure 1 as an empirical report.

Prints the paper's complexity table, then runs the agreement experiment
(E5, ``benchmarks/bench_e5_figure1_agreement.py``): for every cell, the
cell's decider is exercised on generated query pairs and cross-validated
against the bounded reference counterexample search.

Run:  python examples/figure1_report.py [pairs_per_cell]
"""

import sys

from repro.analysis.experiments import agreement_matrix, agreement_matrix_text
from repro.analysis.figure1 import figure1_table_text


def main():
    pairs = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    print("Figure 1 — containment complexity per semantics and class pair")
    print("=" * 70)
    print(figure1_table_text())
    print()
    print(f"Empirical agreement (decider vs bounded reference), "
          f"{pairs} pairs/cell")
    print("=" * 70)
    rows = agreement_matrix(pairs_per_cell=pairs, seed=0)
    print(agreement_matrix_text(rows))
    total = sum(r["checked"] for r in rows)
    agreed = sum(r["agreements"] for r in rows)
    print()
    print(f"total: {agreed}/{total} verdicts consistent with the reference")


if __name__ == "__main__":
    main()
