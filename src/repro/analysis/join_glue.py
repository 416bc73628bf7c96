"""Join-glue workload (E7): chain CRPQs.

PRs 1–2 made the per-atom relations cheap; what remained on the st /
a-inj serving path was the *glue* — the pre-join-engine code rebuilt a
relation ``GraphDatabase`` edge-by-edge and ran the backtracking CQ
matcher over it, enumerating every homomorphism even when the query was
a chain.  The join planner eliminates a chain's inner variables one at
a time by min-degree variable elimination, each step one fused hash
join and projection.  Length-k chain CRPQs (the dominant SPARQL
property-path shape in the query-log studies the paper cites) are the
shape that shows the difference: :mod:`benchmarks.bench_join` times
``evaluate`` against the CSP glue (``tests/reference/baselines.py``) on
them, and with single-symbol chain languages the atom relations are
trivial, so the glue dominates both timings.
"""

from __future__ import annotations

from repro.queries.atoms import Atom
from repro.queries.crpq import CRPQ
from repro.regular.syntax import Symbol


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
