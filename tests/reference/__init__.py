"""Engine-independent references and benchmark baselines.

- :mod:`tests.reference.brute` — one brute-force reference per
  semantics: per-source walk BFS (st) and simple-path enumeration
  (a-inj) joined by one CSP glue, and the brute injective search
  (q-inj).  It reads no engine module, so the differential matrix
  (:mod:`tests.differential_matrix`) can compare every engine
  configuration against it.
- :mod:`tests.reference.baselines` — the pre-engine evaluation paths
  that ``benchmarks/bench_qinj.py`` and ``benchmarks/bench_join.py``
  time the engine against: the unguided q-inj search and the CSP glue
  over the engine's atom relations.
"""
