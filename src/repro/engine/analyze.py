"""Static query analysis: plan-time pruning, rewrites, lint diagnostics.

A query is analyzed once per (query structure, semantics) — never per
graph — and the memoized :class:`AnalysisReport` feeds every evaluator:
``evaluate`` / ``in_evaluation`` consume the pruned disjunct list, the
batch executor shares one report per admitted query, and the
incremental layer reuses reports across graph mutations for free
because the cache key is graph-independent.

The analyzer decides with automata only; it never runs a containment
decider.  The pipeline per ε-free disjunct:

1. **Hard facts**: atoms denoting the empty language make the disjunct
   unsatisfiable — it is dropped; structurally duplicate disjuncts
   collapse; ε-only atoms, isolated head variables and disconnected
   variable graphs are linted.
2. **Sibling-language subsumption**: two atoms over the same ordered
   endpoint pair with L₁ ⊆ L₂ (decided exactly via the DFA complement
   product) make the superset atom redundant under standard and
   atom-injective semantics — the same witness path serves both.
   Under query-injective semantics the witness paths must be
   internally disjoint, so the rewrite is *unsound* and only a lint is
   emitted.  :data:`MAX_CHECKS`, :data:`MAX_ATOMS` and
   :data:`SUBSET_STATE_CAP` bound this phase's work.

Every behavior-changing step is recorded as an auditable
:class:`AnalysisDecision` carrying the inclusion verdict that licensed
it; lints are warning-level and never change behavior.
``AnalysisReport.explain()`` derives each surviving disjunct's fact
line (loops, finite languages, components, injective floor) on demand.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine.cache import analysis_report, compiled_nfa, language_is_empty
from repro.queries.crpq import CRPQ, union_of
from repro.regular.dfa import nfa_language_subset
from repro.regular.syntax import Empty, remove_epsilon
from repro.regular.words import language_is_finite
from repro.semantics.base import Semantics


#: Phase 2 runs at most this many DFA-subset checks per analysis; past
#: it the analysis stops rewriting and lints ``analysis-budget-exhausted``.
MAX_CHECKS = 32
#: Disjuncts with more atoms than this skip the sibling phase.
MAX_ATOMS = 6
#: Atom pairs whose larger NFA has more states than this are not checked.
SUBSET_STATE_CAP = 12


@dataclass(frozen=True)
class AnalysisDecision:
    """One audited, behavior-changing analysis step.

    ``verdict`` renders the language-inclusion result that licensed the
    step (``None`` for hard facts, which need none).
    """

    kind: str
    disjunct: int  # index into the pre-analysis ε-free disjunct list
    detail: str
    verdict: Optional[str] = None

    def __str__(self) -> str:
        suffix = f"  [{self.verdict}]" if self.verdict else ""
        return f"[d{self.disjunct}] {self.kind}: {self.detail}{suffix}"


@dataclass(frozen=True)
class AnalysisLint:
    """A warning-level diagnostic.  Never changes behavior."""

    code: str
    disjunct: Optional[int]
    message: str

    def __str__(self) -> str:
        where = f"d{self.disjunct}: " if self.disjunct is not None else ""
        return f"{self.code}: {where}{self.message}"


@dataclass(frozen=True)
class AnalysisReport:
    """The analyzer's full output for one (query, semantics) pair."""

    semantics: Semantics
    original: Tuple[Any, ...]   # ε-free disjuncts before analysis
    disjuncts: Tuple[Any, ...]  # disjuncts after pruning/rewriting
    decisions: Tuple[AnalysisDecision, ...]
    lints: Tuple[AnalysisLint, ...]
    from_cache: bool = field(default=False, compare=False)

    @property
    def pruned(self) -> bool:
        """True iff analysis changed what the engine will execute."""
        return bool(self.decisions)

    def explain(self) -> str:
        """Render the audit trail (never executes any query)."""
        lines = [
            f"analysis [{self.semantics}]: {len(self.original)} ε-free "
            f"disjunct(s) in, {len(self.disjuncts)} out"
        ]
        if self.decisions:
            lines.append("decisions:")
            for decision in self.decisions:
                lines.append(f"  {decision}")
        else:
            lines.append("decisions: none (nothing pruned or rewritten)")
        if self.lints:
            lines.append("lints:")
            for lint in self.lints:
                lines.append(f"  {lint}")
        for index, disjunct in enumerate(self.disjuncts):
            lines.append(f"disjunct {index}: {disjunct}")
            lines.append(f"  {_describe(disjunct)}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The unanalyzed reference path
# ----------------------------------------------------------------------

_state = threading.local()


@contextmanager
def analysis_disabled() -> Iterator[None]:
    """Context manager: run evaluation on the unanalyzed path.

    The differential matrix's analysis axis and the benchmark baselines
    use this to compare pruned vs seed behavior; the pass-through report
    it yields performs ε-elimination only, exactly like the pre-analyzer
    engine.
    """
    previous = getattr(_state, "disabled", False)
    _state.disabled = True
    try:
        yield
    finally:
        _state.disabled = previous


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def analyze(query: Any, semantics: Any) -> AnalysisReport:
    """Analyze ``query`` (a CRPQ, CQ, or union) under ``semantics``.

    The report is memoized process-wide, keyed by query structure +
    semantics — graph-independent, so one report serves every graph
    version.
    """
    semantics = Semantics.coerce(semantics)
    disjuncts = union_of(query)
    if getattr(_state, "disabled", False):
        return _passthrough_report(disjuncts, semantics)
    key = (
        tuple(_structural_key(d) for d in disjuncts),
        semantics,
    )
    computed = False

    def _compute() -> AnalysisReport:
        nonlocal computed
        computed = True
        return _compute_report(disjuncts, semantics)

    report: AnalysisReport = analysis_report(key, _compute)
    if computed:
        return report
    return replace(report, from_cache=True)


def analyzed_disjuncts(query: Any, semantics: Any) -> Tuple[Any, ...]:
    """The pruned/rewritten ε-free disjunct list the engine should run.

    Evaluating these disjuncts and unioning the results is equivalent to
    evaluating ``query`` directly, under ``semantics``, on every graph.
    """
    return analyze(query, semantics).disjuncts


# ----------------------------------------------------------------------
# Report construction
# ----------------------------------------------------------------------


def _structural_key(disjunct: Any) -> Tuple[Any, ...]:
    """A *multiplicity-preserving* structural identity for a CRPQ.

    ``CRPQ.__eq__`` compares atom **sets**, which collapses duplicate
    atoms — but duplicates matter under query-injective semantics (two
    copies of one atom need two internally disjoint witness paths).
    Cache keys and duplicate detection therefore compare the atom
    *multiset* (as a frozenset of (atom, count) pairs — order-free,
    duplicates kept, no string rendering on the hot path) plus head and
    variable set."""
    return (
        disjunct.head,
        frozenset(Counter(disjunct.atoms).items()),
        disjunct.variables,
    )


def _eps_free_list(disjuncts: Tuple[Any, ...]) -> List[Any]:
    expanded: List[Any] = []
    for disjunct in disjuncts:
        expanded.extend(disjunct.epsilon_free_union())
    return expanded


def _passthrough_report(
    disjuncts: Tuple[Any, ...], semantics: Semantics
) -> AnalysisReport:
    eps_free = tuple(_eps_free_list(disjuncts))
    return AnalysisReport(
        semantics=semantics,
        original=eps_free,
        disjuncts=eps_free,
        decisions=(),
        lints=(),
    )


class _CheckMeter:
    """Counts DFA-subset checks against :data:`MAX_CHECKS`."""

    def __init__(self) -> None:
        self.remaining = MAX_CHECKS
        self.exhausted = False

    def take(self) -> bool:
        if self.remaining < 1:
            self.exhausted = True
            return False
        self.remaining -= 1
        return True


def _compute_report(
    disjuncts: Tuple[Any, ...], semantics: Semantics
) -> AnalysisReport:
    decisions: List[AnalysisDecision] = []
    lints: List[AnalysisLint] = []
    _lint_epsilon_only_atoms(disjuncts, lints)
    original = tuple(_eps_free_list(disjuncts))
    meter = _CheckMeter()

    # Phase 1: unsatisfiable disjuncts (an atom denoting ∅) and exact
    # structural duplicates — sound under every semantics.
    survivors: List[Tuple[int, Any]] = []
    for index, disjunct in enumerate(original):
        empty_atom = _first_empty_atom(disjunct)
        if empty_atom is not None:
            position, atom = empty_atom
            decisions.append(AnalysisDecision(
                kind="drop-disjunct-unsatisfiable",
                disjunct=index,
                detail=(f"atom {position} ({atom}) denotes the empty "
                        f"language"),
            ))
            continue
        structural = _structural_key(disjunct)
        duplicate = next(
            (kept_index for kept_index, kept in survivors
             if _structural_key(kept) == structural),
            None,
        )
        if duplicate is not None:
            decisions.append(AnalysisDecision(
                kind="drop-disjunct-duplicate",
                disjunct=index,
                detail=f"structurally equal to disjunct {duplicate}",
            ))
            continue
        survivors.append((index, disjunct))

    # Phase 2: per-disjunct sibling-atom rewrites.
    final = [
        (index, _prune_subsumed_sibling_atoms(
            disjunct, index, semantics, meter, decisions, lints
        ))
        for index, disjunct in survivors
    ]

    if meter.exhausted:
        lints.append(AnalysisLint(
            code="analysis-budget-exhausted",
            disjunct=None,
            message=(f"stopped after "
                     f"{MAX_CHECKS - meter.remaining} inclusion "
                     f"check(s); remaining rewrites skipped"),
        ))

    _lint_facts(final, semantics, lints)
    return AnalysisReport(
        semantics=semantics,
        original=original,
        disjuncts=tuple(d for _i, d in final),
        decisions=tuple(decisions),
        lints=tuple(lints),
    )


# ----------------------------------------------------------------------
# Phase 1 helpers: hard facts
# ----------------------------------------------------------------------


def _first_empty_atom(disjunct: Any) -> Optional[Tuple[int, Any]]:
    for position, atom in enumerate(disjunct.atoms):
        if language_is_empty(atom.language):
            return position, atom
    return None


def _lint_epsilon_only_atoms(
    disjuncts: Tuple[Any, ...], lints: List[AnalysisLint]
) -> None:
    """ε-only atoms exist only pre-elimination: they always collapse
    their endpoints, so flag them on the original query."""
    for index, disjunct in enumerate(disjuncts):
        for position, atom in enumerate(disjunct.atoms):
            language = atom.language
            if not language.nullable():
                continue
            if isinstance(remove_epsilon(language), Empty):
                lints.append(AnalysisLint(
                    code="epsilon-only-atom",
                    disjunct=None,
                    message=(f"query {index} atom {position} ({atom}) "
                             f"denotes {{ε}}: it only identifies "
                             f"{atom.source} with {atom.target}"),
                ))


def _isolated_head_variables(disjunct: Any) -> Tuple[Any, ...]:
    """Head variables no atom mentions: each forces a full domain scan."""
    atom_variables = {
        v for atom in disjunct.atoms for v in (atom.source, atom.target)
    }
    return tuple(sorted(
        (v for v in set(disjunct.head) if v not in atom_variables),
        key=repr,
    ))


def _describe(disjunct: Any) -> str:
    """The fact line ``explain()`` prints under a surviving disjunct.

    The injective floor is the number of distinct nodes a q-inj
    assignment needs (:mod:`repro.engine.qinj` applies that cap)."""
    atoms = disjunct.atoms
    parts = [f"{len(atoms)} atom(s)"]
    loops = [i for i, atom in enumerate(atoms) if atom.is_loop()]
    if loops:
        parts.append(f"loops {loops}")
    finite = [
        i for i, atom in enumerate(atoms)
        if language_is_finite(compiled_nfa(atom.language))
    ]
    if finite:
        parts.append(f"finite languages {finite}")
    isolated = _isolated_head_variables(disjunct)
    if isolated:
        rendered = ", ".join(str(v) for v in isolated)
        parts.append(f"domain-scan head vars {{{rendered}}}")
    parts.append(f"{_component_count(disjunct)} component(s)")
    parts.append(f"injective floor {len(disjunct.variables)} node(s)")
    return "; ".join(parts)


def _component_count(disjunct: Any) -> int:
    neighbours: Dict[Any, set] = {v: set() for v in disjunct.variables}
    for atom in disjunct.atoms:
        neighbours[atom.source].add(atom.target)
        neighbours[atom.target].add(atom.source)
    seen: set = set()
    components = 0
    for start in disjunct.variables:
        if start in seen:
            continue
        components += 1
        frontier = [start]
        seen.add(start)
        while frontier:
            for nxt in neighbours[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return components


def _lint_facts(
    final: List[Tuple[int, Any]],
    semantics: Semantics,
    lints: List[AnalysisLint],
) -> None:
    for index, disjunct in final:
        isolated = _isolated_head_variables(disjunct)
        if isolated:
            rendered = ", ".join(str(v) for v in isolated)
            lints.append(AnalysisLint(
                code="isolated-head-variable",
                disjunct=index,
                message=(f"head variable(s) {rendered} occur in no atom: "
                         f"full domain scan"),
            ))
        components = _component_count(disjunct)
        if components > 1:
            lints.append(AnalysisLint(
                code="disconnected-components",
                disjunct=index,
                message=(f"variable graph splits into {components} "
                         f"components: cartesian-product glue"),
            ))
        if (semantics is Semantics.QUERY_INJECTIVE
                and len(disjunct.atoms) == 1):
            atom = disjunct.atoms[0]
            if disjunct.variables == frozenset(atom.variables()):
                lints.append(AnalysisLint(
                    code="semantics-downgrade-safe",
                    disjunct=index,
                    message=("single-atom RPQ shape: q-inj coincides "
                             "with a-inj for this disjunct"),
                ))


# ----------------------------------------------------------------------
# Phase 2: sibling-language subsumption
# ----------------------------------------------------------------------


def _prune_subsumed_sibling_atoms(
    disjunct: Any,
    index: int,
    semantics: Semantics,
    meter: _CheckMeter,
    decisions: List[AnalysisDecision],
    lints: List[AnalysisLint],
) -> Any:
    if len(disjunct.atoms) < 2 or len(disjunct.atoms) > MAX_ATOMS:
        return disjunct
    groups: Dict[Tuple[Any, Any], List[int]] = {}
    for position, atom in enumerate(disjunct.atoms):
        groups.setdefault((atom.source, atom.target), []).append(position)
    dropped: set = set()
    for positions in groups.values():
        if len(positions) < 2:
            continue
        for j in positions:
            if j in dropped:
                continue
            for k in positions:
                if k == j or k in dropped:
                    continue
                atom_j, atom_k = disjunct.atoms[j], disjunct.atoms[k]
                nfa_j = compiled_nfa(atom_j.language)
                nfa_k = compiled_nfa(atom_k.language)
                if max(len(nfa_j.states), len(nfa_k.states)) \
                        > SUBSET_STATE_CAP:
                    continue
                if not meter.take():
                    return _without_atoms(disjunct, dropped)
                if not nfa_language_subset(nfa_j, nfa_k):
                    continue
                verdict = (f"L({atom_j.language}) ⊆ L({atom_k.language}) "
                           f"via DFA complement product")
                if semantics is Semantics.QUERY_INJECTIVE:
                    # Witness paths must be pairwise internally disjoint:
                    # the superset atom still needs its own path.
                    lints.append(AnalysisLint(
                        code="atom-language-subsumed",
                        disjunct=index,
                        message=(f"atom {k} is implied by atom {j} "
                                 f"({verdict}) but q-inj disjointness "
                                 f"forbids dropping it"),
                    ))
                    continue
                dropped.add(k)
                decisions.append(AnalysisDecision(
                    kind="drop-atom-language-subsumed",
                    disjunct=index,
                    detail=(f"atom {k} ({atom_k}) is implied by atom "
                            f"{j} ({atom_j}): any witness of the subset "
                            f"language serves both under {semantics}"),
                    verdict=verdict,
                ))
    return _without_atoms(disjunct, dropped)


def _without_atoms(disjunct: Any, dropped: set) -> Any:
    if not dropped:
        return disjunct
    kept = tuple(
        atom for position, atom in enumerate(disjunct.atoms)
        if position not in dropped
    )
    return CRPQ(disjunct.head, kept, extra_variables=disjunct.variables)


__all__ = [
    "AnalysisDecision",
    "AnalysisLint",
    "AnalysisReport",
    "analysis_disabled",
    "analyze",
    "analyzed_disjuncts",
]
