"""Static query analysis: plan-time pruning, rewrites, lint diagnostics.

The paper's decidability results (Figure 1) are *static analyses* of
queries; this module finally runs them on the execution path.  A query
is analyzed once per (query structure, semantics) — never per graph —
and the memoized :class:`AnalysisReport` feeds every evaluator:
``evaluate`` / ``in_evaluation`` consume the pruned disjunct list, the
batch executor shares one report per admitted query, and the
incremental layer reuses reports across graph mutations for free
because the cache key is graph-independent.

The pipeline per ε-free disjunct:

1. **Hard facts** (always on, no decider needed): atoms denoting the
   empty language make the disjunct unsatisfiable — it is dropped;
   structurally duplicate disjuncts collapse; ε-only atoms, isolated
   head variables and disconnected variable graphs are linted.
2. **Sibling-language subsumption**: two atoms over the same ordered
   endpoint pair with L₁ ⊆ L₂ (decided exactly via the DFA complement
   product, gated by an automaton-size cap) make the superset atom
   redundant under standard and atom-injective semantics — the same
   witness path serves both.  Under query-injective semantics the
   witness paths must be internally disjoint, so the rewrite is
   *unsound* and only a lint is emitted.
3. **Disjunct subsumption**: disjunct dᵢ is dropped when a *conclusive*
   ``contains(dᵢ, dⱼ, semantics)`` verdict proves dᵢ ⊆ dⱼ (sound for
   any union under any semantics).

Rewrite (3) only trusts a decider that is exact for the cell at hand:
a star-free left side routes to the finite-left decider (exact under
all three semantics).  A starred left side is *skipped* with a lint:
the standard-semantics abstraction verdicts carry a documented
soundness caveat, the unrestricted atom-injective cell is undecidable
(Theorem 5.2), and the q-inj abstraction decider (Theorem 5.1) is
exponential-class.  Decider budgets
(:class:`repro.errors.SearchBudgetExceeded`) are caught and treated as
inconclusive.

Every behavior-changing step is recorded as an auditable
:class:`AnalysisDecision` carrying the containment verdict that
licensed it; lints are warning-level and never change behavior.
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
from repro.errors import SearchBudgetExceeded
from repro.queries.crpq import CRPQ, union_of
from repro.regular.dfa import nfa_language_subset
from repro.regular.syntax import Empty, remove_epsilon
from repro.regular.words import language_is_finite
from repro.semantics.base import Semantics


@dataclass(frozen=True)
class AnalysisBudget:
    """Caps on the analyzer's decider work.

    The defaults keep analysis cheap enough for the serving hot path
    (it is also memoized); tests raise them to exercise deep rewrites.
    """

    max_checks: int = 32
    max_atoms: int = 6
    max_disjuncts: int = 8
    subset_state_cap: int = 12
    expansion_budget: int = 120
    quotient_budget: int = 120
    max_classes: int = 250
    max_candidates: int = 500

    def decider_options(self) -> Dict[str, int]:
        """The budget kwargs forwarded to ``containment.api.contains``
        (it picks the ones its routed decider understands)."""
        return {
            "expansion_budget": self.expansion_budget,
            "quotient_budget": self.quotient_budget,
            "max_classes": self.max_classes,
            "max_candidates": self.max_candidates,
        }


DEFAULT_BUDGET = AnalysisBudget()


@dataclass(frozen=True)
class AnalysisDecision:
    """One audited, behavior-changing analysis step.

    ``verdict`` renders the containment result that licensed the step
    (``None`` for hard facts, which need no decider).
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
# Enable/disable and re-entrancy state
# ----------------------------------------------------------------------

_state = threading.local()


def _analysis_active() -> bool:
    return not getattr(_state, "disabled", False) \
        and getattr(_state, "depth", 0) == 0


@contextmanager
def analysis_disabled() -> Iterator[None]:
    """Context manager: run evaluation on the unanalyzed path.

    Differential tests and the benchmark baseline use this to compare
    pruned vs seed behavior; the pass-through report it yields performs
    ε-elimination only, exactly like the pre-analyzer engine.
    """
    previous = getattr(_state, "disabled", False)
    _state.disabled = True
    try:
        yield
    finally:
        _state.disabled = previous


@contextmanager
def _reentrancy_guard() -> Iterator[None]:
    """The containment deciders evaluate queries internally; those inner
    evaluations must not recurse into the analyzer (cost, and the
    deciders were validated against the unanalyzed engine)."""
    _state.depth = getattr(_state, "depth", 0) + 1
    try:
        yield
    finally:
        _state.depth -= 1


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def analyze(
    query: Any,
    semantics: Any,
    budget: Optional[AnalysisBudget] = None,
) -> AnalysisReport:
    """Analyze ``query`` (a CRPQ, CQ, or union) under ``semantics``.

    With the default budget the report is memoized process-wide, keyed
    by query structure + semantics — graph-independent, so one report
    serves every graph version.  A custom ``budget`` bypasses the cache.
    """
    semantics = Semantics.coerce(semantics)
    disjuncts = union_of(query)
    if not _analysis_active():
        return _passthrough_report(disjuncts, semantics)
    if budget is not None:
        return _compute_report(disjuncts, semantics, budget)
    key = (
        tuple(_structural_key(d) for d in disjuncts),
        semantics,
    )
    computed = False

    def _compute() -> AnalysisReport:
        nonlocal computed
        computed = True
        return _compute_report(disjuncts, semantics, DEFAULT_BUDGET)

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
    # Pass-through reports sit on the hot path of the containment
    # deciders (thousands of throwaway membership checks), so they must
    # cost no more than bare ε-elimination.
    eps_free = tuple(_eps_free_list(disjuncts))
    return AnalysisReport(
        semantics=semantics,
        original=eps_free,
        disjuncts=eps_free,
        decisions=(),
        lints=(),
    )


class _CheckMeter:
    """Counts decider invocations against ``budget.max_checks``."""

    def __init__(self, budget: AnalysisBudget) -> None:
        self.remaining = budget.max_checks
        self.exhausted = False

    def take(self) -> bool:
        if self.remaining < 1:
            self.exhausted = True
            return False
        self.remaining -= 1
        return True


def _compute_report(
    disjuncts: Tuple[Any, ...],
    semantics: Semantics,
    budget: AnalysisBudget,
) -> AnalysisReport:
    with _reentrancy_guard():
        return _compute_report_inner(disjuncts, semantics, budget)


def _compute_report_inner(
    disjuncts: Tuple[Any, ...],
    semantics: Semantics,
    budget: AnalysisBudget,
) -> AnalysisReport:
    decisions: List[AnalysisDecision] = []
    lints: List[AnalysisLint] = []
    _lint_epsilon_only_atoms(disjuncts, lints)
    original = tuple(_eps_free_list(disjuncts))
    meter = _CheckMeter(budget)

    # Phase 1: unsatisfiable disjuncts (an atom denoting ∅) and exact
    # structural duplicates — sound under every semantics, decider-free.
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
    rewritten = [
        (index, _prune_subsumed_sibling_atoms(
            disjunct, index, semantics, budget, meter, decisions, lints
        ))
        for index, disjunct in survivors
    ]

    # Phase 3: disjunct subsumption across the union.
    final = _prune_subsumed_disjuncts(
        rewritten, semantics, budget, meter, decisions, lints
    )

    if meter.exhausted:
        lints.append(AnalysisLint(
            code="analysis-budget-exhausted",
            disjunct=None,
            message=(f"stopped after "
                     f"{budget.max_checks - meter.remaining} containment "
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
    budget: AnalysisBudget,
    meter: _CheckMeter,
    decisions: List[AnalysisDecision],
    lints: List[AnalysisLint],
) -> Any:
    if len(disjunct.atoms) < 2 or len(disjunct.atoms) > budget.max_atoms:
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
                        > budget.subset_state_cap:
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


# ----------------------------------------------------------------------
# Phase 3: disjunct subsumption across the union
# ----------------------------------------------------------------------


def _rewrite_grade_decider(left: Any, semantics: Semantics) -> Optional[str]:
    """``None`` if conclusive verdicts with ``left`` on the left-hand
    side may license rewrites under ``semantics``; otherwise the lint
    message explaining why the cell is skipped."""
    if left.is_star_free():
        return None  # finite-left decider: exact for all three semantics
    if semantics is Semantics.ATOM_INJECTIVE:
        return ("unrestricted a-inj containment is undecidable "
                "(Theorem 5.2): only bounded verdicts exist")
    if semantics is Semantics.STANDARD:
        return ("abstraction verdicts under st carry a soundness caveat "
                "(Claim 5.1 is proved for q-inj): not rewrite-grade")
    return ("the q-inj abstraction decider (Theorem 5.1) is "
            "exponential-class: the analyzer does not run it")


def _prune_subsumed_disjuncts(
    disjuncts: List[Tuple[int, Any]],
    semantics: Semantics,
    budget: AnalysisBudget,
    meter: _CheckMeter,
    decisions: List[AnalysisDecision],
    lints: List[AnalysisLint],
) -> List[Tuple[int, Any]]:
    if len(disjuncts) < 2 or len(disjuncts) > budget.max_disjuncts:
        return disjuncts
    from repro.containment.api import contains
    from repro.containment.result import Verdict

    alive = list(disjuncts)
    position = 0
    while position < len(alive):
        index, disjunct = alive[position]
        reason = _rewrite_grade_decider(disjunct, semantics)
        if reason is not None:
            lints.append(AnalysisLint(
                code="rewrite-skipped-inconclusive-cell",
                disjunct=index,
                message=f"subsumption check skipped: {reason}",
            ))
            position += 1
            continue
        subsumed = False
        for other_index, other in alive:
            if other_index == index:
                continue
            if not meter.take():
                return alive
            try:
                result = contains(
                    disjunct, other, semantics,
                    **budget.decider_options(),
                )
            except SearchBudgetExceeded as error:
                lints.append(AnalysisLint(
                    code="decider-budget-exceeded",
                    disjunct=index,
                    message=f"subsumption check abandoned: {error}",
                ))
                continue
            if result.conclusive and result.verdict is Verdict.CONTAINED:
                decisions.append(AnalysisDecision(
                    kind="drop-disjunct-subsumed",
                    disjunct=index,
                    detail=(f"contained in disjunct {other_index} "
                            f"({other}): its contribution to the union "
                            f"is redundant"),
                    verdict=str(result),
                ))
                subsumed = True
                break
        if subsumed:
            del alive[position]
        else:
            position += 1
    return alive


__all__ = [
    "AnalysisBudget",
    "AnalysisDecision",
    "AnalysisLint",
    "AnalysisReport",
    "analysis_disabled",
    "analyze",
    "analyzed_disjuncts",
]
