"""Deterministic fault injection for the execution governor.

The engine's hot loops checkpoint at registered sites
(:mod:`repro.engine.runtime`).  This harness interrupts an evaluation at
exactly the Nth hit of any chosen site — either by raising a marker
exception or by cancelling the context's token — so tests can prove the
engine's central robustness invariant:

    an interrupted evaluation never publishes partial data into any
    version-keyed cache; re-evaluating in the same process yields
    exactly what a fresh process would.

Usage pattern (see ``tests/test_faultinject.py``)::

    hits = hit_counts(lambda: evaluate(query, graph, semantics))
    for n in (1, hits[site] // 2 + 1, hits[site]):
        with inject(site, n) as report:
            try:
                evaluate(query, graph, semantics)
            except FaultInjected:
                pass
        assert report.fired
        # post-interrupt re-evaluation, same process, same caches:
        assert evaluate(query, graph, semantics) == \
            pristine_answers(query, graph, semantics)

Everything here is deterministic: installing a probe forces a real
check on every checkpoint hit, the engine's enumeration orders are
pinned, and ``pristine_answers`` evaluates against an independent graph
copy whose engine caches start empty (the in-process stand-in for a
fresh process).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.engine.runtime import (
    ExecutionContext,
    ResourceBudget,
    active_context,
    registered_sites,
)
from repro.errors import ReproError


class FaultInjected(ReproError):
    """The marker exception an injected fault raises.

    Deliberately *outside* the :class:`~repro.errors.ResourceExhausted`
    family: the engine has no special handling for it, so it exercises
    the bare propagation path (the batch executor's generic isolation
    still catches it, which the poisoned-batch tests rely on).
    """

    def __init__(self, site: str, hit: int) -> None:
        self.site = site
        self.hit = hit
        super().__init__(f"fault injected at {site} (hit {hit})")


@dataclass
class InjectionReport:
    """What an :func:`inject` block observed.

    ``fired`` distinguishes "the fault triggered" from "the workload
    never reached hit N of the site" — sweep tests assert it so a
    silently-unreachable site cannot pass vacuously.  ``hits`` counts
    every checkpoint hit per site up to (and including) the firing one.
    """

    site: str
    hit: int
    fired: bool = False
    hits: Dict[str, int] = field(default_factory=dict)


@contextmanager
def inject(
    site: str,
    hit: int,
    *,
    mode: str = "raise",
    budget: Optional[ResourceBudget] = None,
) -> Iterator[InjectionReport]:
    """Activate a context that interrupts at the Nth hit of ``site``.

    ``mode="raise"`` raises :class:`FaultInjected` from the checkpoint;
    ``mode="cancel"`` cancels the context's token instead, so the very
    same checkpoint raises
    :class:`~repro.errors.EvaluationCancelled` — the cooperative
    cancellation path, end to end.  ``hit`` is 1-based.
    """
    if mode not in ("raise", "cancel"):
        raise ValueError(f"mode must be 'raise' or 'cancel', got {mode!r}")
    if hit < 1:
        raise ValueError(f"hit is 1-based, got {hit}")
    ctx = ExecutionContext(budget)
    report = InjectionReport(site=site, hit=hit)

    def probe(seen: str) -> None:
        count = report.hits.get(seen, 0) + 1
        report.hits[seen] = count
        if seen == site and count == report.hit and not report.fired:
            report.fired = True
            if mode == "cancel":
                ctx.token.cancel()
            else:
                raise FaultInjected(site, report.hit)

    ctx.install_probe(probe)
    with active_context(ctx):
        yield report


def hit_counts(thunk: Callable[[], Any]) -> Dict[str, int]:
    """Run ``thunk`` under a counting probe; checkpoint hits per site.

    This is how sweep tests discover the hit range to inject over
    (first / middle / last) without hard-coding engine internals.
    """
    ctx = ExecutionContext()
    counts: Dict[str, int] = {}

    def probe(site: str) -> None:
        counts[site] = counts.get(site, 0) + 1

    ctx.install_probe(probe)
    with active_context(ctx):
        thunk()
    return counts


def pristine_answers(query: Any, graph: Any, semantics: Any) -> Any:
    """Evaluate on an independent copy of ``graph`` — the differential
    reference equivalent to a fresh process.

    The copy is a new object, so every graph-scoped engine cache
    (atom relations, per-disjunct results, co-reachability sets)
    starts empty, and no incremental store is attached.  Graph-independent caches (compiled NFAs,
    analysis reports) are shared, but they are pure functions of the
    query populated compute-fully-then-publish, so sharing cannot mask
    corruption of graph-scoped state.
    """
    from repro.semantics.evaluation import evaluate

    return evaluate(query, graph.copy(), semantics)


def all_sites() -> Tuple[str, ...]:
    """Every registered checkpoint site id, with the engine modules
    that register them imported first (a site registers at import time;
    enumeration must not depend on what the caller happened to load)."""
    import repro.engine.batch  # noqa: F401
    import repro.engine.incremental  # noqa: F401
    import repro.engine.planner  # noqa: F401
    import repro.engine.product  # noqa: F401
    import repro.engine.qinj  # noqa: F401
    import repro.graphdb.paths  # noqa: F401
    import repro.semantics.trails  # noqa: F401

    return registered_sites()
