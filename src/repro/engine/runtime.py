"""Execution governor: budgets, deadlines, cooperative cancellation.

Every unbounded engine loop (product-reachability sweep, semijoin
reduction, variable elimination, q-inj backtracking, witness enumeration,
incremental repair, batch jobs, simple-path DFS) calls
:meth:`ExecutionContext.checkpoint` with a registered site id.  A
checkpoint is an amortized guard: a cheap per-context counter on every
hit, a *real* check (cancellation token, wall-clock deadline, step cap)
every :data:`CHECK_INTERVAL` hits.  Budgets therefore bound work to
within one interval of the configured limit — exact enforcement is not
a goal; bounded staleness is.

Contexts flow two ways:

- **ambiently** via a :mod:`contextvars` variable — ``current_context()``
  returns the active context, or a shared unbounded default when none
  has been activated.  ``active_context(ctx)`` installs one for a
  ``with`` block.  Thread pools do **not** inherit context variables, so
  the batch executor re-activates its context inside each worker.
- **explicitly** via an optional ``ctx`` parameter on registered
  hot-loop functions (the LK008 checkpoint-discipline surface), resolved
  through :func:`resolve_context`.

A single context may be shared across worker threads: the tick counter
is updated without a lock (ticks may be lost under races, which only
delays a real check by a bounded amount), while the cancellation token
is a flag set by one atomic store and never cleared.

Failure model: an interrupted evaluation raises one of the
:class:`~repro.errors.ResourceExhausted` family out of a checkpoint and
must never publish partial data into a version-keyed cache — every
cache population site computes fully, then publishes (see
ARCHITECTURE.md, "Execution governor & failure model").  The
fault-injection harness (:mod:`repro.devtools.faultinject`) proves this
by interrupting at the Nth hit of any registered site and differentially
comparing post-interrupt re-evaluation against a fresh evaluation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

from repro.engine import telemetry
from repro.errors import EvaluationCancelled, EvaluationTimeout, ResourceExhausted

#: Real budget checks run once per this many checkpoint hits (per context).
CHECK_INTERVAL = 256

#: Probe hook signature: called with the site id on *every* checkpoint
#: hit of the context it is installed on (fault injection, hit counting).
Probe = Callable[[str], None]

_SITE_REGISTRY: Dict[str, str] = {}


def checkpoint_site(site_id: str, description: str = "") -> str:
    """Register (idempotently) a checkpoint site id and return it.

    Engine modules call this at import time for each site they
    checkpoint from, so tooling (the fault-injection harness, the
    ARCHITECTURE.md sites table test) can enumerate every site.
    """
    existing = _SITE_REGISTRY.get(site_id)
    if not existing:
        _SITE_REGISTRY[site_id] = description
    return site_id


def registered_sites() -> Tuple[str, ...]:
    """All registered checkpoint site ids, sorted."""
    return tuple(sorted(_SITE_REGISTRY))


def site_descriptions() -> Dict[str, str]:
    """Mapping of registered site id to its one-line description."""
    return dict(_SITE_REGISTRY)


@dataclass(frozen=True)
class ResourceBudget:
    """Unified resource limits for one evaluation.

    ``None`` for any field means "unbounded here" — the engine's
    historical per-subsystem defaults (``ELIMINATION_ROW_CAP``,
    ``DELETION_REPAIR_CAP``, the analyzer's ``MAX_CHECKS``) stay in
    force exactly as before.  Setting a field makes it a *hard*
    limit: exceeding it raises :class:`~repro.errors.ResourceExhausted`
    (or :class:`~repro.errors.EvaluationTimeout` for the deadline)
    instead of falling back.

    Attributes:
        timeout: wall-clock seconds from context creation.
        row_cap: maximum rows in any intermediate join/elimination table.
        witness_cap: maximum q-inj witness paths consumed per context.
        step_cap: maximum checkpoint ticks per context (a portable,
            deterministic work bound — useful for tests).
    """

    timeout: Optional[float] = None
    row_cap: Optional[int] = None
    witness_cap: Optional[int] = None
    step_cap: Optional[int] = None

    def __post_init__(self) -> None:
        # Zero is a real limit (exhausted at the first checkpoint); a
        # negative or NaN limit is an input error, not "unbounded".
        for name in ("timeout", "row_cap", "witness_cap", "step_cap"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(
                    f"{name} must be a non-negative number, got {value!r}"
                )

    def bounded(self) -> bool:
        """Whether any limit is set."""
        return (
            self.timeout is not None
            or self.row_cap is not None
            or self.witness_cap is not None
            or self.step_cap is not None
        )


class CancellationToken:
    """Thread-safe cooperative cancellation flag: one attribute that
    only ever goes from ``False`` to ``True`` (a single store, atomic
    under the interpreter lock), read by every real checkpoint."""

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        """Request cancellation; observed at the next real checkpoint."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class PartialAnswers(frozenset):  # type: ignore[type-arg]
    """An answer set explicitly marked complete or interrupted.

    Returned by ``evaluate``/``evaluate_batch`` under
    ``on_budget="partial"``.  Behaves exactly like a ``frozenset`` of
    answer tuples (equality, union, membership), with two extra
    attributes:

    - ``complete``: ``True`` iff the evaluation finished within budget.
    - ``error``: the :class:`~repro.errors.ResourceExhausted` /
      :class:`~repro.errors.EvaluationCancelled` instance that
      interrupted it, or ``None``.

    An incomplete result is always a *sound subset* of the full answer
    set: only fully-evaluated disjuncts contribute.
    """

    complete: bool
    error: Optional[BaseException]

    def __new__(
        cls,
        answers: Iterable[Any] = (),
        *,
        complete: bool = True,
        error: Optional[BaseException] = None,
    ) -> "PartialAnswers":
        self = super().__new__(cls, answers)
        self.complete = complete
        self.error = error
        return self

    def __repr__(self) -> str:
        state = "complete" if self.complete else "partial"
        return f"PartialAnswers({set(self)!r}, {state})"


class ExecutionContext:
    """Carries one evaluation's budget, cancellation token, and counters.

    ``checkpoint(site)`` is the only method hot loops call; it is an
    increment-and-compare on the fast path.  ``interval`` controls the
    amortization window (tests shrink it for exactness); while at least
    one probe is installed every hit runs a real check so fault
    injection is deterministic.  ``trace`` optionally carries the
    :class:`~repro.engine.telemetry.QueryTrace` this context's work
    reports into (attached by :func:`repro.engine.telemetry.tracing`,
    never set on the shared unbounded default).
    """

    __slots__ = (
        "budget",
        "token",
        "started",
        "deadline",
        "trace",
        "_ticks",
        "_witnesses",
        "_interval",
        "_next_check",
        "_probes",
    )

    def __init__(
        self,
        budget: Optional[ResourceBudget] = None,
        token: Optional[CancellationToken] = None,
        *,
        interval: int = CHECK_INTERVAL,
    ) -> None:
        self.budget = budget if budget is not None else ResourceBudget()
        self.token = token if token is not None else CancellationToken()
        self.started = time.monotonic()
        self.deadline: Optional[float] = (
            self.started + self.budget.timeout
            if self.budget.timeout is not None
            else None
        )
        self.trace: Optional[telemetry.QueryTrace] = None
        self._ticks = 0
        self._witnesses = 0
        self._interval = max(1, interval)
        self._next_check = self._interval
        self._probes: Tuple[Tuple[object, Probe], ...] = ()

    @property
    def ticks(self) -> int:
        """Checkpoint hits observed so far (approximate under threads)."""
        return self._ticks

    @property
    def witnesses(self) -> int:
        """Witness paths consumed so far."""
        return self._witnesses

    def elapsed(self) -> float:
        """Wall-clock seconds since this context was created."""
        return time.monotonic() - self.started

    def install_probe(self, probe: Probe) -> object:
        """Install a per-hit hook (fault injection / site profiling).

        Probes *stack*: installing a second probe no longer replaces
        the first, so a :class:`~repro.devtools.obs.profile.
        SiteProfiler` and :func:`repro.devtools.faultinject.inject` can
        coexist on one context.  Probes fire in installation order.
        While at least one probe is installed every checkpoint runs a
        real check, so an injected fault fires at a deterministic hit
        count.  Returns an opaque handle for :meth:`remove_probe`.
        """
        handle: object = object()
        self._probes = self._probes + ((handle, probe),)
        self._next_check = self._ticks + 1
        return handle

    def remove_probe(self, handle: Optional[object] = None) -> None:
        """Remove the probe installed under ``handle``; with no handle,
        remove every probe (the pre-stacking clear-all behaviour).
        Amortization resumes once the last probe is gone."""
        if handle is None:
            self._probes = ()
        else:
            self._probes = tuple(
                entry for entry in self._probes if entry[0] is not handle
            )
        if not self._probes:
            self._next_check = self._ticks + self._interval

    def checkpoint(self, site: str) -> None:
        """Amortized budget/cancellation check at a registered site."""
        ticks = self._ticks + 1
        self._ticks = ticks
        probes = self._probes
        if probes:
            for _handle, probe in probes:
                probe(site)
            self._check(site, ticks)
            return
        if ticks >= self._next_check:
            self._next_check = ticks + self._interval
            self._check(site, ticks)

    def _check(self, site: str, ticks: int) -> None:
        if self.token._cancelled:
            telemetry.count("governor.cancelled")
            raise EvaluationCancelled(site=site)
        deadline = self.deadline
        if deadline is not None:
            now = time.monotonic()
            if now > deadline:
                _count_exhaustion("deadline", site)
                raise EvaluationTimeout(
                    f"wall-clock deadline of {self.budget.timeout}s exceeded"
                    f" at {site}",
                    limit=self.budget.timeout,
                    progress=now - self.started,
                    site=site,
                )
        step_cap = self.budget.step_cap
        if step_cap is not None and ticks > step_cap:
            _count_exhaustion("steps", site)
            raise ResourceExhausted(
                f"step budget of {step_cap} exhausted at {site}",
                kind="steps",
                limit=step_cap,
                progress=ticks,
                site=site,
            )

    def check_rows(self, count: int, site: str) -> None:
        """Enforce the row cap on an intermediate table of ``count`` rows."""
        cap = self.budget.row_cap
        if cap is not None and count > cap:
            _count_exhaustion("rows", site)
            raise ResourceExhausted(
                f"row budget of {cap} exceeded ({count} rows) at {site}",
                kind="rows",
                limit=cap,
                progress=count,
                site=site,
            )

    def consume_witnesses(self, count: int, site: str) -> None:
        """Count ``count`` consumed witness paths against the witness cap."""
        total = self._witnesses + count
        self._witnesses = total
        cap = self.budget.witness_cap
        if cap is not None and total > cap:
            _count_exhaustion("witnesses", site)
            raise ResourceExhausted(
                f"witness budget of {cap} exceeded ({total} paths) at {site}",
                kind="witnesses",
                limit=cap,
                progress=total,
                site=site,
            )


def _count_exhaustion(kind: str, site: str) -> None:
    """Record one budget trip by kind and by the site that caught it —
    the governor half of the telemetry surface (cold path: runs only
    when an evaluation is about to raise)."""
    telemetry.count(f"governor.exhausted.{kind}")
    telemetry.count(f"governor.exhausted.site.{site}")


_ACTIVE: "ContextVar[Optional[ExecutionContext]]" = ContextVar(
    "repro_execution_context", default=None
)

#: Shared fallback when no context has been activated: no budget, no
#: probe — its checkpoints are pure counter increments.
_UNBOUNDED = ExecutionContext()


def current_context() -> ExecutionContext:
    """The ambient execution context (an unbounded default if none set)."""
    active = _ACTIVE.get()
    return _UNBOUNDED if active is None else active


def activated_context() -> Optional[ExecutionContext]:
    """The explicitly-activated ambient context, or ``None`` when the
    shared unbounded default would govern.  Lets callers distinguish
    "a caller bound a context" (safe to attach a trace to) from the
    process-wide fallback (never attach anything to it)."""
    return _ACTIVE.get()


def resolve_context(ctx: Optional[ExecutionContext]) -> ExecutionContext:
    """Resolve an explicit ``ctx`` argument, falling back to the ambient one."""
    return ctx if ctx is not None else current_context()


@contextmanager
def active_context(
    ctx: Optional[ExecutionContext],
) -> Iterator[ExecutionContext]:
    """Install ``ctx`` as the ambient context for the ``with`` block.

    ``None`` is a pass-through: the ambient context (whatever it is)
    stays in force — callers with optional bounds need no branching.
    """
    if ctx is None:
        yield current_context()
        return
    token = _ACTIVE.set(ctx)
    try:
        yield ctx
    finally:
        _ACTIVE.reset(token)


# The telemetry layer sits below this module (layer 0, stdlib-only);
# hand it the ambient-context reader so the active QueryTrace is
# discoverable without an upward import.
telemetry.install_context_provider(current_context)
