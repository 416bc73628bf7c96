"""Engine telemetry: metrics registry, structured tracing, trace carrier.

The engine's seven cooperating layers (analyzer → planner → join/q-inj
glue → product kernels → incremental store → governor → backend seam)
each kept private ad-hoc counters before this module existed — the
analysis-cache hit/miss globals, the incremental store's decision
counts — none visible together, none resettable, none attributable to
a query.  This module is the single substrate they all report into:

- **MetricsRegistry** — thread-safe counters / gauges / histograms
  under stable dotted names (``cache.nfa.hits``,
  ``governor.exhausted.deadline``, …).  Instruments are created once
  through the registry (never constructed directly — lintkit rule
  LK010) and updated lock-free of each other; ``snapshot()`` /
  ``report_text()`` render the process-wide totals, and
  :mod:`repro.devtools.obs.report` serializes them as a
  ``metrics-report-v1`` document.  ``reset_for_tests()`` zeroes every
  instrument without dropping registrations, so tests and batch runs
  stop leaking counts into each other.
- **Structured tracing** — :func:`span` opens one timed node of a
  :class:`QueryTrace` and is usable *only* as a context manager
  (LK010 again: a span that never closes poisons the tree).  Spans
  ride the governor's ambient :class:`~repro.engine.runtime.
  ExecutionContext` flow: the active trace is the one attached to the
  current context, and the current *parent* span travels in a
  ``contextvars`` variable.  A span opened on a thread with no current
  span — a batch pool worker, which re-activates the captured context
  but not the caller's context variables — parents to the trace root;
  that is the defined contract, not an accident.
- While a trace is active, every counter increment is mirrored into
  the trace's local tally, so a per-query view (``--trace``) and the
  process-wide registry stay consistent by construction.

Layering: this module is layer 0 — stdlib-only imports.  The governor
(layer 1) imports it; the reverse link (reading the ambient context)
is injected by :mod:`repro.engine.runtime` at import time via
:func:`install_context_provider`, so no upward import exists.

Overhead contract: with no trace active an instrument update is one
lock + integer add at coarse per-call boundaries (never inside
checkpoint hot loops), and :func:`span` is a single context read;
``benchmarks/bench_telemetry.py`` gates the whole substrate at ≤ 1.05×
disabled and ≤ 1.25× with full tracing on the E3/E6 workloads.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryTrace",
    "Span",
    "TracedAnswers",
    "count",
    "current_span",
    "current_trace",
    "install_context_provider",
    "metrics_disabled",
    "observe",
    "registry",
    "reset_for_tests",
    "set_gauge",
    "span",
    "tracing",
]

#: Stable dotted metric names: lowercase segments, at least two deep.
_NAME_PATTERN = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_-]+)+$")

#: Global instrument kill-switch — flipped only by
#: :func:`metrics_disabled`, the benchmark's baseline mode.
_enabled: bool = True

#: Traces attached by :func:`tracing` right now, process-wide.  While
#: none is, no counter or span needs the ambient-context read that
#: finds the active trace.
_attached_traces: int = 0
_ATTACH_LOCK = threading.Lock()


def _validate_name(name: str) -> None:
    if not _NAME_PATTERN.match(name):
        raise ValueError(
            f"metric name {name!r} is not a stable dotted name "
            f"(lowercase dotted segments, e.g. 'cache.nfa.hits')"
        )


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------


class Counter:
    """A monotonic event counter.

    Created only via :meth:`MetricsRegistry.counter` (LK010).  ``inc``
    is exact under threads (the 16-thread storm test pins it) and
    mirrors into the active :class:`QueryTrace`, if any.
    """

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value += amount
        if _attached_traces:
            trace = current_trace()
            if trace is not None:
                trace._count(self.name, amount)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value instrument (worker counts, active backend flags)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Count / sum / min / max of observed values (e.g. seconds)."""

    __slots__ = ("name", "_lock", "_count", "_total", "_min", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        if not _enabled:
            return
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    def reset(self) -> None:
        with self._lock:
            self._count = 0
            self._total = 0.0
            self._min = None
            self._max = None

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "type": "histogram",
                "count": self._count,
                "sum": self._total,
                "min": self._min,
                "max": self._max,
            }


Instrument = Union[Counter, Gauge, Histogram]


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------


class MetricsRegistry:
    """Name → instrument map; the single creation point for instruments.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create under the
    registry lock and reject a name already registered as a different
    kind — a dotted name means one thing forever.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Instrument] = {}

    def _get_or_create(
        self, name: str, factory: Callable[[str], Instrument]
    ) -> Instrument:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                _validate_name(name)
                existing = factory(name)
                self._metrics[name] = existing
            return existing

    def counter(self, name: str) -> Counter:
        instrument = self._get_or_create(name, Counter)
        if not isinstance(instrument, Counter):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__.lower()}, "
                f"not a counter"
            )
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._get_or_create(name, Gauge)
        if not isinstance(instrument, Gauge):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__.lower()}, "
                f"not a gauge"
            )
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._get_or_create(name, Histogram)
        if not isinstance(instrument, Histogram):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__.lower()}, "
                f"not a histogram"
            )
        return instrument

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Name → instrument snapshot, sorted — the reporters' input."""
        with self._lock:
            instruments = sorted(self._metrics.items())
        return {name: instrument.snapshot() for name, instrument in instruments}

    def reset_for_tests(self) -> None:
        """Zero every instrument, keeping registrations (and the module
        handles engine code holds) intact — the test/batch escape hatch
        that the old ``cache._analysis_hits`` globals never had."""
        with self._lock:
            instruments = tuple(self._metrics.values())
        for instrument in instruments:
            instrument.reset()

    def report_text(self) -> str:
        """The registry rendered as aligned ``name = value`` lines."""
        rows: List[Tuple[str, str]] = []
        for name, snap in self.snapshot().items():
            if snap["type"] == "counter":
                rows.append((name, str(snap["value"])))
            elif snap["type"] == "gauge":
                rows.append((name, f"{snap['value']:g}"))
            else:
                if snap["count"]:
                    rows.append((
                        name,
                        f"count={snap['count']} sum={snap['sum']:.6f} "
                        f"min={snap['min']:.6f} max={snap['max']:.6f}",
                    ))
                else:
                    rows.append((name, "count=0"))
        if not rows:
            return "(no metrics registered)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry all engine layers report into."""
    return _REGISTRY


def count(name: str, amount: int = 1) -> None:
    """Increment the named counter on the default registry."""
    _REGISTRY.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record one observation on the named default-registry histogram."""
    _REGISTRY.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set the named default-registry gauge."""
    _REGISTRY.gauge(name).set(value)


def reset_for_tests() -> None:
    """Zero every instrument on the default registry."""
    _REGISTRY.reset_for_tests()


@contextmanager
def metrics_disabled() -> Iterator[None]:
    """Neutralize every instrument update for the block — the
    benchmark's baseline mode (what evaluation would cost had the
    instrumentation not been threaded through).  Not thread-scoped;
    never use it outside single-threaded measurement code."""
    global _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = True


# ----------------------------------------------------------------------
# Structured tracing
# ----------------------------------------------------------------------


class Span:
    """One timed node of a :class:`QueryTrace` tree.

    Never constructed directly — :func:`span` (a context manager) is
    the only creation path, so every span closes and gets a duration
    (lintkit LK010).
    """

    __slots__ = ("name", "attributes", "duration", "_children")

    def __init__(
        self, name: str, attributes: Tuple[Tuple[str, Any], ...] = ()
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.duration: Optional[float] = None
        self._children: List["Span"] = []

    @property
    def children(self) -> Tuple["Span", ...]:
        return tuple(self._children)

    def render(self, indent: int = 0) -> str:
        """This subtree as indented ``name [attrs] (ms)`` lines."""
        label = self.name
        if self.attributes:
            rendered = " ".join(
                f"{key}={value}" for key, value in self.attributes
            )
            label = f"{label} [{rendered}]"
        timing = (
            f" ({self.duration * 1000.0:.3f} ms)"
            if self.duration is not None else " (open)"
        )
        lines = ["  " * indent + label + timing]
        lines.extend(
            child.render(indent + 1) for child in self.children
        )
        return "\n".join(lines)


class QueryTrace:
    """The per-query record: a span tree plus a local counter tally and
    an optional checkpoint-site profile.

    Created by :func:`tracing` and attached to one
    :class:`~repro.engine.runtime.ExecutionContext`; every counter
    increment while the trace is active mirrors into :attr:`counters`,
    which is what makes ``--trace`` output consistent with the plans
    ``--explain`` prints.
    """

    __slots__ = ("root", "_lock", "_counters", "_sites", "_started")

    def __init__(self, name: str = "query") -> None:
        self.root = Span(name)
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._sites: Tuple[Tuple[str, int, float], ...] = ()
        self._started = time.perf_counter()

    def _count(self, name: str, amount: int) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def _open(
        self,
        name: str,
        attributes: Tuple[Tuple[str, Any], ...],
        parent: Optional[Span],
    ) -> Span:
        opened = Span(name, attributes)
        anchor = parent if parent is not None else self.root
        with self._lock:
            anchor._children.append(opened)
        return opened

    def finish(self) -> None:
        """Close the root span (idempotent)."""
        if self.root.duration is None:
            self.root.duration = time.perf_counter() - self._started

    @property
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    @property
    def site_profile(self) -> Tuple[Tuple[str, int, float], ...]:
        with self._lock:
            return self._sites

    def attach_site_profile(
        self, rows: Tuple[Tuple[str, int, float], ...]
    ) -> None:
        """Record ``(site, hits, sampled_seconds)`` rows, e.g. from
        :class:`repro.devtools.obs.profile.SiteProfiler`."""
        with self._lock:
            self._sites = tuple(rows)

    def render(self) -> str:
        """The human-readable ``--trace`` block: span tree, the trace's
        counter tally, and the site profile when one was attached."""
        lines = ["trace:", self.root.render(1)]
        counters = self.counters
        if counters:
            lines.append("counters:")
            width = max(len(name) for name in counters)
            lines.extend(
                f"  {name:<{width}}  {counters[name]}"
                for name in sorted(counters)
            )
        sites = self.site_profile
        if sites:
            lines.append("checkpoint sites:")
            width = max(len(site) for site, _hits, _seconds in sites)
            lines.extend(
                f"  {site:<{width}}  hits={hits}"
                + (f"  sampled={seconds * 1000.0:.3f} ms" if seconds else "")
                for site, hits, seconds in sites
            )
        return "\n".join(lines)


class TracedAnswers(frozenset):
    """A ``frozenset`` of answers carrying the :class:`QueryTrace` that
    produced it (and, for batch entries, the entry's own span).  Cached
    answer sets are *wrapped*, never mutated, so traces cannot leak
    onto shared cache objects."""

    trace: Optional[QueryTrace]
    span: Optional[Span]

    def __new__(
        cls,
        answers: Any = (),
        trace: Optional[QueryTrace] = None,
        span: Optional[Span] = None,
    ) -> "TracedAnswers":
        self = super().__new__(cls, answers)
        self.trace = trace
        self.span = span
        return self


#: The current *parent* span.  Deliberately a plain context variable:
#: batch pool workers re-activate the captured ExecutionContext (which
#: carries the trace) but not the submitting thread's context variables,
#: so their spans find no parent here and anchor to the trace root —
#: the documented cross-thread parenting contract.
_CURRENT_SPAN: ContextVar[Optional[Span]] = ContextVar(
    "repro-telemetry-span", default=None
)

#: Injected by repro.engine.runtime at import time (layer 1 handing its
#: ambient-context reader down to layer 0) — never imported upward.
_context_provider: Optional[Callable[[], Any]] = None


def install_context_provider(provider: Callable[[], Any]) -> None:
    """Register the callable that resolves the ambient execution
    context (:func:`repro.engine.runtime.current_context`)."""
    global _context_provider
    _context_provider = provider


def current_trace() -> Optional[QueryTrace]:
    """The trace attached to the ambient execution context, if any."""
    provider = _context_provider
    if provider is None:
        return None
    trace = getattr(provider(), "trace", None)
    return trace if isinstance(trace, QueryTrace) else None


def current_span() -> Optional[Span]:
    """The span currently open on this thread of execution, if any."""
    return _CURRENT_SPAN.get()


@contextmanager
def span(name: str, **attributes: Any) -> Iterator[Optional[Span]]:
    """Open one timed span under the active trace for the block.

    No active trace → yields ``None`` at the cost of a single ambient
    read (the telemetry-off fast path).  Only ever use this as a
    context manager (``with telemetry.span("plan"): ...``) — lintkit
    LK010 rejects any other form, because an unclosed span corrupts
    the tree and the parent context variable.
    """
    trace = current_trace() if _attached_traces else None
    if trace is None:
        yield None
        return
    opened = trace._open(name, tuple(sorted(attributes.items())), _CURRENT_SPAN.get())
    token = _CURRENT_SPAN.set(opened)
    started = time.perf_counter()
    try:
        yield opened
    finally:
        opened.duration = time.perf_counter() - started
        _CURRENT_SPAN.reset(token)


@contextmanager
def tracing(ctx: Any, name: str = "query") -> Iterator[QueryTrace]:
    """Attach a fresh :class:`QueryTrace` to ``ctx`` for the block.

    The previous trace (normally ``None``) is restored on exit, the
    root span is closed, and the total is recorded on the
    ``trace.query_seconds`` histogram.  Never attach a trace to the
    shared unbounded default context — create a fresh
    :class:`~repro.engine.runtime.ExecutionContext` instead.
    """
    global _attached_traces
    previous = getattr(ctx, "trace", None)
    trace = QueryTrace(name)
    ctx.trace = trace
    with _ATTACH_LOCK:
        _attached_traces += 1
    try:
        yield trace
    finally:
        trace.finish()
        ctx.trace = previous
        with _ATTACH_LOCK:
            _attached_traces -= 1
        if trace.root.duration is not None:
            _REGISTRY.histogram("trace.query_seconds").observe(
                trace.root.duration
            )
