"""Checkpoint-site profiling on the governor's stacked probe hook.

Every engine hot loop already calls
``ctx.checkpoint(SITE_...)`` (lintkit LK008 enforces it); installing a
:class:`SiteProfiler` as a probe therefore sees every loop iteration of
an evaluation without touching any engine code.  The profiler keeps an
exact per-site hit count and a *sampled* wall-time attribution: every
``sample_every``-th checkpoint of a thread reads the clock once and
charges the whole interval since that thread's previous sample to the
site that closed it — standard sampling-profiler semantics, so the
per-site seconds are an estimate whose resolution improves as loops get
hotter, while the common case stays one dict update with no clock read.

Cost note: while *any* probe is installed the governor checks budgets
at every checkpoint instead of every
:data:`~repro.engine.runtime.CHECK_INTERVAL` ticks (the fault-injection
determinism contract), so profiling is strictly an opt-in diagnosis
mode — the ``--trace`` path — never ambient overhead.  With no probe
installed this module costs nothing at all.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.engine import telemetry
from repro.engine.runtime import ExecutionContext

#: Default checkpoint-sampling stride (one clock read per 64 hits).
DEFAULT_SAMPLE_EVERY = 64


class _Tally:
    """One thread's hit counts and sampled seconds."""

    __slots__ = ("hits", "sampled", "ticks", "last_sample")

    def __init__(self) -> None:
        self.hits: Dict[str, int] = {}
        self.sampled: Dict[str, float] = {}
        self.ticks = 0
        self.last_sample: Optional[float] = None


class SiteProfiler:
    """A :data:`~repro.engine.runtime.Probe` that profiles checkpoint
    sites: exact hit counts, sampled wall-time.  Thread-safe — the
    batch executor fires checkpoints from pool threads — without a lock:
    each thread counts into its own tally, published by one atomic
    ``list.append``, and :meth:`rows` sums them."""

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        self.sample_every = max(1, int(sample_every))
        self._local = threading.local()
        self._tallies: List[_Tally] = []

    def __call__(self, site: str) -> None:
        try:
            tally: _Tally = self._local.tally
        except AttributeError:
            tally = self._local.tally = _Tally()
            self._tallies.append(tally)
        hits = tally.hits
        hits[site] = hits.get(site, 0) + 1
        tally.ticks += 1
        if tally.ticks % self.sample_every:
            return
        now = time.perf_counter()
        last = tally.last_sample
        if last is not None:
            tally.sampled[site] = tally.sampled.get(site, 0.0) + (now - last)
        tally.last_sample = now

    def rows(self) -> Tuple[Tuple[str, int, float], ...]:
        """``(site, hits, sampled_seconds)`` rows, hottest first (ties
        broken by site name for deterministic rendering)."""
        hits: Dict[str, int] = {}
        sampled: Dict[str, float] = {}
        for tally in list(self._tallies):
            for site, count in dict(tally.hits).items():
                hits[site] = hits.get(site, 0) + count
            for site, seconds in dict(tally.sampled).items():
                sampled[site] = sampled.get(site, 0.0) + seconds
        return tuple(
            (site, hits[site], sampled.get(site, 0.0))
            for site in sorted(hits, key=lambda s: (-hits[s], s))
        )


@contextmanager
def profiling(
    ctx: ExecutionContext, sample_every: int = DEFAULT_SAMPLE_EVERY
) -> Iterator[SiteProfiler]:
    """Install a fresh :class:`SiteProfiler` on ``ctx`` for the block.

    The probe stacks with any already installed (fault injection keeps
    working); on exit only this profiler is popped, and its rows are
    attached to the context's active
    :class:`~repro.engine.telemetry.QueryTrace`, if one is riding.
    """
    profiler = SiteProfiler(sample_every)
    # The bound method: calling it skips the per-hit ``__call__`` slot
    # lookup an instance call pays.
    handle = ctx.install_probe(profiler.__call__)
    try:
        yield profiler
    finally:
        ctx.remove_probe(handle)
        trace = getattr(ctx, "trace", None)
        if isinstance(trace, telemetry.QueryTrace):
            trace.attach_site_profile(profiler.rows())
