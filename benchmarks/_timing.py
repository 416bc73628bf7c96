"""Shared wall-clock helpers for the acceptance benchmarks.

Every gate times its candidate and baseline with one of these, so the
timing discipline (best-of rounds or medians; alternation and a paused
collector where a small ratio is gated) lives in one place.
"""

import gc
import statistics
import time


def best_of(callable_, rounds=3):
    """Min wall time of ``rounds`` calls of ``callable_``."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _interleaved_times(first, second, rounds):
    """Per-round wall times of each callable, rounds alternated so slow
    drift (frequency scaling, cache temperature) hits both equally.
    The collector is paused during timed sections: a cycle collection
    landing inside one run would otherwise dwarf the measured delta."""
    times = ([], [])
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            for slot, callable_ in enumerate((first, second)):
                start = time.perf_counter()
                callable_()
                times[slot].append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def interleaved_best_of(first, second, rounds):
    """Min wall time of each callable over alternated rounds."""
    return [min(times) for times in _interleaved_times(first, second, rounds)]


def interleaved_medians(first, second, rounds):
    """Median wall time of each callable over alternated rounds — for
    gates on a ratio of two comparable costs, where one lucky round
    should not decide."""
    return [statistics.median(times)
            for times in _interleaved_times(first, second, rounds)]
