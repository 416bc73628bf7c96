"""Shared wall-clock helper for the acceptance benchmarks.

Every gate times its candidate and baseline with
:func:`interleaved_medians`, so the timing discipline (medians over
alternated rounds, the collector paused) lives in one place.
"""

import gc
import statistics
import time


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


def interleaved_medians(first, second, rounds):
    """Median wall time of each callable over alternated rounds — for
    gates on a ratio of two comparable costs, where one lucky round
    should not decide."""
    return [statistics.median(times)
            for times in _interleaved_times(first, second, rounds)]
