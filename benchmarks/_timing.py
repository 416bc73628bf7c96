"""Shared wall-clock helpers for the acceptance benchmarks.

Every gate times its candidate and baseline with one of these two, so
the timing discipline (best-of rounds; alternation and a paused
collector where a small overhead ratio is gated) lives in one place.
"""

import gc
import time


def best_of(callable_, rounds=3):
    """Min wall time of ``rounds`` calls of ``callable_``."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def interleaved_best_of(first, second, rounds):
    """Min wall time of each callable with rounds alternated, so slow
    drift (frequency scaling, cache temperature) hits both equally.
    The collector is paused during timed sections: a cycle collection
    landing inside one run would otherwise dwarf the measured delta."""
    bests = [float("inf"), float("inf")]
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            for slot, callable_ in enumerate((first, second)):
                start = time.perf_counter()
                callable_()
                bests[slot] = min(bests[slot], time.perf_counter() - start)
    finally:
        gc.enable()
    return bests
