"""Numeric-kernel backend seam (:func:`use_backend`).

The backend selects the product-reachability kernel and nothing else;
it constructs no container.  Both kernels carry per-component source
sets as plain Python ints (one bit per source node, combined with
big-int OR, which runs in C); the engine imports no NumPy.  The join
glue (:mod:`repro.engine.planner`, :mod:`repro.engine.qinj`,
:mod:`repro.engine.join`) has one path under both backends: it joins
graph nodes and never imports this module.  Two backends exist:

``python``
    The object-keyed product sweep and settle over ``(node, state)``
    tuples.  Engine output under this backend is the differential
    baseline the array kernel is tested against.  The incremental
    store runs the same settle over its own product ints under both
    backends.

``array`` (default)
    The dense kernel of :mod:`repro.engine.product`: interned node and
    state ids, the product settled one automaton component at a time
    over the int-tuple CSR rows of :mod:`repro.engine.adjacency`.

Selection: ``array`` unless :func:`use_backend` overrides it in-process
(the differential tests and the repo benchmark's reference runs).  The
override is a plain module global rather than a
:class:`contextvars.ContextVar` on purpose — the batch executor's
worker threads must observe the same backend as the thread that
entered the override (contextvars do not cross ``ThreadPoolExecutor``
boundaries; see :mod:`repro.engine.runtime` for the same decision on
probes).

lintkit rule LK009 enforces the seam: no module imports :mod:`numpy`,
and only the product kernel (:mod:`~repro.engine.product`) and the
metrics report may import this one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.engine import telemetry

#: Valid backend names, in documentation order.
BACKEND_NAMES = ("python", "array")


class Backend:
    """One product kernel selection: its name and whether it runs the
    dense interned-id kernel."""

    name: str
    #: True when the product kernel runs on dense interned ids.
    dense_kernels: bool


class PythonBackend(Backend):
    """The object-keyed product sweep and settle."""

    name = "python"
    dense_kernels = False


class ArrayBackend(Backend):
    """The dense kernel over the interned CSR adjacency."""

    name = "array"
    dense_kernels = True


_PYTHON_BACKEND = PythonBackend()
_ARRAY_BACKEND = ArrayBackend()

_BY_NAME = {"python": _PYTHON_BACKEND, "array": _ARRAY_BACKEND}

#: The in-process override (``None``: the array default).
_override: Optional[Backend] = None


def _named(name: str) -> Backend:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        ) from None


def active_backend() -> Backend:
    """The backend in effect: the :func:`use_backend` override if
    active, else ``array``."""
    override = _override
    return _ARRAY_BACKEND if override is None else override


@contextmanager
def use_backend(name: str) -> Iterator[Backend]:
    """Force ``name`` as the active backend within the ``with`` block.

    Module-global (thread-visible) on purpose — see the module
    docstring.  Not reentrancy-safe across concurrently *entered*
    overrides; tests that compare backends enter it from one thread.
    """
    global _override
    backend = _named(name)
    telemetry.count(f"backend.selected.{backend.name}")
    previous = _override
    _override = backend
    try:
        yield backend
    finally:
        _override = previous
