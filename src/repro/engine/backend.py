"""Numeric-kernel backend seam (``REPRO_BACKEND``).

The backend selects the product-reachability kernel and nothing else.
The compact numeric core (interned CSR adjacency in
:mod:`repro.engine.adjacency` and the dense product kernel in
:mod:`repro.engine.product`) never touches a numeric container type
directly — every index array and every source-set bitset is constructed
and combined through the backend selected here.  The join glue
(:mod:`repro.engine.planner`, :mod:`repro.engine.qinj`,
:mod:`repro.engine.join`) has one path under both backends: it joins
graph nodes and never imports this module.  Two backends exist:

``python``
    The seed-era reference semantics: the object-keyed product search,
    with per-component source sets as unbounded Python integers
    combined with big-int OR.  Engine output under this backend is the
    differential baseline the array kernel is tested against.

``array`` (default)
    Fixed-width bitsets — NumPy ``uint64`` arrays with vectorized OR
    when NumPy is importable, a stdlib ``bytearray`` fallback otherwise
    (CI installs no NumPy; the fallback is complete, not a stub).
    Masks are allocated lazily per component: a graph with many
    components would otherwise pay ``components × n`` bits up front,
    which is exactly the quadratic blow-up the seed big-int path
    suffers from.

Selection: the ``REPRO_BACKEND`` environment variable at first use,
overridable in-process with :func:`use_backend`.  The override is a
plain module global rather than a :class:`contextvars.ContextVar` on
purpose — the batch executor's worker threads must observe the same
backend as the thread that entered the override (contextvars do not
cross ``ThreadPoolExecutor`` boundaries; see
:mod:`repro.engine.runtime` for the same decision on probes).

lintkit rule LK009 enforces the seam: modules outside this file must
not import :mod:`array` / :mod:`numpy` directly, and only the kernel
modules (:mod:`~repro.engine.adjacency`, :mod:`~repro.engine.product`)
and the metrics report may import this one.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from repro.engine import telemetry

try:  # pragma: no cover - exercised indirectly via both branches in CI
    import numpy as _numpy
except Exception:  # pragma: no cover - the no-NumPy CI environment
    _numpy = None  # type: ignore[assignment]

#: Environment variable consulted on first :func:`active_backend` call.
BACKEND_ENV = "REPRO_BACKEND"

#: Valid backend names, in documentation order.
BACKEND_NAMES = ("python", "array")


def numpy_available() -> bool:
    """True when NumPy imported, so the array backend's wide masks run
    vectorized (telemetry reports record this so perf trajectories stay
    attributable to the actual kernel in play)."""
    return _numpy is not None

def index_array(values: Any = ()) -> "array[int]":
    """A signed 64-bit index array (the CSR offsets/targets type)."""
    return array("q", values)


def zeros_index_array(length: int) -> "array[int]":
    """A zero-filled signed 64-bit index array of ``length`` entries."""
    return array("q", bytes(8 * length))


def byte_flags(length: int) -> bytearray:
    """A zero-filled byte-per-entry flag vector (dense visited/on-stack)."""
    return bytearray(length)


class Backend:
    """Mask-kernel interface both backends implement.

    A *mask store* is an opaque per-component collection created by
    :meth:`make_masks`; callers only ever manipulate it through the
    methods below, so the two backends are free to represent a
    component's source set as a big int, a ``bytearray``, or a NumPy
    vector.
    """

    name: str
    #: True when the product kernel runs on dense interned ids.
    dense_kernels: bool

    def make_masks(self, count: int, width: int) -> List[Any]:
        """A store of ``count`` empty masks over ``width`` bit positions."""
        raise NotImplementedError

    def mask_set_bit(self, masks: List[Any], index: int, bit: int) -> None:
        """Set ``bit`` on mask ``index``."""
        raise NotImplementedError

    def mask_or_into(self, masks: List[Any], target: int, source: int) -> None:
        """OR mask ``source`` into mask ``target`` (no-op if source empty)."""
        raise NotImplementedError

    def mask_any(self, masks: List[Any], index: int) -> bool:
        """True when mask ``index`` has at least one bit set."""
        raise NotImplementedError

    def mask_bits(self, masks: List[Any], index: int) -> Iterator[int]:
        """Yield the set bit positions of mask ``index`` (ascending)."""
        raise NotImplementedError


class PythonBackend(Backend):
    """Seed-era reference: unbounded Python ints, big-int OR."""

    name = "python"
    dense_kernels = False

    def make_masks(self, count: int, width: int) -> List[Any]:
        return [0] * count

    def mask_set_bit(self, masks: List[Any], index: int, bit: int) -> None:
        masks[index] |= 1 << bit

    def mask_or_into(self, masks: List[Any], target: int, source: int) -> None:
        masks[target] |= masks[source]

    def mask_any(self, masks: List[Any], index: int) -> bool:
        return bool(masks[index])

    def mask_bits(self, masks: List[Any], index: int) -> Iterator[int]:
        mask: int = masks[index]
        while mask:
            low_bit = mask & -mask
            yield low_bit.bit_length() - 1
            mask ^= low_bit


#: Mask widths at or above this run on the vector representation
#: (NumPy ``uint64`` rows / ``bytearray`` rows); narrower masks stay
#: fixed-width Python ints.  Below the threshold a per-mask vector
#: object (allocation + per-word access) costs more than a single C
#: big-int OR over a few thousand machine words; above it, in-place
#: vectorized OR wins and the int path's copy-per-OR would not.
VECTOR_MIN_BITS = 1 << 17

#: Set-bit offsets per byte value — turns mask decoding into a table
#: walk over the nonzero bytes instead of a bit-scan over every bit.
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1)
    for value in range(256)
)


def _int_bits(as_int: int) -> Iterator[int]:
    """Set bit positions of a nonnegative int, ascending (byte-table)."""
    data = as_int.to_bytes((as_int.bit_length() + 7) >> 3, "little")
    for position, value in enumerate(data):
        if value:
            base = position << 3
            for bit in _BYTE_BITS[value]:
                yield base + bit


class ArrayBackend(Backend):
    """Fixed-width lazy bitsets, dual-regime by mask width.

    Narrow masks (``width < VECTOR_MIN_BITS``) are fixed-width Python
    ints: CPython's big-int OR already runs in C and, unlike the seed
    path, the width (and therefore the cost per OR) is pinned by the
    node count rather than growing with bit positions.  Wide masks are
    NumPy ``uint64`` rows with in-place vectorized OR when NumPy is
    importable, ``bytearray`` rows otherwise.  Either way a mask slot
    stays ``None`` until its first bit arrives, so stores over many
    components cost nothing for the components no source ever reaches.
    """

    name = "array"
    dense_kernels = True
    vectorized = _numpy is not None

    def make_masks(self, count: int, width: int) -> List[Any]:
        store: List[Any] = [None] * (count + 1)
        store[count] = width  # stashed width for lazy allocation
        return store

    def _fresh(self, width: int) -> Any:
        if _numpy is not None:
            return _numpy.zeros((width + 63) >> 6, dtype=_numpy.uint64)
        return bytearray((width + 7) >> 3)

    def mask_set_bit(self, masks: List[Any], index: int, bit: int) -> None:
        if masks[-1] < VECTOR_MIN_BITS:
            mask = masks[index]
            masks[index] = (1 << bit) if mask is None else mask | (1 << bit)
            return
        mask = masks[index]
        if mask is None:
            mask = masks[index] = self._fresh(masks[-1])
        if _numpy is not None:
            mask[bit >> 6] |= _numpy.uint64(1 << (bit & 63))
        else:
            mask[bit >> 3] |= 1 << (bit & 7)

    def mask_or_into(self, masks: List[Any], target: int, source: int) -> None:
        source_mask = masks[source]
        if source_mask is None:
            return
        if masks[-1] < VECTOR_MIN_BITS:
            target_mask = masks[target]
            masks[target] = (
                source_mask if target_mask is None
                else target_mask | source_mask
            )
            return
        target_mask = masks[target]
        if target_mask is None:
            if _numpy is not None:
                masks[target] = source_mask.copy()
            else:
                masks[target] = bytearray(source_mask)
            return
        if _numpy is not None:
            _numpy.bitwise_or(target_mask, source_mask, out=target_mask)
        else:
            # Big-int round-trip: both conversions and the OR run in C;
            # the fixed width keeps it linear in mask size, unlike the
            # position-dependent widths of the seed big-int path.
            target_mask[:] = (
                int.from_bytes(target_mask, "little")
                | int.from_bytes(source_mask, "little")
            ).to_bytes(len(target_mask), "little")

    def mask_any(self, masks: List[Any], index: int) -> bool:
        mask = masks[index]
        if mask is None:
            return False
        if masks[-1] < VECTOR_MIN_BITS:
            return bool(mask)
        if _numpy is not None:
            return bool(mask.any())
        return any(mask)

    def mask_bits(self, masks: List[Any], index: int) -> Iterator[int]:
        mask = masks[index]
        if mask is None:
            return
        if masks[-1] < VECTOR_MIN_BITS:
            as_int = mask
        elif _numpy is not None:
            as_int = int.from_bytes(mask.tobytes(), "little")
        else:
            as_int = int.from_bytes(mask, "little")
        yield from _int_bits(as_int)


_PYTHON_BACKEND = PythonBackend()
_ARRAY_BACKEND = ArrayBackend()

_BY_NAME = {"python": _PYTHON_BACKEND, "array": _ARRAY_BACKEND}

#: Resolved-from-environment default (first use) and in-process override.
_default: Optional[Backend] = None
_override: Optional[Backend] = None


def _named(name: str) -> Backend:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        ) from None


def active_backend() -> Backend:
    """The backend in effect: :func:`use_backend` override if active,
    else the ``REPRO_BACKEND`` environment selection (default
    ``array``)."""
    override = _override
    if override is not None:
        return override
    global _default
    backend = _default
    if backend is None:
        backend = _default = _named(os.environ.get(BACKEND_ENV, "array"))
        telemetry.count(f"backend.selected.{backend.name}")
    return backend


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
