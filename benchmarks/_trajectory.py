"""Shared perf-trajectory recorder for the benchmark harness.

Every acceptance benchmark appends one entry per run to a
``BENCH_<name>.json`` file at the repo root — the ``perf-trajectory-v1``
format the ROADMAP asks for (a JSON list of entries, one per run, so
re-anchors can see the performance curve rather than a single point):

.. code-block:: json

    [{"benchmark": "analyze",
      "schema": "perf-trajectory-v1",
      "run_id": "...",
      "created_unix": 1700000000.0,
      "measurements": {"subsumption_speedup_x": {"value": 3.4, ...}}}]

One :class:`TrajectoryRecorder` per benchmark module; every
``record()`` within a process refreshes that process's single entry, so
a pytest run contributes exactly one entry regardless of how many gates
record measurements.  Files are small (a few entries per anchor) and
committed only when a ROADMAP re-anchor wants to cite them.
"""

import json
import time
from pathlib import Path

SCHEMA = "perf-trajectory-v1"

_REPO_ROOT = Path(__file__).resolve().parents[1]


def _environment():
    """Backend attribution for each entry, so a trajectory that spans a
    backend switch doesn't read as a perf regression.  Never raises —
    the recorder must not fail a gate."""
    try:
        from repro.engine.backend import active_backend

        return {"backend": active_backend().name}
    except Exception:
        return {}


class TrajectoryRecorder:
    """Accumulates one run's measurements and flushes them on each record.

    ``name`` becomes both the ``"benchmark"`` field and the
    ``BENCH_<name>.json`` filename.  Recording never raises on I/O or
    malformed existing files — a broken trajectory must not fail the
    acceptance gate that feeds it.
    """

    def __init__(self, name, root=_REPO_ROOT):
        self.name = name
        self.path = Path(root) / f"BENCH_{name}.json"
        self._measurements = {}
        self._run_token = str(time.time_ns())  # one entry per process

    def record(self, measurement, value, extra=None):
        """Add one named measurement (plus context) and flush the entry."""
        self._measurements[measurement] = {"value": value, **(extra or {})}
        self._flush()

    def _flush(self):
        entries = []
        if self.path.exists():
            try:
                entries = json.loads(self.path.read_text())
            except (ValueError, OSError):
                entries = []
        if not isinstance(entries, list):
            entries = []
        if entries and isinstance(entries[-1], dict) \
                and entries[-1].get("run_id") == self._run_token:
            entries.pop()
        entries.append({
            "benchmark": self.name,
            "schema": SCHEMA,
            "run_id": self._run_token,
            "created_unix": time.time(),
            "environment": _environment(),
            "measurements": self._measurements,
        })
        try:
            self.path.write_text(json.dumps(entries, indent=2) + "\n")
        except OSError:
            pass
