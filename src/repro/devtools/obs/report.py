"""The ``metrics-report-v1`` JSON document.

Mirrors lintkit's versioned-report convention (PR 7): a stable
``schema`` tag, a flat machine-checkable layout, and a validator CI can
run against the artifact it uploads.  A report is one snapshot of a
:class:`~repro.engine.telemetry.MetricsRegistry` plus the environment
context that makes perf numbers attributable — which backend was
active and the interpreter version.

Document shape::

    {
      "schema": "metrics-report-v1",
      "created_unix": 1754650000.0,
      "context": {"backend": "array", "python_version": "3.11.9"},
      "metrics": {
        "cache.nfa.hits": {"type": "counter", "value": 12},
        "batch.workers":  {"type": "gauge", "value": 4.0},
        "trace.query_seconds": {"type": "histogram", "count": 3,
                                 "sum": 0.021, "min": 0.004,
                                 "max": 0.011}
      }
    }
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.engine import telemetry
from repro.engine.backend import active_backend

#: The schema tag every report carries (validators reject anything else).
METRICS_SCHEMA = "metrics-report-v1"

#: Required snapshot keys per instrument type.
_SNAPSHOT_KEYS = {
    "counter": ("value",),
    "gauge": ("value",),
    "histogram": ("count", "sum", "min", "max"),
}


def environment_context() -> Dict[str, Any]:
    """The attribution context: active backend and the interpreter
    version."""
    return {
        "backend": active_backend().name,
        "python_version": platform.python_version(),
    }


def build_report(
    registry: Optional[telemetry.MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Snapshot ``registry`` (default: the process-wide one) as a
    ``metrics-report-v1`` document."""
    source = registry if registry is not None else telemetry.registry()
    return {
        "schema": METRICS_SCHEMA,
        "created_unix": time.time(),
        "context": environment_context(),
        "metrics": source.snapshot(),
    }


def validate_report(document: Any) -> List[str]:
    """Every way ``document`` fails to be a ``metrics-report-v1``
    (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, not an object"]
    schema = document.get("schema")
    if schema != METRICS_SCHEMA:
        problems.append(f"schema is {schema!r}, expected {METRICS_SCHEMA!r}")
    if not isinstance(document.get("created_unix"), (int, float)):
        problems.append("created_unix missing or not a number")
    context = document.get("context")
    if not isinstance(context, dict):
        problems.append("context missing or not an object")
    else:
        if not isinstance(context.get("backend"), str):
            problems.append("context.backend missing or not a string")
        if not isinstance(context.get("python_version"), str):
            problems.append(
                "context.python_version missing or not a string"
            )
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics missing or not an object")
        return problems
    for name, snapshot in metrics.items():
        if not isinstance(snapshot, dict):
            problems.append(f"metrics[{name!r}] is not an object")
            continue
        kind = snapshot.get("type")
        keys = _SNAPSHOT_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None:
            problems.append(
                f"metrics[{name!r}].type is {kind!r}, expected one of "
                f"{sorted(_SNAPSHOT_KEYS)}"
            )
            continue
        for key in keys:
            if key not in snapshot:
                problems.append(f"metrics[{name!r}] lacks {key!r}")
    return problems


def render_report(document: Dict[str, Any]) -> str:
    """A ``metrics-report-v1`` as the human-readable ``stats`` output."""
    context = document.get("context", {})
    lines = [
        f"metrics report ({document.get('schema', '?')})",
        f"backend: {context.get('backend', '?')}  "
        f"python: {context.get('python_version', '?')}",
    ]
    metrics: Dict[str, Dict[str, Any]] = document.get("metrics", {})
    if not metrics:
        lines.append("(no metrics recorded)")
        return "\n".join(lines)
    width = max(len(name) for name in metrics)
    for name in sorted(metrics):
        snapshot = metrics[name]
        kind = snapshot.get("type")
        if kind == "counter":
            value = str(snapshot.get("value"))
        elif kind == "gauge":
            value = f"{snapshot.get('value'):g}"
        else:
            count = snapshot.get("count", 0)
            if count:
                value = (
                    f"count={count} sum={snapshot.get('sum'):.6f} "
                    f"min={snapshot.get('min'):.6f} "
                    f"max={snapshot.get('max'):.6f}"
                )
            else:
                value = "count=0"
        lines.append(f"{name:<{width}}  {value}")
    return "\n".join(lines)


def write_report(
    path: Union[str, Path],
    registry: Optional[telemetry.MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Build a report and write it to ``path`` as JSON; returns it."""
    document = build_report(registry)
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))
    return document


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a report file; raises ``ValueError`` listing
    every problem when it is not a ``metrics-report-v1``."""
    document = json.loads(Path(path).read_text())
    problems = validate_report(document)
    if problems:
        raise ValueError(
            f"{path} is not a {METRICS_SCHEMA} document: "
            + "; ".join(problems)
        )
    return document
