"""lintkit framework + rule tests.

Three layers:

- **fixture tests** — for every rule, a minimal synthetic tree where the
  rule must fire (positive) and a corrected twin where it must not
  (negative), proving each check actually guards its invariant;
- **mechanism tests** — suppression comments, baseline round-trip,
  parse-error reporting, reporters, CLI exit codes;
- **self-lint** — ``src/repro`` must come back clean in process (this
  is the same gate CI runs); the module CLI runs on a small fixture
  tree.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lintkit import core
from repro.devtools.lintkit.cli import main as lintkit_main
from repro.devtools.lintkit.report import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, relpath, source, rule=None, baseline=None):
    """Write ``source`` at ``tmp_path/relpath`` and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    rules = None
    if rule is not None:
        found = core.rule_by_name(rule)
        assert found is not None, f"no such rule {rule}"
        rules = (found,)
    return core.run_paths(
        [path], rules=rules, baseline=baseline or [], root=tmp_path
    )


def rule_ids(result):
    return [finding.rule_id for finding in result.findings]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_has_all_ten_rules():
    rules = core.registered_rules()
    assert [rule.rule_id for rule in rules] == [
        f"LK{index:03d}" for index in range(1, 11)
    ]
    names = {rule.rule_name for rule in rules}
    assert len(names) == 10


def test_rule_lookup_by_id_and_name():
    by_id = core.rule_by_name("LK003")
    by_name = core.rule_by_name("version-read-once")
    assert by_id is by_name is not None
    assert core.rule_by_name("no-such-rule") is None


def test_every_rule_docstring_names_its_origin():
    for rule in core.registered_rules():
        assert rule.__doc__ and "Origin" in rule.__doc__, (
            f"{rule.rule_id} must document its originating PR/bug class"
        )


# ----------------------------------------------------------------------
# LK001 snapshot-discipline
# ----------------------------------------------------------------------

LK001_BAD = """
    class Store:
        def __init__(self):
            self._nodes = set()

        def nodes(self):
            return self._nodes
"""

LK001_GOOD = """
    class Store:
        def __init__(self):
            self._nodes = set()

        def nodes(self):
            return frozenset(self._nodes)

        def _raw_nodes(self):
            return self._nodes
"""


def test_lk001_fires_on_live_container_return(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/graphdb/store.py", LK001_BAD,
        rule="snapshot-discipline",
    )
    assert rule_ids(result) == ["LK001"]


def test_lk001_quiet_on_snapshot_and_private(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/graphdb/store.py", LK001_GOOD,
        rule="snapshot-discipline",
    )
    assert result.findings == []


def test_lk001_scoped_to_graphdb_and_engine(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/io/store.py", LK001_BAD,
        rule="snapshot-discipline",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LK002 cache-key-discipline
# ----------------------------------------------------------------------

LK002_ATTACH = """
    def attach(graph):
        graph._helper_cache = {}
"""

LK002_SUBSCRIPT = """
    _CACHE = {}

    def remember(graph, value):
        _CACHE[graph] = value
"""

LK002_GOOD = """
    def lookup(graph, key, compute):
        from repro.engine.cache import graph_cached
        return graph_cached(graph, key, compute)
"""


def test_lk002_fires_on_graph_attribute_attachment(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/helper.py", LK002_ATTACH,
        rule="cache-key-discipline",
    )
    assert rule_ids(result) == ["LK002"]


def test_lk002_fires_on_graph_keyed_store(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/helper.py", LK002_SUBSCRIPT,
        rule="cache-key-discipline",
    )
    assert rule_ids(result) == ["LK002"]


def test_lk002_quiet_when_routed_through_cache_module(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/helper.py", LK002_GOOD,
        rule="cache-key-discipline",
    )
    assert result.findings == []


LK002_STORE_READS = """
    def atom_relation(graph, nfa, kind):
        return getattr(graph, "_incremental_store", None)

    def query_result(graph):
        return graph._incremental_store

    def incremental_store(graph):
        return getattr(graph, "_incremental_store", None)
"""


@pytest.mark.parametrize("relpath, flagged", [
    ("repro/engine/batch.py", 3),
    ("repro/engine/relations.py", 2),
    ("repro/engine/cache.py", 2),
    ("repro/engine/incremental.py", 0),
])
def test_lk002_limits_incremental_store_reads(tmp_path, relpath, flagged):
    result = lint_snippet(
        tmp_path, relpath, LK002_STORE_READS, rule="cache-key-discipline",
    )
    assert rule_ids(result) == ["LK002"] * flagged
    assert all("_incremental_store" in finding.message
               for finding in result.findings)


# ----------------------------------------------------------------------
# LK003 version-read-once
# ----------------------------------------------------------------------

LK003_BAD = """
    def tag(graph, store):
        if store.version != graph.version:
            store.rebuild()
            store.version = graph.version
"""

LK003_GOOD = """
    def tag(graph, store):
        version = graph.version
        if store.version != version:
            store.rebuild()
            store.version = version
"""


def test_lk003_fires_on_double_version_read(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/helper.py", LK003_BAD,
        rule="version-read-once",
    )
    assert rule_ids(result) == ["LK003"]


def test_lk003_quiet_on_single_read(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/helper.py", LK003_GOOD,
        rule="version-read-once",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LK004 engine-decider-free
# ----------------------------------------------------------------------

LK004_LAZY = """
    def subsumed(left, right, semantics):
        from repro.containment.api import contains
        return contains(left, right, semantics)
"""

LK004_AUTOMATA = """
    from repro.regular.dfa import nfa_language_subset

    def subsumed(left, right):
        return nfa_language_subset(left, right)
"""


def test_lk004_fires_on_lazy_containment_import(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/custom.py", LK004_LAZY,
        rule="engine-decider-free",
    )
    assert rule_ids(result) == ["LK004"]
    assert "repro.containment.api" in result.findings[0].message


@pytest.mark.parametrize("source", [
    "import repro.containment.api\n",
    "from repro import optimize\n",
    "from repro.optimize import equivalent\n",
    "from ..containment import bounded\n",
    "from typing import TYPE_CHECKING\n"
    "if TYPE_CHECKING:\n"
    "    from repro.containment.result import Verdict\n",
], ids=["import", "from-package", "from-module", "relative",
        "type-checking"])
def test_lk004_fires_on_every_import_form(tmp_path, source):
    result = lint_snippet(
        tmp_path, "repro/engine/custom.py", source,
        rule="engine-decider-free",
    )
    assert rule_ids(result) == ["LK004"]


def test_lk004_quiet_on_automata_imports(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/custom.py", LK004_AUTOMATA,
        rule="engine-decider-free",
    )
    assert result.findings == []


def test_lk004_scoped_to_engine(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/analysis/custom.py", LK004_LAZY,
        rule="engine-decider-free",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LK005 semantics-exhaustiveness
# ----------------------------------------------------------------------

LK005_CHAIN_BAD = """
    from repro.semantics.base import Semantics

    def dispatch(semantics):
        if semantics is Semantics.STANDARD:
            return 1
        elif semantics is Semantics.ATOM_INJECTIVE:
            return 2
"""

LK005_CHAIN_GOOD = """
    from repro.semantics.base import Semantics

    def dispatch(semantics):
        if semantics is Semantics.STANDARD:
            return 1
        elif semantics is Semantics.ATOM_INJECTIVE:
            return 2
        else:
            raise ValueError(semantics)
"""

LK005_RUN_BAD = """
    from repro.semantics.base import Semantics

    def dispatch(semantics):
        if semantics is Semantics.STANDARD:
            return 1
        if semantics is Semantics.QUERY_INJECTIVE:
            return 3
"""

LK005_RUN_GOOD = """
    from repro.semantics.base import Semantics

    def dispatch(semantics):
        if semantics is Semantics.STANDARD:
            return 1
        if semantics is Semantics.QUERY_INJECTIVE:
            return 3
        raise ValueError(semantics)
"""


def test_lk005_fires_on_two_branch_elif_chain(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/dispatch.py", LK005_CHAIN_BAD,
        rule="semantics-exhaustiveness",
    )
    assert rule_ids(result) == ["LK005"]
    assert "QUERY_INJECTIVE" in result.findings[0].message


def test_lk005_quiet_with_else_fallback(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/dispatch.py", LK005_CHAIN_GOOD,
        rule="semantics-exhaustiveness",
    )
    assert result.findings == []


def test_lk005_fires_on_terminal_if_run(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/dispatch.py", LK005_RUN_BAD,
        rule="semantics-exhaustiveness",
    )
    assert rule_ids(result) == ["LK005"]


def test_lk005_quiet_when_fallback_code_follows(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/dispatch.py", LK005_RUN_GOOD,
        rule="semantics-exhaustiveness",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LK006 import-layering
# ----------------------------------------------------------------------

LK006_BAD = """
    from repro.containment.api import decide

    def helper():
        return decide
"""

LK006_GOOD = """
    def helper():
        from repro.containment.api import decide
        return decide
"""


def test_lk006_fires_on_upward_module_scope_import(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/regular/helper.py", LK006_BAD,
        rule="import-layering",
    )
    assert rule_ids(result) == ["LK006"]


def test_lk006_allows_lazy_function_level_import(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/regular/helper.py", LK006_GOOD,
        rule="import-layering",
    )
    assert result.findings == []


def test_lk006_allows_downward_import(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/containment/helper.py",
        "from repro.regular.nfa import NFA\n",
        rule="import-layering",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LK007 lock-discipline
# ----------------------------------------------------------------------

LK007_BAD = """
    import threading

    class Cache:
        def __init__(self):
            self._lock = threading.Lock()
            self._data = {}

        def put(self, key, value):
            self._data[key] = value
"""

LK007_GOOD = """
    import threading

    class Cache:
        def __init__(self):
            self._lock = threading.Lock()
            self._data = {}

        def put(self, key, value):
            with self._lock:
                self._data[key] = value
"""


def test_lk007_fires_on_unlocked_mutation(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/cache.py", LK007_BAD,
        rule="lock-discipline",
    )
    assert rule_ids(result) == ["LK007"]


def test_lk007_quiet_under_owning_lock(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/cache.py", LK007_GOOD,
        rule="lock-discipline",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LK008 checkpoint-discipline
# ----------------------------------------------------------------------

# A checkpointed fused join: join.py registers it beside natural_join,
# so every join.py fixture below carries one.
LK008_JOIN_PROJECT = """
    def join_project(left, right, keep, ctx=None):
        ctx.checkpoint("join.natural-join")
        return left, 0
"""

LK008_NO_CTX = """
    def natural_join(left, right):
        checkpoint("join.natural-join")
        return left
""" + LK008_JOIN_PROJECT

LK008_NO_CHECKPOINT = """
    def natural_join(left, right, ctx=None):
        return left
""" + LK008_JOIN_PROJECT

LK008_GOOD = """
    from repro.engine.runtime import checkpoint_site, resolve_context

    SITE = checkpoint_site("join.natural-join", "fixture")


    def natural_join(left, right, ctx=None):
        ctx = resolve_context(ctx)
        ctx.checkpoint(SITE)
        return left
""" + LK008_JOIN_PROJECT

LK008_NESTED_GOOD = """
    def natural_join(left, right, ctx=None):
        def inner():
            ctx.checkpoint("join.natural-join")
        inner()
        return left
""" + LK008_JOIN_PROJECT

# A copy of the fused join that lost its checkpoint call.
LK008_JOIN_PROJECT_NO_CHECKPOINT = """
    def natural_join(left, right, ctx=None):
        ctx.checkpoint("join.natural-join")
        return left


    def join_project(left, right, keep, ctx=None):
        return left, 0
"""


def test_lk008_fires_when_context_parameter_missing(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/join.py", LK008_NO_CTX,
        rule="checkpoint-discipline",
    )
    assert rule_ids(result) == ["LK008"]
    assert "ctx" in result.findings[0].message


def test_lk008_fires_when_checkpoint_call_missing(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/join.py", LK008_NO_CHECKPOINT,
        rule="checkpoint-discipline",
    )
    assert rule_ids(result) == ["LK008"]
    assert "checkpoint" in result.findings[0].message


def test_lk008_fires_when_fused_join_loses_its_checkpoint(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/join.py", LK008_JOIN_PROJECT_NO_CHECKPOINT,
        rule="checkpoint-discipline",
    )
    assert rule_ids(result) == ["LK008"]
    assert "join_project()" in result.findings[0].message
    assert "checkpoint" in result.findings[0].message


def test_lk008_fires_when_registered_function_disappears(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/join.py", "def other():\n    pass\n",
        rule="checkpoint-discipline",
    )
    assert rule_ids(result) == ["LK008"]
    assert "CHECKPOINTED_FUNCTIONS" in result.findings[0].message


def test_lk008_quiet_on_checkpointed_function(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/join.py", LK008_GOOD,
        rule="checkpoint-discipline",
    )
    assert result.findings == []


def test_lk008_accepts_checkpoint_in_nested_helper(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/join.py", LK008_NESTED_GOOD,
        rule="checkpoint-discipline",
    )
    assert result.findings == []


def test_lk008_scoped_to_registered_modules(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/other.py", LK008_NO_CHECKPOINT,
        rule="checkpoint-discipline",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LK009 backend-seam
# ----------------------------------------------------------------------


LK009_MODULE_IMPORT = """
    import numpy

    def build():
        return numpy.zeros(4)
"""

LK009_LAZY_IMPORT = """
    def build():
        import numpy

        return numpy.zeros(4)
"""

LK009_TYPE_CHECKING_OK = """
    from typing import TYPE_CHECKING

    if TYPE_CHECKING:
        from numpy import ndarray


    def size(values: "ndarray") -> int:
        return len(values)
"""

LK009_SEAM_USER_OK = """
    from repro.engine.backend import active_backend

    def dense():
        return active_backend().dense_kernels
"""


def test_lk009_fires_on_module_scope_numeric_import(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/adjacency.py", LK009_MODULE_IMPORT,
        rule="backend-seam",
    )
    assert rule_ids(result) == ["LK009"]
    assert "NumPy" in result.findings[0].message


def test_lk009_fires_on_function_level_numeric_import(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/product.py", LK009_LAZY_IMPORT,
        rule="backend-seam",
    )
    assert rule_ids(result) == ["LK009"]
    assert "numpy" in result.findings[0].message


def test_lk009_exempts_type_checking_imports(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/adjacency.py", LK009_TYPE_CHECKING_OK,
        rule="backend-seam",
    )
    assert result.findings == []


def test_lk009_exempts_the_seam_module_itself(tmp_path):
    # From the backend-import clause only: its NumPy ban still holds.
    result = lint_snippet(
        tmp_path, "repro/engine/backend.py", LK009_SEAM_USER_OK,
        rule="backend-seam",
    )
    assert result.findings == []


LK009_GUARDED_NUMPY_IMPORT = """
    try:
        import numpy as _numpy
    except Exception:
        _numpy = None
"""

LK009_FROM_NUMPY_IMPORT = """
    from numpy import zeros

    def build():
        return zeros(4)
"""


@pytest.mark.parametrize("relpath", [
    "repro/engine/backend.py",
    "repro/engine/product.py",
    "repro/devtools/obs/report.py",
    "repro/semantics/evaluation.py",
])
@pytest.mark.parametrize("source", [
    LK009_GUARDED_NUMPY_IMPORT, LK009_FROM_NUMPY_IMPORT, LK009_LAZY_IMPORT,
], ids=["guarded", "from", "lazy"])
def test_lk009_fires_on_numpy_imports_everywhere(tmp_path, relpath, source):
    # The seam itself included: masks are Python ints, never NumPy rows.
    result = lint_snippet(tmp_path, relpath, source, rule="backend-seam")
    assert rule_ids(result) == ["LK009"]
    assert "NumPy" in result.findings[0].message


def test_lk009_quiet_on_seam_consumers(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/product.py", LK009_SEAM_USER_OK,
        rule="backend-seam",
    )
    assert result.findings == []


LK009_BACKEND_MODULE_IMPORT = """
    from repro.engine import backend

    def dense():
        return backend.active_backend().dense_kernels
"""

LK009_BACKEND_LAZY_IMPORT = """
    def dense():
        from repro.engine.backend import active_backend

        return active_backend().dense_kernels
"""

LK009_BACKEND_RELATIVE_IMPORT = """
    from .backend import active_backend
"""

LK009_BACKEND_TYPE_CHECKING_OK = """
    from typing import TYPE_CHECKING

    if TYPE_CHECKING:
        from repro.engine.backend import Backend


    def name(backend: "Backend") -> str:
        return backend.name
"""


@pytest.mark.parametrize("relpath, source", [
    # The adjacency index builds plain int tuples: it needs no seam.
    ("repro/engine/adjacency.py", LK009_SEAM_USER_OK),
    ("repro/engine/planner.py", LK009_SEAM_USER_OK),
    ("repro/engine/qinj.py", LK009_BACKEND_MODULE_IMPORT),
    ("repro/engine/join.py", LK009_BACKEND_LAZY_IMPORT),
    ("repro/engine/relations.py", LK009_BACKEND_RELATIVE_IMPORT),
    ("repro/semantics/evaluation.py", LK009_BACKEND_MODULE_IMPORT),
])
def test_lk009_fires_on_backend_imports_outside_the_kernel(tmp_path, relpath,
                                                           source):
    result = lint_snippet(tmp_path, relpath, source, rule="backend-seam")
    assert rule_ids(result) == ["LK009"]
    assert "repro.engine.backend" in result.findings[0].message


@pytest.mark.parametrize("relpath", [
    "repro/engine/product.py",
    "repro/devtools/obs/report.py",
])
def test_lk009_allows_backend_imports_in_the_kernel_modules(tmp_path,
                                                            relpath):
    for source in (LK009_SEAM_USER_OK, LK009_BACKEND_MODULE_IMPORT,
                   LK009_BACKEND_LAZY_IMPORT):
        result = lint_snippet(tmp_path, relpath, source,
                              rule="backend-seam")
        assert result.findings == []


def test_lk009_exempts_type_checking_backend_imports(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/planner.py", LK009_BACKEND_TYPE_CHECKING_OK,
        rule="backend-seam",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# LK010 telemetry-discipline
# ----------------------------------------------------------------------


LK010_DIRECT_COUNTER = """
    from repro.engine.telemetry import Counter

    HITS = Counter("cache.nfa.hits")
"""

LK010_MODULE_ALIAS_CONSTRUCTION = """
    from repro.engine import telemetry

    def fresh_registry():
        return telemetry.MetricsRegistry()
"""

LK010_BARE_SPAN_CALL = """
    from repro.engine import telemetry

    def run():
        telemetry.span("execute", kind="join")
        return 1
"""

LK010_REGISTRY_OK = """
    from repro.engine import telemetry

    HITS = telemetry.registry().counter("cache.nfa.hits")

    def run():
        with telemetry.span("execute", kind="join"):
            telemetry.count("governor.cancelled")
"""

LK010_COLLECTIONS_COUNTER_OK = """
    from collections import Counter

    def tally(values):
        return Counter(values)
"""


def test_lk010_fires_on_direct_instrument_construction(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/cache.py", LK010_DIRECT_COUNTER,
        rule="telemetry-discipline",
    )
    assert rule_ids(result) == ["LK010"]
    assert "registry" in result.findings[0].message


def test_lk010_fires_on_aliased_module_construction(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/batch.py", LK010_MODULE_ALIAS_CONSTRUCTION,
        rule="telemetry-discipline",
    )
    assert rule_ids(result) == ["LK010"]


def test_lk010_fires_on_span_outside_with(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/semantics/evaluation.py", LK010_BARE_SPAN_CALL,
        rule="telemetry-discipline",
    )
    assert rule_ids(result) == ["LK010"]
    assert "with" in result.findings[0].message


def test_lk010_quiet_on_registry_and_with_span(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/planner.py", LK010_REGISTRY_OK,
        rule="telemetry-discipline",
    )
    assert result.findings == []


def test_lk010_ignores_collections_counter(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/analyze.py", LK010_COLLECTIONS_COUNTER_OK,
        rule="telemetry-discipline",
    )
    assert result.findings == []


def test_lk010_exempts_the_telemetry_module_itself(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/telemetry.py", LK010_DIRECT_COUNTER,
        rule="telemetry-discipline",
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


def test_inline_suppression_by_rule_id(tmp_path):
    source = """
        def attach(graph):
            graph._helper_cache = {}  # lintkit: disable=LK002
    """
    result = lint_snippet(
        tmp_path, "repro/engine/helper.py", source,
        rule="cache-key-discipline",
    )
    assert result.findings == []
    assert result.suppressed_count == 1
    assert result.ok


def test_inline_suppression_by_rule_name(tmp_path):
    source = """
        def attach(graph):
            graph._helper_cache = {}  # lintkit: disable=cache-key-discipline
    """
    result = lint_snippet(
        tmp_path, "repro/engine/helper.py", source,
        rule="cache-key-discipline",
    )
    assert result.findings == []
    assert result.suppressed_count == 1


def test_comment_block_suppression_above_statement(tmp_path):
    source = """
        def attach(graph):
            # lintkit: disable=LK002 -- blessed attachment point for the
            # fixture: the justification may span several comment lines.
            graph._helper_cache = {}
    """
    result = lint_snippet(
        tmp_path, "repro/engine/helper.py", source,
        rule="cache-key-discipline",
    )
    assert result.findings == []
    assert result.suppressed_count == 1


def test_suppression_for_other_rule_does_not_apply(tmp_path):
    source = """
        def attach(graph):
            graph._helper_cache = {}  # lintkit: disable=LK001
    """
    result = lint_snippet(
        tmp_path, "repro/engine/helper.py", source,
        rule="cache-key-discipline",
    )
    assert rule_ids(result) == ["LK002"]
    assert result.suppressed_count == 0


# ----------------------------------------------------------------------
# Baseline round-trip
# ----------------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    first = lint_snippet(
        tmp_path, "repro/engine/helper.py", LK002_ATTACH,
        rule="cache-key-discipline",
    )
    assert len(first.findings) == 1

    baseline_path = tmp_path / "baseline.json"
    core.write_baseline(baseline_path, first.findings)
    baseline = core.load_baseline(baseline_path)
    assert baseline == [finding.baseline_key() for finding in first.findings]

    second = core.run_paths(
        [tmp_path / "repro/engine/helper.py"],
        rules=(core.rule_by_name("LK002"),),
        baseline=baseline,
        root=tmp_path,
    )
    assert second.findings == []
    assert len(second.baselined) == 1
    assert second.ok


def test_baseline_keys_are_line_free(tmp_path):
    """Shifting a baselined finding to another line must not un-baseline
    it — keys are (rule, path, message), never the line number."""
    first = lint_snippet(
        tmp_path, "repro/engine/helper.py", LK002_ATTACH,
        rule="cache-key-discipline",
    )
    baseline = [finding.baseline_key() for finding in first.findings]
    shifted = "\n\n\n" + textwrap.dedent(LK002_ATTACH)
    (tmp_path / "repro/engine/helper.py").write_text(shifted)
    second = core.run_paths(
        [tmp_path / "repro/engine/helper.py"],
        rules=(core.rule_by_name("LK002"),),
        baseline=baseline,
        root=tmp_path,
    )
    assert second.findings == [] and len(second.baselined) == 1


def test_malformed_baseline_raises(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text('{"schema": "something-else", "findings": []}')
    with pytest.raises(ValueError):
        core.load_baseline(bad)


def test_shipped_baseline_is_empty():
    shipped = (
        REPO_ROOT / "src/repro/devtools/lintkit/baseline.json"
    )
    assert core.load_baseline(shipped) == []


# ----------------------------------------------------------------------
# Parse errors and reporters
# ----------------------------------------------------------------------


def test_parse_error_is_reported_not_swallowed(tmp_path):
    result = lint_snippet(tmp_path, "repro/engine/broken.py", "def f(:\n")
    assert result.parse_errors
    assert not result.ok


def test_text_and_json_reporters(tmp_path):
    result = lint_snippet(
        tmp_path, "repro/engine/helper.py", LK002_ATTACH,
        rule="cache-key-discipline",
    )
    text = render_text(result)
    assert "LK002" in text and "1 finding(s)" in text
    payload = json.loads(render_json(result))
    assert payload["schema"] == "lintkit-report-v1"
    assert payload["ok"] is False
    assert payload["findings"][0]["rule_id"] == "LK002"
    assert payload["findings"][0]["path"].endswith("repro/engine/helper.py")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_list_rules(capsys):
    assert lintkit_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for index in range(1, 9):
        assert f"LK{index:03d}" in out


def test_cli_unknown_rule_is_usage_error(capsys):
    assert lintkit_main(["--select", "LK999", "."]) == 2


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert lintkit_main([str(tmp_path / "nope")]) == 2


def test_cli_findings_exit_one_and_json_output(tmp_path, capsys):
    target = tmp_path / "repro/engine/helper.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(LK002_ATTACH))
    out_file = tmp_path / "report.json"
    code = lintkit_main([
        str(target), "--format", "json", "--output", str(out_file),
        "--baseline", "none",
    ])
    assert code == 1
    payload = json.loads(out_file.read_text())
    assert payload["findings"][0]["rule_id"] == "LK002"


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    target = tmp_path / "repro/engine/helper.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(LK002_ATTACH))
    baseline = tmp_path / "baseline.json"
    assert lintkit_main([
        str(target), "--baseline", str(baseline), "--write-baseline",
    ]) == 0
    assert lintkit_main([str(target), "--baseline", str(baseline)]) == 0


# ----------------------------------------------------------------------
# Self-lint: the tree this PR ships must be clean
# ----------------------------------------------------------------------


def test_self_lint_src_repro_is_clean():
    result = core.run_paths(
        [REPO_ROOT / "src/repro"], baseline=[], root=REPO_ROOT
    )
    assert result.checked_files > 60
    assert result.parse_errors == []
    assert result.findings == [], "\n".join(
        finding.render() for finding in result.findings
    )
    # The two blessed graph attachments (adjacency index, incremental
    # store) are inline-suppressed with justifications.
    assert result.suppressed_count == 2


def test_self_lint_via_module_cli(tmp_path):
    """The module CLI on a small clean tree: exit code 0 and the text
    report's summary line.  The whole-tree check is the in-process
    test above."""
    for relpath, source in (
        ("repro/engine/custom.py", LK004_AUTOMATA),
        ("repro/containment/custom.py", LK004_LAZY),
    ):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    completed = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lintkit",
         str(tmp_path / "repro")],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert completed.stdout.splitlines()[-1] == (
        "clean: 0 finding(s), 0 baselined, 0 suppressed, 2 file(s) checked"
    )
