"""The project-specific rule battery.

Each rule encodes one invariant that an earlier PR established and that
only runtime tests guarded until now.  Every rule docstring names the
originating PR/bug class; ``--list-rules`` prints them.  Fixture-backed
positive/negative tests live in ``tests/test_lintkit.py``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Sequence

from repro.devtools.lintkit.core import Finding, LintContext, Rule, register

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = frozenset(
    {"set", "dict", "list", "defaultdict", "OrderedDict", "deque", "Counter"}
)

_MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "popleft", "remove", "setdefault",
    "update",
})


def _is_mutable_container_expr(node: ast.AST) -> bool:
    """True for expressions that build a *mutable* container."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = node.func
        name = callee.id if isinstance(callee, ast.Name) else (
            callee.attr if isinstance(callee, ast.Attribute) else None
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_type_checking_block(node: ast.AST) -> bool:
    """``if TYPE_CHECKING:`` blocks hold annotation-only imports."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    name = _dotted(test) if isinstance(test, (ast.Name, ast.Attribute)) else None
    return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


# ----------------------------------------------------------------------
# LK001 snapshot-discipline
# ----------------------------------------------------------------------


@register
class SnapshotDiscipline(Rule):
    """Public accessors must return snapshots, not live mutable state.

    **Origin: PR 1.**  The seed's ``GraphDatabase.out_edges`` handed the
    caller the live internal ``set``; mutating the return value
    corrupted the graph's indexes behind the version counter's back.
    PR 1 fixed the graph accessors to return ``frozenset`` snapshots;
    this rule pins the discipline for every class under ``graphdb/``
    and ``engine/``: a public (non-underscore) method or property must
    not ``return self.<attr>`` when ``<attr>`` is assigned a mutable
    container (``set()``/``{}``/``[]``/``defaultdict(...)``/...)
    anywhere in the class.  Return ``frozenset(...)``, a tuple, or a
    ``MappingProxyType`` view instead.
    """

    rule_id = "LK001"
    rule_name = "snapshot-discipline"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.path_matches("/graphdb/", "/engine/"):
            return
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            mutable_attrs = self._mutable_attributes(class_node)
            if not mutable_attrs:
                continue
            for function in _functions(class_node):
                if function.name.startswith("_"):
                    continue
                if ctx.enclosing_function(function) is not None:
                    continue  # nested defs are not accessors
                for statement in ast.walk(function):
                    if not isinstance(statement, ast.Return):
                        continue
                    value = statement.value
                    if (
                        isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id == "self"
                        and value.attr in mutable_attrs
                    ):
                        yield self.finding(
                            ctx, statement,
                            f"public accessor {function.name}() returns the "
                            f"live mutable attribute self.{value.attr}; "
                            f"return a frozenset/tuple/MappingProxyType "
                            f"snapshot (PR 1 leak class)",
                        )

    @staticmethod
    def _mutable_attributes(class_node: ast.ClassDef) -> frozenset[str]:
        attrs: set[str] = set()
        for node in ast.walk(class_node):
            targets: Sequence[ast.expr] = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = (node.target,)
                value = node.value
            else:
                continue
            if not _is_mutable_container_expr(value):
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
        return frozenset(attrs)


# ----------------------------------------------------------------------
# LK002 cache-key-discipline
# ----------------------------------------------------------------------

#: The attribute an attached incremental store lives under.
STORE_ATTRIBUTE = "_incremental_store"

#: (path suffix) → the functions allowed to read ``STORE_ATTRIBUTE``
#: there (``None``: the whole module).  The relation store answers every
#: relation lookup and tells the planner whether a store is attached,
#: ``query_result`` asks the store for reusable
#: answers, and the store's own module manages the attachment.
STORE_READERS: dict[str, frozenset[str] | None] = {
    "engine/relations.py": frozenset({"atom_relation", "store_attached"}),
    "engine/cache.py": frozenset({"query_result"}),
    "engine/incremental.py": None,
}


@register
class CacheKeyDiscipline(Rule):
    """Per-graph caching goes through ``engine/cache.py``, nowhere else.

    **Origin: PRs 3/5.**  Graph-derived state must be keyed by
    ``GraphDatabase.version`` (or attached via the blessed
    ``cache.graph_cached`` store) so mutation invalidates it; a
    hand-rolled dict keyed by the graph object — or a private attribute
    stashed onto the graph — silently serves stale results after the
    first update and breaks the incremental layer's contract.  Outside
    ``engine/cache.py`` this rule flags (a) dict subscripts /
    ``get`` / ``setdefault`` keyed by a graph expression and (b)
    assignments that attach new private attributes to a graph object.
    The three blessed attachment points (``_engine_cache``,
    ``_engine_adjacency``, ``_incremental_store``) carry inline
    suppressions with their justification.

    The attached incremental store is *read* only where
    :data:`STORE_READERS` allows — the relation store
    (``relations.atom_relation``), ``cache.query_result`` and
    ``engine/incremental.py``.  Every other consumer reaches maintained
    relations through ``atom_relation``, so a new reader would grow a
    second relation tier beside it (four such tiers were folded into
    that one lookup).
    """

    rule_id = "LK002"
    rule_name = "cache-key-discipline"

    _GRAPH_NAMES = frozenset({"graph", "g", "graphdb"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        yield from self._store_reads(ctx)
        if ctx.relpath.endswith("engine/cache.py"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Subscript) and self._is_graph_expr(node.slice):
                yield self.finding(
                    ctx, node,
                    "container keyed by a graph object — per-graph caching "
                    "must go through cache.graph_cached / version keys "
                    "(PR 3/5 cache-key discipline)",
                )
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if (
                    name in ("get", "setdefault", "pop")
                    and node.args
                    and self._is_graph_expr(node.args[0])
                    and isinstance(node.func, ast.Attribute)
                ):
                    yield self.finding(
                        ctx, node,
                        f"{name}() keyed by a graph object — per-graph "
                        f"caching must go through cache.graph_cached / "
                        f"version keys (PR 3/5 cache-key discipline)",
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr.startswith("_")
                        and self._is_graph_expr(target.value)
                    ):
                        yield self.finding(
                            ctx, node,
                            f"attaches private state "
                            f"{_dotted(target) or target.attr} to a graph "
                            f"object — graph-attached caches belong to "
                            f"engine/cache.py (suppress inline if this is "
                            f"a blessed attachment point)",
                        )

    def _store_reads(self, ctx: LintContext) -> Iterator[Finding]:
        allowed: frozenset[str] = frozenset()
        for suffix, functions in STORE_READERS.items():
            if ctx.relpath.endswith(suffix):
                if functions is None:
                    return
                allowed = functions
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                reads = (node.attr == STORE_ATTRIBUTE
                         and isinstance(node.ctx, ast.Load))
            elif isinstance(node, ast.Call):
                reads = (
                    _call_name(node) == "getattr"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == STORE_ATTRIBUTE
                )
            else:
                continue
            if not reads:
                continue
            function = ctx.enclosing_function(node)
            if function is not None and function.name in allowed:
                continue
            yield self.finding(
                ctx, node,
                f"reads graph.{STORE_ATTRIBUTE} outside the relation "
                f"store — reach maintained relations through "
                f"relations.atom_relation (single relation store)",
            )

    def _is_graph_expr(self, node: ast.AST) -> bool:
        dotted = _dotted(node)
        if dotted is None:
            return False
        leaf = dotted.rsplit(".", 1)[-1]
        return leaf in self._GRAPH_NAMES


# ----------------------------------------------------------------------
# LK003 version-read-once
# ----------------------------------------------------------------------


@register
class VersionReadOnce(Rule):
    """``graph.version`` is read at most once per function body.

    **Origin: PR 5 (TOCTOU class).**  The version counter moves under
    every effective mutation.  A function that reads it twice can
    compare against one version and record another — e.g. tagging a
    cache entry with a *newer* version than the state it actually
    captured, which then serves stale data forever.  Read the counter
    once into a local and use that value for both the comparison and
    the tag.
    """

    rule_id = "LK003"
    rule_name = "version-read-once"

    _GRAPH_BASES = frozenset({
        "graph", "g", "self.graph", "self._graph", "fresh_graph",
    })

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for function in _functions(ctx.tree):
            reads: dict[str, list[ast.Attribute]] = {}
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "version"
                    and isinstance(node.ctx, ast.Load)
                ):
                    base = _dotted(node.value)
                    if base is None:
                        continue
                    if base in self._GRAPH_BASES or base.endswith(".graph"):
                        reads.setdefault(base, []).append(node)
            for base, nodes in reads.items():
                nodes = [
                    node for node in nodes
                    if ctx.enclosing_function(node) is function
                ]
                if len(nodes) > 1:
                    first = min(node.lineno for node in nodes)
                    yield self.finding(
                        ctx, nodes[-1],
                        f"{base}.version read {len(nodes)} times in one "
                        f"function (first read at line {first}) — read it "
                        f"once into a local to avoid TOCTOU across "
                        f"mutations (PR 5 version contract)",
                    )


# ----------------------------------------------------------------------
# LK004 engine-decider-free
# ----------------------------------------------------------------------

#: The packages that hold the containment deciders and the
#: decider-certified optimizer.
DECIDER_MODULES = ("repro.containment", "repro.optimize")


@register
class EngineDeciderFree(Rule):
    """The engine decides with automata only: it imports no decider.

    **Origin: the analyzer's deleted disjunct-subsumption phase.**  The
    static analyzer once ran the containment deciders to drop subsumed
    disjuncts; that coupling needed a re-entrancy guard and an
    ``analysis_disabled()`` wrapper in every decider, and it certified
    no rewrite on real traffic.  Now the deciders sit strictly above the
    engine and evaluate through it like any other caller.  The rule
    flags any import of ``repro.containment`` or ``repro.optimize`` in
    a module under ``engine/`` — function-level (lazy) and
    ``TYPE_CHECKING`` imports included, since LK006 exempts exactly the
    lazy form.
    """

    rule_id = "LK004"
    rule_name = "engine-decider-free"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.path_matches("/engine/"):
            return
        for node in ast.walk(ctx.tree):
            imported = self._decider_import(ctx, node)
            if imported is not None:
                yield self.finding(
                    ctx, node,
                    f"engine module imports {imported} — the engine "
                    f"decides with automata only and never runs a "
                    f"containment decider",
                )

    @staticmethod
    def _decider_import(ctx: LintContext, node: ast.AST) -> str | None:
        """The decider module ``node`` imports, or ``None``."""
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ImportLayering._resolve_from(ctx, node)
            if base is None:
                return None
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            return None
        for name in names:
            for module in DECIDER_MODULES:
                if name == module or name.startswith(module + "."):
                    return name
        return None


# ----------------------------------------------------------------------
# LK005 semantics-exhaustiveness
# ----------------------------------------------------------------------


@register
class SemanticsExhaustiveness(Rule):
    """Semantics dispatches cover all three semantics or fall back.

    **Origin: the three-semantics core (PRs 1-4).**  The engine
    dispatches on :class:`~repro.semantics.base.Semantics` in a dozen
    places; a dispatch that tests two members and silently falls off
    the end returns ``None`` (or skips work) for the third — the bug
    class the PR 4 batch-executor q-inj special case came from.  The
    rule flags an ``if``/``elif`` chain (or a run of consecutive,
    body-terminating ``if`` statements ending its block) that tests
    some but not all of ``STANDARD`` / ``ATOM_INJECTIVE`` /
    ``QUERY_INJECTIVE`` and has neither an ``else`` nor trailing
    fallback code.
    """

    rule_id = "LK005"
    rule_name = "semantics-exhaustiveness"

    _MEMBERS = frozenset({"STANDARD", "ATOM_INJECTIVE", "QUERY_INJECTIVE"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            body = getattr(node, "body", None)
            if not isinstance(body, list):
                continue
            yield from self._check_block(ctx, body)
            orelse = getattr(node, "orelse", None)
            if isinstance(orelse, list):
                yield from self._check_block(ctx, orelse)

    def _check_block(
        self, ctx: LintContext, block: list[ast.stmt]
    ) -> Iterator[Finding]:
        index = 0
        while index < len(block):
            statement = block[index]
            member = self._tested_member(statement)
            if member is None:
                index += 1
                continue
            # Case 1: one If with an elif chain.
            covered, has_else, chain_len = self._walk_chain(statement)
            if chain_len >= 2:
                if not has_else and not self._MEMBERS <= covered:
                    yield self._missing(ctx, statement, covered)
                index += 1
                continue
            # Case 2: a run of consecutive body-terminating single ifs.
            run = [statement]
            run_covered = set(covered)
            scan = index + 1
            while scan < len(block):
                nxt = block[scan]
                nxt_member = self._tested_member(nxt)
                if nxt_member is None or not self._terminates(nxt):
                    break
                run.append(nxt)
                run_covered.add(nxt_member)
                scan += 1
            dangling = (
                len(run) >= 2
                and scan == len(block)  # nothing after the run: no fallback
                and all(self._terminates(s) for s in run)
                and not self._MEMBERS <= run_covered
            )
            if dangling:
                yield self._missing(ctx, run[-1], run_covered)
            index = scan if len(run) >= 2 else index + 1

    def _missing(
        self, ctx: LintContext, node: ast.stmt, covered: set[str]
    ) -> Finding:
        missing = ", ".join(sorted(self._MEMBERS - covered))
        return self.finding(
            ctx, node,
            f"semantics dispatch covers {{{', '.join(sorted(covered))}}} "
            f"with no else/fallback — missing {{{missing}}}; add the "
            f"missing branch or an explicit raise",
        )

    def _tested_member(self, statement: ast.stmt) -> str | None:
        if not isinstance(statement, ast.If):
            return None
        return self._member_of(statement.test)

    def _member_of(self, test: ast.expr) -> str | None:
        """The Semantics member a *pure* dispatch test compares against,
        else None (compound conditions are not treated as dispatches)."""
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        if not isinstance(test.ops[0], (ast.Is, ast.Eq)):
            return None
        for side in (test.left, test.comparators[0]):
            dotted = _dotted(side)
            if dotted is not None:
                leaf = dotted.rsplit(".", 1)[-1]
                if leaf in self._MEMBERS and "Semantics" in dotted:
                    return leaf
        return None

    def _walk_chain(self, statement: ast.If) -> tuple[set[str], bool, int]:
        """(covered members, has-else, number of dispatch branches)."""
        covered: set[str] = set()
        length = 0
        current: ast.stmt = statement
        while isinstance(current, ast.If):
            member = self._member_of(current.test)
            if member is None:
                # A non-dispatch branch inside the chain acts as a fallback.
                return covered, True, length
            covered.add(member)
            length += 1
            orelse = current.orelse
            if not orelse:
                return covered, False, length
            if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                current = orelse[0]
                continue
            return covered, True, length
        return covered, True, length

    @staticmethod
    def _terminates(statement: ast.stmt) -> bool:
        if not isinstance(statement, ast.If) or not statement.body:
            return False
        return isinstance(
            statement.body[-1],
            (ast.Return, ast.Raise, ast.Continue, ast.Break),
        )


# ----------------------------------------------------------------------
# LK006 import-layering
# ----------------------------------------------------------------------

#: The ARCHITECTURE.md layer DAG, most specific prefix first (matching
#: walks this list and takes the longest matching prefix).  Module-scope
#: imports may only point at the same or a lower layer; function-level
#: imports are exempt — they are the codebase's deliberate inversion
#: idiom (engine → semantics), documented in engine/batch.py.
LAYERS: tuple[tuple[str, int], ...] = (
    ("repro.errors", 0),
    ("repro.semantics.base", 0),
    ("repro.engine.telemetry", 0),
    ("repro.engine.backend", 1),
    ("repro.engine.runtime", 1),
    ("repro.regular", 1),
    ("repro.graphdb.graph", 2),
    ("repro.graphdb.generators", 2),
    ("repro.queries", 3),
    ("repro.semantics.expansion", 3),
    ("repro.engine.adjacency", 4),
    ("repro.engine.cache", 4),
    ("repro.engine.join", 4),
    ("repro.engine.product", 4),
    ("repro.engine.relations", 4),
    ("repro.homomorphism", 5),
    ("repro.graphdb.paths", 5),
    ("repro.graphdb", 5),
    ("repro.engine.analyze", 5),
    ("repro.engine.batch", 5),
    ("repro.engine.incremental", 5),
    ("repro.engine.planner", 5),
    ("repro.engine.qinj", 6),
    ("repro.engine", 6),
    ("repro.semantics.rpq", 6),
    ("repro.semantics", 7),
    ("repro.containment", 8),
    ("repro.optimize", 9),
    ("repro.twoway", 9),
    ("repro.io", 9),
    ("repro.reductions", 9),
    ("repro.analysis", 10),
    ("repro.cli", 11),
    ("repro.devtools", 11),
    ("repro", 12),
)


def layer_of(module: str) -> int:
    best_len = -1
    best_layer = 12
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > best_len:
                best_len = len(prefix)
                best_layer = layer
    return best_layer


@register
class ImportLayering(Rule):
    """Module-scope imports follow the ARCHITECTURE.md layer DAG.

    **Origin: PRs 1-6 layering (ARCHITECTURE.md "Layers").**  The
    engine sits under ``semantics/`` and ``graphdb/paths.py``; the
    deciders sit above evaluation; ``cli`` and ``analysis`` sit on top
    of everything.  An upward module-scope import (e.g. ``engine/*``
    importing ``cli`` or ``analysis``, or ``regular``/``graphdb.graph``
    importing ``engine``) either deadlocks module initialization or
    quietly inverts the dependency the docs promise.  Function-level
    (lazy) imports are exempt: they are the codebase's sanctioned
    inversion idiom.  ``if TYPE_CHECKING:`` imports are exempt too
    (annotation-only).
    """

    rule_id = "LK006"
    rule_name = "import-layering"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.module is None:
            return
        own_layer = layer_of(ctx.module)
        for statement, imported in self._module_scope_imports(ctx):
            target_layer = layer_of(imported)
            if target_layer > own_layer:
                yield self.finding(
                    ctx, statement,
                    f"module-scope import of {imported} (layer "
                    f"{target_layer}) from {ctx.module} (layer {own_layer}) "
                    f"inverts the ARCHITECTURE.md layer DAG — move the "
                    f"import into the function that needs it",
                )

    def _module_scope_imports(
        self, ctx: LintContext
    ) -> Iterator[tuple[ast.stmt, str]]:
        def visit(body: Iterable[ast.stmt]) -> Iterator[tuple[ast.stmt, str]]:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if _is_type_checking_block(node):
                    continue
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "repro":
                            yield node, alias.name
                elif isinstance(node, ast.ImportFrom):
                    base = self._resolve_from(ctx, node)
                    if base is not None:
                        for alias in node.names:
                            yield node, f"{base}.{alias.name}"
                else:
                    for attr in ("body", "orelse", "finalbody"):
                        sub = getattr(node, attr, None)
                        if isinstance(sub, list):
                            yield from visit(sub)
                    for handler in getattr(node, "handlers", ()):
                        yield from visit(handler.body)

        yield from visit(ctx.tree.body)

    @staticmethod
    def _resolve_from(ctx: LintContext, node: ast.ImportFrom) -> str | None:
        """The absolute dotted base of a ``from X import ...``, or None
        when it does not target the repro tree."""
        if node.level == 0:
            module = node.module or ""
            return module if module.split(".")[0] == "repro" else None
        if ctx.module is None:
            return None
        parts = ctx.module.split(".")
        # level=1 from a module means its package; each extra level pops.
        parts = parts[: len(parts) - node.level]
        if node.module:
            parts.append(node.module)
        return ".".join(parts) if parts and parts[0] == "repro" else None


# ----------------------------------------------------------------------
# LK007 lock-discipline
# ----------------------------------------------------------------------

#: (path suffix) → {shared structure name → owning lock name}.  The
#: structures are the process-wide LRU state in engine/cache.py and the
#: telemetry instruments in engine/telemetry.py — all mutated from the
#: batch executor's worker threads.
LOCKED_STRUCTURES: dict[str, dict[str, str]] = {
    "engine/cache.py": {
        "_data": "_lock",
    },
    "engine/telemetry.py": {
        "_metrics": "_lock",
        "_value": "_lock",
        "_count": "_lock",
        "_total": "_lock",
        "_min": "_lock",
        "_max": "_lock",
        "_counters": "_lock",
        "_sites": "_lock",
    },
}


@register
class LockDiscipline(Rule):
    """Shared LRU/store state mutates only under its owning lock.

    **Origin: PR 2 (thread-safe LRUs) and PR 4 (threaded batch
    serving).**  ``engine/cache.py``'s LRU internals and
    ``engine/telemetry.py``'s instruments are reachable from the batch
    executor's worker threads.  An unlocked check-then-set on them
    loses updates or serves a half-written entry.  (The graph-scoped
    atom-relation store and the per-side indexes of a ``Relation`` need
    no entry: each publishes with a single ``dict.setdefault``.)  The
    rule flags any mutation (assignment, augmented assignment, ``del``,
    or a mutating method call such as
    ``pop``/``setdefault``/``move_to_end``) of a registered structure
    that is not lexically inside ``with <owning lock>:``.  ``__init__``
    bodies and module-scope initializers are exempt — state is not
    shared before construction (or import) completes.
    """

    rule_id = "LK007"
    rule_name = "lock-discipline"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        table: dict[str, str] | None = None
        for suffix, structures in LOCKED_STRUCTURES.items():
            if ctx.relpath.endswith(suffix):
                table = structures
                break
        if table is None:
            return
        for node in ast.walk(ctx.tree):
            structure = self._mutated_structure(node, table)
            if structure is None:
                continue
            function = ctx.enclosing_function(node)
            if function is None:
                # Module-scope initialization runs once under the
                # import lock; nothing is shared yet.
                continue
            if function.name == "__init__":
                continue
            lock = table[structure]
            if not self._under_lock(ctx, node, lock):
                yield self.finding(
                    ctx, node,
                    f"mutation of shared structure {structure!r} outside "
                    f"'with {lock}:' — shared LRU/store state must be "
                    f"mutated under its owning lock (PR 2/4 threading "
                    f"contract)",
                )

    def _mutated_structure(
        self, node: ast.AST, table: dict[str, str]
    ) -> str | None:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                name = self._structure_name(target, table)
                if name is not None:
                    return name
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                name = self._structure_name(target, table)
                if name is not None:
                    return name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS:
                name = self._structure_name(node.func.value, table)
                if name is not None:
                    return name
        return None

    def _structure_name(
        self, node: ast.AST, table: dict[str, str]
    ) -> str | None:
        """The registered structure a target expression touches:
        the bare name / ``self.<name>`` itself, or a subscript of it."""
        current = node
        while isinstance(current, ast.Subscript):
            current = current.value
        if isinstance(current, ast.Name) and current.id in table:
            return current.id
        if (
            isinstance(current, ast.Attribute)
            and isinstance(current.value, ast.Name)
            and current.value.id == "self"
            and current.attr in table
        ):
            return current.attr
        return None

    @staticmethod
    def _under_lock(ctx: LintContext, node: ast.AST, lock: str) -> bool:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    dotted = _dotted(item.context_expr) or ""
                    if dotted.rsplit(".", 1)[-1] == lock:
                        return True
        return False


# ----------------------------------------------------------------------
# LK008 checkpoint-discipline
# ----------------------------------------------------------------------

#: (path suffix) → names of the governed hot-loop functions in that
#: module.  Every unbounded engine loop the execution governor bounds
#: (ARCHITECTURE.md "Execution governor & failure model" sites table)
#: lives in one of these functions; each must take the context and
#: checkpoint from its loop, or deadlines/cancellation silently stop
#: covering that loop.
CHECKPOINTED_FUNCTIONS: dict[str, frozenset[str]] = {
    "engine/product.py": frozenset(
        {"sweep", "dense_layers", "_settle_cyclic_layer"}
    ),
    "engine/planner.py": frozenset(
        {"semijoin_reduce", "_variable_elimination"}
    ),
    "engine/join.py": frozenset({"natural_join", "join_project"}),
    "engine/qinj.py": frozenset({"_search"}),
    "engine/incremental.py": frozenset({"grow", "shrink"}),
    "engine/batch.py": frozenset({"_entry_answers"}),
    "graphdb/paths.py": frozenset({"search"}),
}

_CTX_PARAM_NAMES = frozenset({"ctx", "context"})


@register
class CheckpointDiscipline(Rule):
    """Governed hot-loop functions accept the context and checkpoint.

    **Origin: PR 8 (execution governor).**  Deadlines, cancellation,
    and resource budgets are *cooperative*: they only bound a loop that
    calls ``ExecutionContext.checkpoint(site)``.  The registered
    functions in :data:`CHECKPOINTED_FUNCTIONS` are the engine's
    unbounded loops (worst-case exponential under the paper's
    complexity results); each must declare a ``ctx`` (or ``context``)
    parameter and contain a ``checkpoint(...)`` call somewhere in its
    body (nested helpers count — the call just has to be lexically
    inside).  A registered function that loses either — or disappears
    entirely, e.g. via a rename that forgets this table — is flagged,
    so a refactor cannot silently open an ungovernable loop.
    """

    rule_id = "LK008"
    rule_name = "checkpoint-discipline"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        required: frozenset[str] | None = None
        for suffix, names in CHECKPOINTED_FUNCTIONS.items():
            if ctx.relpath.endswith(suffix):
                required = names
                break
        if required is None:
            return
        seen: set[str] = set()
        for function in _functions(ctx.tree):
            if function.name not in required:
                continue
            seen.add(function.name)
            if not self._takes_context(function):
                yield self.finding(
                    ctx, function,
                    f"{function.name}() is a governed hot loop but takes no "
                    f"'ctx' / 'context' parameter — it must accept the "
                    f"ExecutionContext (PR 8 checkpoint discipline)",
                )
            if not self._calls_checkpoint(function):
                yield self.finding(
                    ctx, function,
                    f"{function.name}() is a governed hot loop but never "
                    f"calls checkpoint() — deadlines and cancellation "
                    f"cannot bound it (PR 8 checkpoint discipline)",
                )
        missing = required - seen
        if missing and ctx.tree.body:
            yield self.finding(
                ctx, ctx.tree.body[0],
                f"governed hot-loop function(s) {', '.join(sorted(missing))} "
                f"not found in this module — update the "
                f"CHECKPOINTED_FUNCTIONS registry alongside the rename "
                f"(PR 8 checkpoint discipline)",
            )

    @staticmethod
    def _takes_context(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        arguments = function.args
        every = (
            list(arguments.posonlyargs)
            + list(arguments.args)
            + list(arguments.kwonlyargs)
        )
        return any(argument.arg in _CTX_PARAM_NAMES for argument in every)

    @staticmethod
    def _calls_checkpoint(
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> bool:
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and _call_name(node) == "checkpoint":
                return True
        return False


# ----------------------------------------------------------------------
# LK009 backend-seam
# ----------------------------------------------------------------------

#: Modules no file may import at all, the seam included: the engine's
#: one mask representation is the Python int.
FORBIDDEN_MODULES = frozenset({"numpy"})

#: The backend seam module itself.
BACKEND_MODULE = "repro.engine.backend"

#: The modules that may import the backend seam: the seam, the product
#: kernel it selects, and the metrics report that records which backend
#: ran.  The join glue stays backend-free.
BACKEND_IMPORTERS = (
    "engine/backend.py",
    "engine/product.py",
    "devtools/obs/report.py",
)


@register
class BackendSeam(Rule):
    """NumPy is imported nowhere, and the backend only by the product
    kernel's module.

    **Origin: PR 9 (compact numeric core), narrowed when the dense-id
    join glue and the wide-mask regime were deleted.**  Both product
    kernels carry source sets as plain Python ints.  A ``numpy`` import
    anywhere — the seam included — would bring back an optional
    dependency whose presence changes behaviour with the host (and
    costs every process its import time and resident memory).  The
    backend selects the product kernel only, so
    :mod:`repro.engine.backend` itself may be imported just by the
    modules in :data:`BACKEND_IMPORTERS`; anywhere else (the planner,
    the q-inj pruning, the join algebra, the adjacency index) a
    backend import would grow a second code path back.
    ``if TYPE_CHECKING:`` imports are exempt (annotation-only);
    function-level imports are NOT — a lazy import bypasses the seam
    just as thoroughly.
    """

    rule_id = "LK009"
    rule_name = "backend-seam"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        backend_allowed = ctx.relpath.endswith(BACKEND_IMPORTERS)
        for node in ast.walk(ctx.tree):
            numpy = self._numpy_import(node)
            backend = not backend_allowed and self._backend_import(ctx, node)
            if numpy is None and not backend:
                continue
            if any(
                _is_type_checking_block(ancestor)
                for ancestor in ctx.ancestors(node)
            ):
                continue
            if numpy is not None:
                yield self.finding(
                    ctx, node,
                    f"import of {numpy} — the engine carries masks as "
                    f"Python ints and imports no NumPy",
                )
            else:
                yield self.finding(
                    ctx, node,
                    f"import of {BACKEND_MODULE} outside the product "
                    f"kernel's modules — the backend selects the kernel "
                    f"only; join and pruning code has one backend-free "
                    f"path",
                )

    @staticmethod
    def _numpy_import(node: ast.AST) -> str | None:
        """The NumPy module ``node`` imports, or ``None``."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in FORBIDDEN_MODULES:
                    return alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] in FORBIDDEN_MODULES:
                return module
        return None

    @staticmethod
    def _backend_import(ctx: LintContext, node: ast.AST) -> bool:
        """True when ``node`` imports the backend seam module (absolute,
        relative, or as ``from repro.engine import backend``)."""
        if isinstance(node, ast.Import):
            return any(alias.name == BACKEND_MODULE for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            base = ImportLayering._resolve_from(ctx, node)
            if base == BACKEND_MODULE:
                return True
            return base == "repro.engine" and any(
                alias.name == "backend" for alias in node.names
            )
        return False


# ----------------------------------------------------------------------
# LK010 telemetry-discipline
# ----------------------------------------------------------------------

#: The telemetry module, the only place allowed to construct its
#: instrument/trace classes directly.
TELEMETRY_MODULE = "repro.engine.telemetry"

#: Classes that must be obtained through the registry / context-manager
#: helpers, never constructed at call sites.  ``TracedAnswers`` is
#: deliberately absent — callers *do* wrap answer sets themselves.
TELEMETRY_CLASSES = frozenset(
    {"Counter", "Gauge", "Histogram", "Span", "QueryTrace",
     "MetricsRegistry"}
)


@register
class TelemetryDiscipline(Rule):
    """Metrics and spans are created only through the telemetry helpers.

    **Origin: PR 10 (engine telemetry).**  Every counter/gauge/histogram
    lives in the process-wide :class:`~repro.engine.telemetry.MetricsRegistry`
    (``telemetry.registry().counter(...)`` / ``count()`` / ``observe()``
    / ``set_gauge()``) so names stay stable, ``snapshot()`` sees
    everything, and ``reset_for_tests()`` can zero the world; spans open
    only through the ``telemetry.span(...)`` context manager so the
    ambient-parent ContextVar is always restored.  A hand-constructed
    ``Counter`` is invisible to reports; a ``span()`` call outside a
    ``with`` leaks the current-span state into everything that follows
    on the thread.  Detection resolves imports — only names actually
    bound to :mod:`repro.engine.telemetry` are flagged, so e.g.
    ``collections.Counter`` stays untouched.
    """

    rule_id = "LK010"
    rule_name = "telemetry-discipline"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.relpath.endswith("engine/telemetry.py"):
            return
        module_aliases, member_aliases = self._telemetry_bindings(ctx)
        if not module_aliases and not member_aliases:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            member = self._telemetry_member(
                node, module_aliases, member_aliases
            )
            if member is None:
                continue
            if member in TELEMETRY_CLASSES:
                yield self.finding(
                    ctx, node,
                    f"direct construction of telemetry.{member} bypasses "
                    f"the process-wide registry — obtain instruments via "
                    f"telemetry.registry() (or the count/observe/"
                    f"set_gauge helpers) and traces via "
                    f"telemetry.tracing()",
                )
            elif member == "span" and not self._is_with_context(ctx, node):
                yield self.finding(
                    ctx, node,
                    "telemetry.span(...) used outside a with-statement — "
                    "the span context manager must manage the ambient "
                    "parent (use `with telemetry.span(...):`)",
                )

    @staticmethod
    def _telemetry_bindings(
        ctx: LintContext,
    ) -> tuple[frozenset[str], dict[str, str]]:
        """``(module aliases, {local name → telemetry member})`` bound by
        the file's imports (module- or function-scope alike)."""
        module_aliases = set()
        member_aliases: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == TELEMETRY_MODULE:
                        module_aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "repro.engine":
                    for alias in node.names:
                        if alias.name == "telemetry":
                            module_aliases.add(alias.asname or "telemetry")
                elif node.module == TELEMETRY_MODULE:
                    for alias in node.names:
                        member_aliases[alias.asname or alias.name] = (
                            alias.name
                        )
        return frozenset(module_aliases), member_aliases

    @staticmethod
    def _telemetry_member(
        node: ast.Call,
        module_aliases: frozenset[str],
        member_aliases: dict[str, str],
    ) -> str | None:
        """The telemetry member a call resolves to, or ``None``."""
        dotted = _dotted(node.func)
        if dotted is None:
            return None
        if "." in dotted:
            prefix, _, member = dotted.rpartition(".")
            return member if prefix in module_aliases else None
        return member_aliases.get(dotted)

    @staticmethod
    def _is_with_context(ctx: LintContext, node: ast.Call) -> bool:
        parent = ctx.parents.get(node)
        return isinstance(parent, ast.withitem) and (
            parent.context_expr is node
        )
