"""Differential tests for the numeric-backend seam (``REPRO_BACKEND``).

The backend selects only the product kernel: the ``array`` backend
(interned CSR adjacency, dense product kernel, fixed-width bitsets)
must be answer-for-answer identical to the ``python`` backend, which
keeps the seed-era object-keyed kernel alive as the differential
reference.  The join glue has one path under both.  This suite pins that
equality at three levels — the mask kernel, the product-reachability
kernel, and full ``evaluate``/batch/incremental runs across all
semantics — plus the seam's selection mechanics and the stdlib
(no-NumPy) fallback the CI environment exercises for real.

Every cross-backend comparison evaluates against ``graph.copy()``: the
engine's result caches are version-keyed per graph *object*, so reusing
one object would turn the second backend's run into a cache hit and the
comparison into a tautology.
"""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import backend as backend_module
from repro.engine.adjacency import adjacency_index
from repro.engine.backend import (
    BACKEND_NAMES,
    active_backend,
    byte_flags,
    index_array,
    use_backend,
    zeros_index_array,
)
from repro.engine.cache import compiled_nfa
from repro.engine.incremental import incremental_store
from repro.engine.product import product_reachability_pairs
from repro.graphdb.generators import uniform_random
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.regular.parser import parse_regex
from repro.semantics.base import ALL_SEMANTICS
from repro.semantics.evaluation import evaluate, evaluate_batch
from repro.semantics.trails import evaluate_trails


# ----------------------------------------------------------------------
# Seam selection mechanics
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_names_cover_exactly_the_registered_backends(self):
        assert set(BACKEND_NAMES) == set(backend_module._BY_NAME)

    def test_default_resolves_from_environment(self, monkeypatch):
        monkeypatch.setattr(backend_module, "_default", None)
        monkeypatch.setattr(backend_module, "_override", None)
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert active_backend().name == "python"
        # Resolution happens once; later env changes are ignored.
        monkeypatch.setenv("REPRO_BACKEND", "array")
        assert active_backend().name == "python"

    def test_unset_environment_defaults_to_array(self, monkeypatch):
        monkeypatch.setattr(backend_module, "_default", None)
        monkeypatch.setattr(backend_module, "_override", None)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert active_backend().name == "array"
        assert active_backend().dense_kernels

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with use_backend("fortran"):
                pass  # pragma: no cover - never entered

    def test_override_nests_and_restores(self):
        before = active_backend()
        with use_backend("python") as outer:
            assert active_backend() is outer
            assert not outer.dense_kernels
            with use_backend("array") as inner:
                assert active_backend() is inner
            assert active_backend() is outer
        assert active_backend() is before

    def test_override_is_visible_across_threads(self):
        # The override is a module global on purpose: batch worker
        # threads must observe the backend the submitting thread chose.
        with use_backend("python"):
            with ThreadPoolExecutor(max_workers=1) as pool:
                seen = pool.submit(lambda: active_backend().name).result()
        assert seen == "python"


# ----------------------------------------------------------------------
# Seam container primitives
# ----------------------------------------------------------------------


class TestPrimitives:
    def test_index_array_is_signed_64_bit(self):
        arr = index_array([3, -1, 2**40])
        assert list(arr) == [3, -1, 2**40]
        assert arr.itemsize == 8
        assert list(index_array()) == []

    def test_zeros_index_array(self):
        arr = zeros_index_array(5)
        assert list(arr) == [0, 0, 0, 0, 0]
        arr[3] = 2**40
        assert arr[3] == 2**40

    def test_byte_flags(self):
        flags = byte_flags(4)
        assert list(flags) == [0, 0, 0, 0]
        flags[2] = 1
        assert flags[2] == 1


# ----------------------------------------------------------------------
# Mask kernel: both backends (and the array backend's stdlib fallback)
# against a plain-set reference
# ----------------------------------------------------------------------

# "array-stdlib" forces the no-NumPy bytearray path the CI environment
# runs; where NumPy is genuinely absent it duplicates "array", which is
# harmless.
MASK_VARIANTS = ("python", "array", "array-stdlib")


def _mask_backend(variant, monkeypatch):
    if variant == "array-stdlib":
        monkeypatch.setattr(backend_module, "_numpy", None)
        return backend_module._ARRAY_BACKEND
    return backend_module._BY_NAME[variant]


@pytest.mark.parametrize("variant", MASK_VARIANTS)
@pytest.mark.parametrize("seed", range(6))
def test_mask_kernel_matches_set_reference(variant, seed, monkeypatch):
    backend = _mask_backend(variant, monkeypatch)
    rng = random.Random(1000 * seed + 7)
    count = rng.randrange(1, 8)
    # Widths past 64 (one NumPy word) and past 8 (one fallback byte)
    # exercise the multi-word carry-free paths.
    width = rng.randrange(1, 130)
    masks = backend.make_masks(count, width)
    reference = [set() for _ in range(count)]
    for _ in range(120):
        op = rng.randrange(3)
        if op == 0:
            index, bit = rng.randrange(count), rng.randrange(width)
            backend.mask_set_bit(masks, index, bit)
            reference[index].add(bit)
        elif op == 1:
            target, source = rng.randrange(count), rng.randrange(count)
            backend.mask_or_into(masks, target, source)
            reference[target] |= reference[source]
        else:
            index = rng.randrange(count)
            assert backend.mask_any(masks, index) == bool(reference[index])
    for index in range(count):
        assert list(backend.mask_bits(masks, index)) == \
            sorted(reference[index]), (variant, seed, index)


@pytest.mark.parametrize("variant", MASK_VARIANTS)
def test_mask_kernel_empty_mask_edges(variant, monkeypatch):
    backend = _mask_backend(variant, monkeypatch)
    masks = backend.make_masks(3, 70)
    assert not backend.mask_any(masks, 0)
    assert list(backend.mask_bits(masks, 1)) == []
    # OR of two untouched masks must not materialize anything.
    backend.mask_or_into(masks, 0, 1)
    assert not backend.mask_any(masks, 0)
    # OR into an untouched target copies; the copy must be independent.
    backend.mask_set_bit(masks, 1, 69)
    backend.mask_or_into(masks, 2, 1)
    backend.mask_set_bit(masks, 2, 0)
    assert list(backend.mask_bits(masks, 1)) == [69]
    assert list(backend.mask_bits(masks, 2)) == [0, 69]
    # Self-OR is the identity.
    backend.mask_or_into(masks, 2, 2)
    assert list(backend.mask_bits(masks, 2)) == [0, 69]


@pytest.mark.parametrize("variant", ("array", "array-stdlib"))
@pytest.mark.parametrize("seed", range(3))
def test_mask_kernel_vector_regime_matches_set_reference(
    variant, seed, monkeypatch
):
    """Widths at/above ``VECTOR_MIN_BITS`` switch the array backend to
    its vector rows (NumPy ``uint64`` / ``bytearray``); the kernel
    contract must not change across the regime boundary."""
    backend = _mask_backend(variant, monkeypatch)
    rng = random.Random(4000 + seed)
    count = 4
    width = backend_module.VECTOR_MIN_BITS + rng.randrange(100)
    masks = backend.make_masks(count, width)
    reference = [set() for _ in range(count)]
    assert not backend.mask_any(masks, 0)
    assert list(backend.mask_bits(masks, 0)) == []
    backend.mask_or_into(masks, 0, 1)  # OR of two untouched masks
    assert not backend.mask_any(masks, 0)
    for _ in range(60):
        op = rng.randrange(3)
        if op == 0:
            index = rng.randrange(count)
            # Cluster around the word/byte boundaries and the extremes.
            bit = rng.choice((0, 1, 63, 64, width - 1,
                              rng.randrange(width)))
            backend.mask_set_bit(masks, index, bit)
            reference[index].add(bit)
        elif op == 1:
            target, source = rng.randrange(count), rng.randrange(count)
            backend.mask_or_into(masks, target, source)
            reference[target] |= reference[source]
        else:
            index = rng.randrange(count)
            assert backend.mask_any(masks, index) == bool(reference[index])
    for index in range(count):
        assert list(backend.mask_bits(masks, index)) == \
            sorted(reference[index]), (variant, seed, index)
    # Copy-on-first-OR independence holds in the vector regime too.
    fresh = backend.make_masks(2, width)
    backend.mask_set_bit(fresh, 0, width - 1)
    backend.mask_or_into(fresh, 1, 0)
    backend.mask_set_bit(fresh, 1, 0)
    assert list(backend.mask_bits(fresh, 0)) == [width - 1]
    assert list(backend.mask_bits(fresh, 1)) == [0, width - 1]


# ----------------------------------------------------------------------
# CSR adjacency
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_csr_matches_out_edges(seed):
    rng = random.Random(600 + seed)
    num_nodes = rng.randrange(2, 10)
    graph = uniform_random(
        num_nodes, rng.randrange(1, 3 * num_nodes + 1), {"a", "b", "c"},
        seed=seed,
    )
    index = adjacency_index(graph)
    csr = index.csr_out()
    nodes = index.nodes_sorted
    assert set(csr) == {edge.label for edge in graph.edges}
    for label, (offsets, targets) in csr.items():
        assert len(offsets) == len(nodes) + 1
        assert offsets[0] == 0
        for position, node in enumerate(nodes):
            got = {
                nodes[targets[slot]]
                for slot in range(offsets[position], offsets[position + 1])
            }
            want = {
                edge.target
                for edge in graph.out_edges(node)
                if edge.label == label
            }
            assert got == want, (label, node)

    assert index.csr_out() is csr  # cached per index
    with pytest.raises(TypeError):
        csr["x"] = ()  # read-only view


# ----------------------------------------------------------------------
# Product-reachability kernel differential
# ----------------------------------------------------------------------

KERNEL_REGEXES = ["a", "a*", "a*b", "(a+b)*", "ab*a", "a+b", "(ab)*", "ba*b"]


@pytest.mark.parametrize("seed", range(10))
def test_product_kernel_differential(seed):
    rng = random.Random(700 + seed)
    num_nodes = rng.randrange(1, 12)
    capacity = 2 * num_nodes * num_nodes  # two labels
    graph = uniform_random(
        num_nodes, min(rng.randrange(1, 3 * num_nodes + 1), capacity),
        {"a", "b"}, seed=seed,
    )
    for regex_text in KERNEL_REGEXES:
        nfa = compiled_nfa(parse_regex(regex_text))
        with use_backend("python"):
            want = product_reachability_pairs(graph.copy(), nfa)
        with use_backend("array"):
            got = product_reachability_pairs(graph.copy(), nfa)
        assert got == want, (regex_text, seed)


@pytest.mark.parametrize("seed", range(6))
def test_product_kernel_differential_stdlib_fallback(seed, monkeypatch):
    monkeypatch.setattr(backend_module, "_numpy", None)
    rng = random.Random(800 + seed)
    num_nodes = rng.randrange(2, 10)
    graph = uniform_random(
        num_nodes, rng.randrange(1, 3 * num_nodes + 1), {"a", "b"}, seed=seed
    )
    for regex_text in KERNEL_REGEXES:
        nfa = compiled_nfa(parse_regex(regex_text))
        with use_backend("python"):
            want = product_reachability_pairs(graph.copy(), nfa)
        with use_backend("array"):
            got = product_reachability_pairs(graph.copy(), nfa)
        assert got == want, (regex_text, seed)


def test_dense_kernel_degenerate_inputs():
    star = compiled_nfa(parse_regex("a*"))
    with use_backend("array"):
        assert product_reachability_pairs(GraphDatabase(), star) == set()
        isolated = GraphDatabase(nodes=["u"])
        assert product_reachability_pairs(isolated, star) == {("u", "u")}
        # A label with transitions but no edges contributes nothing.
        mislabeled = GraphDatabase(edges=[("u", "c", "v")])
        plus = compiled_nfa(parse_regex("a^+"))
        assert product_reachability_pairs(mislabeled, plus) == set()


# ----------------------------------------------------------------------
# End-to-end evaluate differential — all semantics, both backends
# ----------------------------------------------------------------------

QUERIES = [
    "Q(x, y) :- x -[a(a+b)*]-> y",
    "Q(x) :- x -[(ab)^+]-> x",                      # loop atom
    "Q(x, y) :- x -[(ab)*]-> y, y -[b*]-> x",       # ε-containing languages
    "Q() :- x -[a^+]-> y, y -[b]-> z",              # boolean, chained atoms
    "Q(x, y) :- x -[a*]-> y, y -[b]-> z",
]


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_evaluate_differential_between_backends(semantics, seed):
    rng = random.Random(900 + seed)
    num_nodes = rng.randrange(2, 7)
    graph = uniform_random(
        num_nodes, rng.randrange(1, 2 * num_nodes + 1), {"a", "b"}, seed=seed
    )
    for query_text in QUERIES:
        query = parse_query(query_text)
        with use_backend("python"):
            want = evaluate(query, graph.copy(), semantics)
        with use_backend("array"):
            got = evaluate(query, graph.copy(), semantics)
        assert got == want, (query_text, seed)


def test_evaluate_differential_stdlib_fallback(monkeypatch):
    monkeypatch.setattr(backend_module, "_numpy", None)
    graph = uniform_random(6, 15, {"a", "b"}, seed=77)
    for semantics in ALL_SEMANTICS:
        for query_text in QUERIES[:3]:
            query = parse_query(query_text)
            with use_backend("python"):
                want = evaluate(query, graph.copy(), semantics)
            with use_backend("array"):
                got = evaluate(query, graph.copy(), semantics)
            assert got == want, (query_text, str(semantics))


@pytest.mark.parametrize("trail_semantics", ["atom-trail", "query-trail"])
def test_trail_semantics_differential_between_backends(trail_semantics):
    graph = uniform_random(5, 10, {"a", "b"}, seed=31)
    query = parse_query("Q(x, y) :- x -[a(a+b)*]-> y")
    with use_backend("python"):
        want = evaluate_trails(query, graph.copy(), trail_semantics)
    with use_backend("array"):
        got = evaluate_trails(query, graph.copy(), trail_semantics)
    assert got == want


def test_membership_binding_differential():
    """Membership checks agree across backends: pinned head variables
    restrict the base tables the same way under either product kernel,
    and a bound value outside the graph restricts to ∅ (no error).
    """
    from repro.semantics.evaluation import in_evaluation

    graph = uniform_random(6, 14, {"a", "b"}, seed=41)
    query = parse_query("Q(x, y) :- x -[a(a+b)*]-> y")
    with use_backend("python"):
        answers = evaluate(query, graph.copy(), "st")
    assert answers  # the probe below must not be vacuous
    nodes = sorted(graph.nodes, key=repr)
    probes = list(answers)[:3] + [(nodes[0], nodes[0]), (nodes[-1], nodes[0])]
    for probe in probes:
        with use_backend("python"):
            want = in_evaluation(query, graph.copy(), probe, "st")
        with use_backend("array"):
            got = in_evaluation(query, graph.copy(), probe, "st")
        assert got == want, probe
    with use_backend("array"):
        assert not in_evaluation(
            query, graph.copy(), ("ghost-node", nodes[0]), "st"
        )


# ----------------------------------------------------------------------
# Batch and incremental paths
# ----------------------------------------------------------------------

BATCH_QUERIES = [
    parse_query("Q(x, z) :- x -[a*]-> y, y -[b]-> z"),
    parse_query("Q(x) :- x -[aa*]-> y, y -[bb*]-> z, z -[a*]-> x"),
    parse_query("Q(x, z) :- x -[aa]-> y, y -[(a+b)^+]-> z"),
]


@pytest.mark.parametrize("workers", [None, 2])
def test_batch_differential_between_backends(workers):
    graph = uniform_random(6, 14, {"a", "b"}, seed=21)
    with use_backend("python"):
        want = tuple(
            evaluate_batch(BATCH_QUERIES, graph.copy(), "st",
                           max_workers=workers)
        )
    with use_backend("array"):
        got = tuple(
            evaluate_batch(BATCH_QUERIES, graph.copy(), "st",
                           max_workers=workers)
        )
    assert got == want


def _mutable_graph():
    graph = GraphDatabase()
    graph.add_path(["n0", "n1", "n2", "n3", "n0"], ["a", "a", "a", "a"])
    graph.add_edge("n0", "b", "n2")
    graph.add_edge("n1", "b", "n3")
    graph.add_edge("n3", "a", "n4")
    return graph


INCR_QUERY = parse_query("Q(x, z) :- x -[a*]-> y, y -[b]-> z")


def _incremental_trace(graph):
    """Maintained evaluation across a grow delta and a shrink delta."""
    incremental_store(graph)
    trace = [evaluate(INCR_QUERY, graph, "st")]
    graph.add_edge("n4", "a", "n0")
    trace.append(evaluate(INCR_QUERY, graph, "st"))
    graph.remove_edge("n2", "a", "n3")
    trace.append(evaluate(INCR_QUERY, graph, "st"))
    return tuple(trace)


def test_incremental_differential_between_backends():
    with use_backend("python"):
        want = _incremental_trace(_mutable_graph())
    with use_backend("array"):
        got = _incremental_trace(_mutable_graph())
    assert got == want
    assert want[0] != want[1]  # the deltas actually changed answers


def test_backend_switch_mid_graph_is_sound():
    """Caches populated under one backend stay correct when the other
    takes over on the same graph object (keys are backend-independent
    because the answers are)."""
    graph = uniform_random(5, 12, {"a", "b"}, seed=55)
    query = parse_query("Q(x, y) :- x -[a(a+b)*]-> y")
    with use_backend("array"):
        first = evaluate(query, graph, "st")
    with use_backend("python"):
        assert evaluate(query, graph, "st") == first
        graph.add_node(object())  # bump version: recompute under python
        recomputed = evaluate(query, graph, "st")
    with use_backend("array"):
        graph.add_node(object())
        assert evaluate(query, graph, "st") == recomputed
