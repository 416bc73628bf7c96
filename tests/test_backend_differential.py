"""Differential tests for the numeric-backend seam (``use_backend``).

The backend selects only the product kernel: the ``array`` backend
(interned CSR adjacency, dense product kernel) must be
answer-for-answer identical to the ``python`` backend, whose
object-keyed sweep and settle serve as the differential reference
(the incremental store runs the same settle over product ints).  This
suite pins that equality at the product-reachability kernel and on
trail semantics, and hosts the differential matrix's python-backend
axis (:mod:`tests.differential_matrix`); it also checks the seam's
selection mechanics, the dense kernel's mask decoder, and the engine's
freedom from NumPy.

Every cross-backend comparison runs on ``graph.copy()``: the engine's
caches are version-keyed per graph *object*, so reusing one object
would turn the second backend's run into a cache hit.
"""

import itertools
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.engine import backend as backend_module
from repro.engine.adjacency import adjacency_index, edge_sort_key
from repro.engine.backend import (
    BACKEND_NAMES,
    active_backend,
    use_backend,
)
from repro.engine.cache import compiled_nfa
from repro.engine.incremental import incremental_store
from repro.engine.product import (
    _int_bits,
    product_reachability_pairs,
    seed_masks,
    settle,
    sweep,
)
from repro.engine.relations import atom_relation
from repro.engine.runtime import ExecutionContext
from repro.graphdb.generators import uniform_random
from repro.graphdb.graph import GraphDatabase
from repro.queries.parser import parse_query
from repro.reductions import pcp
from repro.regular.nfa import NFA
from repro.regular.parser import parse_regex
from repro.semantics.base import ALL_SEMANTICS, Semantics
from repro.semantics.evaluation import evaluate, in_evaluation
from repro.semantics.expansion import candidate_cqs, expansions
from repro.semantics.trails import evaluate_trails
from tests.differential_matrix import ST_AINJ, check, stripe


# ----------------------------------------------------------------------
# Seam selection mechanics
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_names_cover_exactly_the_registered_backends(self):
        assert set(BACKEND_NAMES) == set(backend_module._BY_NAME)

    def test_default_is_array(self, monkeypatch):
        monkeypatch.setattr(backend_module, "_override", None)
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


@pytest.mark.parametrize("seed", range(4))
def test_int_bits_matches_set_reference(seed):
    rng = random.Random(1000 * seed + 7)
    # Widths past one byte and past one machine word, plus the extremes.
    width = rng.choice((1, 8, 9, 64, 65, 130, 1 << 12))
    bits = {rng.randrange(width) for _ in range(rng.randrange(1, 40))}
    bits |= {0, width - 1}
    assert list(_int_bits(sum(1 << bit for bit in bits))) == sorted(bits)
    assert list(_int_bits(0)) == []


# ----------------------------------------------------------------------
# The object-keyed sweep and settle (python kernel; the store's settle)
# ----------------------------------------------------------------------


def _closure(succ, start):
    """States reachable from ``start`` in ``succ`` (itself included)."""
    seen = {start}
    stack = [start]
    while stack:
        for successor in succ[stack.pop()]:
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return seen


@pytest.mark.parametrize("seed", range(4))
def test_sweep_explores_exactly_the_reachable_product(seed):
    """From the seeds, :func:`sweep` reaches every product state the
    edge-by-edge definition reaches, lists each state's successors, and
    checkpoints once per expansion at the site its caller names."""
    rng = random.Random(1300 + seed)
    num_nodes = rng.randrange(1, 10)
    graph = uniform_random(
        num_nodes, rng.randrange(1, 2 * num_nodes * num_nodes + 1),
        {"a", "b"}, seed=seed,
    )
    nfa = compiled_nfa(parse_regex(rng.choice(KERNEL_REGEXES)))
    nodes = sorted(graph.nodes, key=repr)
    seeds = list(seed_masks(nodes, nfa))
    ctx = ExecutionContext()
    sites = []
    ctx.install_probe(sites.append)
    succ = sweep(adjacency_index(graph), nfa, seeds, "incremental.grow", ctx)

    def successors(product_node):
        node, state = product_node
        return {
            (edge.target, next_state)
            for edge in graph.out_edges(node)
            for next_state in nfa.transitions.get((state, edge.label), ())
        }

    reference = {}
    stack = list(seeds)
    while stack:
        product_node = stack.pop()
        if product_node in reference:
            continue
        reference[product_node] = successors(product_node)
        stack.extend(reference[product_node])
    assert set(succ) == set(reference)
    for product_node, listed in succ.items():
        assert set(listed) == reference[product_node], product_node
    assert sites == ["incremental.grow"] * len(succ)


@pytest.mark.parametrize("seed", range(4))
def test_settle_matches_the_naive_fixpoint(seed):
    """:func:`settle` condenses a region into its strongly connected
    components and gives each the OR of the base masks of every state
    that reaches it — checked against per-state closures on random
    regions with cycles, self-loops and states without base bits."""
    rng = random.Random(1400 + seed)
    states = [(f"v{i}", rng.choice((0, "q"))) for i in range(rng.randrange(1, 16))]
    states = list(dict.fromkeys(states))
    succ = {
        state: [rng.choice(states) for _ in range(rng.randrange(0, 4))]
        for state in states
    }
    base = {
        state: rng.randrange(1, 1 << 8)
        for state in rng.sample(states, rng.randrange(0, len(states) + 1))
    }
    components, masks = settle(succ, base)

    assert sorted(map(repr, (m for c in components for m in c))) == sorted(
        map(repr, states)
    )
    reach = {state: _closure(succ, state) for state in states}
    for component, mask in zip(components, masks):
        for member in component:
            assert set(component) == {
                other for other in reach[member] if member in reach[other]
            }
            want = 0
            for origin, bits in base.items():
                if member in reach[origin]:
                    want |= bits
            assert mask == want, member


# ----------------------------------------------------------------------
# The engine imports no NumPy
# ----------------------------------------------------------------------

_NUMPY_PROBE = """
import sys
import repro
from repro.devtools.obs.report import build_report
from repro.engine.backend import use_backend
from repro.graphdb.generators import uniform_random
from repro.queries.parser import parse_query
from repro.reductions import pcp
from repro.semantics.evaluation import evaluate

graph = uniform_random(6, 14, {"a", "b"}, seed=3)
with use_backend(sys.argv[1]):
    evaluate(parse_query("Q(x, y) :- x -[a(a+b)*]-> y"), graph, "st")
build_report()
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_engine_never_imports_numpy(backend_name):
    """Masks are Python ints under every backend, so neither importing
    the package nor evaluating a query pulls NumPy in — even where it
    is installed.  Runs in a fresh interpreter: this process may have
    NumPy loaded by some other test's dependency."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, backend_name],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


# ----------------------------------------------------------------------
# CSR adjacency
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_csr_matches_out_edges(seed):
    """Each CSR row lists the node's ``label``-successors in
    ``edge_sort_key`` order — string ids (whose repr order is not their
    numeric order), self-loops, isolated nodes, and a label most nodes
    lack included."""
    rng = random.Random(600 + seed)
    num_nodes = rng.randrange(2, 14)
    names = [f"v{i}" for i in range(num_nodes)]
    graph = GraphDatabase(nodes=names + ["isolated"])
    for _ in range(rng.randrange(1, 3 * num_nodes + 1)):
        graph.add_edge(rng.choice(names), rng.choice("ab"), rng.choice(names))
    for name in rng.sample(names, 2):
        graph.add_edge(name, rng.choice("ab"), name)
    graph.add_edge(names[0], "c", names[-1])
    index = adjacency_index(graph)
    csr = index.csr_out()
    nodes = index.nodes_sorted
    assert set(csr) == {edge.label for edge in graph.edges}
    for label, (offsets, targets) in csr.items():
        # Int tuples: the kernel reads the rows as built, never a copy.
        assert type(offsets) is tuple and type(targets) is tuple
        assert len(offsets) == len(nodes) + 1
        assert offsets[0] == 0
        for position, node in enumerate(nodes):
            got = [
                nodes[targets[slot]]
                for slot in range(offsets[position], offsets[position + 1])
            ]
            want = [
                edge.target
                for edge in sorted(graph.out_edges(node), key=edge_sort_key)
                if edge.label == label
            ]
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


def _hand_built_nfa(rng):
    """A random NFA outside the Glushkov shape: several initial states,
    states without transitions, and mixed-type state names (the dense
    kernel interns ``nfa.states`` by ``repr``)."""
    pool = [0, 1, "q", ("t", 2), ("t", 10)]
    states = rng.sample(pool, rng.randrange(1, len(pool) + 1))
    transitions = {}
    for state in states:
        for label in ("a", "b"):
            if rng.random() < 0.6:
                transitions[(state, label)] = set(
                    rng.sample(states, rng.randrange(1, len(states) + 1))
                )
    initials = rng.sample(states, rng.randrange(1, len(states) + 1))
    finals = rng.sample(states, rng.randrange(0, len(states) + 1))
    return NFA(states, {"a", "b"}, transitions, initials, finals)


@pytest.mark.parametrize("seed", range(8))
def test_product_kernel_differential_hand_built_nfa(seed):
    rng = random.Random(1100 + seed)
    num_nodes = rng.randrange(1, 9)
    graph = uniform_random(
        num_nodes, rng.randrange(1, 2 * num_nodes * num_nodes + 1),
        {"a", "b"}, seed=seed,
    )
    for _ in range(4):
        nfa = _hand_built_nfa(rng)
        with use_backend("python"):
            want = product_reachability_pairs(graph.copy(), nfa)
        with use_backend("array"):
            got = product_reachability_pairs(graph.copy(), nfa)
        assert got == want, (seed, nfa.transitions)


@pytest.mark.parametrize("seed", range(6))
def test_store_matches_kernel_on_hand_built_nfa(seed):
    """The incremental store walks ``nfa.states`` while the kernels
    follow transitions; on any valid NFA, its maintained relation after
    grow and shrink deltas equals a fresh kernel computation."""
    rng = random.Random(1200 + seed)
    nodes = [f"n{i}" for i in range(rng.randrange(2, 7))]
    graph = GraphDatabase(nodes=nodes)
    nfa = _hand_built_nfa(rng)
    incremental_store(graph)
    atom_relation(graph, nfa, "standard")
    present = set()
    for _ in range(12):
        edge = (rng.choice(nodes), rng.choice("ab"), rng.choice(nodes))
        if edge in present:
            present.discard(edge)
            graph.remove_edge(*edge)
        else:
            present.add(edge)
            graph.add_edge(*edge)
        maintained = set(atom_relation(graph, nfa, "standard"))
        assert maintained == product_reachability_pairs(graph.copy(), nfa)


# Fixed shapes for the dense kernel's automaton layers: a finite
# language (every state acyclic), a self-loop singleton, and a cycle
# with an acyclic prefix and suffix.
LAYER_REGEXES = ["abab", "ab*a", "ab(ab)^+ba"]


def _layer_nfas():
    """Hand-built NFAs whose cyclic components the Glushkov shape never
    produces: an initial state on a cycle with a second initial state
    feeding it, a state both initial and final inside a cycle, a dead
    state, and unreachable states (one on its own cycle, feeding the
    live part); and cycles that run only over a label no layer graph
    has (``c``), so the kernel settles them as cyclic components whose
    product layers hold no inner edge."""
    fed_cycle = NFA(
        ["p", "q", "s", "f", "dead", "u"], {"a", "b"},
        {("p", "a"): {"q"}, ("q", "b"): {"p"}, ("s", "b"): {"p"},
         ("q", "a"): {"f", "dead"}, ("u", "a"): {"p"}, ("u", "b"): {"u"}},
        initials=["p", "s"], finals=["f", "u"],
    )
    final_on_cycle = NFA(
        ["x", "y", "z"], {"a", "b"},
        {("x", "a"): {"y"}, ("y", "b"): {"x"}, ("y", "a"): {"z"},
         ("z", "a"): {"z"}},
        initials=["x"], finals=["x", "z"],
    )
    cycle_over_missing_label = NFA(
        ["x", "y", "z"], {"a", "b", "c"},
        {("x", "a"): {"y"}, ("y", "c"): {"x"}, ("y", "b"): {"z"},
         ("z", "c"): {"z"}},
        initials=["x"], finals=["y", "z"],
    )
    return [fed_cycle, final_on_cycle, cycle_over_missing_label]


def _layer_graph(seed):
    """Seed 0: one isolated node; seed 1: one node with self-loops on
    both labels; otherwise a random graph, odd seeds with self-loops."""
    if seed == 0:
        return GraphDatabase(nodes=["solo"])
    if seed == 1:
        return GraphDatabase(edges=[("solo", "a", "solo"),
                                    ("solo", "b", "solo")])
    rng = random.Random(1500 + seed)
    num_nodes = rng.randrange(2, 12)
    graph = uniform_random(num_nodes, rng.randrange(1, 3 * num_nodes + 1),
                           {"a", "b"}, seed=seed)
    if seed % 2:
        for node in rng.sample(range(num_nodes), min(3, num_nodes)):
            graph.add_edge(node, rng.choice("ab"), node)
    return graph


@pytest.mark.parametrize("seed", range(12))
def test_product_kernel_differential_automaton_layers(seed):
    graph = _layer_graph(seed)
    nfas = [compiled_nfa(parse_regex(text)) for text in LAYER_REGEXES]
    for nfa in nfas + _layer_nfas():
        with use_backend("python"):
            want = product_reachability_pairs(graph.copy(), nfa)
        with use_backend("array"):
            got = product_reachability_pairs(graph.copy(), nfa)
        assert got == want, (seed, nfa.transitions)


def test_product_kernel_differential_pcp_expansions():
    """The PCP reduction's ``q2`` atoms (Theorem 5.2; finite languages,
    11 and 35 states, so every state is its own automaton component)
    over a-inj quotients of ``q1``'s expansion that the bounded
    semi-decider checks."""
    q1, q2 = pcp.build_reduction(pcp.TRIVIAL_EXAMPLE)
    nfas = [compiled_nfa(disjunct.atoms[0].language) for disjunct in q2]
    assert sorted(len(nfa.states) for nfa in nfas) == [11, 35]
    (disjunct,) = q1.epsilon_free_union()
    (expansion,) = expansions(disjunct, 4, max_count=50)
    quotients = candidate_cqs(expansion, Semantics.ATOM_INJECTIVE, 100000)
    answered = 0
    for cq in itertools.islice(quotients, 0, 4400, 200):
        graph = cq.as_graph()
        for nfa in nfas:
            with use_backend("python"):
                want = product_reachability_pairs(graph.copy(), nfa)
            with use_backend("array"):
                got = product_reachability_pairs(graph.copy(), nfa)
            assert got == want, (cq, nfa)
            answered += bool(want)
    assert answered >= 20


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
# End-to-end: the matrix's python-backend axis, and fixed shapes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_evaluate_differential_between_backends(semantics, seed):
    """The matrix's ``python-backend`` axis: every case evaluated under
    the object-keyed kernel matches the reference (the rest of the
    matrix runs under the default backend)."""
    check("python-backend", stripe(seed, 4), [semantics])


@pytest.mark.parametrize("trail_semantics", ["atom-trail", "query-trail"])
def test_trail_semantics_differential_between_backends(trail_semantics):
    graph = uniform_random(5, 10, {"a", "b"}, seed=31)
    query = parse_query("Q(x, y) :- x -[a(a+b)*]-> y")
    with use_backend("python"):
        want = evaluate_trails(query, graph.copy(), trail_semantics)
    with use_backend("array"):
        got = evaluate_trails(query, graph.copy(), trail_semantics)
    assert got == want


# The matrix's batch, store and membership axes under the object-keyed
# kernel, on every fifth case (the full matrix runs them under the
# default backend).


def test_membership_binding_differential():
    """Pinned head variables restrict the base tables the same way under
    either kernel, and a bound value outside the graph restricts to ∅
    (no error)."""
    with use_backend("python"):
        check("in-evaluation", stripe(0, 5), ST_AINJ)
    query = parse_query("Q(x, y) :- x -[a(a+b)*]-> y")
    graph = uniform_random(6, 14, {"a", "b"}, seed=41)
    with use_backend("array"):
        assert not in_evaluation(query, graph, ("ghost-node", 0), "st")


@pytest.mark.parametrize("workers", [None, 2])
def test_batch_differential_between_backends(workers):
    # Any worker count selects the threaded axis, which runs 3 workers.
    with use_backend("python"):
        check("batch" if workers is None else "batch-threaded",
              stripe(1, 5), ST_AINJ)


def test_incremental_differential_between_backends():
    with use_backend("python"):
        check("store", stripe(2, 5), ST_AINJ)


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
