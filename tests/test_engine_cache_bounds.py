"""Bounds on the process-wide engine caches.

Batch workloads push many distinct regexes through ``compiled_nfa``;
the NFA cache and the per-automaton record cache must stay within
their cap while keeping recently used automata interned
(identity-stable), because the graph-scoped relation caches key on NFA
identity.
"""

import pytest

from repro.engine import cache as engine_cache
from repro.engine.cache import (
    _LRUCache,
    clear_compilation_caches,
    compiled_nfa,
    nfa_masks,
    nfa_record,
)
from repro.regular.nfa import NFA
from repro.regular.syntax import Symbol, concat, star


class TestLRUCache:
    def test_caps_at_size(self):
        lru = _LRUCache(3)
        for i in range(10):
            lru.setdefault(i, str(i))
        assert len(lru) == 3
        assert 9 in lru and 8 in lru and 7 in lru

    def test_get_refreshes_recency(self):
        lru = _LRUCache(2)
        lru.setdefault("a", 1)
        lru.setdefault("b", 2)
        assert lru.get("a") == 1  # refresh "a"; "b" is now stalest
        lru.setdefault("c", 3)
        assert "a" in lru and "c" in lru and "b" not in lru

    def test_miss_returns_none_and_clear(self):
        lru = _LRUCache(2)
        assert lru.get("missing") is None
        lru.setdefault("a", 1)
        assert lru.setdefault("a", 2) == 1  # the first value is kept
        lru.clear()
        assert len(lru) == 0


class TestCompilationCacheBounds:
    @pytest.fixture
    def tiny_caches(self, monkeypatch):
        monkeypatch.setattr(engine_cache, "_nfa_cache", _LRUCache(4))
        monkeypatch.setattr(engine_cache, "_record_cache", _LRUCache(4))

    def test_nfa_cache_stays_bounded(self, tiny_caches):
        regexes = [star(concat(Symbol(("L", i)), Symbol("a"))) for i in range(10)]
        for regex in regexes:
            compiled_nfa(regex)
        assert len(engine_cache._nfa_cache) <= 4

    def test_recent_entries_stay_interned(self, tiny_caches):
        regexes = [star(Symbol(("L", i))) for i in range(10)]
        compiled = [compiled_nfa(regex) for regex in regexes]
        # The most recent compilation must still be identity-stable —
        # that is what keeps the identity-keyed graph caches effective.
        assert compiled_nfa(regexes[-1]) is compiled[-1]
        # An evicted regex recompiles to an equivalent (fresh) automaton.
        assert compiled_nfa(regexes[0]) is not compiled[0]

    def test_record_cache_stays_bounded(self, tiny_caches):
        for i in range(10):
            nfa_record(compiled_nfa(Symbol(("R", i))))
        assert len(engine_cache._record_cache) <= 4

    def test_records_and_masks_stay_bounded_and_interned(self, tiny_caches):
        nfas = [compiled_nfa(Symbol(("M", i))) for i in range(10)]
        masks = [nfa_masks(nfa) for nfa in nfas]
        assert len(engine_cache._record_cache) <= 4
        assert nfa_record(nfas[-1]) is nfa_record(nfas[-1])
        assert nfa_masks(nfas[-1]) is masks[-1]
        assert nfa_masks(None) is nfa_masks(None)

    def test_clear_compilation_caches_drops_the_records(self, tiny_caches):
        nfa = compiled_nfa(Symbol("c"))
        record = nfa_record(nfa)
        clear_compilation_caches()
        assert len(engine_cache._nfa_cache) == 0
        assert len(engine_cache._record_cache) == 0
        assert nfa_record(nfa) is not record


def test_mask_step_tables_agree_with_the_automaton():
    """Running a word over masks, forwards from the initial mask or
    backwards from the final mask, accepts exactly the automaton's
    language."""
    import itertools

    nfa = compiled_nfa(concat(star(Symbol("a")), concat(Symbol("b"), Symbol("a"))))
    masks = nfa_masks(nfa)
    for length in range(5):
        for word in itertools.product("abc", repeat=length):
            forward, backward = masks.initial, masks.finals
            for label in word:
                forward = masks.step[forward, label]
            for label in reversed(word):
                backward = masks.back[backward, label]
            assert bool(forward & masks.finals) == nfa.accepts(word)
            assert bool(backward & masks.initial) == nfa.accepts(word)


def test_record_agrees_with_the_automaton():
    """Ids follow repr order, the reverse moves and labels are the
    automaton's, and the condensation is topological and holds every
    move exactly once, under the component its targets are in."""
    nfa = NFA(
        ["p", "q", "s", "f", "u"], {"a", "b"},
        {("p", "a"): {"q"}, ("q", "b"): {"p", "f"}, ("s", "b"): {"p"},
         ("u", "a"): {"p"}, ("u", "b"): {"u"}, ("f", "a"): {"f"}},
        initials=["p", "s"], finals=["f"],
    )
    record = nfa_record(nfa)
    assert record.states == tuple(sorted(nfa.states, key=repr))
    assert record.initial_ids == {record.state_id[s] for s in nfa.initials}
    assert record.final_ids == {record.state_id[s] for s in nfa.finals}
    assert record.by_label.keys() == {"a", "b"}
    assert {key: set(states) for key, states in record.reverse.items()} == {
        key: set(states) for key, states in nfa.reverse().transitions.items()
    }
    assert {(state, label, target)
            for label, moves in record.by_label.items()
            for state, targets in moves for target in targets} == {
        (state, label, target)
        for (state, label), targets in nfa.transitions.items()
        for target in targets
    }
    position = {}
    for rank, (members, *_) in enumerate(record.components):
        for state in members:
            position[state] = rank
    assert sorted(position) == list(range(len(nfa.states)))
    moves = []
    for rank, (members, _, moves_in) in enumerate(record.components):
        for source, label, into in moves_in:
            assert position[source] <= rank
            assert set(into) <= set(members)
            moves.extend((source, label, target) for target in into)
    assert len(moves) == len(set(moves))
    state_id = record.state_id
    assert set(moves) == {
        (state_id[state], label, state_id[target])
        for (state, label), targets in nfa.transitions.items()
        for target in targets
    }
    cyclic = {tuple(sorted(record.states[s] for s in members))
              for members, is_cyclic, _ in record.components if is_cyclic}
    assert cyclic == {("p", "q"), ("f",), ("u",)}
    masks = nfa_masks(nfa)
    assert masks.initial == sum(1 << state for state in record.initial_ids)
    assert masks.finals == 1 << state_id["f"]
