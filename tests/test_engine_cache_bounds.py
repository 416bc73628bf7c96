"""Bounds on the process-wide engine caches.

Batch workloads push many distinct regexes through ``compiled_nfa``;
the NFA and reverse-NFA caches must stay within their cap while keeping
recently used automata interned (identity-stable), because the
graph-scoped relation caches key on NFA identity.
"""

import pytest

from repro.engine import cache as engine_cache
from repro.engine.cache import _LRUCache, compiled_nfa, nfa_masks, reversed_nfa
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
        monkeypatch.setattr(engine_cache, "_reverse_cache", _LRUCache(4))
        monkeypatch.setattr(engine_cache, "_masks_cache", _LRUCache(4))

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

    def test_reverse_cache_stays_bounded(self, tiny_caches):
        for i in range(10):
            reversed_nfa(compiled_nfa(Symbol(("R", i))))
        assert len(engine_cache._reverse_cache) <= 4

    def test_mask_cache_stays_bounded_and_interned(self, tiny_caches):
        nfas = [compiled_nfa(Symbol(("M", i))) for i in range(10)]
        masks = [nfa_masks(nfa) for nfa in nfas]
        assert len(engine_cache._masks_cache) <= 4
        assert nfa_masks(nfas[-1]) is masks[-1]
        assert nfa_masks(None) is nfa_masks(None)


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
