"""Unit tests for the regex AST and combinators."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.regular.syntax import (
    Concat,
    Empty,
    Epsilon,
    Optional,
    Plus,
    Star,
    Symbol,
    Union,
    concat,
    from_words,
    optional,
    plus,
    remove_epsilon,
    rename_symbols,
    star,
    symbol,
    union,
    word,
)
from repro.regular.nfa import NFA
from repro.regular.parser import parse_regex


class TestNullability:
    def test_epsilon_is_nullable(self):
        assert Epsilon().nullable()

    def test_symbol_is_not_nullable(self):
        assert not Symbol("a").nullable()

    def test_empty_is_not_nullable(self):
        assert not Empty().nullable()

    def test_star_is_nullable(self):
        assert star(Symbol("a")).nullable()

    def test_plus_not_nullable_unless_inner(self):
        assert not plus(Symbol("a")).nullable()
        assert plus(optional(Symbol("a"))).nullable() if isinstance(
            plus(optional(Symbol("a"))), (Plus, Optional)
        ) else True

    def test_concat_nullable_iff_both(self):
        assert not concat(star(Symbol("a")), Symbol("b")).nullable()
        assert Concat(star(Symbol("a")), star(Symbol("b"))).nullable()

    def test_union_nullable_iff_either(self):
        assert Union(Symbol("a"), Epsilon()).nullable()
        assert not Union(Symbol("a"), Symbol("b")).nullable()


class TestStarFreedom:
    def test_word_is_star_free(self):
        assert word("abc").is_star_free()

    def test_star_is_not_star_free(self):
        assert not star(Symbol("a")).is_star_free()

    def test_plus_is_not_star_free(self):
        assert not plus(Symbol("a")).is_star_free()

    def test_union_of_words_is_star_free(self):
        assert from_words(["ab", "ba", "c"]).is_star_free()


class TestSmartConstructors:
    def test_concat_elides_epsilon(self):
        assert concat(Epsilon(), Symbol("a")) == Symbol("a")
        assert concat(Symbol("a"), Epsilon()) == Symbol("a")

    def test_concat_absorbs_empty(self):
        assert concat(Empty(), Symbol("a")) == Empty()

    def test_union_elides_empty(self):
        assert union(Empty(), Symbol("a")) == Symbol("a")

    def test_union_collapses_identical(self):
        assert union(Symbol("a"), Symbol("a")) == Symbol("a")

    def test_star_of_star_collapses(self):
        inner = star(Symbol("a"))
        assert star(inner) == inner

    def test_star_of_empty_is_epsilon(self):
        assert star(Empty()) == Epsilon()

    def test_plus_of_star_is_star(self):
        assert plus(star(Symbol("a"))) == star(Symbol("a"))

    def test_word_builds_concatenation(self):
        w = word("ab")
        assert NFA.from_regex(w).accepts(("a", "b"))
        assert not NFA.from_regex(w).accepts(("a",))


class TestAlphabet:
    def test_alphabet_collects_symbols(self):
        regex = union(word("ab"), star(Symbol("c")))
        assert regex.alphabet() == {"a", "b", "c"}

    def test_alphabet_of_epsilon_empty(self):
        assert Epsilon().alphabet() == frozenset()


class TestRemoveEpsilon:
    def cases(self):
        return [
            star(Symbol("a")),
            optional(word("ab")),
            union(Epsilon(), Symbol("a")),
            concat(star(Symbol("a")), star(Symbol("b"))),
            star(union(Symbol("a"), Epsilon())),
        ]

    @pytest.mark.parametrize("index", range(5))
    def test_removes_epsilon_preserves_rest(self, index):
        regex = self.cases()[index]
        stripped = remove_epsilon(regex)
        original = NFA.from_regex(regex)
        cleaned = NFA.from_regex(stripped)
        assert not cleaned.accepts(())
        # Every nonempty word up to length 3 keeps its membership.
        from repro.regular.words import enumerate_words

        words = set(enumerate_words(original, 3))
        cleaned_words = set(enumerate_words(cleaned, 3))
        assert cleaned_words == words - {()}

    def test_non_nullable_unchanged(self):
        regex = word("ab")
        assert remove_epsilon(regex) == regex


class TestRename:
    def test_rename_symbols(self):
        regex = union(word("ab"), star(Symbol("c")))
        renamed = rename_symbols(regex, {"a": "x", "c": "z"})
        assert renamed.alphabet() == {"x", "b", "z"}

    def test_rename_missing_keys_kept(self):
        assert rename_symbols(Symbol("a"), {}) == Symbol("a")


class TestOperatorSugar:
    def test_plus_operator_is_union(self):
        assert symbol("a") + symbol("b") == Union(Symbol("a"), Symbol("b"))

    def test_mul_operator_is_concat(self):
        assert symbol("a") * symbol("b") == Concat(Symbol("a"), Symbol("b"))

    @pytest.mark.parametrize("regex", [
        union(concat(Symbol("a"), Symbol("b")), star(Symbol("c"))),
        # A bare postfix '+' would read back as union: a ∪ b*.
        concat(plus(Symbol("a")), star(Symbol("b"))),
        plus(concat(Symbol("a"), Symbol("b"))),
        plus(concat(plus(Symbol("a")), Symbol("b"))),
        # Multi-character labels would read back as one symbol per letter.
        concat(Symbol("knows"), Symbol("knows")),
        plus(union(Symbol("I1"), Symbol("a"))),
    ], ids=["union-concat-star", "plus-then-star", "plus-of-concat",
            "nested-plus", "multichar-symbols", "plus-of-multichar"])
    def test_str_roundtrips_through_parser(self, regex):
        from repro.regular.parser import parse_regex

        assert parse_regex(str(regex)) == regex


class TestCachedHash:
    """Each node caches its structural hash; the cache is invisible to
    equality and ``repr`` and never survives a pickle or copy, because
    str hashes differ across processes."""

    TEXT = "(<ab>c)^+ + d*e? + ε"

    def test_cache_is_invisible_to_eq_and_repr(self):
        hashed, fresh = parse_regex(self.TEXT), parse_regex(self.TEXT)
        text = repr(hashed)
        assert hash(hashed) == hash(fresh)
        assert hashed == fresh and repr(hashed) == repr(fresh) == text

    def test_copies_hash_and_compare_equal(self):
        regex = parse_regex(self.TEXT)
        hash(regex)
        for clone in (copy.copy(regex), copy.deepcopy(regex),
                      pickle.loads(pickle.dumps(regex))):
            assert clone == regex and hash(clone) == hash(regex)

    def test_pickle_across_hash_seeds(self):
        dump = ("import pickle, sys; from repro.regular.parser import "
                f"parse_regex; r = parse_regex({self.TEXT!r}); hash(r); "
                "sys.stdout.write(pickle.dumps(r).hex())")
        load = ("import pickle, sys; from repro.regular.parser import "
                f"parse_regex; fresh = parse_regex({self.TEXT!r}); "
                "loaded = pickle.loads(bytes.fromhex(sys.stdin.read())); "
                "assert loaded == fresh and hash(loaded) == hash(fresh); "
                "assert {fresh: 1}[loaded] == 1; print('ok')")
        src = str(Path(__file__).resolve().parents[1] / "src")

        def run(code, seed, stdin=""):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", code], input=stdin, env=env,
                capture_output=True, text=True, timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            return completed.stdout

        assert run(load, "2", run(dump, "1")).strip() == "ok"
