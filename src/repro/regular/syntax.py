"""Regular-expression abstract syntax.

Symbols are arbitrary hashable Python values (the paper's edge labels are
abstract symbols such as ``a``, ``I_3`` or ``#`` — strings work well, but
tuples are convenient for generated alphabets).  The AST is immutable, and
nodes expose the handful of structural predicates the rest of the library
needs: nullability (does the language contain the empty word ``ε``), star
freedom (is the language finite, the ``CRPQfin`` condition of the paper),
and the alphabet of mentioned symbols.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


class Regex:
    """Base class for regex AST nodes.

    Subclasses are frozen dataclasses; build them through the module-level
    combinators (:func:`concat`, :func:`union`, :func:`star`, ...) which
    perform light simplification so that generated expressions stay small.
    """

    def alphabet(self):
        """Return the frozenset of symbols mentioned in this expression."""
        raise NotImplementedError

    def nullable(self):
        """Return ``True`` iff the language contains the empty word."""
        raise NotImplementedError

    def is_star_free(self):
        """Return ``True`` iff no Kleene star/plus occurs (finite language).

        This is the paper's ``CRPQfin`` membership condition (§2).
        """
        raise NotImplementedError

    # Operator sugar so that tests and examples read like the paper.
    def __add__(self, other):
        return union(self, other)

    def __mul__(self, other):
        return concat(self, other)

    # The dataclass-generated hash re-walks the whole tree on every call,
    # and regexes key the NFA and analysis caches, so each node keeps its
    # structural hash once computed.  The cache is not a field: it takes
    # no part in ``__eq__`` or ``repr``.
    def __hash__(self):
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = self._structural_hash()
        return cached

    def __getstate__(self):
        # str hashes differ across processes, so a pickled or copied
        # node recomputes its hash rather than restoring a stale one.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def _node(cls):
    """Declare a regex AST node: a frozen dataclass whose generated
    structural hash is kept as ``_structural_hash`` and cached by
    :meth:`Regex.__hash__`."""
    cls = dataclass(frozen=True)(cls)
    cls._structural_hash = cls.__hash__
    cls.__hash__ = Regex.__hash__
    return cls


@_node
class Empty(Regex):
    """The empty language ∅."""

    def alphabet(self):
        return frozenset()

    def nullable(self):
        return False

    def is_star_free(self):
        return True

    def __str__(self):
        return "∅"


@_node
class Epsilon(Regex):
    """The language {ε}."""

    def alphabet(self):
        return frozenset()

    def nullable(self):
        return True

    def is_star_free(self):
        return True

    def __str__(self):
        return "ε"


@_node
class Symbol(Regex):
    """A single-symbol language {a}."""

    label: object

    def alphabet(self):
        return frozenset([self.label])

    def nullable(self):
        return False

    def is_star_free(self):
        return True

    def __str__(self):
        # Bare only when the parser reads the text back as this one
        # symbol; anything else uses the ``<name>`` form.
        text = str(self.label)
        if len(text) == 1 and text not in _RESERVED and not text.isspace():
            return text
        return f"<{text}>"


@_node
class Concat(Regex):
    """Concatenation L1 · L2."""

    left: Regex
    right: Regex

    def alphabet(self):
        return self.left.alphabet() | self.right.alphabet()

    def nullable(self):
        return self.left.nullable() and self.right.nullable()

    def is_star_free(self):
        return self.left.is_star_free() and self.right.is_star_free()

    def __str__(self):
        return f"{_wrap(self.left)}{_wrap(self.right)}"


@_node
class Union(Regex):
    """Union L1 + L2."""

    left: Regex
    right: Regex

    def alphabet(self):
        return self.left.alphabet() | self.right.alphabet()

    def nullable(self):
        return self.left.nullable() or self.right.nullable()

    def is_star_free(self):
        return self.left.is_star_free() and self.right.is_star_free()

    def __str__(self):
        return f"({self.left}+{self.right})"


@_node
class Star(Regex):
    """Kleene closure L*."""

    inner: Regex

    def alphabet(self):
        return self.inner.alphabet()

    def nullable(self):
        return True

    def is_star_free(self):
        return False

    def __str__(self):
        return f"{_wrap(self.inner)}*"


@_node
class Plus(Regex):
    """Positive closure L+ = L · L*."""

    inner: Regex

    def alphabet(self):
        return self.inner.alphabet()

    def nullable(self):
        return self.inner.nullable()

    def is_star_free(self):
        return False

    def __str__(self):
        # ``^+``: a bare postfix ``+`` would read back as union.
        return f"{_wrap(self.inner)}^+"


@_node
class Optional(Regex):
    """L? = L + ε."""

    inner: Regex

    def alphabet(self):
        return self.inner.alphabet()

    def nullable(self):
        return True

    def is_star_free(self):
        return self.inner.is_star_free()

    def __str__(self):
        return f"{_wrap(self.inner)}?"


#: Characters the regex parser gives a meaning of their own.
_RESERVED = frozenset("()<+*?^ε∅")


def _wrap(node):
    """Parenthesize non-atomic nodes for printing."""
    if isinstance(node, (Symbol, Epsilon, Empty, Star, Plus, Optional)):
        return str(node)
    return f"({node})"


def symbol(label):
    """Build the single-symbol regex for ``label``."""
    return Symbol(label)


def word(labels):
    """Build the regex for the single word given as a sequence of labels."""
    result = Epsilon()
    for label in labels:
        result = concat(result, Symbol(label))
    return result


def from_words(words_iterable):
    """Build a (star-free) regex denoting exactly the given finite set of words."""
    result = Empty()
    for w in words_iterable:
        result = union(result, word(w))
    return result


def concat(left, right):
    """Smart concatenation: simplifies ∅ and ε neighbours."""
    if isinstance(left, Empty) or isinstance(right, Empty):
        return Empty()
    if isinstance(left, Epsilon):
        return right
    if isinstance(right, Epsilon):
        return left
    return Concat(left, right)


def union(left, right):
    """Smart union: simplifies ∅ neighbours and identical operands."""
    if isinstance(left, Empty):
        return right
    if isinstance(right, Empty):
        return left
    if left == right:
        return left
    return Union(left, right)


def star(inner):
    """Smart star: collapses nested closures and trivial operands."""
    if isinstance(inner, (Empty, Epsilon)):
        return Epsilon()
    if isinstance(inner, (Star, Plus)):
        return Star(inner.inner)
    return Star(inner)


def plus(inner):
    """Smart plus: collapses trivial operands."""
    if isinstance(inner, Empty):
        return Empty()
    if isinstance(inner, Epsilon):
        return Epsilon()
    if isinstance(inner, Star):
        return inner
    return Plus(inner)


def optional(inner):
    """Smart optional."""
    if isinstance(inner, (Empty, Epsilon)):
        return Epsilon()
    if inner.nullable():
        return inner
    return Optional(inner)


def remove_epsilon(regex):
    """Return a regex for L \\ {ε}.

    Used by the ε-elimination step of §2.1: the semantics of a CRPQ whose
    atom language contains ε is the union of the ε-free variant and the
    variable-collapsed query.
    """
    if isinstance(regex, Empty):
        return Empty()
    if isinstance(regex, Epsilon):
        return Empty()
    if isinstance(regex, Symbol):
        return regex
    if isinstance(regex, Union):
        return union(remove_epsilon(regex.left), remove_epsilon(regex.right))
    if isinstance(regex, Concat):
        if not regex.nullable():
            return regex
        # ε ∈ L1·L2 only when ε ∈ L1 and ε ∈ L2; then
        # L1·L2 \ {ε} = (L1\ε)·L2 + (L2\ε).
        return union(
            concat(remove_epsilon(regex.left), regex.right),
            remove_epsilon(regex.right),
        )
    if isinstance(regex, Star):
        return plus(remove_epsilon(regex.inner))
    if isinstance(regex, Plus):
        if not regex.nullable():
            return regex
        return plus(remove_epsilon(regex.inner))
    if isinstance(regex, Optional):
        return remove_epsilon(regex.inner)
    raise TypeError(f"unknown regex node: {regex!r}")


def rename_symbols(regex, mapping):
    """Return a copy of ``regex`` with symbols renamed through ``mapping``.

    Symbols absent from ``mapping`` are kept unchanged.
    """
    if isinstance(regex, (Empty, Epsilon)):
        return regex
    if isinstance(regex, Symbol):
        return Symbol(mapping.get(regex.label, regex.label))
    if isinstance(regex, (Concat, Union)):
        return dataclasses.replace(
            regex,
            left=rename_symbols(regex.left, mapping),
            right=rename_symbols(regex.right, mapping),
        )
    if isinstance(regex, (Star, Plus, Optional)):
        return dataclasses.replace(regex, inner=rename_symbols(regex.inner, mapping))
    raise TypeError(f"unknown regex node: {regex!r}")
