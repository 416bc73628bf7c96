"""Nondeterministic finite automata (ε-free).

NFAs are compiled from regexes with the Glushkov (position) construction,
which yields ε-free automata directly — convenient because the containment
machinery of Theorem 5.1 manipulates partial runs letter by letter.

States are opaque hashable values.  The class is immutable in spirit: all
operations return new automata.
"""

from __future__ import annotations

from collections import deque

from repro.regular.syntax import (
    Concat,
    Empty,
    Epsilon,
    Optional,
    Plus,
    Star,
    Symbol,
    Union,
)


class NFA:
    """An ε-free NFA ⟨states, alphabet, transitions, initials, finals⟩.

    ``transitions`` maps ``(state, label) -> frozenset(states)``.
    """

    def __init__(self, states, alphabet, transitions, initials, finals):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.transitions = {
            key: frozenset(targets) for key, targets in transitions.items() if targets
        }
        self.initials = frozenset(initials)
        self.finals = frozenset(finals)
        if not self.initials <= self.states:
            raise ValueError("initial states must be states")
        if not self.finals <= self.states:
            raise ValueError("final states must be states")
        for (state, _label), targets in self.transitions.items():
            if state not in self.states or not targets <= self.states:
                raise ValueError("transition endpoints must be states")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_regex(regex, state_prefix=""):
        """Compile ``regex`` into an ε-free NFA via the Glushkov construction.

        ``state_prefix`` namespaces the states, so that automata built from
        different atoms of a query have disjoint state sets (the paper's
        A_Q2 is the disjoint union of per-atom automata, §C).
        """
        positions, first, last, follow, nullable = _glushkov(regex)
        initial = (state_prefix, "init")
        states = {initial}
        transitions = {}
        finals = set()
        for index in positions:
            states.add((state_prefix, index))
        for index in first:
            label = positions[index]
            transitions.setdefault((initial, label), set()).add((state_prefix, index))
        for index, successors in follow.items():
            for succ in successors:
                label = positions[succ]
                transitions.setdefault(((state_prefix, index), label), set()).add(
                    (state_prefix, succ)
                )
        for index in last:
            finals.add((state_prefix, index))
        if nullable:
            finals.add(initial)
        return NFA(states, regex.alphabet(), transitions, {initial}, finals)

    @staticmethod
    def from_word(letters, state_prefix=""):
        """Build the canonical line automaton accepting exactly one word."""
        letters = list(letters)
        states = [(state_prefix, i) for i in range(len(letters) + 1)]
        transitions = {}
        for i, label in enumerate(letters):
            transitions[(states[i], label)] = {states[i + 1]}
        return NFA(states, set(letters), transitions, {states[0]}, {states[-1]})

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def step(self, sources, label):
        """Return the set of states reachable from ``sources`` on ``label``."""
        result = set()
        for state in sources:
            result |= self.transitions.get((state, label), frozenset())
        return frozenset(result)

    def run(self, word, sources=None):
        """Return the state set reached reading ``word`` from ``sources``
        (defaults to the initial states)."""
        current = frozenset(self.initials if sources is None else sources)
        for label in word:
            current = self.step(current, label)
            if not current:
                break
        return current

    def accepts(self, word):
        """Return ``True`` iff ``word`` is in the language."""
        return bool(self.run(word) & self.finals)

    def has_run(self, source, target, word):
        """Return ``True`` iff there is a partial run source →w→ target."""
        return target in self.run(word, sources={source})

    # ------------------------------------------------------------------
    # Properties and transformations
    # ------------------------------------------------------------------

    def is_empty(self):
        """Return ``True`` iff the language is empty."""
        return self.shortest_word() is None

    def shortest_word(self):
        """Return a shortest accepted word, or ``None`` if the language is
        empty.  BFS over the subset construction on demand."""
        start = frozenset(self.initials)
        if start & self.finals:
            return ()
        seen = {start}
        queue = deque([(start, ())])
        labels = sorted(self.alphabet, key=repr)
        while queue:
            current, word = queue.popleft()
            for label in labels:
                nxt = self.step(current, label)
                if not nxt or nxt in seen:
                    continue
                if nxt & self.finals:
                    return word + (label,)
                seen.add(nxt)
                queue.append((nxt, word + (label,)))
        return None

    def trim(self):
        """Return an equivalent NFA restricted to useful states (reachable
        from an initial state and co-reachable to a final state)."""
        forward = self._closure(self.initials, self._successors)
        backward = self._closure(self.finals, self._predecessors)
        useful = forward & backward
        transitions = {
            (state, label): targets & useful
            for (state, label), targets in self.transitions.items()
            if state in useful
        }
        return NFA(
            useful or set(),
            self.alphabet,
            transitions,
            self.initials & useful,
            self.finals & useful,
        )

    def _successors(self, state):
        for (source, _label), targets in self.transitions.items():
            if source == state:
                yield from targets

    def _predecessors(self, state):
        for (source, _label), targets in self.transitions.items():
            if state in targets:
                yield source

    @staticmethod
    def _closure(seed, neighbours):
        seen = set(seed)
        frontier = deque(seed)
        while frontier:
            state = frontier.popleft()
            for nxt in neighbours(state):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def union(self, other):
        """Return an NFA for the union of the two languages (disjoint sum)."""
        relabel_self = {s: ("L", s) for s in self.states}
        relabel_other = {s: ("R", s) for s in other.states}
        states = set(relabel_self.values()) | set(relabel_other.values())
        transitions = {}
        for (state, label), targets in self.transitions.items():
            transitions[(relabel_self[state], label)] = {
                relabel_self[t] for t in targets
            }
        for (state, label), targets in other.transitions.items():
            transitions[(relabel_other[state], label)] = {
                relabel_other[t] for t in targets
            }
        initials = {relabel_self[s] for s in self.initials} | {
            relabel_other[s] for s in other.initials
        }
        finals = {relabel_self[s] for s in self.finals} | {
            relabel_other[s] for s in other.finals
        }
        return NFA(states, self.alphabet | other.alphabet, transitions, initials, finals)

    def intersection(self, other):
        """Return the product NFA for the intersection of the languages."""
        alphabet = self.alphabet & other.alphabet
        initials = {(a, b) for a in self.initials for b in other.initials}
        states = set(initials)
        transitions = {}
        frontier = deque(initials)
        while frontier:
            a, b = frontier.popleft()
            for label in alphabet:
                ta = self.transitions.get((a, label), frozenset())
                tb = other.transitions.get((b, label), frozenset())
                if not ta or not tb:
                    continue
                targets = {(x, y) for x in ta for y in tb}
                transitions[((a, b), label)] = targets
                for target in targets:
                    if target not in states:
                        states.add(target)
                        frontier.append(target)
        finals = {
            (a, b) for (a, b) in states if a in self.finals and b in other.finals
        }
        return NFA(states, alphabet, transitions, initials, finals)

    def reverse(self):
        """Return an NFA for the reversed language."""
        transitions = {}
        for (state, label), targets in self.transitions.items():
            for target in targets:
                transitions.setdefault((target, label), set()).add(state)
        return NFA(self.states, self.alphabet, transitions, self.finals, self.initials)

    def relabel(self, mapping):
        """Return a copy with edge labels renamed through ``mapping``."""
        transitions = {}
        for (state, label), targets in self.transitions.items():
            new_label = mapping.get(label, label)
            transitions.setdefault((state, new_label), set()).update(targets)
        alphabet = {mapping.get(label, label) for label in self.alphabet}
        return NFA(self.states, alphabet, transitions, self.initials, self.finals)

    def __repr__(self):
        return (
            f"NFA(states={len(self.states)}, alphabet={sorted(map(repr, self.alphabet))},"
            f" initials={len(self.initials)}, finals={len(self.finals)})"
        )


def _glushkov(regex):
    """Compute the Glushkov sets for ``regex``.

    Returns ``(positions, first, last, follow, nullable)`` where positions
    maps a position index to its symbol, and first/last/follow are over
    position indices.
    """
    positions = {}
    counter = [0]

    def visit(node):
        # Returns (first, last, follow, nullable) with follow as dict.
        if isinstance(node, Empty):
            return frozenset(), frozenset(), {}, False
        if isinstance(node, Epsilon):
            return frozenset(), frozenset(), {}, True
        if isinstance(node, Symbol):
            counter[0] += 1
            index = counter[0]
            positions[index] = node.label
            return frozenset([index]), frozenset([index]), {}, False
        if isinstance(node, Union):
            f1, l1, fo1, n1 = visit(node.left)
            f2, l2, fo2, n2 = visit(node.right)
            follow = _merge(fo1, fo2)
            return f1 | f2, l1 | l2, follow, n1 or n2
        if isinstance(node, Concat):
            f1, l1, fo1, n1 = visit(node.left)
            f2, l2, fo2, n2 = visit(node.right)
            follow = _merge(fo1, fo2)
            for index in l1:
                follow.setdefault(index, set()).update(f2)
            first = f1 | f2 if n1 else f1
            last = l1 | l2 if n2 else l2
            return first, last, follow, n1 and n2
        if isinstance(node, (Star, Plus)):
            f1, l1, fo1, n1 = visit(node.inner)
            follow = dict(fo1)
            for index in l1:
                follow.setdefault(index, set()).update(f1)
            nullable = True if isinstance(node, Star) else n1
            return f1, l1, follow, nullable
        if isinstance(node, Optional):
            f1, l1, fo1, _n1 = visit(node.inner)
            return f1, l1, fo1, True
        raise TypeError(f"unknown regex node: {node!r}")

    first, last, follow, nullable = visit(regex)
    return positions, first, last, follow, nullable


def _merge(left, right):
    merged = {k: set(v) for k, v in left.items()}
    for key, value in right.items():
        merged.setdefault(key, set()).update(value)
    return merged
