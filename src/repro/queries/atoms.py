"""Query atoms.

Two flavours: :class:`CQAtom` carries a single edge label (conjunctive
queries, which double as graph databases) and :class:`Atom` carries a
regular language (CRPQs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.regular.syntax import Regex, Symbol


@dataclass(frozen=True)
class CQAtom:
    """A conjunctive-query atom x -a-> y (a single edge label)."""

    source: object
    label: object
    target: object

    def variables(self):
        return (self.source, self.target)

    def rename(self, mapping):
        """Rename variables through ``mapping`` (missing keys unchanged)."""
        return CQAtom(
            mapping.get(self.source, self.source),
            self.label,
            mapping.get(self.target, self.target),
        )

    def to_crpq_atom(self):
        """View as a CRPQ atom with the singleton language {label}."""
        return Atom(self.source, Symbol(self.label), self.target)

    def __str__(self):
        return f"{self.source} -{self.label}-> {self.target}"


@dataclass(frozen=True)
class Atom:
    """A CRPQ atom x -[L]-> y for a regular language L (a Regex)."""

    source: object
    language: Regex
    target: object

    def variables(self):
        return (self.source, self.target)

    def rename(self, mapping):
        """Rename variables through ``mapping`` (missing keys unchanged)."""
        return Atom(
            mapping.get(self.source, self.source),
            self.language,
            mapping.get(self.target, self.target),
        )

    def nfa(self, state_prefix=None):
        """Compile the language to an ε-free NFA (memoized structurally).

        ``state_prefix`` namespaces states (per-atom disjointness, as in the
        paper's combined automaton A_Q2).
        """
        from repro.engine.cache import compiled_nfa

        prefix = state_prefix if state_prefix is not None else ""
        return compiled_nfa(self.language, state_prefix=prefix)

    def is_loop(self):
        """True iff source and target are the same variable (x -L-> x)."""
        return self.source == self.target

    def __str__(self):
        return f"{self.source} -[{self.language}]-> {self.target}"
