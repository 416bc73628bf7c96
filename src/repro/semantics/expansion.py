"""Expansions of CRPQs (§2.2) and atom-injective expansions (§4.1).

An *expansion* of ``Q`` picks a word w ∈ L for every atom ``x -[L]-> y``,
replaces the atom by a fresh path of single-label atoms spelling w (or by
the equality ``x = y`` when w = ε), and collapses the equality atoms.  The
result is a CQ together with provenance: which collapsed variable came from
which atom — needed for the φ-atom-related disequalities of atom-injective
homomorphisms.

An *a-inj-expansion* additionally identifies some variables that are not
atom-related (Lemma 4.4): these quotients are exactly what makes
atom-injective containment undecidable (Theorem 5.2).
"""

from __future__ import annotations

import itertools

from repro.errors import SearchBudgetExceeded
from repro.queries.atoms import CQAtom
from repro.queries.cq import CQ, CQWithEqualities
from repro.regular.words import enumerate_words, language_words_if_finite
from repro.semantics.base import Semantics


class Expansion:
    """An expansion E of a CRPQ Q, with provenance.

    Attributes:
        query: the source CRPQ.
        profile: tuple of words (one per atom; ``()`` encodes ε).
        cq: the collapsed CQ ``E = Ẽ≡``.
        phi: the canonical renaming Φ : vars(Ẽ) → vars(E).
        atom_variables: tuple, per atom index, of the frozenset of
            E-variables its w-expansion touches (images under Φ).
    """

    def __init__(self, query, profile):
        self.query = query
        self.profile = tuple(tuple(word) for word in profile)
        if len(self.profile) != len(query.atoms):
            raise ValueError("profile must give one word per atom")
        cq_atoms = []
        equalities = []
        raw_atom_vars = []
        for index, (atom, word) in enumerate(zip(query.atoms, self.profile)):
            if not word:
                equalities.append((atom.source, atom.target))
                raw_atom_vars.append({atom.source, atom.target})
                continue
            variables = [atom.source]
            for position in range(1, len(word)):
                variables.append(("_exp", index, position))
            variables.append(atom.target)
            for (source, target), label in zip(zip(variables, variables[1:]), word):
                cq_atoms.append(CQAtom(source, label, target))
            raw_atom_vars.append(set(variables))
        with_eq = CQWithEqualities(
            query.head, cq_atoms, equalities, extra_variables=query.variables
        )
        self.cq, self.phi = with_eq.collapse()
        self.atom_variables = tuple(
            frozenset(self.phi[v] for v in variables) for variables in raw_atom_vars
        )

    def atom_related_pairs(self):
        """All unordered pairs of distinct φ-atom-related variables of E.

        An atom-injective homomorphism from E must keep exactly these pairs
        apart (§2.2).
        """
        pairs = set()
        for variables in self.atom_variables:
            for x, y in itertools.combinations(sorted(variables, key=repr), 2):
                pairs.add((x, y))
        return frozenset(pairs)

    def size(self):
        """Number of variables of the collapsed CQ."""
        return len(self.cq.variables)

    def __str__(self):
        words = ", ".join(
            "ε" if not word else "".join(map(str, word)) for word in self.profile
        )
        return f"Expansion[{words}] of {self.query}"


def expansion_for_profile(query, profile):
    """Build the expansion of ``query`` for an explicit word profile."""
    return Expansion(query, profile)


def expansions(query, max_word_length, max_count=None):
    """Yield expansions of ``query`` with every atom word of length ≤ k.

    Complete for ``max_word_length`` large enough when all languages are
    finite; otherwise a bounded window into the infinite expansion space
    (used by semi-deciders).  Deterministic order.
    """
    yield from _profile_expansions(query, max_count, [
        list(enumerate_words(atom.language, max_word_length))
        for atom in query.atoms])


def all_expansions(query, max_count=None):
    """Yield *all* expansions of a star-free CRPQ (finite languages).

    Raises ``ValueError`` on queries with infinite languages — that is the
    undecidability frontier, use :func:`expansions` with a bound instead.
    """
    yield from _profile_expansions(query, max_count, [
        language_words_if_finite(atom.language) for atom in query.atoms])


def _profile_expansions(query, max_count, per_atom_words):
    """One expansion per word profile (one word per atom, product order);
    more than ``max_count`` raises :class:`SearchBudgetExceeded`."""
    for produced, profile in enumerate(itertools.product(*per_atom_words), 1):
        if max_count is not None and produced > max_count:
            raise SearchBudgetExceeded("expansion enumeration budget", max_count)
        yield Expansion(query, profile)


class AInjExpansion:
    """An atom-injective expansion F of Q (§4.1): an expansion E quotiented
    by identifications J that never merge atom-related variables."""

    def __init__(self, expansion, blocks):
        self.expansion = expansion
        self.blocks = tuple(frozenset(block) for block in blocks)
        mapping = {}
        for block in self.blocks:
            representative = min(block, key=repr)
            for member in block:
                mapping[member] = representative
        self.mapping = mapping
        self.cq = expansion.cq.rename(mapping)

    @property
    def query(self):
        return self.expansion.query

    def is_trivial(self):
        """True iff no identification happened (F = E)."""
        return all(len(block) == 1 for block in self.blocks)

    def __str__(self):
        merged = [sorted(map(str, block)) for block in self.blocks if len(block) > 1]
        return f"AInjExpansion(merges={merged}) of {self.expansion}"


def _partitions_avoiding(items, conflicting):
    """Yield partitions of ``items`` (list) such that no block contains a
    conflicting pair.  ``conflicting`` is a set of frozensets of size 2.

    Classic restricted-growth enumeration; the identity partition comes
    first.
    """
    items = list(items)

    def extend(index, blocks):
        if index == len(items):
            yield [list(block) for block in blocks]
            return
        item = items[index]
        # New singleton block first => identity partition is produced first.
        blocks.append([item])
        yield from extend(index + 1, blocks)
        blocks.pop()
        for block in blocks:
            if any(frozenset((item, other)) in conflicting for other in block):
                continue
            block.append(item)
            yield from extend(index + 1, blocks)
            block.pop()

    yield from extend(0, [])


def atom_injective_expansions(expansion, max_count=None):
    """Yield the a-inj-expansions derived from one expansion E.

    Enumerates all quotients of vars(E) whose blocks avoid atom-related
    pairs (Lemma 4.4 / Prop 4.6).  The identity quotient (F = E) comes
    first.  The number of quotients grows like a Bell number; ``max_count``
    raises :class:`SearchBudgetExceeded` when exceeded.
    """
    conflicting = {frozenset(pair) for pair in expansion.atom_related_pairs()}
    variables = sorted(expansion.cq.variables, key=repr)
    produced = 0
    for blocks in _partitions_avoiding(variables, conflicting):
        produced += 1
        if max_count is not None and produced > max_count:
            raise SearchBudgetExceeded("a-inj-expansion enumeration budget", max_count)
        yield AInjExpansion(expansion, blocks)


def candidate_cqs(expansion, semantics, quotient_budget=None):
    """Yield the CQs §4.1 checks for one expansion E: under atom-injective
    semantics E's a-inj quotients (identity first, Lemma 4.4), else E.

    Lazy, so a caller checks each as it comes: the quotient past
    ``quotient_budget`` raises :class:`SearchBudgetExceeded` instead.
    """
    if semantics is Semantics.ATOM_INJECTIVE:
        quotients = atom_injective_expansions(expansion, quotient_budget)
        yield from (quotient.cq for quotient in quotients)
    else:
        yield expansion.cq
