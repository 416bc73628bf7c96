"""Conjunctive regular path queries (CRPQs), query classes, ε-elimination.

The three classes studied by the paper (§2):

- ``CQ``: every atom language is a single symbol;
- ``CRPQ_FIN``: no Kleene star/plus — all atom languages finite;
- ``CRPQ``: unrestricted.

ε-elimination (§2.1): a CRPQ whose languages contain ε is equivalent to a
union of ε-free CRPQs, obtained by either removing ε from an atom language
or dropping the atom and identifying its endpoints.  All evaluators and
containment deciders work on these unions.
"""

from __future__ import annotations

import enum
import itertools

from repro.queries.atoms import Atom, CQAtom
from repro.queries.cq import CQ
from repro.regular.syntax import Regex, Symbol, remove_epsilon


class QueryClass(enum.Enum):
    """The query classes of Figure 1."""

    CQ = "CQ"
    CRPQ_FIN = "CRPQfin"
    CRPQ = "CRPQ"

    def __str__(self):
        return self.value


class CRPQ:
    """A CRPQ Q(x1..xn) = A1 ∧ ... ∧ Am."""

    def __init__(self, head, atoms, extra_variables=()):
        self.head = tuple(head)
        self.atoms = tuple(atoms)
        variables = set(self.head) | set(extra_variables)
        for atom in self.atoms:
            if not isinstance(atom, Atom):
                raise TypeError(f"CRPQ atoms must be Atom, got {atom!r}")
            if not isinstance(atom.language, Regex):
                raise TypeError(f"atom language must be a Regex, got {atom!r}")
            variables.add(atom.source)
            variables.add(atom.target)
        self._variables = frozenset(variables)

    @property
    def variables(self):
        """vars(Q)."""
        return self._variables

    def is_boolean(self):
        return not self.head

    @property
    def alphabet(self):
        result = frozenset()
        for atom in self.atoms:
            result |= atom.language.alphabet()
        return result

    # ------------------------------------------------------------------
    # Classification (Figure 1 columns)
    # ------------------------------------------------------------------

    def query_class(self):
        """Classify into CQ ⊂ CRPQfin ⊂ CRPQ (the finest class)."""
        if all(isinstance(atom.language, Symbol) for atom in self.atoms):
            return QueryClass.CQ
        if all(atom.language.is_star_free() for atom in self.atoms):
            return QueryClass.CRPQ_FIN
        return QueryClass.CRPQ

    def is_cq(self):
        return self.query_class() is QueryClass.CQ

    def is_star_free(self):
        return self.query_class() in (QueryClass.CQ, QueryClass.CRPQ_FIN)

    def as_cq(self):
        """Convert to a :class:`CQ` (requires every language be a symbol)."""
        if not self.is_cq():
            raise ValueError("query is not a CQ (some language is not a symbol)")
        return CQ(
            self.head,
            tuple(CQAtom(a.source, a.language.label, a.target) for a in self.atoms),
            extra_variables=self._variables,
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def rename(self, mapping):
        """Rename variables through ``mapping`` (identifications allowed)."""
        return CRPQ(
            tuple(mapping.get(v, v) for v in self.head),
            tuple(atom.rename(mapping) for atom in self.atoms),
            extra_variables={mapping.get(v, v) for v in self._variables},
        )

    def conjoin(self, other, head=None):
        """Conjunction (variables shared by name)."""
        new_head = self.head + other.head if head is None else tuple(head)
        return CRPQ(new_head, self.atoms + other.atoms,
                    extra_variables=self._variables | other._variables)

    def epsilon_free_union(self):
        """Return the equivalent union (tuple) of ε-free CRPQs (§2.1).

        For each atom whose language contains ε we branch: (a) keep the atom
        with language L \\ {ε}; (b) drop the atom and substitute its source
        by its target everywhere (X[x/y]).  Atoms whose language is exactly
        {ε} only get branch (b); atoms with empty ε-free language only
        branch (b) as well; a query containing an atom with the empty
        language is dropped entirely (it is unsatisfiable).
        """
        nullable_indices = [
            i for i, atom in enumerate(self.atoms) if atom.language.nullable()
        ]
        results = []
        for choice in itertools.product((False, True), repeat=len(nullable_indices)):
            drop = {
                index
                for index, dropped in zip(nullable_indices, choice)
                if dropped
            }
            query = self._apply_epsilon_choice(drop)
            if query is not None:
                results.append(query)
        # Deduplicate while preserving deterministic order.
        unique = []
        seen = set()
        for query in results:
            key = (query.head, frozenset((a.source, str(a.language), a.target)
                                         for a in query.atoms))
            if key not in seen:
                seen.add(key)
                unique.append(query)
        return tuple(unique)

    def _apply_epsilon_choice(self, drop):
        """Build one disjunct: drop atoms in ``drop`` (collapsing endpoints),
        strip ε from the languages of kept nullable atoms."""
        # Union-find for the collapses caused by dropped atoms.
        parent = {v: v for v in self._variables}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for index in drop:
            atom = self.atoms[index]
            rx, ry = find(atom.source), find(atom.target)
            if rx != ry:
                # Deterministic representative.
                rep, other = sorted((rx, ry), key=repr)
                parent[other] = rep
        mapping = {v: find(v) for v in self._variables}
        new_atoms = []
        for index, atom in enumerate(self.atoms):
            if index in drop:
                continue
            language = atom.language
            if language.nullable():
                language = remove_epsilon(language)
            from repro.regular.syntax import Empty

            if isinstance(language, Empty):
                return None  # unsatisfiable disjunct
            new_atoms.append(
                Atom(mapping[atom.source], language, mapping[atom.target])
            )
        return CRPQ(
            tuple(mapping[v] for v in self.head),
            tuple(new_atoms),
            extra_variables={mapping[v] for v in self._variables},
        )

    def __eq__(self, other):
        if not isinstance(other, CRPQ):
            return NotImplemented
        return (self.head == other.head
                and set(self.atoms) == set(other.atoms)
                and self._variables == other._variables)

    # Queries key the result, analysis and store caches, so the
    # structural hash (a frozenset over the atoms) is kept once
    # computed; like a regex node's, it is dropped when pickled.
    def __hash__(self):
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash(
                (self.head, frozenset(self.atoms), self._variables)
            )
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __str__(self):
        body = " ∧ ".join(str(atom) for atom in self.atoms) or "⊤"
        return f"Q({', '.join(map(str, self.head))}) = {body}"

    def __repr__(self):
        return (f"CRPQ(head={self.head!r}, atoms={len(self.atoms)},"
                f" class={self.query_class()})")


def union_of(*queries):
    """Normalize a union of CRPQs/CQs into a tuple of CRPQs.

    Accepts CRPQs, CQs, and nested tuples/lists.  All containment and
    evaluation entry points accept such unions; unions arise naturally from
    ε-elimination and from Theorem 5.2's Q2⟳ ∨ Q2→.  Every disjunct of a
    union must have the same head arity; a mixed union raises
    :class:`ValueError`.
    """
    flat = []
    for query in queries:
        if isinstance(query, (tuple, list)):
            flat.extend(union_of(*query))
        elif isinstance(query, CQ):
            flat.append(query.to_crpq())
        elif isinstance(query, CRPQ):
            flat.append(query)
        else:
            raise TypeError(f"expected CRPQ/CQ/union, got {query!r}")
    arities = sorted({len(disjunct.head) for disjunct in flat})
    if len(arities) > 1:
        raise ValueError(
            f"union disjuncts have mixed head arities {arities}"
        )
    return tuple(flat)
