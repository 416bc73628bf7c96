"""CRPQ/CRPQ containment via abstraction classes (Theorem 5.1).

The PSpace algorithm of Theorem 5.1 works with polynomial-size
*abstractions* of expansions of Q1: per atom A of Q1, everything the
combined automaton A_Q2 of Q2's languages can do on the atom's expansion
word — full-word runs, runs over prefixes/suffixes/infixes, and coupled
split runs (the elements ⟨q-q'⟩, ⟨q-|-q'⟩, ⟨q-|··|-q'⟩, ⟨··q-q'··⟩ of §C).
Claim 5.1 shows that whether an expansion is a counterexample depends only
on its abstraction.

We exploit this computationally in a slightly different (but equivalent)
way than the paper's nondeterministic procedure: for each atom we enumerate
by BFS all reachable *abstraction classes* of words of the atom language,
keeping a shortest representative word per class.  Since same-class words
are interchangeable in counterexamples, Q1 ⊈ Q2 iff some profile of class
representatives yields a counterexample — and each candidate expansion is
checked by direct evaluation of Q2 over it.  This trades the paper's
17-case compatibility analysis for concrete evaluation, at the price of
materializing the class space (fine for the small automata of interest;
budgets guard the exponential worst case, which must exist: the problem is
PSpace-hard, Prop F.8).

Class components tracked per word w (over the disjoint-union automaton of
Q2's atom NFAs, written δ/I/F below):

- ``S``    residual state set of the atom's own NFA (acceptance gate);
- ``M``    {(q,q')  : run q →w→ q'} — the ⟨q-q'⟩ elements;
- ``U``    {q       : ∃ nonempty prefix u with run q →u→ F};
- ``G``    {q       : ∃ nonempty *proper* prefix u with run q →u→ F};
- ``R``    {(q,q')  : ∃ w = u·v, u,v ≠ ε, q →u→ F and I →v→ q'} — ⟨q-|-q'⟩;
- ``W``    {(q,q')  : ∃ w = u·s·v, u,s,v ≠ ε, q →u→ F, I →v→ q'} — ⟨q-|··|-q'⟩;
- ``Ist``  {(q,q')  : ∃ w = u·s, u,s ≠ ε, run q →s→ q'} (open infixes);
- ``Out``  {(q,q')  : ∃ w = u·s·v, u,s,v ≠ ε, run q →s→ q'} — ⟨··q-q'··⟩.

Completeness requires the normalizations of Remark C.1 (merge non-free
(1,1)-degree variables of Q2, so run constraints inside one atom word never
chain more than pairwise) and Remark C.2(ii) on Q1 (no two parallel atoms
sharing a single-letter word, so the candidate expansion graph is
determined by the per-atom words).  Both are applied here.

For standard semantics the same machinery is used, with a caveat:
Claim 5.1 is proved for query-injective semantics, where injectivity
bounds how many Q2-variables can sit inside one atom expansion.  For
standard semantics non-injective homomorphisms can in principle couple
more than two positions of one atom word, which pairwise elements do not
track, so a standard-semantics CONTAINED verdict rests on the class
representatives alone: :func:`contains_abstraction` runs no further
search, and the test suite cross-validates its standard verdicts against
the bounded counterexample search.  NOT_CONTAINED verdicts are always
sound (they carry a concrete counterexample).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from repro.containment.preprocess import (
    merge_degree_one_variables,
    split_parallel_singletons,
)
from repro.containment.result import ContainmentResult, Verdict
from repro.engine.cache import compiled_nfa
from repro.errors import SearchBudgetExceeded
from repro.queries.crpq import eps_free_disjuncts, union_of
from repro.regular.nfa import NFA
from repro.semantics.base import Semantics
from repro.semantics.evaluation import in_evaluation
from repro.semantics.expansion import Expansion


@dataclass(frozen=True)
class _Class:
    """One abstraction class with its shortest representative word."""

    S: frozenset
    M: frozenset
    U: frozenset
    G: frozenset
    R: frozenset
    W: frozenset
    Ist: frozenset
    Out: frozenset
    started: bool

    def key(self):
        return (self.S, self.M, self.U, self.G, self.R, self.W,
                self.Ist, self.Out, self.started)


def _combined_q2_nfa(right_disjuncts):
    """The disjoint union A_Q2 of all atom automata of all Q2 disjuncts."""
    states = set()
    transitions = {}
    initials = set()
    finals = set()
    alphabet = set()
    for qi, query in enumerate(right_disjuncts):
        for ai, atom in enumerate(query.atoms):
            nfa = atom.nfa(state_prefix=(qi, ai))
            states |= nfa.states
            initials |= nfa.initials
            finals |= nfa.finals
            alphabet |= nfa.alphabet
            for key, targets in nfa.transitions.items():
                transitions[key] = targets
    return NFA(states, alphabet, transitions, initials, finals)


def _class_step(cls, letter, atom_nfa, q2):
    """Advance a class by one letter; returns the successor class or None
    when the atom NFA's residual dies (the word left the atom language's
    prefix closure)."""
    new_s = atom_nfa.step(cls.S, letter)
    if not new_s:
        return None
    delta = q2.transitions
    finals = q2.finals
    initials = q2.initials

    new_m = frozenset(
        (q, q2_state)
        for (q, mid) in cls.M
        for q2_state in delta.get((mid, letter), ())
    )
    ends_final = frozenset(q for (q, f) in new_m if f in finals)
    old_ends_final = frozenset(q for (q, f) in cls.M if f in finals)
    new_u = cls.U | ends_final
    new_g = cls.G | cls.U
    init_step = frozenset(
        q2_state
        for init in initials
        for q2_state in delta.get((init, letter), ())
    )
    # A new split u = (word so far), v = letter requires u ≠ ε.
    fresh_splits = (
        frozenset((q, r) for q in old_ends_final for r in init_step)
        if cls.started
        else frozenset()
    )
    new_r = frozenset(
        (q, q2_state)
        for (q, mid) in cls.R
        for q2_state in delta.get((mid, letter), ())
    ) | fresh_splits
    new_w = frozenset(
        (q, q2_state)
        for (q, mid) in cls.W
        for q2_state in delta.get((mid, letter), ())
    ) | frozenset((q, r) for q in cls.G for r in init_step)
    fresh_infix = (
        frozenset(
            (q, q2_state)
            for q in q2.states
            for q2_state in delta.get((q, letter), ())
        )
        if cls.started
        else frozenset()
    )
    new_ist = frozenset(
        (q, q2_state)
        for (q, mid) in cls.Ist
        for q2_state in delta.get((mid, letter), ())
    ) | fresh_infix
    new_out = cls.Out | cls.Ist
    return _Class(new_s, new_m, new_u, new_g, new_r, new_w, new_ist, new_out,
                  started=True)


def atom_classes(atom, q2, max_classes=20000):
    """Enumerate all reachable abstraction classes of words of the atom's
    language, as ``{class_key: (class, shortest_word)}``.

    Only classes whose representative is *accepted* by the atom NFA matter
    for candidate expansions; the BFS still explores non-accepting classes
    because they may lead to accepting ones.
    """
    atom_nfa = compiled_nfa(atom.language)
    identity = frozenset((q, q) for q in q2.states)
    start = _Class(
        frozenset(atom_nfa.initials), identity,
        frozenset(), frozenset(), frozenset(), frozenset(), frozenset(),
        frozenset(), started=False,
    )
    letters = sorted(atom_nfa.alphabet, key=repr)
    seen = {start.key(): (start, ())}
    queue = deque([(start, ())])
    while queue:
        cls, word = queue.popleft()
        for letter in letters:
            nxt = _class_step(cls, letter, atom_nfa, q2)
            if nxt is None:
                continue
            key = nxt.key()
            if key in seen:
                continue
            if len(seen) >= max_classes:
                raise SearchBudgetExceeded(
                    "abstraction class enumeration budget", max_classes
                )
            seen[key] = (nxt, word + (letter,))
            queue.append((nxt, word + (letter,)))
    accepting = {}
    for key, (cls, word) in seen.items():
        if cls.S & atom_nfa.finals:
            accepting[key] = (cls, word)
    return accepting


def contains_abstraction(q1, q2, semantics, max_classes=20000,
                         max_candidates=200000):
    """Decide Q1 ⊆★ Q2 for ★ ∈ {st, q-inj} with unrestricted Q1.

    Exact for query-injective semantics (Theorem 5.1 / Claim 5.1); for
    standard semantics see the module docstring caveat.

    Candidate membership checks read Q2's memoized analysis report (see
    finite_left).
    """
    semantics = Semantics.coerce(semantics)
    if semantics is Semantics.ATOM_INJECTIVE:
        raise ValueError(
            "atom-injective CRPQ/CRPQ containment is undecidable "
            "(Theorem 5.2); use the bounded semi-decider in ainj_semi"
        )
    right = union_of(q2)
    # Remark C.1 merge on Q2 (completeness of pairwise elements).
    right_merged = tuple(
        merge_degree_one_variables(disjunct)
        for disjunct in eps_free_disjuncts(right)
    )
    q2_nfa = _combined_q2_nfa(right_merged)

    left_disjuncts = []
    for eps_free in eps_free_disjuncts(q1):
        left_disjuncts.extend(split_parallel_singletons(eps_free))

    candidates_checked = 0
    for disjunct in left_disjuncts:
        per_atom = []
        satisfiable = True
        for atom in disjunct.atoms:
            classes = atom_classes(atom, q2_nfa, max_classes=max_classes)
            if not classes:
                satisfiable = False
                break
            per_atom.append([word for (_cls, word) in classes.values()])
        if not satisfiable:
            continue  # this disjunct returns no tuple on any database
        total = 1
        for words in per_atom:
            total *= len(words)
        if total > max_candidates:
            raise SearchBudgetExceeded(
                "candidate expansion enumeration budget", max_candidates
            )
        for profile in itertools.product(*per_atom):
            candidates_checked += 1
            expansion = Expansion(disjunct, profile)
            cq = expansion.cq
            if not in_evaluation(right, cq.as_graph(), cq.head, semantics):
                return ContainmentResult(
                    Verdict.NOT_CONTAINED,
                    semantics,
                    method="abstraction-classes",
                    counterexample=cq,
                    details={"candidates_checked": candidates_checked},
                )
    return ContainmentResult(
        Verdict.CONTAINED,
        semantics,
        method="abstraction-classes",
        details={"candidates_checked": candidates_checked},
    )
