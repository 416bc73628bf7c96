"""Theorem 5.2: PCP → atom-injective containment (undecidability).

This module makes the undecidability reduction executable:

- :class:`PCPInstance` with a bounded-depth exact solver;
- the Figure-4-shaped queries: Q1 has a middle variable x, two incoming
  atoms (the index track w_I ∈ L_I and the hatted letter track ŵ_a ∈ L̂_a)
  and two outgoing atoms (ŵ_I ∈ L̂_I and w_a ∈ L_a);
- Q2 = Q⟳ ∨ Q→: the forbidden simple-cycle language K and forbidden
  simple-path language M (both finite, so Q2 ∈ CRPQfin);
- witness construction: from a PCP solution, the *well-formed*
  a-inj-expansion of Q1 (the Figure 5 zippers) which is a containment
  counterexample.

Zipper mechanics (the heart of the reduction): an a-inj-expansion may
identify variables of different atoms.  The forbidden patterns force any
pattern-free expansion to fuse the incoming and outgoing tracks into
mirrored ladders around x:

- on the index track, exactly as the main text's Figure 5: the rail nodes
  s_j/s'_j and r_j/r'_j must fuse (else the simple paths # I Î #̂ and □ □̂
  appear) while the t_j/t'_j nodes must stay split (else a simple cycle in
  K = I·Î appears); matching forces equal index sequences, and the
  $-guards force equal lengths — the "slight modification" the text
  mentions;
- on the letter track, every rail must fuse: a 2-path v-letter·u-letter is
  forbidden while the corresponding fused 2-*cycle* is allowed — simple
  paths and simple cycles are disjoint pattern spaces, which is what makes
  the complementary K/M design possible — and fused rails force the u- and
  v-letter streams to agree position by position, i.e. exactly the PCP
  word equation u_{i1}···u_{ik} = v_{i1}···v_{ik}.

Reproduction note: Appendix D was truncated in the
source available to this reproduction.  The letter symbols here carry
their tile index as a tag, and the I-a / â-Î conditions couple the tag
sequences to the index tracks at x (first block); the appendix's full
shift-absorbing coupling of *every* block is not reproduced.  Consequently
the executable construction enforces ∃ I, J: u_I = v_J with matching
first tiles rather than I = J in full.  The forward direction of
Theorem 5.2 (solution ⇒ counterexample) is exact and property-tested; the
converse is validated empirically on small instances via bounded search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.queries.atoms import Atom
from repro.queries.crpq import CRPQ
from repro.regular.syntax import (
    Symbol,
    concat,
    from_words,
    plus,
    union,
    word as word_regex,
)

# ----------------------------------------------------------------------
# PCP instances and the (bounded) exact solver
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PCPInstance:
    """A PCP instance: pairs (u_i, v_i) of nonempty words over ``alphabet``.

    Indices are 1-based, following the paper.
    """

    pairs: tuple
    alphabet: frozenset

    @staticmethod
    def from_pairs(pairs):
        pairs = tuple((str(u), str(v)) for u, v in pairs)
        letters = set()
        for u, v in pairs:
            if not u or not v:
                raise ValueError("PCP words must be nonempty")
            letters.update(u)
            letters.update(v)
        return PCPInstance(pairs, frozenset(letters))

    @property
    def size(self):
        return len(self.pairs)

    def apply(self, indices):
        """Return (u-concatenation, v-concatenation) of an index sequence."""
        u = "".join(self.pairs[i - 1][0] for i in indices)
        v = "".join(self.pairs[i - 1][1] for i in indices)
        return u, v

    def is_solution(self, indices):
        if not indices:
            return False
        u, v = self.apply(indices)
        return u == v

    def solve(self, max_depth=12, max_states=200000):
        """Search for a solution of length ≤ ``max_depth`` via BFS over
        difference states (the textbook PCP search).  Returns the index
        sequence, or ``None`` if none exists within the budget."""
        start_states = []
        for index, (u, v) in enumerate(self.pairs, start=1):
            if u.startswith(v):
                start_states.append(((u[len(v):], +1), (index,)))
            elif v.startswith(u):
                start_states.append(((v[len(u):], -1), (index,)))
        queue = deque(start_states)
        seen = set()
        while queue:
            (tail, side), indices = queue.popleft()
            if tail == "":
                return list(indices)
            if len(indices) >= max_depth or (tail, side) in seen:
                continue
            seen.add((tail, side))
            if len(seen) > max_states:
                return None
            for index, (u, v) in enumerate(self.pairs, start=1):
                ahead, behind = (u, v) if side == +1 else (v, u)
                combined_ahead = tail + ahead
                if combined_ahead.startswith(behind):
                    state = (combined_ahead[len(behind):], side)
                elif behind.startswith(combined_ahead):
                    state = (behind[len(combined_ahead):], -side)
                else:
                    continue
                queue.append((state, indices + (index,)))
        return None


#: The classic solvable example (solution 1, 3, 2, 3).
SOLVABLE_EXAMPLE = PCPInstance.from_pairs([("a", "baa"), ("ab", "aa"), ("bba", "bb")])
#: A small instance with no solution (streams can never agree).
UNSOLVABLE_EXAMPLE = PCPInstance.from_pairs([("ab", "ba"), ("a", "b")])
#: A one-tile instance solved by the singleton sequence.
TRIVIAL_EXAMPLE = PCPInstance.from_pairs([("ab", "ab")])


# ----------------------------------------------------------------------
# Alphabet of the reduction (tuples keep hatted/unhatted variants apart)
# ----------------------------------------------------------------------

HASH = ("#",)
HASH_H = ("#h",)
BOX = ("box",)
BOX_H = ("boxh",)
DOLLAR = ("$",)
DOLLAR_H = ("$h",)


def _idx(i):
    """The index symbol I_i."""
    return ("I", i)


def _idx_h(i):
    """The hatted index symbol Î_i."""
    return ("Ih", i)


def _letter(c, i):
    """A u-stream letter c tagged with its tile index i."""
    return ("a", c, i)


def _letter_h(c, i):
    """A v-stream letter c tagged with its tile index i."""
    return ("ah", c, i)


def _u_letter_symbols(instance):
    return sorted(
        {_letter(c, i) for i, (u, _v) in enumerate(instance.pairs, start=1) for c in u}
    )


def _v_letter_symbols(instance):
    return sorted(
        {_letter_h(c, i) for i, (_u, v) in enumerate(instance.pairs, start=1) for c in v}
    )


# ----------------------------------------------------------------------
# Q1: the four-atom query of Figure 4
# ----------------------------------------------------------------------


def index_track_language(instance):
    """L_I = $ · (□ # I)^+ — incoming index track (block nearest x is the
    first index of the encoded sequence)."""
    index_union = _symbol_union([_idx(i) for i in range(1, instance.size + 1)])
    block = concat(Symbol(BOX), concat(Symbol(HASH), index_union))
    return concat(Symbol(DOLLAR), plus(block))


def index_track_language_hatted(instance):
    """L̂_I = (Î #̂ □̂)^+ · $̂ — outgoing index track."""
    index_union = _symbol_union([_idx_h(i) for i in range(1, instance.size + 1)])
    block = concat(index_union, concat(Symbol(HASH_H), Symbol(BOX_H)))
    return concat(plus(block), Symbol(DOLLAR_H))


def letter_track_language(instance):
    """L_a = (Σ_i u_i-block)^+ · $ — outgoing u-letter track from x.

    A block is the letters of u_i in order, each tagged with i; no
    separators, so stream positions are letter positions.
    """
    blocks = []
    for i, (u, _v) in enumerate(instance.pairs, start=1):
        blocks.append(word_regex([_letter(c, i) for c in u]))
    return concat(plus(_regex_union(blocks)), Symbol(DOLLAR))


def letter_track_language_hatted(instance):
    """L̂_a = $̂ · (Σ_i rev(v_i)-block)^+ — incoming v-letter track.

    Read from y2 towards x the blocks appear in reversed sequence order
    and reversed letter order, so the letter adjacent to x is the first
    letter of the v-stream (mirroring the u-track around x).
    """
    blocks = []
    for i, (_u, v) in enumerate(instance.pairs, start=1):
        blocks.append(word_regex([_letter_h(c, i) for c in reversed(v)]))
    return concat(Symbol(DOLLAR_H), plus(_regex_union(blocks)))


def _symbol_union(symbols):
    result = None
    for symbol in symbols:
        node = Symbol(symbol)
        result = node if result is None else union(result, node)
    return result


def _regex_union(regexes):
    result = None
    for regex in regexes:
        result = regex if result is None else union(result, regex)
    return result


def build_q1(instance):
    """The Boolean CRPQ Q1 of Figure 4:

        y1 -[L_I]-> x  ∧  y2 -[L̂_a]-> x  ∧  x -[L̂_I]-> z1  ∧  x -[L_a]-> z2
    """
    atoms = (
        Atom("y1", index_track_language(instance), "x"),
        Atom("y2", letter_track_language_hatted(instance), "x"),
        Atom("x", index_track_language_hatted(instance), "z1"),
        Atom("x", letter_track_language(instance), "z2"),
    )
    return CRPQ((), atoms)


# ----------------------------------------------------------------------
# Q2: forbidden simple cycles (K) and forbidden simple paths (M)
# ----------------------------------------------------------------------


def forbidden_cycle_words(instance):
    """K — labels of *simple cycles* no well-formed expansion may contain.

    - I_i · Î_j (all pairs): keeps the index-zipper t-nodes split
      (Figure 5);
    - letter 2-cycles with mismatching letters (either rotation): fused
      letter rails must carry equal letters.
    """
    ell = instance.size
    words = []
    for i in range(1, ell + 1):
        for j in range(1, ell + 1):
            words.append((_idx(i), _idx_h(j)))
    for lu in _u_letter_symbols(instance):
        for lv in _v_letter_symbols(instance):
            if lu[1] != lv[1]:
                words.append((lu, lv))
                words.append((lv, lu))
    return words


def forbidden_path_words(instance):
    """M — labels of *simple paths* no well-formed expansion may contain.

    Index-zipper family (M_IÎ of the main text, plus the $ length guards):
      Σ_{i≠j} I_i Î_j  +  Î #  +  #̂ I  +  # I Î #̂  +  □ □̂  +  $ Î  +  I $̂.

    Letter-zipper family: every v-letter·u-letter 2-path (equal letters
    force rail fusion — the fused variant is a cycle, which is allowed;
    unequal letters are wrong outright), mismatch guards against the
    index symbols at x (the I-a and â-Î conditions), and $ length guards.
    """
    ell = instance.size
    u_letters = _u_letter_symbols(instance)
    v_letters = _v_letter_symbols(instance)
    words = []
    # --- index zipper (Figure 5) ---
    for i in range(1, ell + 1):
        for j in range(1, ell + 1):
            if i != j:
                words.append((_idx(i), _idx_h(j)))
    for i in range(1, ell + 1):
        words.append((_idx_h(i), HASH))
        words.append((HASH_H, _idx(i)))
        for j in range(1, ell + 1):
            words.append((HASH, _idx(i), _idx_h(j), HASH_H))
    words.append((BOX, BOX_H))
    for i in range(1, ell + 1):
        words.append((DOLLAR, _idx_h(i)))          # outgoing index track longer
        words.append((_idx(i), DOLLAR_H))          # incoming index track longer
    # --- letter zipper ---
    for lv in v_letters:
        for lu in u_letters:
            words.append((lv, lu))                 # force rail fusion
            if lv[1] != lu[1]:
                words.append((lu, lv))             # mismatched even when fused
    for lv in v_letters:
        words.append((lv, DOLLAR))                 # v-stream longer
    for lu in u_letters:
        words.append((DOLLAR_H, lu))               # u-stream longer
    # --- I-a condition at x: first index block vs first u-tag ---
    for i in range(1, ell + 1):
        for lu in u_letters:
            if lu[2] != i:
                words.append((_idx(i), lu))
    # --- â-Î condition at x: first v-tag vs first hatted index block ---
    for i in range(1, ell + 1):
        for lv in v_letters:
            if lv[2] != i:
                words.append((lv, _idx_h(i)))
    return words


def build_q2_union(instance):
    """Q2 as the union Q⟳ ∨ Q→ of Theorem 5.2's proof sketch."""
    k_language = from_words(forbidden_cycle_words(instance))
    m_language = from_words(forbidden_path_words(instance))
    q_cycle = CRPQ((), (Atom("x", k_language, "x"),))
    q_path = CRPQ((), (Atom("y", m_language, "z"),))
    return (q_cycle, q_path)


def build_q2_single(instance, dummy=("d",)):
    """Q2 as a single CRPQfin query simulating the union.

    Each conjunct's language gains a fresh dummy letter that never occurs
    in expansions of Q1, so either conjunct can only be satisfied by a
    genuine K-cycle / M-path — matching the single-query shape of
    Figure 4 (the paper defers the simulation details to the appendix;
    this variant suffices for expansions of Q1, whose alphabet excludes
    the dummy).
    """
    k_language = union(from_words(forbidden_cycle_words(instance)), Symbol(dummy))
    m_language = union(from_words(forbidden_path_words(instance)), Symbol(dummy))
    return CRPQ(
        (),
        (Atom("x", k_language, "x"), Atom("y", m_language, "z")),
    )


def build_reduction(instance):
    """Return (Q1, Q2-union): a PCP solution yields a counterexample to
    Q1 ⊆a-inj Q2 (see :func:`solution_witness`)."""
    return build_q1(instance), build_q2_union(instance)


# ----------------------------------------------------------------------
# Witness construction: solution → well-formed a-inj-expansion
# ----------------------------------------------------------------------


def solution_tracks(instance, solution):
    """The four expansion words chosen by a solution i_1..i_k, in Q1's
    atom order: (w_I, ŵ_a, ŵ_I, w_a)."""
    indices = list(solution)
    w_i = [DOLLAR]
    for index in reversed(indices):
        w_i += [BOX, HASH, _idx(index)]
    w_i_hat = []
    for index in indices:
        w_i_hat += [_idx_h(index), HASH_H, BOX_H]
    w_i_hat.append(DOLLAR_H)
    w_a = []
    for index in indices:
        u = instance.pairs[index - 1][0]
        w_a += [_letter(c, index) for c in u]
    w_a.append(DOLLAR)
    w_a_hat = [DOLLAR_H]
    for index in reversed(indices):
        v = instance.pairs[index - 1][1]
        w_a_hat += [_letter_h(c, index) for c in reversed(v)]
    return tuple(w_i), tuple(w_a_hat), tuple(w_i_hat), tuple(w_a)


def solution_witness(instance, solution):
    """Build the well-formed a-inj-expansion F of Q1 for a PCP solution.

    Identifications, per Figure 5: on the index zipper the s/r rail nodes
    fuse while the t nodes stay split; on the letter zipper every rail
    fuses (the streams are equal, so every position pairs up).  The
    result is a counterexample: F avoids every K-cycle and M-path, which
    the tests verify by evaluating Q2 over F under a-inj semantics.
    """
    if not instance.is_solution(solution):
        raise ValueError("not a PCP solution")
    from repro.semantics.expansion import AInjExpansion, Expansion

    q1 = build_q1(instance)
    profile = solution_tracks(instance, solution)
    expansion = Expansion(q1, profile)
    merges = _witness_merges(expansion)
    blocks = _blocks_from_merges(expansion.cq.variables, merges)
    return AInjExpansion(expansion, blocks)


def _witness_merges(expansion):
    """The mirror identifications of Figure 5 on both zippers."""
    in_index = _atom_path_variables(expansion, 0)     # y1 → x
    in_letters = _atom_path_variables(expansion, 1)   # y2 → x
    out_index = _atom_path_variables(expansion, 2)    # x → z1
    out_letters = _atom_path_variables(expansion, 3)  # x → z2
    merges = []
    # Index zipper: fuse offsets ≢ 1 (mod 3) from x (the s and r rails);
    # offsets ≡ 1 (mod 3) are the t-nodes, kept split.
    incoming = list(reversed(in_index))   # incoming[0] = x
    outgoing = out_index                  # outgoing[0] = x
    for offset in range(1, min(len(incoming), len(outgoing))):
        if offset % 3 == 1:
            continue
        merges.append((incoming[offset], outgoing[offset]))
    # Letter zipper: fuse every rail strictly between x and the $ edges.
    incoming_letters = list(reversed(in_letters))
    for offset in range(1, min(len(incoming_letters), len(out_letters)) - 1):
        merges.append((incoming_letters[offset], out_letters[offset]))
    return merges


def _atom_path_variables(expansion, atom_index):
    """The variable sequence of one atom's expansion path, source→target."""
    atom = expansion.query.atoms[atom_index]
    word = expansion.profile[atom_index]
    variables = [expansion.phi[atom.source]]
    for position in range(1, len(word)):
        variables.append(expansion.phi[("_exp", atom_index, position)])
    variables.append(expansion.phi[atom.target])
    return variables


def _blocks_from_merges(variables, merges):
    parent = {v: v for v in variables}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y in merges:
        root_x, root_y = find(x), find(y)
        if root_x != root_y:
            parent[root_y] = root_x
    blocks = {}
    for v in variables:
        blocks.setdefault(find(v), []).append(v)
    return list(blocks.values())
