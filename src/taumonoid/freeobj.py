"""Relatively free monoids as automata; isoterm and tau-term decision.

For a finite monoid M and k letters, the k-generated free object of the
variety of M is materialized as a deterministic automaton: a state is the
evaluation vector of a word (its value in M under every assignment of
elements to the letters), the initial state is the identity vector, and the
transition by a letter multiplies componentwise by that letter's vector.
Two words evaluate equally under every substitution, i.e. form an identity
of M, exactly when they reach the same state.  A vector is stored on its
support, the substitutions where it is not the zero: a word that is zero
under a substitution stays zero there when it is extended, so the vectors
of longer words are mostly zero in a Rees quotient.

One breadth-first search over pairs (state, tracker) decides tau-terms and
isoterms, an isoterm being a tau-term for the trivial congruence; the
tracker runs on the prefix automaton of the class, ``construct``'s table of
the canonical forms of the prefixes of class members.  It grows the
automaton a level at a time as it reads it.  Without a bound it grows every
row and is exact.  With one it grows only the rows above the bound and
reports the witness the exact search would find, when that lies within it.

One budget, ``MAX_CELLS``, bounds the int32 cells an automaton holds: its
k generator columns, each |M|^k cells long, and two cells, an index and a
value, for each stored nonzero entry.  Growth refuses with
``BudgetExceededError`` before it would pass the budget; no search falls
back to another.  The budget is the automaton's own, read as it grows,
not one caller's: an automaton that several searches share answers to one
budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import _tracker_table
from .identities import BudgetExceededError
from .monoid import FiniteMonoid
from .rewrite import TauWord, canonical
from .words import Word, content, is_plain, print_word

MAX_CELLS = 2 ** 28      # 1 GiB of int32


@dataclass(eq=False)
class RelFreeAutomaton:
    """The k-generated relatively free monoid of var(M), as a DFA.

    ``states[s]`` is the support and the values there of the evaluation
    vector of any word reaching state ``s``; ``transitions[s][i]`` is the
    state after appending letter ``i``.  ``grow`` adds rows in state order:
    states are numbered breadth-first, and rows exist for a prefix of them.
    """

    monoid: FiniteMonoid
    letters: tuple
    states: list
    transitions: list
    index: dict           # state key -> state
    gen: np.ndarray       # gen[i][x]: letter i under substitution x
    cells: int            # the budget spent so far

    @property
    def num_states(self) -> int:
        return len(self.states)

    def grow(self, n) -> None:
        """Build rows in state order until the first ``n`` states, or all
        states, have them; refuses before ``cells`` would pass the budget."""
        m, states, rows, index = self.monoid, self.states, self.transitions, self.index
        zero = -1 if m.zero is None else m.zero
        flat = m.table.ravel()
        while len(rows) < n and len(rows) < len(states):
            support, values = states[len(rows)]
            offsets = values * m.size
            row = []
            for g in self.gen:
                new = flat[offsets + g[support]]
                keep = new != zero
                key = support[keep].tobytes() + new[keep].tobytes()
                t = index.get(key)
                if t is None:
                    self.cells += len(key) // 4
                    _check_cells(self.cells)
                    t = index[key] = len(states)
                    states.append(_views(key))
                row.append(t)
            rows.append(row)

    def state_of_word(self, w: Word) -> int:
        s = 0
        for b, p in w:
            if p:
                raise ValueError("state_of_word expects a plain word")
            self.grow(s + 1)
            s = self.transitions[s][self.letters.index(b)]
        return s


def rel_free_automaton(m: FiniteMonoid, letters) -> RelFreeAutomaton:
    """The evaluation-vector automaton, with only its initial state.

    A state is keyed by the bytes of its support, the int32 indices of the
    substitutions where its value is not the zero, followed by the values
    there; both arrays are read-only views of that key.  A monoid without a
    zero has full support.  Refuses if the k generator columns and the
    initial state pass ``MAX_CELLS``.
    """
    letters = tuple(letters)
    k, n = len(letters), m.size ** len(letters)
    zero = -1 if m.zero is None else m.zero
    support = np.arange(n if m.identity != zero else 0, dtype=np.int32)
    cells = k * n + 2 * len(support)
    _check_cells(cells)
    gen = np.indices((m.size,) * k, dtype=np.int32).reshape(k, n)
    init = np.concatenate((support, np.full_like(support, m.identity))).tobytes()
    return RelFreeAutomaton(m, letters, [_views(init)], [], {init: 0}, gen,
                            cells)


def _views(key: bytes) -> tuple:
    """The support and the values stored in a state's key."""
    a = np.frombuffer(key, dtype=np.int32)
    return a[:len(a) // 2], a[len(a) // 2:]


def _check_cells(cells: int) -> None:
    if cells > MAX_CELLS:
        raise BudgetExceededError(cells, MAX_CELLS, "int32 cells")


@dataclass(frozen=True)
class IsotermReport:
    word: Word
    is_isoterm: bool
    counterexample: Word | None = None


def is_isoterm(m: FiniteMonoid, w: Word) -> IsotermReport:
    """Whether M violates every nontrivial identity with ``w`` on one side.

    Decided by the search of ``is_tau_term`` under the trivial congruence,
    where the class of ``w`` is ``{w}``, over the content of ``w`` or one
    fresh letter ``z`` when ``w`` is empty: ``w`` is an isoterm exactly
    when no other word reaches its state, and the shortlex-first one that
    does is the counterexample.

    The alphabet loses no identity.  Take ``w`` nonempty and an identity
    ``w = v`` where ``v`` has letters outside the content of ``w``.  Setting
    those letters to 1 gives an identity ``w = v'`` over the content.  If
    ``v' = w``, setting them to a letter of ``w`` instead gives a longer
    word over the content.  For the empty word, an identity ``1 = v`` gives
    ``1 = z^|v|``.
    """
    if not is_plain(w):
        raise ValueError(f"an isoterm is a plain word, got {print_word(w)}")
    letters = tuple(sorted(content(w))) or ("z",)
    aut = rel_free_automaton(m, letters)
    _, witness = _search(TauWord(w, "trivial"), letters, aut, None)
    return IsotermReport(w, witness is None, witness and witness[1])


@dataclass(frozen=True)
class TauTermVerdict:
    status: str                      # "holds" | "fails" | "holds-up-to-bound"
    tau_word: TauWord
    witness: tuple | None = None     # (member word, equal-valued off-class word)
    bound: int | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"

    @property
    def method(self) -> str:
        return "exact" if self.bound is None else "bounded"


def _fresh_base(bases) -> str:
    for cand in "zwvuq":
        if cand not in bases:
            return cand
    i = 0
    while f"z{i}" in bases:
        i += 1
    return f"z{i}"


def is_tau_term(m: FiniteMonoid, u: TauWord,
                bound: int | None = None) -> TauTermVerdict:
    """Decide whether ``u`` is a tau-term for the variety of ``m``.

    ``u`` fails to be a tau-term exactly when the monoid satisfies an
    identity ``U = v`` with ``U`` in the class of ``u`` and ``v`` outside it.
    One breadth-first search runs over nodes (automaton state, tracker);
    equal states mean equal values under every substitution.  The tracker
    is the word's state in ``_tracker_table``: its canonical form when that
    is the form of a prefix of a member, else a sink that no member enters.
    ``u`` fails when some state is reached both by a member and by a word
    outside the class.

    Without a ``bound`` the search covers every reachable node and answers
    "holds" or "fails".  With one it expands no node ``bound`` letters deep,
    so it grows rows only for the states fewer letters deep, and reports
    "holds-up-to-bound" at best; below ``len(u)`` it builds nothing.  Either
    search raises ``BudgetExceededError`` once its automaton would pass
    ``MAX_CELLS``, and neither falls back to the other.

    The search reaches each node first by its shortlex-least word, so the
    witness is the shortlex-first word outside the class whose state has a
    member, paired with the shortlex-first member of that state: the same
    pair as enumerating every word in shortlex order, with or without a
    bound, and for any tracker that tells members apart.

    When the monoid has a zero, a witness cannot involve letters outside
    the content of ``u`` unless some member evaluates to zero under every
    substitution; that case is detected directly, and a fresh letter is
    adjoined only when the table has no zero (``m.zero`` is None).
    """
    if bound is not None and bound < 0:
        raise ValueError(f"bound must be at least 0, got {bound}")
    letters = tuple(sorted(content(u.word)))
    if m.zero is None:
        letters += (_fresh_base(set(letters)),)
    first = witness = None
    # the rules only mark or merge, so no member is shorter than u, and
    # a bound below len(u) reaches none: nothing is built or searched
    if bound is None or bound >= len(u.word):
        aut = rel_free_automaton(m, letters)
        first, witness = _search(u, letters, aut, bound)
    # a word is zero everywhere only when 1 = 0, as the all-identity
    # substitution sends it to 1; then every word reaches the initial state
    if m.zero == m.identity and first is not None:
        z = _fresh_base(content(first))
        return TauTermVerdict("fails", u, (first, ((z, False),) + first), bound)
    if witness is not None:
        assert canonical(witness[1], u.tau) != u.word
        return TauTermVerdict("fails", u, witness, bound)
    return TauTermVerdict("holds" if bound is None else "holds-up-to-bound", u,
                          bound=bound)


def _search(u: TauWord, letters, aut: RelFreeAutomaton, bound) -> tuple:
    """The search of ``is_tau_term``: its shortlex-first member and its
    witness pair, each None when absent.  Nodes ``bound`` letters deep are
    not expanded; each level first grows ``aut`` to the rows it reads."""
    table, target = _tracker_table(u, letters)
    parents = {(0, 0): None}
    member: dict = {}     # state -> first node whose tracker is u
    offender: dict = {}   # state -> first node whose tracker is not u
    level, depth = [(0, 0)], 0
    while level and depth != bound:
        nodes, level = level, []
        aut.grow(max(nodes)[0] + 1)
        for node in nodes:
            state, t = node
            for i, nxt in enumerate(zip(aut.transitions[state], table[t])):
                if nxt not in parents:
                    parents[nxt] = (node, i)
                    level.append(nxt)
        depth += 1
    for node in parents:      # in breadth-first order
        (member if node[1] == target else offender).setdefault(node[0], node)

    def word(node) -> Word:
        out = []
        while parents[node] is not None:
            node, i = parents[node]
            out.append((letters[i], False))
        return tuple(reversed(out))

    witness = next(((word(member[state]), word(node))
                    for state, node in offender.items() if state in member), None)
    return next(map(word, member.values()), None), witness
