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
the canonical forms of the prefixes of class members.  The automaton builds
a state's row the first time the search expands a node there, and the
search expands only the nodes that can still matter.  Appending letters
only multiplies on the right: under every substitution the value of an
extension ``wz`` lies in the right ideal of the value of ``w``.  So the
extensions of a word whose tracker is the sink, none of them a member,
can reach a member's state only if, under every substitution, the
member's value lies in that right ideal; when no member state passes this
test they are not searched.  Every verdict is exact.

One budget, ``MAX_CELLS``, bounds the int32 cells an automaton holds: its
k generator columns, each |M|^k cells long, and two cells, an index and a
value, for each stored nonzero entry.  Building a row refuses with
``BudgetExceededError`` before it would pass the budget, so a search is
refused only when the rows it expands pass it; no search falls back to
another.  The budget is the automaton's own, read as it grows,
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
    state after appending letter ``i``.  ``row`` builds one state's
    transitions on first use, so states are numbered in the order the rows
    that reach them are built.
    """

    monoid: FiniteMonoid
    letters: tuple
    states: list
    transitions: dict     # state -> its row, for the states that have one
    index: dict           # state key -> state
    gen: np.ndarray       # gen[i][x]: letter i under substitution x
    cells: int            # the budget spent so far

    @property
    def num_states(self) -> int:
        return len(self.states)

    def row(self, s: int) -> list:
        """The transitions of state ``s``, built on first use; refuses
        before ``cells`` would pass the budget."""
        row = self.transitions.get(s)
        if row is not None:
            return row
        m, states, index = self.monoid, self.states, self.index
        zero = -1 if m.zero is None else m.zero
        support, values = states[s]
        flat, offsets = m.table.ravel(), values * m.size
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
        self.transitions[s] = row
        return row

    def state_of_word(self, w: Word) -> int:
        s = 0
        for b, p in w:
            if p:
                raise ValueError("state_of_word expects a plain word")
            if b not in self.letters:
                raise ValueError(f"state_of_word: {b} is not a letter of "
                                 f"the automaton")
            s = self.row(s)[self.letters.index(b)]
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
    return RelFreeAutomaton(m, letters, [_views(init)], {}, {init: 0}, gen,
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
    _, witness = _search(TauWord(w, "trivial"), letters, aut)
    return IsotermReport(w, witness is None, witness and witness[1])


@dataclass(frozen=True)
class TauTermVerdict:
    status: str                      # "holds" | "fails"
    tau_word: TauWord
    witness: tuple | None = None     # (member word, equal-valued off-class word)

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"

    # every verdict is exact; the benchmark's tracer still reads this
    @property
    def method(self) -> str:
        return "exact"


def _fresh_base(bases) -> str:
    for cand in "zwvuq":
        if cand not in bases:
            return cand
    i = 0
    while f"z{i}" in bases:
        i += 1
    return f"z{i}"


def is_tau_term(m: FiniteMonoid, u: TauWord) -> TauTermVerdict:
    """Decide whether ``u`` is a tau-term for the variety of ``m``.

    ``u`` fails to be a tau-term exactly when the monoid satisfies an
    identity ``U = v`` with ``U`` in the class of ``u`` and ``v`` outside it.
    One breadth-first search runs over nodes (automaton state, tracker);
    equal states mean equal values under every substitution.  The tracker
    is the word's state in ``_tracker_table``: its canonical form when that
    is the form of a prefix of a member, else a sink that no member enters.
    ``u`` fails when some state is reached both by a member and by a word
    outside the class.

    The search covers every reachable node that can still matter and
    answers "holds" or "fails".  It does not expand a node whose tracker is
    the sink when no member state lies, under every substitution, in the
    right ideal of the node's value: every extension of the node's word has
    its value in that ideal, so none reaches a member.  It raises
    ``BudgetExceededError`` once the rows it builds would pass
    ``MAX_CELLS``.

    The search reaches each node first by its shortlex-least word, so the
    witness is the shortlex-first word outside the class whose state has a
    member, paired with the shortlex-first member of that state: the same
    pair as enumerating every word in shortlex order, for any tracker that
    tells members apart.

    When the monoid has a zero, a witness cannot involve letters outside
    the content of ``u`` unless some member evaluates to zero under every
    substitution; that case is detected directly, and a fresh letter is
    adjoined only when the table has no zero (``m.zero`` is None).
    """
    letters = tuple(sorted(content(u.word)))
    if m.zero is None:
        letters += (_fresh_base(set(letters)),)
    aut = rel_free_automaton(m, letters)
    first, witness = _search(u, letters, aut)
    # a word is zero everywhere only when 1 = 0, as the all-identity
    # substitution sends it to 1; then every word reaches the initial state
    if m.zero == m.identity and first is not None:
        z = _fresh_base(content(first))
        return TauTermVerdict("fails", u, (first, ((z, False),) + first))
    if witness is not None:
        assert canonical(witness[1], u.tau) != u.word
        return TauTermVerdict("fails", u, witness)
    return TauTermVerdict("holds", u)


def _search(u: TauWord, letters, aut: RelFreeAutomaton) -> tuple:
    """The search of ``is_tau_term``: its shortlex-first member and its
    witness pair, each None when absent.  Each expanded node builds its
    state's row of ``aut``.

    A first pass over the nodes whose tracker is not the sink collects the
    member states; every member node is among them, with the word that
    reaches it first, as the sink is absorbing.  The second pass is the
    whole search, but it does not expand a dead node: one whose tracker is
    the sink and whose state reaches no member state by ``_divides``.
    Appending a word z only multiplies on the right, so a node reached by
    w can reach the state g of a member only if g's value lies in the
    right ideal of w's value under every substitution.  A dead state is no
    member's (take z = 1), and every node reached through a dead node is
    dead too, so the live nodes, the first word of each, and the witness
    are those of the unpruned search.
    """
    table, target = _tracker_table(u, letters)
    sink = len(table) - 1
    prefixes = _bfs(aut, table, lambda node: node[1] != sink)
    # state -> whether a sink node there is expanded; member states are live
    live = {s: True for s, t in prefixes if t == target}
    goals = [aut.states[s] for s in live]
    n = aut.monoid.size
    reach = np.zeros((n, n), dtype=bool)     # reach[a, b]: b lies in aM
    reach[np.arange(n)[:, None], aut.monoid.table] = True

    def expand(node) -> bool:
        state, t = node
        if t != sink:
            return True
        if state not in live:
            live[state] = any(_divides(reach, aut.states[state], g)
                              for g in goals)
        return live[state]

    parents = _bfs(aut, table, expand)
    member: dict = {}     # state -> first node whose tracker is u
    offender: dict = {}   # state -> first node whose tracker is not u
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


def _bfs(aut: RelFreeAutomaton, table, expand) -> dict:
    """The nodes (state, tracker) reached from (0, 0) through the nodes that
    ``expand`` accepts, in breadth-first order, each keyed to its parent
    node and letter, or to None for the root."""
    parents = {(0, 0): None}
    level = [(0, 0)]
    while level:
        nodes, level = level, []
        for node in nodes:
            if expand(node):
                for i, nxt in enumerate(zip(aut.row(node[0]), table[node[1]])):
                    if nxt not in parents:
                        parents[nxt] = (node, i)
                        level.append(nxt)
    return parents


def _divides(reach: np.ndarray, state: tuple, goal: tuple) -> bool:
    """Whether every substitution sends the vector ``goal`` into the right
    ideal of the vector ``state``: ``goal`` is the zero off the support of
    ``state`` (the zero's right ideal is the zero alone), and ``reach[a, b]``,
    whether b lies in aM, holds at each entry of ``goal``'s support."""
    support, values = state
    gsupport, gvalues = goal
    if len(gsupport) > len(support):
        return False
    at = np.searchsorted(support, gsupport)
    at[at == len(support)] = 0
    return bool((support[at] == gsupport).all()
                and reach[values[at], gvalues].all())
