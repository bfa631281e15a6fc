"""Relatively free monoids as automata; isoterm and tau-term decision.

For a finite monoid M and k letters, the k-generated free object of the
variety of M is materialized as a deterministic automaton: a state is the
full evaluation vector of a word (its value in M under every assignment of
elements to the letters), the initial state is the identity vector, and the
transition by a letter multiplies componentwise by that letter's vector.
Two words evaluate equally under every substitution, i.e. form an identity
of M, exactly when they reach the same state.

``is_isoterm`` asks whether a word is alone in its state's language.
``is_tau_term`` decides whether identities of M can move a word out of its
congruence class, by one breadth-first search over pairs (value key,
canonical-form tracker).  The key is the automaton state when the automaton
fits its budget, and otherwise a digest of the evaluation vector, whose
successors are computed once per key from the word that first reached it.
The bounded modes are the same search cut after a number of levels, so
they report the witness the exact search would find, when it lies within
the bound.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .identities import BudgetExceededError, _blocks, _eval_batch
from .monoid import FiniteMonoid
from .rewrite import TauWord, canonical, compose_words
from .words import Word, content

_SINK = ("#sink#",)


@dataclass
class RelFreeAutomaton:
    """The k-generated relatively free monoid of var(M), as a DFA.

    ``vectors[s]`` is the evaluation vector of any word reaching state ``s``;
    ``transitions[s][i]`` is the state after appending letter ``i``.
    ``zero_state`` is the state of the everywhere-zero vector, when reached.
    """

    monoid: FiniteMonoid
    letters: tuple
    vectors: list
    transitions: list
    zero_state: int | None = None
    initial: int = 0

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def state_of_word(self, w: Word) -> int:
        pos = {b: i for i, b in enumerate(self.letters)}
        s = self.initial
        for b, p in w:
            if p:
                raise ValueError("state_of_word expects a plain word")
            s = self.transitions[s][pos[b]]
        return s


def rel_free_automaton(m: FiniteMonoid, letters, max_states: int = 60000,
                       max_cells: int = 4_000_000) -> RelFreeAutomaton:
    """Breadth-first closure of the evaluation-vector automaton.

    ``max_cells`` bounds the length of one evaluation vector (|M|^k);
    ``max_states`` bounds the number of distinct vectors stored.
    """
    letters = tuple(letters)
    k = len(letters)
    n = m.size
    veclen = n ** k
    if veclen > max_cells:
        raise BudgetExceededError(veclen, max_cells, "vector cells")
    gen = next(_blocks([np.arange(n, dtype=np.int32)] * k, veclen))
    init = np.full(veclen, m.identity, dtype=np.int32)
    zero_key = (np.full(veclen, m.zero, dtype=np.int32).tobytes()
                if m.zero is not None else None)
    vectors = [init]
    index = {init.tobytes(): 0}
    transitions: list = []
    zero_state = 0 if init.tobytes() == zero_key else None
    queue = deque([0])
    while queue:
        s = queue.popleft()
        row = []
        for i in range(k):
            v = m.table[vectors[s], gen[i]]
            key = v.tobytes()
            t = index.get(key)
            if t is None:
                if len(vectors) >= max_states:
                    raise BudgetExceededError(len(vectors) + 1, max_states,
                                              "automaton states")
                t = len(vectors)
                index[key] = t
                vectors.append(v)
                if key == zero_key:
                    zero_state = t
                queue.append(t)
            row.append(t)
        transitions.append(row)
    return RelFreeAutomaton(monoid=m, letters=letters, vectors=vectors,
                            transitions=transitions, zero_state=zero_state)


@dataclass(frozen=True)
class IsotermReport:
    word: Word
    is_isoterm: bool
    counterexample: Word | None = None


def _accepted_words(aut: RelFreeAutomaton, target: int, want: int = 2) -> list:
    """The first ``want`` words in shortlex order that reach ``target``
    (breadth-first, keeping up to ``want`` words per state)."""
    k = len(aut.letters)
    stored: dict = {aut.initial: [()]}
    queue = deque([(aut.initial, ())])
    while queue:
        s, path = queue.popleft()
        for i in range(k):
            t = aut.transitions[s][i]
            lst = stored.setdefault(t, [])
            if len(lst) < want:
                lst.append(path + (i,))
                queue.append((t, path + (i,)))
    return [tuple((aut.letters[i], False) for i in p)
            for p in stored.get(target, [])]


def is_isoterm(m: FiniteMonoid, w: Word, max_states: int = 60000) -> IsotermReport:
    """Whether M violates every nontrivial identity with ``w`` on one side.

    Decided in the evaluation automaton over the content of ``w``, or over
    one fresh letter ``z`` when ``w`` is empty: ``w`` is an isoterm exactly
    when neither of the two shortlex-first words reaching its state differs
    from ``w``, and the first one that does is the counterexample.

    The alphabet loses no identity.  Take ``w`` nonempty and an identity
    ``w = v`` where ``v`` has letters outside the content of ``w``.  Setting
    those letters to 1 gives an identity ``w = v'`` over the content.  If
    ``v' = w``, setting them to a letter of ``w`` instead gives a longer
    word over the content.  For the empty word, an identity ``1 = v`` gives
    ``1 = z^|v|``.  The search keeps the two shortlex-first words at each
    state, and that loses none at the state of ``w``: if a word were not
    among the first two at a state it passes through, the two earlier words
    there, each extended the same way, would come before it.
    """
    letters = tuple(sorted(content(w))) or ("z",)
    aut = rel_free_automaton(m, letters, max_states=max_states)
    accepted = _accepted_words(aut, aut.state_of_word(w))
    counter = next((v for v in accepted if v != w), None)
    return IsotermReport(w, counter is None, counter)


@dataclass(frozen=True)
class TauTermVerdict:
    status: str                      # "holds" | "fails" | "holds-up-to-bound"
    tau_word: TauWord
    witness: tuple | None = None     # (member word, equal-valued off-class word)
    bound: int | None = None
    method: str = "exact"
    fresh_letter_used: bool = False
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"


def _fresh_base(bases) -> str:
    for cand in "zwvuq":
        if cand not in bases:
            return cand
    i = 0
    while f"z{i}" in bases:
        i += 1
    return f"z{i}"


def _tracker_next(state, base: str, tau: str, limit: int):
    if state is _SINK:
        return _SINK
    nxt = compose_words(state, ((base, False),), tau)
    return nxt if len(nxt) <= limit else _SINK


def is_tau_term(m: FiniteMonoid, u: TauWord, mode: str = "auto",
                bound: int = 10, max_states: int = 60000,
                max_cells: int = 4_000_000) -> TauTermVerdict:
    """Decide whether ``u`` is a tau-term for the variety of ``m``.

    ``u`` fails to be a tau-term exactly when the monoid satisfies an
    identity ``U = v`` with ``U`` in the class of ``u`` and ``v`` outside it.
    One breadth-first search runs over nodes (value key, tracker).  The key
    is the word's state in the evaluation automaton or, when no automaton
    fits the budget (method "bounded-pairwise"), a 16-byte digest of its
    evaluation vector; equal keys mean equal values under every
    substitution.  The tracker is the canonical form of the word, or an
    absorbing sink past ``len(u)`` letters, which by length monotonicity
    class members never enter.  ``u`` fails when some key is reached both
    by a member and by a word outside the class.  Exact mode searches every
    reachable node and answers "holds" or "fails"; bounded mode is the same
    search cut after ``bound`` levels, which only ever reports
    "holds-up-to-bound" positively.  In auto mode an exact-budget overflow
    falls back to bounded with the downgraded verdict, never silently.

    The search reaches each node first by its shortlex-least word, so the
    witness is the shortlex-first word outside the class whose key has a
    member, paired with the shortlex-first member of that key: the same
    pair as enumerating every word in shortlex order, in every mode.

    When the monoid has a zero, a witness cannot involve letters outside
    the content of ``u`` unless some member evaluates to zero under every
    substitution; that case is detected directly, and a fresh letter is
    adjoined only for zero-free monoids.
    """
    if mode not in ("auto", "exact", "bounded"):
        raise ValueError(f"unknown mode {mode!r}: use auto, exact or bounded")
    if bound < 0:
        raise ValueError(f"bound must be at least 0, got {bound}")
    bases = sorted(content(u.word))
    fresh = None
    if m.zero is None:
        fresh = _fresh_base(set(bases))
        letters = tuple(bases) + (fresh,)
    else:
        letters = tuple(bases)
    note = ("no fresh letter: monoid has a zero, extra-letter witnesses "
            "require an everywhere-zero member (checked directly)"
            if fresh is None else f"fresh letter {fresh} adjoined")

    try:
        aut = rel_free_automaton(m, letters, max_states=max_states,
                                 max_cells=max_cells)
    except BudgetExceededError:
        if mode == "exact":
            raise
        if mode == "auto":
            note += "; exact budget exceeded, downgraded to bounded"
        method = "bounded-pairwise"
        start, zero, new_row = _digest_keys(m, letters)
        rows = {}
    else:
        method = "bounded" if mode == "bounded" else "exact"
        start, zero = aut.initial, aut.zero_state
        rows, new_row = dict(enumerate(aut.transitions)), None
    if method == "exact":
        bound = None

    limit = len(u.word)
    root = (start, ())
    parents = {root: None}
    member: dict = {}     # key -> first node whose tracker is u
    offender: dict = {}   # key -> first node whose tracker is not u
    # the rules only mark or merge, so no member is shorter than u, and a
    # bound below len(u) reaches none: the search is skipped
    level = [root] if bound is None or bound >= limit else []
    depth = 0
    while level:
        nodes, level = level, []
        for node in nodes:
            key, t = node
            (member if t == u.word else offender).setdefault(key, node)
            if depth == bound:
                continue
            row = rows.get(key)
            if row is None:
                row = rows[key] = new_row(_path(parents, node))
            for i, b in enumerate(letters):
                nxt = (row[i], _tracker_next(t, b, u.tau, limit))
                if nxt not in parents:
                    parents[nxt] = (node, i)
                    level.append(nxt)
        depth += 1

    def word(node) -> Word:
        return tuple((letters[i], False) for i in _path(parents, node))

    used = fresh is not None
    if zero is not None and zero in member:
        first = word(member[zero])
        z = _fresh_base(content(first))
        return TauTermVerdict("fails", u, (first, ((z, False),) + first),
                              bound=bound, method=method, fresh_letter_used=True,
                              note=note + "; member evaluates to zero everywhere")
    if bound is not None and not member:
        note += "; no class member within bound"
    for key, node in offender.items():
        if key in member:
            off = word(node)
            assert canonical(off, u.tau) != u.word or fresh in content(off)
            return TauTermVerdict("fails", u, (word(member[key]), off),
                                  bound=bound, method=method,
                                  fresh_letter_used=used, note=note)
    return TauTermVerdict("holds" if bound is None else "holds-up-to-bound", u,
                          bound=bound, method=method, fresh_letter_used=used,
                          note=note)


def _path(parents: dict, node) -> tuple:
    """The letter indices of the word that first reached ``node``."""
    out = []
    while parents[node] is not None:
        node, i = parents[node]
        out.append(i)
    return tuple(reversed(out))


def _digest_keys(m: FiniteMonoid, letters) -> tuple:
    """Digest keys of evaluation vectors, for when no automaton fits.

    Returns the key of the empty word, the key of the everywhere-zero
    vector (None without a zero), and the function that computes a key's
    successors from a word reaching it: one evaluation of the word, then
    one gather per letter.  No vector is kept.
    """
    cells = m.size ** len(letters)
    if cells > 2_000_000:
        raise BudgetExceededError(cells, 2_000_000, "vector cells")
    gen = next(_blocks([np.arange(m.size, dtype=np.int32)] * len(letters),
                       cells))

    def digest(vec):
        return hashlib.blake2b(vec.tobytes(), digest_size=16).digest()

    def new_row(combo):
        vec = _eval_batch(m.table, m.identity, combo, gen, cells)
        return [digest(m.table[vec, g]) for g in gen]

    zero = (None if m.zero is None
            else digest(np.full(cells, m.zero, dtype=np.int32)))
    return digest(np.full(cells, m.identity, dtype=np.int32)), zero, new_row
