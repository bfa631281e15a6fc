"""Relatively free monoids as automata; isoterm and tau-term decision.

For a finite monoid M and k letters, the k-generated free object of the
variety of M is materialized as a deterministic automaton: a state is the
full evaluation vector of a word (its value in M under every assignment of
elements to the letters), the initial state is the identity vector, and the
transition by a letter multiplies componentwise by that letter's vector.
Two words evaluate equally under every substitution, i.e. form an identity
of M, exactly when they reach the same state.

``is_isoterm`` asks whether a word is alone in its state's language, and
``is_tau_term`` runs the product of this automaton with a canonical-form
tracker to decide whether identities of M can move a word out of its
congruence class.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from itertools import product

import numpy as np

from .identities import BudgetExceededError
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


def _generator_columns(n: int, k: int) -> list:
    """Column i gives letter i's value in each of the n^k assignments."""
    cols = []
    for i in range(k):
        reps = n ** (k - i - 1)
        cols.append(np.tile(np.repeat(np.arange(n, dtype=np.int32), reps),
                            n ** i))
    return cols


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
    gen = _generator_columns(n, k)
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


def _in_class(w: Word, u: TauWord) -> bool:
    return canonical(w, u.tau) == u.word


def is_tau_term(m: FiniteMonoid, u: TauWord, mode: str = "auto",
                bound: int = 10, max_states: int = 60000,
                max_cells: int = 4_000_000) -> TauTermVerdict:
    """Decide whether ``u`` is a tau-term for the variety of ``m``.

    ``u`` fails to be a tau-term exactly when the monoid satisfies an
    identity ``U = v`` with ``U`` in the class of ``u`` and ``v`` outside it.
    Exact mode pairs the evaluation automaton with a canonical-form tracker
    (states: canonical words up to ``len(u)``, plus an absorbing sink that by
    length monotonicity class members never enter) and scans the reachable
    product states.  When the monoid has a zero, a witness cannot involve
    letters outside the content of ``u`` unless some member evaluates to zero
    under every substitution; that case is detected directly, and a fresh
    letter is adjoined only for zero-free monoids.  Bounded mode enumerates
    words up to the length cap; it can find failures but only ever reports
    "holds-up-to-bound" positively.  In auto mode an exact-budget overflow
    falls back to bounded with the downgraded verdict, never silently.
    """
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
        return _tau_term_bounded(m, u, letters, fresh, bound, note)
    if mode in ("auto", "exact"):
        return _tau_term_exact(aut, u, fresh, note)
    return _tau_term_bounded(m, u, letters, fresh, bound, note, aut)


def _zero_member_verdict(member: Word, u: TauWord, method: str, note: str,
                         bound=None) -> TauTermVerdict:
    z = _fresh_base({b for b, _ in member})
    witness = (member, ((z, False),) + member)
    return TauTermVerdict("fails", u, witness, bound=bound, method=method,
                          fresh_letter_used=True,
                          note=note + "; member evaluates to zero everywhere")


def _tau_term_exact(aut: RelFreeAutomaton, u: TauWord, fresh, note):
    tau = u.tau
    limit = len(u.word)
    start = (aut.initial, ())
    parents = {start: None}
    queue = deque([start])
    member_node: dict = {}     # rel-free state -> product node with tracker == u
    offender_node: dict = {}   # rel-free state -> product node with tracker != u
    while queue:
        node = queue.popleft()
        s, t = node
        if t == u.word:
            member_node.setdefault(s, node)
        else:
            offender_node.setdefault(s, node)
        for i, b in enumerate(aut.letters):
            nxt = (aut.transitions[s][i], _tracker_next(t, b, tau, limit))
            if nxt not in parents:
                parents[nxt] = (node, i)
                queue.append(nxt)

    def path_word(node) -> Word:
        out = []
        while parents[node] is not None:
            node, i = parents[node]
            out.append((aut.letters[i], False))
        return tuple(reversed(out))

    if aut.zero_state is not None and aut.zero_state in member_node:
        member = path_word(member_node[aut.zero_state])
        return _zero_member_verdict(member, u, "exact", note)
    for s, node in offender_node.items():
        if s in member_node:
            member = path_word(member_node[s])
            off = path_word(node)
            assert not _in_class(off, u) or any(b == fresh for b, _ in off)
            return TauTermVerdict("fails", u, (member, off), method="exact",
                                  fresh_letter_used=fresh is not None, note=note)
    return TauTermVerdict("holds", u, method="exact",
                          fresh_letter_used=fresh is not None, note=note)


def _bounded_words(letters, bound: int):
    for ln in range(bound + 1):
        yield from product(range(len(letters)), repeat=ln)


def _tau_term_bounded(m: FiniteMonoid, u: TauWord, letters, fresh, bound,
                      note, aut: RelFreeAutomaton | None = None):
    """Enumerate words up to ``bound`` letters, keyed by their values.

    A word's key is its state in ``aut`` or, when no automaton fits the
    budget (``aut`` None, method "bounded-pairwise"), a digest of its
    evaluation vector; equal keys mean equal values under every
    substitution.  Only member keys are kept, so without the automaton
    memory stays flat.  A member keyed like the everywhere-zero vector is
    reported first, on either key.
    """
    if aut is not None:
        method = "bounded"

        def key(combo):
            s = aut.initial
            for i in combo:
                s = aut.transitions[s][i]
            return s

        zero_key = aut.zero_state
    else:
        method = "bounded-pairwise"
        cells = m.size ** len(letters)
        if cells > 2_000_000:
            raise BudgetExceededError(cells, 2_000_000, "vector cells")
        gen = _generator_columns(m.size, len(letters))

        def digest(vec):
            return hashlib.blake2b(vec.tobytes(), digest_size=16).digest()

        def key(combo):
            vec = np.full(cells, m.identity, dtype=np.int32)
            for i in combo:
                vec = m.table[vec, gen[i]]
            return digest(vec)

        zero_key = (None if m.zero is None
                    else digest(np.full(cells, m.zero, dtype=np.int32)))

    def member(w: Word) -> bool:
        return (fresh is None or all(b != fresh for b, _ in w)) and _in_class(w, u)

    member_word: dict = {}
    for combo in _bounded_words(letters, bound):
        w = tuple((letters[i], False) for i in combo)
        if member(w):
            member_word.setdefault(key(combo), w)
    if zero_key is not None and zero_key in member_word:
        return _zero_member_verdict(member_word[zero_key], u, method, note,
                                    bound=bound)
    if not member_word:
        note += "; no class member within bound"
    else:
        for combo in _bounded_words(letters, bound):
            w = tuple((letters[i], False) for i in combo)
            k = key(combo)
            if k in member_word and not member(w):
                return TauTermVerdict("fails", u, (member_word[k], w),
                                      bound=bound, method=method,
                                      fresh_letter_used=fresh is not None,
                                      note=note)
    return TauTermVerdict("holds-up-to-bound", u, bound=bound, method=method,
                          fresh_letter_used=fresh is not None, note=note)
