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
canonical-form tracker).  Exact mode keys by automaton state.  Bounded mode
keys by a digest of the evaluation vector, whose successors are computed
once per key from the word that first reached it, and cuts the search
after a number of levels; it reports the witness the exact search would
find, when it lies within the bound.

One budget, ``max_cells``, bounds the int32 cells a search holds at once,
each vector |M|^k cells long: the automaton holds its k generator columns
and one vector per state, the digest search the generator columns, the
vector it evaluates and one successor.  A search refuses with
``BudgetExceededError`` before it would pass the budget.
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
MAX_CELLS = 2 ** 28      # 1 GiB of int32


@dataclass
class RelFreeAutomaton:
    """The k-generated relatively free monoid of var(M), as a DFA.

    ``vectors[s]`` is the evaluation vector of any word reaching state ``s``;
    ``transitions[s][i]`` is the state after appending letter ``i``.
    """

    monoid: FiniteMonoid
    letters: tuple
    vectors: list
    transitions: list
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


def rel_free_automaton(m: FiniteMonoid, letters,
                       max_cells: int = MAX_CELLS) -> RelFreeAutomaton:
    """Breadth-first closure of the evaluation-vector automaton.

    Refuses once ``(states + k) * |M|^k`` cells, the k generator columns
    and one vector per state, would pass ``max_cells``.  Each vector is
    stored once, as a read-only view of its index key.
    """
    letters = tuple(letters)
    k = len(letters)
    gen = _generator_columns(m, k, k + 1, max_cells)
    init = np.full(m.size ** k, m.identity, dtype=np.int32).tobytes()
    vectors = [np.frombuffer(init, dtype=np.int32)]
    index = {init: 0}
    transitions: list = []
    queue = deque([0])
    while queue:
        s = queue.popleft()
        row = []
        for i in range(k):
            key = m.table[vectors[s], gen[i]].tobytes()
            t = index.get(key)
            if t is None:
                t = len(vectors)
                _check_cells(t + 1 + k, m.size ** k, max_cells)
                index[key] = t
                vectors.append(np.frombuffer(key, dtype=np.int32))
                queue.append(t)
            row.append(t)
        transitions.append(row)
    return RelFreeAutomaton(monoid=m, letters=letters, vectors=vectors,
                            transitions=transitions)


def _check_cells(vectors: int, veclen: int, max_cells: int) -> None:
    if vectors * veclen > max_cells:
        raise BudgetExceededError(vectors * veclen, max_cells, "int32 cells")


def _generator_columns(m: FiniteMonoid, k: int, vectors: int,
                       max_cells: int) -> list:
    """Column i holds letter i's value under each of the |M|^k
    substitutions; refused unless ``vectors`` of that length fit."""
    _check_cells(vectors, m.size ** k, max_cells)
    return next(_blocks([np.arange(m.size, dtype=np.int32)] * k, m.size ** k))


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


def is_isoterm(m: FiniteMonoid, w: Word) -> IsotermReport:
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
    aut = rel_free_automaton(m, letters)
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
                bound: int = 10, max_cells: int = MAX_CELLS) -> TauTermVerdict:
    """Decide whether ``u`` is a tau-term for the variety of ``m``.

    ``u`` fails to be a tau-term exactly when the monoid satisfies an
    identity ``U = v`` with ``U`` in the class of ``u`` and ``v`` outside it.
    One breadth-first search runs over nodes (value key, tracker); equal
    keys mean equal values under every substitution.  The tracker is the
    canonical form of the word, or an absorbing sink past ``len(u)``
    letters, which by length monotonicity class members never enter.  ``u``
    fails when some key is reached both by a member and by a word outside
    the class.

    The method is "exact" or "bounded".  Exact keys by automaton state,
    searches every reachable node and answers "holds" or "fails".  Bounded
    builds no automaton: it keys by a 16-byte digest of the evaluation
    vector and cuts the search after ``bound`` levels, so it only ever
    reports "holds-up-to-bound" positively.  Exact mode raises
    ``BudgetExceededError`` once the automaton would pass ``max_cells``;
    auto mode then runs the bounded search and notes the downgrade, never
    silently.  The bounded search holds ``(k + 2) * |M|^k`` cells, and
    refuses when that passes ``max_cells``.

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

    aut = None
    if mode != "bounded":
        try:
            aut = rel_free_automaton(m, letters, max_cells=max_cells)
        except BudgetExceededError:
            if mode == "exact":
                raise
            note += "; exact budget exceeded, downgraded to bounded"
    if aut is None:
        method = "bounded"
        start, new_row = _digest_keys(m, letters, max_cells)
        rows = {}
    else:
        method, bound = "exact", None
        start, new_row = aut.initial, None
        rows = dict(enumerate(aut.transitions))

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
    # a word is zero everywhere only when 1 = 0, as the all-identity
    # substitution sends it to 1; then every word has the key ``start``
    if m.zero == m.identity and member:
        first = word(member[start])
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


def _digest_keys(m: FiniteMonoid, letters, max_cells: int) -> tuple:
    """Digest keys of evaluation vectors, for the bounded search.

    Returns the key of the empty word and the function that computes a
    key's successors from a word reaching it: one evaluation of the word,
    then one gather per letter.  No vector is kept past its digest, so the
    search holds ``(k + 2) * |M|^k`` cells: the k generator columns, the
    evaluated vector and one successor.
    """
    cells = m.size ** len(letters)
    gen = _generator_columns(m, len(letters), len(letters) + 2, max_cells)

    def digest(vec):
        return hashlib.blake2b(vec, digest_size=16).digest()

    def new_row(combo):
        vec = _eval_batch(m.table, m.identity, combo, gen, cells)
        return [digest(m.table[vec, g]) for g in gen]

    return digest(np.full(cells, m.identity, dtype=np.int32)), new_row
