"""Relatively free monoids as automata; isoterm and tau-term decision.

For a finite monoid M and k letters, the k-generated free object of the
variety of M is materialized as a deterministic automaton: a state is the
full evaluation vector of a word (its value in M under every assignment of
elements to the letters), the initial state is the identity vector, and the
transition by a letter multiplies componentwise by that letter's vector.
Two words evaluate equally under every substitution, i.e. form an identity
of M, exactly when they reach the same state.

One breadth-first search over pairs (value key, tracker) decides tau-terms
and isoterms, an isoterm being a tau-term for the trivial congruence; the
tracker runs on a table of the canonical forms of the prefixes of class
members.  Exact mode keys by automaton state.  Bounded mode keys by a
digest of the evaluation vector, whose successors are computed once per key
from the word that first reached it, and cuts the search after a number of
levels; it reports the witness the exact search would find, when it lies
within the bound.

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
from .words import Word, content, is_plain, print_word

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
    _, witness = _search(TauWord(w, "trivial"), letters, aut.initial,
                         dict(enumerate(aut.transitions)), None, None)
    return IsotermReport(w, witness is None, witness and witness[1])


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


def _tracker_table(u: TauWord, letters) -> tuple:
    """The tracker's states and transitions for the class of ``u``.

    ``forms`` numbers the canonical forms of the prefixes of the capped
    members of ``u`` (as ``construct._members`` lists them, every run at
    most 2 long), the empty word 0; ``len(forms)`` is an absorbing sink.
    ``steps[i]`` takes each form of a capped expansion of the first ``i``
    letters of ``u`` to its forms one and, for ``a+``, two letters on; the
    forms that lead to ``u``, each with its form one letter on, are the
    states, found without listing the exponentially many members.
    ``table[s][i]``, one ``compose_words`` each, is the form of ``s`` times
    letter ``i`` if that is a state, else the sink.  No member enters the
    sink: a prefix of a member is a window starting at 0, so by the
    run-capping argument of ``construct._lower_words`` it has the form of a
    prefix of a capped one.
    """
    steps, level = [], {()}
    for b, plussed in u.word:
        x = ((b, False),)
        step = {f: [canonical(f + x, u.tau)] for f in level}
        if plussed:
            for succ in step.values():
                succ.append(canonical(succ[0] + x, u.tau))
        steps.append(step)
        level = {g for succ in step.values() for g in succ}
    good = level & {u.word}
    prefixes = set(good)
    for step in reversed(steps):
        good = {f for f, succ in step.items() if good.intersection(succ)}
        prefixes |= good | {step[f][0] for f in good}
    forms = {f: s for s, f in enumerate(sorted(prefixes, key=lambda f: (len(f), f)))}
    sink = len(forms)
    table = [[forms.get(compose_words(f, ((b, False),), u.tau), sink)
              for b in letters] for f in forms]
    return forms, table + [[sink] * len(letters)]


def is_tau_term(m: FiniteMonoid, u: TauWord, mode: str = "auto",
                bound: int = 10, max_cells: int = MAX_CELLS) -> TauTermVerdict:
    """Decide whether ``u`` is a tau-term for the variety of ``m``.

    ``u`` fails to be a tau-term exactly when the monoid satisfies an
    identity ``U = v`` with ``U`` in the class of ``u`` and ``v`` outside it.
    One breadth-first search runs over nodes (value key, tracker); equal
    keys mean equal values under every substitution.  The tracker is the
    word's state in ``_tracker_table``: its canonical form when that is the
    form of a prefix of a member, else a sink that no member enters.  ``u``
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
    pair as enumerating every word in shortlex order, in every mode and for
    any tracker that tells members apart.

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

    used = fresh is not None
    first, witness = _search(u, letters, start, rows, new_row, bound)
    # a word is zero everywhere only when 1 = 0, as the all-identity
    # substitution sends it to 1; then every word has the key ``start``
    if m.zero == m.identity and first is not None:
        z = _fresh_base(content(first))
        return TauTermVerdict("fails", u, (first, ((z, False),) + first),
                              bound=bound, method=method, fresh_letter_used=True,
                              note=note + "; member evaluates to zero everywhere")
    if bound is not None and first is None:
        note += "; no class member within bound"
    if witness is not None:
        assert canonical(witness[1], u.tau) != u.word
        return TauTermVerdict("fails", u, witness, bound=bound, method=method,
                              fresh_letter_used=used, note=note)
    return TauTermVerdict("holds" if bound is None else "holds-up-to-bound", u,
                          bound=bound, method=method, fresh_letter_used=used,
                          note=note)


def _search(u: TauWord, letters, start, rows: dict, new_row, bound) -> tuple:
    """The search of ``is_tau_term``: its shortlex-first member and its
    witness pair, each None when absent.  A key without a row in ``rows``
    gets ``new_row`` of the word that first reached it."""
    forms, table = _tracker_table(u, letters)
    target = forms.get(u.word)
    root = (start, 0)
    parents = {root: None}
    member: dict = {}     # key -> first node whose tracker is u
    offender: dict = {}   # key -> first node whose tracker is not u
    # the rules only mark or merge, so no member is shorter than u, and a
    # bound below len(u) reaches none: the search is skipped
    level = [root] if bound is None or bound >= len(u.word) else []
    depth = 0
    while level:
        nodes, level = level, []
        for node in nodes:
            key, t = node
            (member if t == target else offender).setdefault(key, node)
            if depth == bound:
                continue
            row = rows.get(key)
            if row is None:
                row = rows[key] = new_row(_path(parents, node))
            for i, s in enumerate(table[t]):
                nxt = (row[i], s)
                if nxt not in parents:
                    parents[nxt] = (node, i)
                    level.append(nxt)
        depth += 1

    def word(node) -> Word:
        return tuple((letters[i], False) for i in _path(parents, node))

    witness = next(((word(member[key]), word(node))
                    for key, node in offender.items() if key in member), None)
    return next(map(word, member.values()), None), witness


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
