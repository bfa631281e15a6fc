"""Factor order on tau-words, lower sets, and the quotient monoids.

``v <= u`` holds when ``u = p * v * s`` for some tau-words ``p, s`` (``*``
being canonicalized concatenation).  Because ``canonical`` is a congruence,
this holds exactly when some representative of ``v`` is a factor of some
plain member of the class of ``u``: the factor order on which Perkins
builds the quotients ``M(W)`` (J. Algebra 11, 1969).  The lower set of
``u`` is therefore the set of canonical forms of the windows (contiguous
factors) of the members of its class.  ``_lower_ids`` reads them along
the prefix automaton of the class (``_tracker``), whose states are the forms
of the member prefixes, without listing a member, and keeps every product
of a form by a letter that it forms on the way: the right Cayley graph of
the lower set.  ``freeobj`` tracks the class of a word with the same
automaton (``_tracker_table``).

Every product by one letter, in the prefix automaton and in the search, is
one ``rewrite.append_letter``, which does not rewrite the element, and is
kept in a ``_Products`` memo: the forms are numbered on first sight, and
``next[i][b]`` is the id of form ``i`` times the letter ``b``.  The search
runs over pairs of integers (state, form id).  ``_lower_graph`` and
``_lower_words`` are views of one search with a memo of its own.

``build_monoid`` materializes the Rees quotient: the elements are the lower
set of a finite word set plus a fresh absorbing zero, and a product falls to
zero exactly when the composed word escapes the lower set.  One memo serves
the prefix automata, the searches and the rows of all the words of the set,
so no product by a letter is formed twice in a build.  The table comes from
the right Cayley graph through ``monoid.cayley_table``, as for every
generated monoid, and the search from the identity reaches every element,
since each prefix of a plain member of ``v`` is a factor of it and so stays
in the lower set.
"""

from __future__ import annotations

from functools import lru_cache

from .monoid import FiniteMonoid, cayley_table
from .rewrite import TauWord, TauWordSet, append_letter
from .words import EMPTY, content, print_word


class _Products:
    """The products of forms by letters that one search or one build forms,
    over integer form ids.

    ``form[i]`` is the canonical word numbered ``i`` on first sight, ``id``
    its inverse, and ``next[i][b]`` the id of ``form[i]`` times the letter
    ``b``, filled by one ``append_letter`` the first time it is asked for.
    """

    def __init__(self, tau: str):
        self.tau = tau
        self.form: list = []
        self.id: dict = {}
        self.next: list = []

    def of(self, w) -> int:
        i = self.id.get(w)
        if i is None:
            i = self.id[w] = len(self.form)
            self.form.append(w)
            self.next.append({})
        return i

    def times(self, i: int, b: str) -> int:
        out = self.next[i]
        j = out.get(b)
        if j is None:
            j = out[b] = self.of(append_letter(self.form[i], b, self.tau))
        return j


def _tracker_table(u: TauWord, letters) -> tuple:
    """The prefix automaton of the class of ``u``, and the state of ``u``.

    The states number the canonical forms of the prefixes of the members of
    ``u``, shortlex, so the empty word is 0; the last row is an absorbing
    sink.  ``table[s][i]`` is the form of ``s`` times letter ``i`` if that
    is a state, else the sink; each distinct (form, letter) product, in the
    table and in the steps of ``_tracker``, is one ``append_letter``.
    """
    return _tracker(u, letters, _Products(u.tau))


def _tracker(u: TauWord, letters, memo: _Products) -> tuple:
    """``_tracker_table`` with its products read from and added to ``memo``.

    Capped members suffice.  A member is ``u`` with each letter replaced by
    a maximal run of its base (the merge rules turn a run of two or more
    into one plussed letter), and the form of a plain word depends on a run
    only through whether its length is 1 or at least 2: merging needs
    adjacency, and marking ``a`` needs ``a`` to occur twice (gamma), to its
    left (lambda) or to its right (rho), which a run of 2 decides as any
    longer run does.  So cutting the runs of a member and of its prefixes to
    at most 2 keeps their forms.  ``steps[i]`` takes each form of a capped
    expansion of the first ``i`` letters of ``u`` to its forms one and, for
    ``a+``, two letters on; the forms that lead to ``u``, each with its form
    one letter on, are the states, found without listing the 2^p capped
    members.  Under the trivial congruence the class is ``{u}`` and the
    states are the prefix lengths: letter ``i`` moves state ``j`` on exactly
    when it is the ``j``-th letter of ``u``, and no product is formed.
    """
    if u.tau == "trivial":
        n = len(u.word)
        table = [[j + 1 if (b, False) == u.word[j] else n + 1 for b in letters]
                 for j in range(n)]
        return table + [[n + 1] * len(letters)] * 2, n
    times = memo.times
    steps, level = [], {memo.of(EMPTY)}
    for b, plussed in u.word:
        step = {f: [times(f, b)] for f in level}
        if plussed:
            for succ in step.values():
                succ.append(times(succ[0], b))
        steps.append(step)
        level = {g for succ in step.values() for g in succ}
    top = memo.id.get(u.word)
    good = level & {top}
    prefixes = set(good)
    for step in reversed(steps):
        good = {f for f, succ in step.items() if good.intersection(succ)}
        prefixes |= good | {step[f][0] for f in good}
    form = memo.form
    states = {f: s for s, f in enumerate(
        sorted(prefixes, key=lambda f: (len(form[f]), form[f])))}
    sink = len(states)
    table = [[states.get(times(f, b), sink) for b in letters] for f in states]
    return table + [[sink] * len(letters)], states.get(top)


def _lower_ids(u: tuple, memo: _Products) -> set:
    """The ids of the forms below ``u``, with every product of one of them
    by a letter that stays below ``u`` in ``memo``.

    The forms are those of the words read along the prefix automaton of
    ``u`` from any state without entering the sink, found by one search
    over pairs (state, id of the form of the word read so far); each
    (form, letter) is appended once, however many states reach it.  These
    are the forms of the windows of the members of ``u``.  A window ``w``
    of a member ``p w s`` is read from the state of ``p``, as every prefix
    of ``p w`` is a member prefix.  Conversely, if ``w`` is read from the
    state of a member prefix ``p`` to a state ``g``, then ``p w`` has the
    form ``g`` of some member prefix ``q``, and if ``q s`` is a member then
    so is ``p w s``.

    The products are exact: ``f * b`` is below ``u`` exactly when the
    search meets a node ``(s, f)`` with ``table[s][b]`` not the sink, and
    then it forms ``f * b``.  If it does, the word read to ``f`` goes on to
    ``f * b``, which is then a form read along the automaton.  Conversely,
    if ``f * b`` is the form of a window ``w'`` of a member ``p w' s``, then
    ``p (w b) s`` is a member for every plain ``w`` in the class of ``f``,
    as tau is a congruence; so ``w`` is read from the state of ``p`` to a
    node ``(t, f)``, and ``b`` leads on from ``t`` as ``p w b`` is a member
    prefix.
    """
    letters = sorted(content(u))
    table, _ = _tracker(TauWord.of_canonical(u, memo.tau), letters, memo)
    sink = len(table) - 1
    moves = [[(b, t) for b, t in zip(letters, row) if t != sink]
             for row in table]
    nxt, times = memo.next, memo.times
    # a node (state s, form id f) is the integer f * sink + s
    empty = memo.of(EMPTY)
    seen = set(range(empty * sink, empty * sink + sink))
    stack = list(seen)
    low = {empty}
    while stack:
        f, s = divmod(stack.pop(), sink)
        out = nxt[f]
        for b, t in moves[s]:
            g = out.get(b)
            if g is None:
                g = times(f, b)
            node = g * sink + t
            if node not in seen:
                seen.add(node)
                stack.append(node)
                low.add(g)
    return low


def _lower_graph(u: tuple, tau: str) -> dict:
    """The right Cayley graph of the lower set of ``u``: ``graph[f][b]`` is
    the form of ``f`` times the letter ``b`` for every form ``f`` below
    ``u`` and every base ``b`` whose product with ``f`` stays below ``u``;
    the keys are the lower set (``_lower_ids``)."""
    memo = _Products(tau)
    low = _lower_ids(u, memo)
    form = memo.form
    return {form[f]: {b: form[g] for b, g in memo.next[f].items() if g in low}
            for f in low}


@lru_cache(maxsize=1024)
def _lower_words(u: tuple, tau: str) -> frozenset:
    """Canonical words below ``u`` in the factor order: the forms of
    ``_lower_ids``."""
    memo = _Products(tau)
    return frozenset(memo.form[f] for f in _lower_ids(u, memo))


def leq_tau(v: TauWord, u: TauWord) -> bool:
    """The factor order: whether ``u = p * v * s`` for some tau-words p, s."""
    if v.tau != u.tau:
        raise ValueError(f"mismatched congruences: {v.tau} vs {u.tau}")
    if len(v.word) > len(u.word) or not content(v.word) <= content(u.word):
        return False
    return v.word in _lower_words(u.word, u.tau)


def lower_set(ws: TauWordSet) -> set:
    """The downward closure of a word set in the factor order.

    Contains the empty word whenever the set is nonempty.  The words of
    ``_lower_words`` are canonical forms already, so they are not checked
    again.
    """
    out: set = set()
    for w in ws.words:
        out |= _lower_words(w, ws.tau)
    return {TauWord.of_canonical(w, ws.tau) for w in out}


def build_monoid(ws: TauWordSet) -> FiniteMonoid:
    """The Rees quotient monoid of a finite set of tau-words.

    Elements are the lower set plus a distinguished zero; the product of two
    elements is their composition when it stays inside the lower set and zero
    otherwise.  An empty word set yields the one-element monoid in which the
    identity and the zero coincide.

    One ``_Products`` serves the prefix automata and the lower-set searches
    of all the words, so no product by a letter is formed twice.  The table
    is read off the right Cayley graph by ``cayley_table``, and the graph's
    rows come from the memo restricted to the lower set, which is exact: if
    ``f * x`` lies below some word ``u`` of the set, so does its factor
    ``f``, and ``u``'s search formed the product.  Every other pair goes to
    zero, and the zero row is fixed at zero.  The search starts at the
    identity, whose column is every element, and reaches every element:
    with ``x1 ... xk`` a plain member of ``v``, every prefix ``x1 ... xi``
    is a factor of that member, so its canonical form lies below ``v`` and
    in the lower set, and the path ``1, x1, x1 x2, ..., v`` never falls to
    zero.
    """
    memo = _Products(ws.tau)
    low: set = set()
    for w in ws.words:
        low |= _lower_ids(w, memo)
    if not low:
        return FiniteMonoid(table=((0,),), labels=("0",), identity=0)
    form, nxt = memo.form, memo.next
    label = {f: print_word(form[f]) for f in low}
    order = sorted(low, key=lambda f: (len(form[f]), label[f]))
    index = {f: i for i, f in enumerate(order)}
    zero = len(order)
    letters = sorted({b for w in ws.words for b, _ in w})
    rows = [[index.get(nxt[f].get(b), zero) for b in letters] for f in order]
    rows.append([zero] * len(letters))
    one = index[memo.id[EMPTY]]
    labels = tuple(label[f] for f in order) + ("0",)
    return FiniteMonoid(table=cayley_table(rows, {one: range(zero + 1)}, zero),
                        labels=labels, identity=one)
