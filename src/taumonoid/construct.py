"""Factor order on tau-words, lower sets, and the quotient monoids.

``v <= u`` holds when ``u = p * v * s`` for some tau-words ``p, s`` (``*``
being canonicalized concatenation).  Because ``canonical`` is a congruence,
this holds exactly when some representative of ``v`` is a factor of some
plain member of the class of ``u``: the factor order on which Perkins
builds the quotients ``M(W)`` (J. Algebra 11, 1969).  The lower set of
``u`` is therefore the set of canonical forms of the windows (contiguous
factors) of the members of its class.  ``_lower_graph`` reads them along
the prefix automaton of the class (``_tracker_table``), whose states are the
forms of the member prefixes, without listing a member, and keeps every
product of a form by a letter that it forms on the way: the right Cayley
graph of the lower set.  ``freeobj`` tracks the class of a word with the
same automaton.

``build_monoid`` materializes the Rees quotient: the elements are the lower
set of a finite word set plus a fresh absorbing zero, and a product falls to
zero exactly when the composed word escapes the lower set.  The table comes
from the right Cayley graph through ``monoid.cayley_table``, as for every
generated monoid.  The graph is the union of the graphs the lower-set search
returns for the words of the set, so no product of an element by a letter
is formed again, and the search from the identity reaches every element,
since each prefix of a plain member of ``v`` is a factor of it and so stays
in the lower set.  Every product by one letter, in the search and in the
prefix automaton, is one ``rewrite.append_letter``, which does not rewrite
the element.
"""

from __future__ import annotations

from functools import lru_cache

from .monoid import FiniteMonoid, cayley_table
from .rewrite import TauWord, TauWordSet, append_letter
from .words import EMPTY, content, print_word


def _tracker_table(u: TauWord, letters) -> tuple:
    """The prefix automaton of the class of ``u``, and the state of ``u``.

    The states number the canonical forms of the prefixes of the members of
    ``u``, shortlex, so the empty word is 0; the last row is an absorbing
    sink.  ``table[s][i]`` is the form of ``s`` times letter ``i`` if that
    is a state, else the sink; each distinct (form, letter) product, in the
    table and in ``steps`` below, is one ``append_letter``.

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
    when it is the ``j``-th letter of ``u``.
    """
    if u.tau == "trivial":
        n = len(u.word)
        table = [[j + 1 if (b, False) == u.word[j] else n + 1 for b in letters]
                 for j in range(n)]
        return table + [[n + 1] * len(letters)] * 2, n
    memo: dict = {}

    def times(f, b):
        if (f, b) not in memo:
            memo[f, b] = append_letter(f, b, u.tau)
        return memo[f, b]

    steps, level = [], {()}
    for b, plussed in u.word:
        step = {f: [times(f, b)] for f in level}
        if plussed:
            for succ in step.values():
                succ.append(times(succ[0], b))
        steps.append(step)
        level = {g for succ in step.values() for g in succ}
    good = level & {u.word}
    prefixes = set(good)
    for step in reversed(steps):
        good = {f for f, succ in step.items() if good.intersection(succ)}
        prefixes |= good | {step[f][0] for f in good}
    forms = {f: s for s, f in enumerate(sorted(prefixes, key=lambda f: (len(f), f)))}
    sink = len(forms)
    table = [[forms.get(times(f, b), sink) for b in letters] for f in forms]
    return table + [[sink] * len(letters)], forms.get(u.word)


def _lower_graph(u: tuple, tau: str) -> dict:
    """The right Cayley graph of the lower set of ``u``.

    ``graph[f][b]`` is the form of ``f`` times the letter ``b`` for every
    form ``f`` below ``u`` and every base ``b`` whose product with ``f``
    stays below ``u``; the keys are the lower set.  The forms are those of
    the words read along the prefix automaton of ``u`` from any state
    without entering the sink, found by one search over pairs (state, form
    of the word read so far); each (form, letter) is appended once, however
    many states reach it.  These are the forms of the windows of the members
    of ``u``.  A window ``w`` of a member ``p w s`` is read from the state of
    ``p``, as every prefix of ``p w`` is a member prefix.  Conversely, if
    ``w`` is read from the state of a member prefix ``p`` to a state ``g``,
    then ``p w`` has the form ``g`` of some member prefix ``q``, and if
    ``q s`` is a member then so is ``p w s``.

    The graph is exact: ``f * b`` is below ``u`` exactly when the search
    meets a node ``(s, f)`` with ``table[s][b]`` not the sink.  If it does,
    the word read to ``f`` goes on to ``f * b``, which is then a form read
    along the automaton.  Conversely, if ``f * b`` is the form of a window
    ``w'`` of a member ``p w' s``, then ``p (w b) s`` is a member for every
    plain ``w`` in the class of ``f``, as tau is a congruence; so ``w`` is
    read from the state of ``p`` to a node ``(t, f)``, and ``b`` leads on
    from ``t`` as ``p w b`` is a member prefix.
    """
    letters = sorted(content(u))
    table, _ = _tracker_table(TauWord.of_canonical(u, tau), letters)
    sink = len(table) - 1
    seen = {(s, EMPTY) for s in range(sink)}
    stack = list(seen)
    graph: dict = {EMPTY: {}}
    while stack:
        s, f = stack.pop()
        out = graph[f]
        for b, t in zip(letters, table[s]):
            if t != sink:
                g = out.get(b)
                if g is None:
                    g = out[b] = append_letter(f, b, tau)
                    graph.setdefault(g, {})
                node = (t, g)
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
    return graph


@lru_cache(maxsize=1024)
def _lower_words(u: tuple, tau: str) -> frozenset:
    """Canonical words below ``u`` in the factor order: the keys of
    ``_lower_graph``."""
    return frozenset(_lower_graph(u, tau))


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

    The table is read off the right Cayley graph by ``cayley_table``.  The
    graph is the union of the graphs ``_lower_graph`` of the words, so no
    product is formed twice: if ``f * x`` lies below some word ``u`` of the
    set, so does its factor ``f``, and ``u``'s graph holds the edge.  Every
    pair missing from the union goes to zero, and the zero row is fixed at
    zero.  The search starts at the identity, whose column is every element,
    and reaches every element: with ``x1 ... xk`` a plain member of ``v``,
    every prefix ``x1 ... xi`` is a factor of that member, so its canonical
    form lies below ``v`` and in the lower set, and the path ``1, x1,
    x1 x2, ..., v`` never falls to zero.
    """
    right: dict = {}
    for w in ws.words:
        for f, out in _lower_graph(w, ws.tau).items():
            right.setdefault(f, {}).update(out)
    if not right:
        return FiniteMonoid(table=((0,),), labels=("0",), identity=0)
    label = {w: print_word(w) for w in right}
    low = sorted(label, key=lambda w: (len(w), label[w]))
    index = {w: i for i, w in enumerate(low)}
    zero = len(low)
    letters = sorted({b for w in ws.words for b, _ in w})
    rows = [[index.get(right[w].get(b), zero) for b in letters]
            for w in low] + [[zero] * len(letters)]
    one = index[EMPTY]
    labels = tuple(label[w] for w in low) + ("0",)
    return FiniteMonoid(table=cayley_table(rows, {one: range(zero + 1)}, zero),
                        labels=labels, identity=one)
