"""Factor order on tau-words, lower sets, and the quotient monoids.

``v <= u`` holds when ``u = p * v * s`` for some tau-words ``p, s`` (``*``
being canonicalized concatenation).  Because ``canonical`` is a congruence,
this holds exactly when some representative of ``v`` is a factor of some
plain member of the class of ``u``: the factor order on which Perkins
builds the quotients ``M(W)`` (J. Algebra 11, 1969).  The lower set of
``u`` is therefore the set of canonical forms of the windows (contiguous
factors) of the members of its class, and finitely many members suffice
(``_lower_words``).

``build_monoid`` materializes the Rees quotient: the elements are the lower
set of a finite word set plus a fresh absorbing zero, and a product falls to
zero exactly when the composed word escapes the lower set.  The table comes
from the right Cayley graph through ``monoid.cayley_table``, as for every
generated monoid: only the n * |A| products of an element by a letter are
composed, and the search from the identity reaches every element, since each
prefix of a plain member of ``v`` is a factor of it and so stays in the lower
set.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .monoid import FiniteMonoid, cayley_table
from .rewrite import TauWord, TauWordSet, canonical, compose_words
from .words import EMPTY, Word, content, print_word


def _members(u: Word, tau: str) -> list:
    """The plain members of the class of ``u`` with every run at most 2 long.

    A plain letter of ``u`` stands for one letter, a plussed ``a+`` for a
    run of one or two ``a``; the combinations that canonicalize back to
    ``u`` are kept (a single ``a`` stays ``a+`` only where it is marked).
    """
    if tau == "trivial":
        return [u]
    members = (tuple((b, False) for (b, _), r in zip(u, runs) for _ in range(r))
               for runs in product(*[(1, 2) if p else (1,) for _, p in u]))
    return [m for m in members if canonical(m, tau) == u]


@lru_cache(maxsize=1024)
def _lower_words(u: tuple, tau: str) -> frozenset:
    """Canonical words below ``u`` in the factor order.

    The canonical forms of the windows of the members from ``_members``.
    This is exact.  Every member of the class of ``u`` is ``u`` with each
    letter replaced by a maximal run of its base (the merge rules turn a
    run of two or more into one plussed letter), and the canonical form of
    a plain word depends on a run only through whether its length is 1 or
    at least 2: merging needs adjacency, and marking an occurrence of ``a``
    needs ``a`` to occur twice (gamma), to its left (lambda) or to its
    right (rho), which a run of 2 decides as any longer run does.  So if
    ``w`` is a window of a member ``m``, cutting every run of ``m`` down to
    at most 2 gives a member ``m'`` still in the class, and cutting the runs
    of ``w`` the same way (a run that ``w`` cuts off at one of its ends
    keeps that end) gives a window ``w'`` of ``m'`` with the canonical form
    of ``w``.  Under ``trivial`` runs are literal, and the only member is
    ``u``.
    """
    windows = {m[i:j] for m in _members(u, tau)
               for i in range(len(m)) for j in range(i + 1, len(m) + 1)}
    return frozenset({EMPTY} | {canonical(w, tau) for w in windows})


def leq_tau(v: TauWord, u: TauWord) -> bool:
    """The factor order: whether ``u = p * v * s`` for some tau-words p, s."""
    if v.tau != u.tau:
        raise ValueError(f"mismatched congruences: {v.tau} vs {u.tau}")
    if len(v.word) > len(u.word) or not content(v.word) <= content(u.word):
        return False
    return v.word in _lower_words(u.word, u.tau)


def leq_tau_by_factor_search(v: TauWord, u: TauWord) -> bool:
    """Brute-force oracle: try every canonical pair (p, s) directly.

    A product is never shorter than either factor, so p and s range over the
    canonical words over the content of ``u`` no longer than ``u``; each is
    a product of plain letters, reached by appending one letter at a time.
    """
    if v.tau != u.tau:
        raise ValueError("mismatched congruences")
    letters = [((b, False),) for b in content(u.word)]
    nodes, frontier = {EMPTY}, [EMPTY]
    while frontier:
        grown = {compose_words(x, l, u.tau) for x in frontier for l in letters}
        frontier = [y for y in grown if len(y) <= len(u.word) and y not in nodes]
        nodes.update(frontier)
    for p in nodes:
        pv = compose_words(p, v.word, u.tau)
        if len(pv) > len(u.word):
            continue
        for s in nodes:
            if compose_words(pv, s, u.tau) == u.word:
                return True
    return False


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

    The table is read off the right Cayley graph by ``cayley_table``: the
    right action ``right[u][x]`` of each letter ``x`` of the content on each
    element ``u`` is composed directly, n * |A| compositions for an alphabet
    A with the zero row fixed at zero, and the search starts at the
    identity, whose column is every element.  It reaches every element: with
    ``x1 ... xk`` a plain member of ``v``, every prefix ``x1 ... xi`` is a
    factor of that member, so its canonical form lies below ``v`` and in the
    lower set, and the path ``1, x1, x1 x2, ..., v`` never falls to zero.
    """
    label = {t.word: print_word(t.word) for t in lower_set(ws)}
    low = sorted(label, key=lambda w: (len(w), label[w]))
    if not low:
        table = ((0,),)
        return FiniteMonoid(table=table, labels=("0",), identity=0, zero=0)
    index = {w: i for i, w in enumerate(low)}
    zero = len(low)
    letters = sorted({(b, False) for w in ws.words for b, _ in w})
    right = [[index.get(compose_words(w, (x,), ws.tau), zero) for x in letters]
             for w in low] + [[zero] * len(letters)]
    one = index[EMPTY]
    labels = tuple(label[w] for w in low) + ("0",)
    return FiniteMonoid(table=cayley_table(right, {one: range(zero + 1)}, zero),
                        labels=labels, identity=one, zero=zero)
