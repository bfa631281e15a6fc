"""Factor order on tau-words, lower sets, and the quotient monoids.

``v <= u`` holds when ``u = p * v * s`` for some tau-words ``p, s`` (``*``
being canonicalized concatenation).  Because multiplying a canonical word by
a letter never shortens it, the search can be confined to canonical words
over the content of ``u`` of length at most ``len(u)``: those words with the
left/right letter-multiplication maps form a finite graph, and the order
reduces to two reachability questions on it.

``build_monoid`` materializes the Rees quotient: the elements are the lower
set of a finite word set plus a fresh absorbing zero, and a product falls to
zero exactly when the composed word escapes the lower set.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .monoid import FiniteMonoid
from .rewrite import TauWord, TauWordSet, compose_words
from .words import EMPTY, content, print_word


@lru_cache(maxsize=256)
def _node_graph(bases: tuple, max_len: int, tau: str):
    """All canonical words over ``bases`` of length <= max_len, with edges.

    Returns ``(nodes, right, left)`` where ``right[x]`` lists ``x * letter``
    and ``left[x]`` lists ``letter * x`` for each letter, restricted to the
    node set.  Every canonical word is a product of plain letters, so a
    breadth-first closure from the empty word visits all of them.
    """
    letters = [((b, False),) for b in bases]
    nodes = {EMPTY}
    right: dict = {}
    left: dict = {}
    queue = deque([EMPTY])
    while queue:
        x = queue.popleft()
        rs, ls = [], []
        for l in letters:
            y = compose_words(x, l, tau)
            z = compose_words(l, x, tau)
            if len(y) <= max_len:
                rs.append(y)
                if y not in nodes:
                    nodes.add(y)
                    queue.append(y)
            if len(z) <= max_len:
                ls.append(z)
                if z not in nodes:
                    nodes.add(z)
                    queue.append(z)
        right[x] = rs
        left[x] = ls
    return nodes, right, left


def _backward_closure(starts, edges) -> set:
    rev: dict = {}
    for x, ys in edges.items():
        for y in ys:
            rev.setdefault(y, []).append(x)
    out: set = set()
    stack = list(starts)
    while stack:
        x = stack.pop()
        if x in out:
            continue
        out.add(x)
        stack.extend(rev.get(x, ()))
    return out


@lru_cache(maxsize=1024)
def _lower_words(u: tuple, tau: str) -> frozenset:
    """Canonical words below ``u`` in the factor order."""
    bases = tuple(sorted(content(u)))
    nodes, right, left = _node_graph(bases, len(u), tau)
    # L: words that reach u by right-multiplication with letters
    reach_u = _backward_closure([u], right)
    # answer: words from which some element of L is left-reachable
    return frozenset(_backward_closure(reach_u, left))


def leq_tau(v: TauWord, u: TauWord) -> bool:
    """The factor order: whether ``u = p * v * s`` for some tau-words p, s."""
    if v.tau != u.tau:
        raise ValueError(f"mismatched congruences: {v.tau} vs {u.tau}")
    if len(v.word) > len(u.word) or not content(v.word) <= content(u.word):
        return False
    return v.word in _lower_words(u.word, u.tau)


def leq_tau_by_factor_search(v: TauWord, u: TauWord) -> bool:
    """Brute-force oracle: try every canonical pair (p, s) directly."""
    if v.tau != u.tau:
        raise ValueError("mismatched congruences")
    bases = tuple(sorted(content(u.word)))
    nodes, _, _ = _node_graph(bases, len(u.word), u.tau)
    for p in nodes:
        pv = compose_words(p, v.word, u.tau)
        if len(pv) > len(u.word):
            continue
        for s in nodes:
            pvs = compose_words(pv, s, u.tau)
            if pvs == u.word:
                return True
    return False


def lower_set(ws: TauWordSet) -> set:
    """The downward closure of a word set in the factor order.

    Contains the empty word whenever the set is nonempty.
    """
    out: set = set()
    for w in ws.words:
        out |= _lower_words(w, ws.tau)
    return {TauWord(w, ws.tau) for w in out}


def build_monoid(ws: TauWordSet) -> FiniteMonoid:
    """The Rees quotient monoid of a finite set of tau-words.

    Elements are the lower set plus a distinguished zero; the product of two
    elements is their composition when it stays inside the lower set and zero
    otherwise.  An empty word set yields the one-element monoid in which the
    identity and the zero coincide.
    """
    low = sorted((w.word for w in lower_set(ws)),
                 key=lambda w: (len(w), print_word(w)))
    if not low:
        table = ((0,),)
        return FiniteMonoid(table=table, labels=("0",), identity=0, zero=0)
    index = {w: i for i, w in enumerate(low)}
    zero = len(low)
    n = zero + 1
    members = set(index)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == zero or j == zero:
                row.append(zero)
            else:
                w = compose_words(low[i], low[j], ws.tau)
                row.append(index[w] if w in members else zero)
        rows.append(tuple(row))
    labels = tuple(print_word(w) for w in low) + ("0",)
    return FiniteMonoid(table=tuple(rows), labels=labels,
                        identity=index[EMPTY], zero=zero)


def mtau(tau: str, *words) -> FiniteMonoid:
    """Convenience constructor from parsed words or text."""
    from .words import parse_word
    parsed = [parse_word(w) if isinstance(w, str) else w for w in words]
    return build_monoid(TauWordSet(tau, parsed))
