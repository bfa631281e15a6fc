"""Brute-force oracles for the rewriting, class, factor-order, lower-set,
table, presentation, isomorphism, tau-term, isoterm, identity,
associativity and derivation questions.

Each lists or searches what the library computes without listing: the
rewriting steps of a word one rule at a time, the members of a class, the
windows of those members, the factorizations ``u = p * v * s``, the words
that reach a word by letter products, every product of two elements of a
Rees quotient or a presentation's closure, every image of every element
under an isomorphism, every word up to a length and every evaluation
vector in full, every node of the tau-term search, every window of an
identity's side, every substitution of an identity, every triple of a
table (for associativity and for the gap table), and every binding of an
axiom side to a block of a word.  They are slow and serve only to
cross-check ``rewrite``, ``construct``, ``freeobj``, ``identities``,
``monoid`` and ``derive`` on small inputs.  The simple/multiple partition
of a word, its projection onto some letters, the right Cayley graph of a
lower set and the small monoids that several test modules share, which
only the tests read, are here too, so that no test module imports
another.
"""

from collections import deque
from functools import lru_cache
from itertools import product

import numpy as np

from taumonoid.catalog import mtau
from taumonoid.construct import (_Products, _lower_ids, _tracker_table,
                                 lower_set)
from taumonoid.freeobj import IsotermReport
from taumonoid.identities import Identity, SatisfactionResult
from taumonoid.monoid import (FiniteMonoid, Presentation, Semigroup,
                              _complete, _orient, _reduce)
from taumonoid.rewrite import CONGRUENCES, TauWord, TauWordSet, canonical
from taumonoid.words import EMPTY, Word, content, is_plain, print_word


# small monoids that several test modules draw from
Z2 = FiniteMonoid(table=((0, 1), (1, 0)), labels=("1", "g"), identity=0)
SEMILATTICE = FiniteMonoid(table=((0, 1), (1, 1)), labels=("1", "e"), identity=0)
SMALL_POOL = [
    Z2, SEMILATTICE,
    mtau("trivial", "x"), mtau("trivial", "xy"),
    mtau("tau1", "a+b+"), mtau("gamma", "a+t"),
]


# rule identifiers, in listing order
RULE_MARK = "mark"
RULE_PP = "plus-plus"
RULE_NP = "plain-plus"
RULE_PN = "plus-plain"


def capped_members(u: Word, tau: str) -> list:
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


def lower_words_by_members(u: Word, tau: str) -> frozenset:
    """The canonical forms of the windows of the capped members of ``u``:
    its lower set, by the run-capping argument of
    ``construct._tracker_table``, from all 2^p capped members."""
    windows = {m[i:j] for m in capped_members(u, tau)
               for i in range(len(m)) for j in range(i + 1, len(m) + 1)}
    return frozenset({EMPTY} | {canonical(w, tau) for w in windows})


def class_members(u: TauWord, max_len: int) -> set:
    """All plain words of length <= max_len whose canonical form is ``u``.

    Exhaustive enumeration over the content of ``u``; the congruence relates
    plain words only, so members are always plain.
    """
    bases = sorted(content(u.word))
    out = set()
    if u.tau == "trivial":
        if len(u.word) <= max_len:
            out.add(u.word)
        return out
    for n in range(max_len + 1):
        for combo in product(bases, repeat=n):
            w = tuple((b, False) for b in combo)
            if canonical(w, u.tau) == u.word:
                out.add(w)
    return out


def lower_graph(u: Word, tau: str) -> dict:
    """The right Cayley graph of the lower set of ``u``: ``graph[f][b]`` is
    the form of ``f`` times the letter ``b`` for every form ``f`` below
    ``u`` and every base ``b`` whose product with ``f`` stays below ``u``;
    the keys are the lower set (``construct._lower_ids``), read from the
    product memo of that one search."""
    memo = _Products(tau)
    low = _lower_ids(u, memo)
    form = memo.form
    return {form[f]: {b: form[g] for b, g in memo.next[f].items() if g in low}
            for f in low}


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
        grown = {canonical(x + l, u.tau) for x in frontier for l in letters}
        frontier = [y for y in grown if len(y) <= len(u.word) and y not in nodes]
        nodes.update(frontier)
    for p in nodes:
        pv = canonical(p + v.word, u.tau)
        if len(pv) > len(u.word):
            continue
        for s in nodes:
            if canonical(pv + s, u.tau) == u.word:
                return True
    return False


def tau_term_search_unpruned(m: FiniteMonoid, u: TauWord, letters):
    """The first member and the witness pair of ``freeobj._search`` as it
    stood before it pruned: one breadth-first search over every node
    (state, tracker), on an evaluation automaton that grows its rows in
    state order, a level at a time, as far as the level reads.

    The automaton is built here, over the same sparse vectors (the support
    and the values there) but without the budget; the tracker is
    ``construct._tracker_table``.
    """
    k, n = len(letters), m.size ** len(letters)
    zero = -1 if m.zero is None else m.zero
    gen = np.indices((m.size,) * k, dtype=np.int32).reshape(k, n)
    support = np.arange(n if m.identity != zero else 0, dtype=np.int32)
    states = [(support, np.full_like(support, m.identity))]
    index = {support.tobytes() + states[0][1].tobytes(): 0}
    rows: list = []
    flat = m.table.ravel()

    def grow(upto):
        while len(rows) < upto and len(rows) < len(states):
            support, values = states[len(rows)]
            row = []
            for g in gen:
                new = flat[values * m.size + g[support]]
                keep = new != zero
                key = support[keep].tobytes() + new[keep].tobytes()
                if key not in index:
                    index[key] = len(states)
                    states.append((support[keep], new[keep]))
                row.append(index[key])
            rows.append(row)

    table, target = _tracker_table(u, letters)
    parents = {(0, 0): None}
    member: dict = {}
    offender: dict = {}
    level = [(0, 0)]
    while level:
        nodes, level = level, []
        grow(max(nodes)[0] + 1)
        for node in nodes:
            state, t = node
            for i, nxt in enumerate(zip(rows[state], table[t])):
                if nxt not in parents:
                    parents[nxt] = (node, i)
                    level.append(nxt)
    for node in parents:
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


def naive_satisfies(m: FiniteMonoid, ident: Identity) -> SatisfactionResult:
    """Reference evaluator for ``identities.satisfies``: plain nested loops,
    no early exit.

    It shares nothing with the library's scan: no blocks, no batching, no
    pruning at the zero, no block elimination and no factor-by-factor
    check of products; every substitution is evaluated letter by letter, in
    lex order over the sorted letters, and the first violation is kept.
    Products are looked up in a local list-of-lists copy of the table,
    which Python indexes faster than the array.
    """
    letters = ident.letters()
    table = m.table.tolist()
    first = None
    checked = 0
    for values in product(range(m.size), repeat=len(letters)):
        assignment = dict(zip(letters, values))
        lv = rv = m.identity
        for b, _ in ident.lhs:
            lv = table[lv][assignment[b]]
        for b, _ in ident.rhs:
            rv = table[rv][assignment[b]]
        checked += 1
        if lv != rv and first is None:
            first = (assignment, lv, rv)
    if first is None:
        return SatisfactionResult(ident, True, checked=checked)
    assignment, lv, rv = first
    return SatisfactionResult(ident, False, assignment, lv, rv, checked=checked)


def satisfies_by_depth_first(m: FiniteMonoid, ident: Identity):
    """Reference for the zero pruning of ``identities.satisfies``: a
    violating substitution (base -> element index), or None if the
    identity holds.

    A recursive search assigns the letters in their order of first
    occurrence in ``lhs`` then ``rhs``, each to every element in turn.
    Each side carries the value of its longest assigned prefix, up to its
    first unassigned letter; a branch is cut when both of those values are
    the zero, found here by testing every element against its row and
    column.  The violation reported is the first in this search order,
    not necessarily the lex-first one.
    """
    table = m.table.tolist()
    size = len(table)
    zero = next((z for z in range(size) if all(
        table[z][x] == z == table[x][z] for x in range(size))), None)
    sides = [b for b, _ in ident.lhs], [b for b, _ in ident.rhs]
    order = list(dict.fromkeys(sides[0] + sides[1]))
    value: dict = {}

    def advance(side, at, acc):
        while at < len(side) and side[at] in value:
            acc = table[acc][value[side[at]]]
            at += 1
        return at, acc

    def search(i, left, right):
        if i == len(order):
            return None if left[1] == right[1] else dict(value)
        if left[1] == right[1] == zero:
            return None
        for x in range(size):
            value[order[i]] = x
            found = search(i + 1, advance(sides[0], *left),
                           advance(sides[1], *right))
            if found is not None:
                return found
        del value[order[i]]
        return None

    return search(0, (0, m.identity), (0, m.identity))


def associativity_by_cube(table) -> tuple | None:
    """Reference for ``monoid._check_associative``: (ab)c against a(bc)
    over the whole cube of triples; the lex-first failing ``(a, b, c)``,
    or None when the table is associative."""
    t = np.asarray(table)
    bad = np.argwhere(t[t] != t[:, t])
    return tuple(bad[0].tolist()) if len(bad) else None


def gap_by_triples(m: FiniteMonoid) -> np.ndarray:
    """Reference for ``FiniteMonoid.gap``: whether ``(a x) b`` is the zero
    for every x, one product at a time over every triple ``(a, x, b)``."""
    t = m.table.tolist()
    n = m.size
    gap = [[all(t[t[a][x]][b] == m.zero for x in range(n)) for b in range(n)]
           for a in range(n)]
    return np.array(gap, dtype=bool).reshape(n, n)


def private_factor_by_windows(lhs: Word, rhs: Word):
    """Reference for ``identities._private_factor``: every window of
    ``lhs`` with its content and letter counts recomputed from scratch.

    ``(i, j, p, letters)`` with ``B = lhs[i:j] = rhs[p:p+j-i]`` holding every
    occurrence of its letters in both sides; the first B with most letters,
    or None.
    """
    best = None
    for i in range(len(lhs)):
        for j in range(i + 1, len(lhs) + 1):
            bases = content(lhs[i:j])
            if best is not None and len(bases) <= len(best[3]):
                continue
            if sum(b in bases for b, _ in lhs) != j - i:
                continue
            at = [p for p, (b, _) in enumerate(rhs) if b in bases]
            if at and rhs[at[0]:at[-1] + 1] == lhs[i:j]:
                best = (i, j, at[0], bases)
    return best


def applicable_rules(w: Word, tau: str) -> list:
    """All ``(rule id, position)`` pairs applicable to ``w``.

    Positions are 0-based letter indices; for merge rules the position is the
    left letter of the pair.  Results come position-first, then in rule
    listing order, which is also the deterministic application order used by
    the step-by-step reducer.
    """
    if tau not in CONGRUENCES:
        raise ValueError(f"unknown congruence {tau!r}")
    if tau == "trivial":
        raise ValueError("the trivial congruence has no rewriting rules")
    if tau == "gamma":
        plain_counts: dict = {}
        plussed = set()
        for b, p in w:
            if p:
                plussed.add(b)
            else:
                plain_counts[b] = plain_counts.get(b, 0) + 1
        markable = plussed | {b for b, c in plain_counts.items() if c >= 2}
    elif tau == "rho":
        remaining: dict = {}
        for b, _ in w:
            remaining[b] = remaining.get(b, 0) + 1
    seen: set = set()
    res = []
    for i, (b, p) in enumerate(w):
        if tau == "rho":
            remaining[b] -= 1
        if not p:
            if tau == "tau1":
                ok = True
            elif tau == "gamma":
                ok = b in markable
            elif tau == "lambda":
                ok = b in seen
            else:  # rho
                ok = remaining[b] > 0
            if ok:
                res.append((RULE_MARK, i))
        seen.add(b)
        if i + 1 < len(w):
            b2, p2 = w[i + 1]
            if b == b2:
                if p and p2:
                    res.append((RULE_PP, i))
                elif not p and p2:
                    res.append((RULE_NP, i))
                elif p and not p2:
                    res.append((RULE_PN, i))
    return res


def apply_rule(w: Word, rule: tuple) -> Word:
    kind, i = rule
    if kind == RULE_MARK:
        return w[:i] + ((w[i][0], True),) + w[i + 1:]
    return w[:i] + ((w[i][0], True),) + w[i + 2:]


def canonical_stepwise(w: Word, tau: str) -> Word:
    """Reference reducer for ``rewrite.canonical``: repeatedly apply the
    first applicable rule.

    It shares nothing with the library's one left-to-right pass: each rule
    is read off the word as defined, ``rho`` has a rule of its own instead
    of being the mirror of ``lambda``, and the word is rewritten one step
    at a time.
    """
    while True:
        rules = applicable_rules(w, tau)
        if not rules:
            return w
        w = apply_rule(w, rules[0])


def normal_forms_all_orders(w: Word, tau: str, cap: int = 5000) -> frozenset:
    """Every normal form reachable by any application order (for testing).

    Explores the full rewriting graph under ``w``; raises if more than
    ``cap`` distinct words are encountered.
    """
    seen = {w}
    stack = [w]
    forms = set()
    while stack:
        x = stack.pop()
        rules = applicable_rules(x, tau)
        if not rules:
            forms.add(x)
            continue
        for r in rules:
            y = apply_rule(x, r)
            if y not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("rewriting graph exceeded exploration cap")
                seen.add(y)
                stack.append(y)
    return frozenset(forms)


def _match_all_bindings(pattern: Word, word: Word, start: int):
    """All substitutions mapping ``pattern`` onto a block of ``word`` at start.

    Yields ``(binding, end)`` pairs; letters may bind any plain word
    including the empty one.  Repeated letters must bind consistently.
    """
    n = len(word)

    def go(pi: int, wi: int, binding: dict):
        if pi == len(pattern):
            yield dict(binding), wi
            return
        base = pattern[pi][0]
        if base in binding:
            piece = binding[base]
            end = wi + len(piece)
            if end <= n and word[wi:end] == piece:
                yield from go(pi + 1, end, binding)
            return
        # no lower length bound: letters may bind the empty word
        for end in range(wi, n + 1):
            binding[base] = word[wi:end]
            yield from go(pi + 1, end, binding)
            del binding[base]

    yield from go(0, start, {})


def rewrites_by_all_bindings(word: Word, src: Word, dst: Word, max_len: int):
    """Reference for ``derive.rewrites``: every binding of ``src`` to a
    block of ``word`` is matched, the no-ops included, and each rewrite
    that is new, changes the word and fits ``max_len`` is yielded as
    ``(new, start, binding)``.  Letters occurring only in ``dst`` are bound
    to the empty word.
    """
    seen = set()
    dst_only = [b for b in {b for b, _ in dst} if b not in {b for b, _ in src}]
    for start in range(len(word) + 1):
        for binding, end in _match_all_bindings(src, word, start):
            for b in dst_only:
                binding[b] = ()
            replacement = tuple(x for b, _ in dst for x in binding[b])
            new = word[:start] + replacement + word[end:]
            if len(new) > max_len or new == word or new in seen:
                continue
            seen.add(new)
            yield new, start, binding


def simple_and_multiple(w: Word) -> tuple:
    """Partition the content of a plain word by occurrence count.

    Letters occurring exactly once are simple, letters occurring at least
    twice are multiple.  Rejects marked words: the notion only makes sense
    before any rewriting.
    """
    if not is_plain(w):
        raise ValueError("simple/multiple partition is defined on plain words only")
    counts: dict = {}
    for b, _ in w:
        counts[b] = counts.get(b, 0) + 1
    simple = frozenset(b for b, c in counts.items() if c == 1)
    multiple = frozenset(b for b, c in counts.items() if c >= 2)
    return simple, multiple


def projection(w: Word, keep) -> Word:
    """The word obtained by deleting every letter whose base is not in ``keep``."""
    keep = frozenset(keep)
    return tuple(l for l in w if l[0] in keep)


@lru_cache(maxsize=None)
def _reverse_graph(bases: tuple, max_len: int, tau: str):
    """All canonical words over ``bases`` of length <= max_len, as edges.

    Returns ``(into_right, into_left)``: ``into_right[y]`` lists the ``x``
    with ``x * letter == y`` and ``into_left[y]`` those with
    ``letter * x == y``, for words of length <= max_len.  Every canonical
    word is a product of plain letters, so a breadth-first closure from the
    empty word visits all of them.
    """
    letters = [((b, False),) for b in bases]
    nodes = {EMPTY}
    into_right: dict = {}
    into_left: dict = {}
    queue = deque([EMPTY])
    while queue:
        x = queue.popleft()
        for l in letters:
            for y, into in ((canonical(x + l, tau), into_right),
                            (canonical(l + x, tau), into_left)):
                if len(y) <= max_len:
                    into.setdefault(y, []).append(x)
                    if y not in nodes:
                        nodes.add(y)
                        queue.append(y)
    return into_right, into_left


def _backward_closure(starts, into: dict) -> set:
    out: set = set()
    stack = list(starts)
    while stack:
        x = stack.pop()
        if x not in out:
            out.add(x)
            stack.extend(into.get(x, ()))
    return out


def lower_set_by_reachability(u: TauWord) -> set:
    """Independent oracle: the lower set as two reachability questions.

    Multiplying a canonical word by a letter never shortens it, so the
    search for ``u = p * v * s`` stays among the canonical words over the
    content of ``u`` no longer than ``u``.  On that finite graph with its
    letter edges, the words that reach ``u`` by right multiplication are
    the ``v * s``; the words that reach one of those by left multiplication
    are the ``v``.
    """
    into_right, into_left = _reverse_graph(
        tuple(sorted(content(u.word))), len(u.word), u.tau)
    reach_u = _backward_closure([u.word], into_right)
    return {TauWord(w, u.tau) for w in _backward_closure(reach_u, into_left)}


def build_monoid_by_compose(ws: TauWordSet, low: set | None = None
                            ) -> FiniteMonoid:
    """Oracle: the Rees quotient with every one of the n^2 products composed.

    Same elements, label order, identity and zero as ``build_monoid``; each
    entry is the canonical product when it stays in the lower set, else zero.
    The lower set ``low`` (tau-words) defaults to ``lower_set(ws)``.
    """
    low = sorted((w.word for w in (lower_set(ws) if low is None else low)),
                 key=lambda w: (len(w), print_word(w)))
    if not low:
        return FiniteMonoid(table=((0,),), labels=("0",), identity=0)
    index = {w: i for i, w in enumerate(low)}
    zero = len(low)
    rows = [tuple(index.get(canonical(x + y, ws.tau), zero) for y in low)
            + (zero,) for x in low]
    rows.append((zero,) * (zero + 1))
    labels = tuple(print_word(w) for w in low) + ("0",)
    m = FiniteMonoid(table=tuple(rows), labels=labels, identity=index[EMPTY])
    assert m.zero == zero
    return m


def from_presentation_by_products(p: Presentation, cap: int = 4096) -> Semigroup:
    """Oracle: the closure with every one of the n^2 products reduced.

    Same completion, element order, labels and zero as ``from_presentation``;
    each entry is the normal form of the two elements' words concatenated.
    """
    order = {g: i for i, g in enumerate(p.generators)}
    rules = [r for r in (_orient(l, r, order) for l, r in p.relations) if r]
    rules = _complete(rules + [(z, None) for z in p.zero_words], order)
    words: list = []
    index: dict = {}
    queue: list = []
    collapsed = bool(p.zero_words)

    def visit(word):
        nonlocal collapsed
        nf = _reduce(word, rules)
        if nf is None:
            collapsed = True
        elif nf not in index:
            assert len(words) < cap
            index[nf] = len(words)
            words.append(nf)
            queue.append(nf)

    for g in p.generators:
        visit(g)
    while queue:
        w = queue.pop()
        for g in p.generators:
            visit(w + g)
    zero = len(words) if collapsed else None

    def val(word):
        nf = _reduce(word, rules)
        return zero if nf is None else index[nf]

    tail = (zero,) if collapsed else ()
    rows = [tuple(val(x + y) for y in words) + tail for x in words]
    if collapsed:
        rows.append((zero,) * (len(words) + 1))
    labels = tuple(words) + (("0",) if collapsed else ())
    s = Semigroup(table=tuple(rows), labels=labels)
    assert s.zero == zero
    return s


def refined_colors(table: list, extra: list) -> list:
    n = len(table)
    colors = []
    for x in range(n):
        acc, seen = x, {x: 0}
        k = 0
        while True:
            acc = table[acc][x]
            k += 1
            if acc in seen:
                idx, period = seen[acc], k - seen[acc]
                break
            seen[acc] = k
        colors.append((table[x][x] == x, idx, period, extra[x]))
    # iterative refinement by multiplication behaviour against color classes;
    # each round that does not stop splits a class, so at most n rounds run
    while True:
        palette = sorted(set(colors))
        rank = {c: i for i, c in enumerate(palette)}
        cur = [rank[c] for c in colors]
        nxt = []
        for x in range(n):
            row = sorted((cur[y], cur[table[x][y]], cur[table[y][x]])
                         for y in range(n))
            nxt.append((cur[x], tuple(row)))
        if len(set(nxt)) == len(set(cur)):
            return cur
        colors = nxt


def absorbing_element(table: list):
    n = len(table)
    return next((z for z in range(n)
                 if all(table[z][x] == z == table[x][z] for x in range(n))), None)


def find_isomorphism_by_refinement(m: FiniteMonoid, n: FiniteMonoid):
    """Oracle: a multiplication-preserving bijection m -> n, or None.

    The identity maps to the identity and the absorbing element (derived
    here from the table) to the absorbing element.
    Each table is coloured on its own, in pure Python, and the search
    backtracks over the image of every element in turn, smallest colour
    class first, forcing the image of every product of mapped elements.
    """
    if m.size != n.size:
        return None
    mt, nt = m.table.tolist(), n.table.tolist()
    mz, nz = absorbing_element(mt), absorbing_element(nt)
    if (mz is None) != (nz is None):
        return None
    extra_m = [0] * m.size
    extra_n = [0] * n.size
    extra_m[m.identity] = 1
    extra_n[n.identity] = 1
    if mz is not None:
        extra_m[mz] = 2
        extra_n[nz] = 2
    cm = refined_colors(mt, extra_m)
    cn = refined_colors(nt, extra_n)
    if sorted(cm) != sorted(cn):
        return None
    size = m.size
    candidates = [[y for y in range(size) if cn[y] == cm[x]] for x in range(size)]
    order = sorted(range(size), key=lambda x: len(candidates[x]))
    mapping = [-1] * size
    used = [False] * size

    def assign(x, y, trail):
        """Map x to y and force every product image this determines.

        Keeps the invariant that for mapped a, z the product a*z is mapped
        compatibly, so a completed assignment is a homomorphism by
        construction.  Appends everything it sets to ``trail`` so the caller
        can undo on failure.
        """
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            if mapping[a] >= 0:
                if mapping[a] != b:
                    return False
                continue
            if used[b] or cm[a] != cn[b]:
                return False
            mapping[a] = b
            used[b] = True
            trail.append((a, b))
            for z in range(size):
                w = mapping[z]
                if w < 0:
                    continue
                stack.append((mt[a][z], nt[b][w]))
                stack.append((mt[z][a], nt[w][b]))
        return True

    def undo(trail):
        for a, b in trail:
            mapping[a] = -1
            used[b] = False

    def backtrack(i):
        if i == size:
            return True
        x = order[i]
        if mapping[x] >= 0:
            return backtrack(i + 1)
        for y in candidates[x]:
            if used[y]:
                continue
            trail: list = []
            if assign(x, y, trail) and backtrack(i + 1):
                return True
            undo(trail)
        return False

    seed: list = []
    if not assign(m.identity, n.identity, seed):
        return None
    if mz is not None and mapping[mz] < 0:
        if not assign(mz, nz, seed):
            return None
    if not backtrack(0):
        return None
    # soundness check against both tables
    f = np.array(mapping)
    if not np.array_equal(f[m.table], n.table[np.ix_(f, f)]):
        return None
    return mapping


@lru_cache(maxsize=None)
def _canonical(word, tau):
    return canonical(word, tau)


def search_letters(m, u):
    """The letters ``is_tau_term`` searches over: the content of ``u``, plus
    a fresh letter when ``m`` has no zero."""
    bases = sorted({b for b, _ in u.word})
    if m.zero is not None:
        return tuple(bases)
    return tuple(bases) + (next(c for c in "zwvuq" if c not in bases),)


def dense_automaton(m, k):
    """The evaluation automaton over ``k`` letters with every vector stored
    in full, |M|^k cells each: the oracle for ``rel_free_automaton``.

    Substitutions are numbered in lex order, the last letter fastest, and
    states in breadth-first order; each vector is a view of its index key.
    Returns the vectors and the transitions.
    """
    n = m.size ** k
    gen = np.array(list(product(range(m.size), repeat=k)), dtype=np.int32).T
    init = np.full(n, m.identity, dtype=np.int32).tobytes()
    index = {init: 0}
    vectors = [np.frombuffer(init, dtype=np.int32)]
    transitions = []
    for v in vectors:    # grows while it is read: a breadth-first queue
        row = []
        for g in gen:
            key = m.table[v, g].tobytes()
            if key not in index:
                index[key] = len(vectors)
                vectors.append(np.frombuffer(key, dtype=np.int32))
            row.append(index[key])
        transitions.append(row)
    return vectors, transitions


_DENSE = {}


def dense(m, k):
    """``dense_automaton``, built once per table, identity and ``k``."""
    key = (m.table.tobytes(), m.identity, k)
    if key not in _DENSE:
        _DENSE[key] = dense_automaton(m, k)
    return _DENSE[key]


def run(transitions, combo):
    """The state reached from 0 by the letter indices ``combo``."""
    s = 0
    for i in combo:
        s = transitions[s][i]
    return s


def tau_term_by_enumeration(m, u, bound):
    """The witness pair that enumerating every word of at most ``bound``
    letters finds against ``u`` being a tau-term, or None when none does.

    The oracle for ``is_tau_term``: words over ``search_letters`` are
    listed in shortlex order and keyed by their state in
    ``dense_automaton``.  The first member of each key is kept; the witness
    is the first word outside the class whose key has a member, and a
    member keyed like the everywhere-zero vector is reported first.
    """
    letters = search_letters(m, u)
    vectors, transitions = dense(m, len(letters))
    zero_key = next((s for s, v in enumerate(vectors)
                     if m.zero is not None and (v == m.zero).all()), None)

    words = [(combo, tuple((letters[i], False) for i in combo))
             for n in range(bound + 1)
             for combo in product(range(len(letters)), repeat=n)]

    def member(word):
        # a word with the fresh letter keeps it in its canonical form
        return _canonical(word, u.tau) == u.word

    member_word: dict = {}
    for combo, word in words:
        if member(word):
            member_word.setdefault(run(transitions, combo), word)
    if zero_key is not None and zero_key in member_word:
        first = member_word[zero_key]
        z = next(c for c in "zwvuq" if c not in {b for b, _ in first})
        return first, ((z, False),) + first
    for combo, word in words:
        k = run(transitions, combo)
        if k in member_word and not member(word):
            return member_word[k], word
    return None


def isoterm_by_accepted_words(m, word):
    """Isoterm report from the two shortlex-first words reaching the state
    of ``word``: the oracle for ``is_isoterm``.

    ``dense_automaton`` is built over the content of ``word``, or over
    ``z`` for the empty word, as ``is_isoterm`` builds its automaton.  A
    breadth-first search keeps the two shortlex-first words at each state,
    and that loses none at the state of ``word``: if a word were not among
    the first two at a state it passes through, the two earlier words
    there, each extended the same way, would come before it.  ``word`` is
    an isoterm exactly when neither differs from it, and the first that
    does is the counterexample.
    """
    letters = tuple(sorted(content(word))) or ("z",)
    _, transitions = dense(m, len(letters))
    stored = {0: [()]}
    queue = deque([(0, ())])
    while queue:
        s, path = queue.popleft()
        for i, t in enumerate(transitions[s]):
            lst = stored.setdefault(t, [])
            if len(lst) < 2:
                lst.append(path + (i,))
                queue.append((t, path + (i,)))
    end = run(transitions, [letters.index(b) for b, _ in word])
    accepted = [tuple((letters[i], False) for i in p) for p in stored.get(end, [])]
    counter = next((v for v in accepted if v != word), None)
    return IsotermReport(word, counter is None, counter)
