"""Brute-force oracles for the rewriting, class, factor-order, identity,
associativity and derivation questions.

Each lists or searches what the library computes without listing: the
rewriting steps of a word one rule at a time, the members of a class, the
windows of those members, the factorizations ``u = p * v * s``, every
window of an identity's side, every substitution of an identity, every
triple of a table (for associativity and for the gap table), and every
binding of an axiom side to a block of a word.  They are slow and serve
only to cross-check ``rewrite``, ``construct``, ``freeobj``,
``identities``, ``monoid`` and ``derive`` on small inputs.  The
simple/multiple partition of a word and its projection onto some letters,
which only the tests read, are here too.
"""

from itertools import product

import numpy as np

from taumonoid.identities import Identity, SatisfactionResult
from taumonoid.monoid import FiniteMonoid
from taumonoid.rewrite import CONGRUENCES, TauWord, canonical
from taumonoid.words import EMPTY, Word, content, is_plain


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
