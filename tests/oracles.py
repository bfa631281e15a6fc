"""Brute-force oracles for the class, factor-order and identity questions.

Each lists or searches what the library computes without listing: the
members of a class, the windows of those members, the factorizations
``u = p * v * s``, and every substitution of an identity.  They are
exponential and serve only to cross-check ``construct``, ``freeobj`` and
``identities`` on small inputs.
"""

from itertools import product

from taumonoid.identities import Identity, SatisfactionResult
from taumonoid.monoid import FiniteMonoid
from taumonoid.rewrite import TauWord, canonical, compose_words
from taumonoid.words import EMPTY, Word, content


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
