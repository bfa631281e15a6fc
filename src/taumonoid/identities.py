"""Formal identities and exhaustive satisfaction checking.

An identity is an ordered pair of plain words.  ``satisfies`` scans every
substitution of monoid elements for the letters, in lex order over the
sorted letter list, and reports the first violating substitution.  The scan
is vectorized: the substitution space is split into chunks and each
chunk is evaluated with batched table lookups, with early exit on the first
violating chunk.  ``naive_satisfies`` is the independent reference evaluator
(no vectorization, no early exit) used to cross-check the fast path.

Shared-block elimination: if ``u = u1 B u2`` and ``v = v1 B v2`` where B's
letters occur nowhere in u1, u2, v1, v2, then B's letters feed only B's
value, which ranges over its image Im(B) in M independently of the other
letters.  So ``u = v`` holds exactly when ``u1 z u2 = v1 z v2`` holds with a
fresh z ranging over Im(B) (variable elimination, as in Dechter's bucket
elimination).  On the 19-element K, Im(y1^2 ... y5^2) has 5 elements, so
past its first block the n=6 long identity needs 19^2 * 5 evaluations
instead of the rest of 19^7.  Im(B) itself is the set product of the
images of B's maximal consecutive parts that share no letters (``_image``):
for y1^2 ... y5^2, five scans of 19 values and four products of at most
19 by 19.

Direct products: a product evaluates coordinate by coordinate, so an
identity holds in A x B exactly when it holds in A and in B; this is the
fact behind Var(A x B) = Var A v Var B (Burris and Sankappanavar, "A Course
in Universal Algebra", ch. II).  A monoid built by
``monoid.direct_product`` records its factors, and ``satisfies`` decides
"holds" on them, recursively for nested products: on the 42-element
product of dualA1 and E1 a four-letter identity that holds costs
7^4 + 6^4 evaluations instead of 42^4.  A violated factor only says that
the product is violated somewhere; the lex-first witness is then found by
the ordinary scan of the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from math import prod

import numpy as np

from .monoid import FiniteMonoid
from .words import Word, content, is_plain, parse_word, print_word


class BudgetExceededError(RuntimeError):
    def __init__(self, needed: int, budget: int, what: str = "substitutions"):
        super().__init__(f"search needs {needed} {what}, budget is {budget}")
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True)
class Identity:
    lhs: Word
    rhs: Word

    def __post_init__(self):
        if not (is_plain(self.lhs) and is_plain(self.rhs)):
            raise ValueError("identity sides must be plain words")

    def letters(self) -> list:
        return sorted(content(self.lhs) | content(self.rhs))

    def __str__(self) -> str:
        return f"{print_word(self.lhs)}={print_word(self.rhs)}"


def parse_identity(text: str) -> Identity:
    parts = text.split("=")
    if len(parts) != 2:
        raise ValueError(f"an identity is two words joined by '=': {text!r}")
    return Identity(parse_word(parts[0]), parse_word(parts[1]))


def parse_identity_file(text: str) -> list:
    """One identity per line; '#' starts a comment."""
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(parse_identity(line))
    return out


def long_identity(n: int) -> Identity:
    """The identity family  x y1^2 ... yn^2 x  =  x y1^2 ... y(n-1)^2 yn x yn."""
    if n < 1:
        raise ValueError("n must be at least 1")
    x = ("x", False)
    ys = [(f"y{i}", False) for i in range(1, n + 1)]
    lhs = (x,) + tuple(y for y in ys for _ in (0, 1)) + (x,)
    rhs = (x,) + tuple(y for y in ys[:-1] for _ in (0, 1)) + (ys[-1], x, ys[-1])
    return Identity(lhs, rhs)


@dataclass(frozen=True)
class SatisfactionResult:
    identity: Identity
    holds: bool
    witness: dict | None = None       # base -> element index
    lhs_value: int | None = None
    rhs_value: int | None = None
    checked: int = 0

    def witness_labels(self, m: FiniteMonoid) -> dict | None:
        if self.witness is None:
            return None
        return {b: m.labels[e] for b, e in self.witness.items()}


def _word_letter_indices(word: Word, letters: list) -> list:
    pos = {b: i for i, b in enumerate(letters)}
    return [pos[b] for b, _ in word]


def _blocks(domains: list, chunk: int, start: int = 0, stop: int | None = None):
    """Blocks ``start`` to ``stop - 1`` of ``product(*domains)`` in lex order.

    The last letters, as many as fit in ``chunk`` (at least one), vary inside
    a block as value columns; each outer letter is one scalar per block.
    """
    inner = len(domains)
    while inner > 1 and prod(map(len, domains[-inner:])) > chunk:
        inner -= 1
    size = inside = prod(map(len, domains[-inner:]))
    cols = []
    for d in domains[-inner:]:
        inside //= len(d)
        cols.append(np.tile(np.repeat(d, inside), size // (len(d) * inside)))
    for values in islice(product(*domains[:-inner]), start, stop):
        yield list(values) + cols


def _eval_batch(table: np.ndarray, identity: int, word_idx: list,
                cols: list, m: int) -> np.ndarray:
    # cols entries are either scalar element indices (outer letters) or
    # full value columns (inner letters); numpy gathers handle both
    val = np.full(m, identity, dtype=np.int32)
    for li in word_idx:
        val = table[val, cols[li]]
    return val


def _first_violation(table, identity, lhs_idx, rhs_idx, blocks):
    """``((values, lhs value, rhs value) or None, substitutions checked)``."""
    checked = 0
    for cols in blocks:
        size = len(cols[-1])
        lv = _eval_batch(table, identity, lhs_idx, cols, size)
        rv = _eval_batch(table, identity, rhs_idx, cols, size)
        checked += size
        neq = lv != rv
        if neq.any():
            at = int(np.argmax(neq))
            values = [int(c[at]) if np.ndim(c) else int(c) for c in cols]
            return (values, int(lv[at]), int(rv[at])), checked
    return None, checked


def _private_factor(lhs: Word, rhs: Word):
    """``(i, j, p, letters)`` with ``B = lhs[i:j] = rhs[p:p+j-i]`` holding every
    occurrence of its letters in both sides; the B with most letters, or None.
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


def _image(table, identity, w: Word, chunk: int) -> np.ndarray:
    """Im(w): the sorted values of ``w`` over all substitutions.

    ``w`` is split at its first cut into parts that share no letters; their
    letters vary independently, so the images multiply as sets.
    """
    for cut in range(1, len(w)):
        if not content(w[:cut]) & content(w[cut:]):
            left = _image(table, identity, w[:cut], chunk)
            right = _image(table, identity, w[cut:], chunk)
            return np.unique(table[left[:, None], right[None, :]])
    bases = sorted(content(w))
    full = np.arange(len(table), dtype=np.int32)
    idx = _word_letter_indices(w, bases)
    seen = np.zeros(len(table), dtype=bool)
    for cols in _blocks([full] * len(bases), chunk):
        seen[_eval_batch(table, identity, idx, cols, len(cols[-1]))] = True
    return np.flatnonzero(seen).astype(np.int32)


def _reduced(table, identity, ident: Identity, letters: list, chunk: int):
    """Sides and blocks of ``u1 z u2 = v1 z v2`` with z last, over Im(B).

    None when no private factor B exists or Im(B) is the whole space of B.
    """
    found = _private_factor(ident.lhs, ident.rhs)
    if found is None:
        return None
    i, j, p, bases = found
    image = _image(table, identity, ident.lhs[i:j], chunk)
    if len(image) >= len(table) ** len(bases):
        return None
    rest = [b for b in letters if b not in bases]

    def collapse(w: Word, at: int) -> list:
        return (_word_letter_indices(w[:at], rest) + [len(rest)]
                + _word_letter_indices(w[at + j - i:], rest))

    full = np.arange(len(table), dtype=np.int32)
    return (collapse(ident.lhs, i), collapse(ident.rhs, p),
            _blocks([full] * len(rest) + [image], chunk))


def satisfies(m: FiniteMonoid, ident: Identity, budget: int | None = None,
              chunk: int = 1 << 18) -> SatisfactionResult:
    """Exhaustively check one identity against a monoid.

    Reports the lex-first violating substitution, evaluating at most
    ``chunk`` substitutions at a time.  A direct product is first checked
    factor by factor (module docstring); if a factor is violated, the
    product itself is scanned as below.  If the first block is clean and
    more remain, a shared private factor B (module docstring) is collapsed:
    when the reduced identity holds, so does this one; otherwise the
    ordinary scan resumes, so the witness stays the lex-first one.
    ``checked`` counts the substitutions evaluated on every identity and
    monoid scanned: the factors', then the reduced and the given identity
    on the monoid itself, but not those computing Im(B).  So when every
    factor holds, it is the sum of the factors' counts.  ``budget`` still
    refuses on |M|^k of the monoid given.
    """
    letters = ident.letters()
    k = len(letters)
    n = m.size
    total = n ** k
    if budget is not None and total > budget:
        raise BudgetExceededError(total, budget)
    if k == 0:
        return SatisfactionResult(ident, True, checked=1)

    parts = []
    for factor in m.factors:
        parts.append(satisfies(factor, ident, chunk=chunk))
        if not parts[-1].holds:
            break
    checked = sum(part.checked for part in parts)
    if parts and parts[-1].holds:
        return SatisfactionResult(ident, True, checked=checked)

    lhs_idx = _word_letter_indices(ident.lhs, letters)
    rhs_idx = _word_letter_indices(ident.rhs, letters)
    domains = [np.arange(n, dtype=np.int32)] * k
    found, first = _first_violation(m.table, m.identity, lhs_idx, rhs_idx,
                                    _blocks(domains, chunk, 0, 1))
    checked += first
    if found is None and first < total:
        reduced = _reduced(m.table, m.identity, ident, letters, chunk)
        if reduced is not None:
            r_found, r_checked = _first_violation(m.table, m.identity, *reduced)
            checked += r_checked
            if r_found is None:
                return SatisfactionResult(ident, True, checked=checked)
        found, rest = _first_violation(m.table, m.identity, lhs_idx, rhs_idx,
                                       _blocks(domains, chunk, 1))
        checked += rest
    if found is None:
        return SatisfactionResult(ident, True, checked=checked)
    values, lv, rv = found
    return SatisfactionResult(ident, False, dict(zip(letters, values)),
                              lv, rv, checked=checked)


def naive_satisfies(m: FiniteMonoid, ident: Identity) -> SatisfactionResult:
    """Reference evaluator: plain nested loops, no early exit.

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
