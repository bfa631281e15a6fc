"""Formal identities and exhaustive satisfaction checking.

An identity is an ordered pair of plain words.  ``satisfies`` scans the
substitutions of monoid elements for the letters, in lex order over the
sorted letter list, and reports the first violating substitution.  Every
space takes the same scan, level by level as below.  It is vectorized:
substitutions are evaluated in batches of at most ``CHUNK`` rows, a word
by one ``take`` per letter on the flattened table (``_fold``), with early
exit on the first violating batch.  The independent reference evaluator
that cross-checks it lives with the tests (``naive_satisfies`` in
``tests/oracles.py``).

Zero pruning: the scan assigns the letters in its own order, one level at a
time, keeps the live prefixes of each level as numpy rows in lex order, and
drops a row once both sides are the zero under every extension of it.  Let a
and b be the values of two neighbouring maximal runs of assigned positions
of a side, so that it reads ``p a u b q`` with u a nonempty word of
unassigned letters.  Whatever the extension, u takes some value x in M, so
if ``a x b`` is the zero for every x (``m.gap[a, b]``), so is the side.  A
lone run a is paired with b = 1: as x = 1 is one of the middles,
``gap[a, 1]`` holds exactly when a is the zero.  A run that is the zero
makes every pair it is in a gap, so on a side of two or more runs the pairs
of neighbours already catch it, and this one pair test needs no test of
single runs.  The pairs are read from one zero table, refined as the scan
pays for it: none for the first ``_FIRST_ROWS`` rows a scan expands, so a
scan that stops that soon pays nothing; then ``a == 0 or b == 0``, n^2
cells built per scan; and once the scan has expanded n^3 /
``_GAP_CELLS_PER_ROW`` rows, ``m.gap`` itself, n^3 cell reads built once
per monoid on first need, which never cost more than the scan has
spent.  Every table marks only pairs that are gaps, so a row is dropped only
when both sides are the zero under every extension, whichever table flagged
it, and nothing is carried from level to level: a row that survives is
tested from scratch at the next.  A flag can then be lost when a new letter
splits a gap (in ``a u b`` with ``gap[a, b]``, the two pairs left once a
letter of u is assigned need not be gaps), which costs rows but never
soundness.  The zero is ``m.zero``, found from the table at construction (a
declared zero is only checked there), so pruning does not depend on how the
monoid was built.  A monoid with no zero takes the same scan with nothing
dropped.

At the last level the first row whose sides differ is the lex-first
violation, since the dropped subtrees hold none.  On the 12-element S1, a
six-letter instance of ``xyxy=yxyx`` that holds (x = exr, y = fly)
evaluates 11,508 rows of its 12^6 = 2,985,984 substitutions (63,168 with
the table ``a == 0 or b == 0`` throughout).  Each level's prefixes are
expanded in slices that start small and double, so a violation near the
start of the space is found after a few small batches.

Shared-block elimination: if ``u = u1 B u2`` and ``v = v1 B v2`` where B's
letters occur nowhere in u1, u2, v1, v2, then B's letters feed only B's
value, which ranges over its image Im(B) in M independently of the other
letters.  So ``u = v`` holds exactly when ``u1 z u2 = v1 z v2`` holds with a
fresh z ranging over Im(B) (variable elimination, as in Dechter's bucket
elimination).  On the 19-element K, Im(y1^2 ... y5^2) has 5 elements, so
once the first ``_ELIMINATE_AFTER`` rows of its scan are clean the n=6 long
identity needs 19^2 * 5 more evaluations, where the pruned scan of all
19^7 substitutions would evaluate 55,651 rows.  Im(B) itself is the
set product of the images of B's maximal consecutive parts that share no
letters (``_image``): for y1^2 ... y5^2, five scans of 19 values and four
products of at most 19 by 19.

Direct products: a product evaluates coordinate by coordinate, so an
identity holds in A x B exactly when it holds in A and in B; this is the
fact behind Var(A x B) = Var A v Var B (Burris and Sankappanavar, "A Course
in Universal Algebra", ch. II).  A monoid built by
``monoid.direct_product`` records its factors, and ``satisfies`` decides
"holds" on them, recursively for nested products: on the 42-element
product of dualA1 and E1 a four-letter identity that holds costs 1,583
rows on the two factors instead of 1,467,648 of the 42^4 substitutions
on the product.  A violated factor only says that the product is violated
somewhere; the lex-first witness is then found by the ordinary scan of the
product.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import inf

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
    """A verdict, with the lex-first violating substitution if any.

    ``checked`` is the number of rows the scan evaluated (``satisfies``),
    the prefixes of every level included, so a scan that prunes nothing
    counts |M| + |M|^2 + ... + |M|^k; zero pruning and block elimination
    can keep it far below |M|^k.
    """
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


def _runs(word_idx: list, level: int) -> list:
    """The maximal runs of positions of a side whose letters are all among
    the first ``level + 1``, as lists of letter indices."""
    runs, run = [], []
    for li in word_idx + [level + 1]:
        if li <= level:
            run.append(li)
        elif run:
            runs.append(run)
            run = []
    return runs


def _fold(offsets: np.ndarray, n: int, word_idx: list,
          rows: np.ndarray) -> np.ndarray:
    """``n`` times the value of a nonempty word on each column of ``rows``.

    ``offsets`` is the table times ``n``, flattened: the product of ``a``
    and ``b`` is then one ``take`` at ``n * a + b``.
    """
    val = rows[word_idx[0]] * n
    for li in word_idx[1:]:
        val = offsets.take(val + rows[li])
    return val


# a scan evaluates at most this many rows at a time
CHUNK = 1 << 18
# once a scan has expanded this many rows, block elimination is tried if
# they are clean (``satisfies``); a scan that stops sooner never pays for it
_ELIMINATE_AFTER = 1 << 12
# the first slice of a level expands to about this many rows, and a scan
# prunes nothing until it has expanded this many (``_levels``)
_FIRST_ROWS = 256
# an expanded row costs more than this many of the n^3 cell reads that
# build the gap table (13-30 ns against 0.2-1 ns for n = 50-400 on a
# 2-CPU x86-64 machine), so a scan that reads ``m.gap`` only after n^3 /
# this many rows has spent at least as much already
_GAP_CELLS_PER_ROW = 32


def _levels(offsets, n, domains, m=None, lhs_idx=None, rhs_idx=None):
    """The substitutions of ``product(*domains)`` in lex order, depth first,
    less the prefixes that send both sides to the zero of ``m``.

    Level ``i`` holds the live prefixes of the first ``i`` letters as the
    columns of an ``(i, rows)`` array, in lex order.  A slice of them is
    expanded by the values of the next letter, and each slice yields
    ``(rows expanded, substitutions)``: the ``(k, rows)`` array at the last
    level, None below it.  Below the last level, a side (a word as letter
    indices) is flagged on a row when two neighbouring maximal runs a, b of
    its assigned positions, or its lone run a and b = 1, have ``a x b`` the
    zero for every x by the zero table, and a row is dropped when both
    sides are flagged.  Nothing is carried from level to level: a row that
    survives is tested again at the next.  The zero table is none for the
    first ``_FIRST_ROWS`` rows expanded, then ``a == 0 or b == 0``, then,
    from ``n^3 / _GAP_CELLS_PER_ROW`` rows, ``m.gap`` (module docstring).
    With no ``m`` or no zero nothing is dropped.  The slices of a level
    start at ``_FIRST_ROWS`` rows of expansion and double, up to ``CHUNK``
    rows, so a scan that stops at its first violation does so after a few
    small batches.
    """
    k = len(domains)
    zero = None if m is None else m.zero
    sides = [[_runs(w, i) for w in (lhs_idx, rhs_idx)]
             for i in range(k - 1)] if zero is not None else []
    table, exact, done = None, False, 0
    # each level: [prefix columns, cursor]
    stack = [[np.zeros((0, 1), dtype=np.int32), 0]]
    size = [max(1, _FIRST_ROWS // len(d)) for d in domains]
    while stack:
        level = len(stack) - 1
        top = stack[-1]
        prefixes, at = top
        if at == prefixes.shape[1]:
            stack.pop()
            continue
        d = domains[level]
        step = max(1, CHUNK // len(d))
        q = min(size[level], step, prefixes.shape[1] - at)
        size[level] = min(2 * size[level], step)
        top[1] = at + q
        rows = np.empty((level + 1, q, len(d)), dtype=np.int32)
        rows[:level] = prefixes[:, at:at + q, None]
        rows[level] = d
        rows = rows.reshape(level + 1, -1)
        expanded = rows.shape[1]
        done += expanded
        if level == k - 1:
            yield expanded, rows
            continue
        if zero is not None and not exact and done >= _FIRST_ROWS:
            if done >= n ** 3 // _GAP_CELLS_PER_ROW:
                table, exact = m.gap.ravel(), True
            elif table is None:
                is_zero = np.arange(n) == zero
                table = (is_zero[:, None] | is_zero).ravel()
        if table is not None and all(sides[level]):
            drop = True
            for runs in sides[level]:
                values = [_fold(offsets, n, run, rows) for run in runs]
                ends = [v // n for v in values[1:]] or [m.identity]
                flag = table.take(values[0] + ends[0])
                for a, b in zip(values[1:], ends[1:]):
                    flag |= table.take(a + b)
                drop = drop & flag
            rows = rows[:, ~drop]
        stack.append([rows, 0])
        yield expanded, None


def _scan(m, lhs_idx, rhs_idx, domains):
    """``(rows expanded, violation or None)`` for each slice of ``_levels``,
    pruned at the zero of ``m``.

    At the last level both sides are evaluated whole.  Its rows are the
    substitutions in lex order less the pruned ones, which hold no
    violation, so the first row whose sides differ is the lex-first one.
    """
    n = m.size
    offsets = (m.table * n).ravel()
    for expanded, rows in _levels(offsets, n, domains, m, lhs_idx, rhs_idx):
        if rows is None:
            yield expanded, None
            continue
        lv, rv = (_fold(offsets, n, w, rows) if w
                  else np.full(expanded, m.identity * n)
                  for w in (lhs_idx, rhs_idx))
        neq = lv != rv
        if neq.any():
            i = int(np.argmax(neq))
            yield expanded, (rows[:, i].tolist(),
                             int(lv[i]) // n, int(rv[i]) // n)
            return
        yield expanded, None


def _first_violation(batches, limit: float = inf):
    """``(violation or None, rows evaluated, whether the batches ran out)``,
    taking batches until a violation, the end, or ``limit`` rows."""
    checked = 0
    for rows, found in batches:
        checked += rows
        if found is not None:
            return found, checked, True
        if checked >= limit:
            return None, checked, False
    return None, checked, True


def _private_factor(lhs: Word, rhs: Word):
    """``(i, j, p, letters)`` with ``B = lhs[i:j] = rhs[p:p+j-i]`` holding every
    occurrence of its letters in both sides; the B with most letters, or None.

    Each window ``lhs[i:j]`` grows one letter at a time, with its letter set
    and the number of their occurrences in ``lhs``: it holds all of them
    exactly when that number is its length.
    """
    count = Counter(b for b, _ in lhs)
    best = None
    for i in range(len(lhs)):
        bases, total = set(), 0
        for j in range(i + 1, len(lhs) + 1):
            b = lhs[j - 1][0]
            if b not in bases:
                bases.add(b)
                total += count[b]
            if total != j - i or (best is not None
                                  and len(bases) <= len(best[3])):
                continue
            at = [p for p, (c, _) in enumerate(rhs) if c in bases]
            if at and rhs[at[0]:at[-1] + 1] == lhs[i:j]:
                best = (i, j, at[0], frozenset(bases))
    return best


def _image(table, w: Word) -> np.ndarray:
    """Im(w): the sorted values of a nonempty ``w`` over all substitutions.

    ``w`` is split at its first cut into parts that share no letters; their
    letters vary independently, so the images multiply as sets.  A part is
    evaluated on every substitution of its letters, from ``_levels`` with
    no zero.
    """
    n = len(table)
    seen = np.zeros(n, dtype=bool)
    for cut in range(1, len(w)):
        if not content(w[:cut]) & content(w[cut:]):
            seen[table[np.ix_(_image(table, w[:cut]),
                              _image(table, w[cut:]))]] = True
            break
    else:
        bases = sorted(content(w))
        offsets = (table * n).ravel()
        idx = _word_letter_indices(w, bases)
        domains = [np.arange(n, dtype=np.int32)] * len(bases)
        for _, rows in _levels(offsets, n, domains):
            if rows is not None:
                seen[_fold(offsets, n, idx, rows) // n] = True
    return np.flatnonzero(seen).astype(np.int32)


def _reduced(table, ident: Identity, letters: list):
    """Sides and domains of ``u1 z u2 = v1 z v2`` with z last, over Im(B).

    None when no private factor B exists or Im(B) is the whole space of B.
    """
    found = _private_factor(ident.lhs, ident.rhs)
    if found is None:
        return None
    i, j, p, bases = found
    image = _image(table, ident.lhs[i:j])
    if len(image) >= len(table) ** len(bases):
        return None
    rest = [b for b in letters if b not in bases]

    def collapse(w: Word, at: int) -> list:
        return (_word_letter_indices(w[:at], rest) + [len(rest)]
                + _word_letter_indices(w[at + j - i:], rest))

    full = np.arange(len(table), dtype=np.int32)
    return (collapse(ident.lhs, i), collapse(ident.rhs, p),
            [full] * len(rest) + [image])


def satisfies(m: FiniteMonoid, ident: Identity,
              budget: int | None = None) -> SatisfactionResult:
    """Exhaustively check one identity against a monoid.

    Reports the lex-first violating substitution, evaluating at most
    ``CHUNK`` rows at a time.  A direct product is first checked factor by
    factor (module docstring); if a factor is violated, the product itself
    is scanned as below.  The scan prunes the prefixes that send both sides
    to the zero, by the pair test over the zero table of ``_levels``
    (module docstring).  If its first ``min(CHUNK, _ELIMINATE_AFTER)`` rows
    are clean and more remain, a shared private factor B (module
    docstring) is collapsed: when the reduced identity holds, so does this
    one; otherwise the scan resumes where it stopped, so the witness stays
    the lex-first one.  ``checked``
    counts the rows evaluated, not the space: the expanded prefixes of
    every level, whatever the size of the space, on every identity and
    monoid scanned (the factors', then the given and the reduced identity
    on the monoid itself), but not those computing Im(B).  So when every
    factor holds, it is the sum of the factors' counts.  ``budget`` still
    refuses on |M|^k of the monoid given, however few rows the scan would
    evaluate.
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
        parts.append(satisfies(factor, ident))
        if not parts[-1].holds:
            break
    checked = sum(part.checked for part in parts)
    if parts and parts[-1].holds:
        return SatisfactionResult(ident, True, checked=checked)

    lhs_idx = _word_letter_indices(ident.lhs, letters)
    rhs_idx = _word_letter_indices(ident.rhs, letters)
    domains = [np.arange(n, dtype=np.int32)] * k
    batches = _scan(m, lhs_idx, rhs_idx, domains)
    found, first, done = _first_violation(batches,
                                          min(CHUNK, _ELIMINATE_AFTER))
    checked += first
    if not done:
        reduced = _reduced(m.table, ident, letters)
        if reduced is not None:
            r_found, r_checked, _ = _first_violation(_scan(m, *reduced))
            checked += r_checked
            if r_found is None:
                return SatisfactionResult(ident, True, checked=checked)
        found, rest, _ = _first_violation(batches)
        checked += rest
    if found is None:
        return SatisfactionResult(ident, True, checked=checked)
    values, lv, rv = found
    return SatisfactionResult(ident, False, dict(zip(letters, values)),
                              lv, rv, checked=checked)
