"""Finite monoids as multiplication tables.

Tables are tuples of tuples of element indices (row = left factor).  The
``FiniteMonoid`` wrapper carries the identity index, an optional two-sided
zero, and printable labels; construction verifies the identity and zero laws
and associativity (exhaustively up to 64 elements, sampled above).

Presentations are closed by shortlex rewriting.  The given relations are
oriented longer-to-shorter and completed by resolving critical pairs, so a
relation like ``ca = c`` together with the zero word ``ac`` correctly forces
``cc = 0`` even though no given rule touches ``cc``.  If completion or the
element enumeration does not settle within its cap the construction fails
loudly; a finished table is verified against every input relation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "FiniteMonoid", "Semigroup", "Presentation", "PresentationError",
    "from_presentation", "adjoin_identity", "is_j_trivial", "is_aperiodic",
    "idempotents", "idempotents_commute", "submonoid", "dual",
    "direct_product", "find_isomorphism", "save_monoid", "load_monoid",
    "format_monoid", "parse_monoid",
]


class PresentationError(ValueError):
    pass


def _check_associative(table, sample_above: int = 64, samples: int = 20000):
    n = len(table)
    if n <= sample_above:
        for a in range(n):
            ta = table[a]
            for b in range(n):
                tab = ta[b]
                tb = table[b]
                for c in range(n):
                    if table[tab][c] != ta[tb[c]]:
                        raise ValueError(f"table not associative at ({a},{b},{c})")
    else:
        rng = random.Random(0xA55)
        for _ in range(samples):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if table[table[a][b]][c] != table[a][table[b][c]]:
                raise ValueError(f"table not associative at ({a},{b},{c})")


@dataclass(frozen=True)
class Semigroup:
    """A bare multiplication table with labels (no identity required)."""

    table: tuple
    labels: tuple
    zero: int | None = None

    def __post_init__(self):
        n = len(self.table)
        if len(self.labels) != n or any(len(r) != n for r in self.table):
            raise ValueError("malformed table")
        _check_associative(self.table)
        if self.zero is not None:
            z = self.zero
            if any(self.table[z][x] != z or self.table[x][z] != z for x in range(n)):
                raise ValueError("declared zero is not absorbing")

    @property
    def size(self) -> int:
        return len(self.table)

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]


@dataclass(frozen=True)
class FiniteMonoid(Semigroup):
    identity: int = 0

    def __post_init__(self):
        super().__post_init__()
        e = self.identity
        n = self.size
        if any(self.table[e][x] != x or self.table[x][e] != x for x in range(n)):
            raise ValueError("identity law fails at declared identity")

    def power(self, x: int, k: int) -> int:
        acc = self.identity
        for _ in range(k):
            acc = self.table[acc][x]
        return acc

    def evaluate(self, word, assignment: dict) -> int:
        """Value of a plain word under a base -> element-index assignment."""
        acc = self.identity
        for b, p in word:
            if p:
                raise ValueError("evaluation is defined on plain words")
            acc = self.table[acc][assignment[b]]
        return acc


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    relations: tuple        # pairs of generator words (strings)
    zero_words: tuple = ()  # generator words declared equal to zero

    def __post_init__(self):
        for l, r in self.relations:
            if not l or not r:
                raise ValueError("relation sides must be nonempty")
        for z in self.zero_words:
            if not z:
                raise ValueError("zero words must be nonempty")
        alpha = set(self.generators)
        if len(alpha) != len(self.generators):
            raise ValueError("duplicate generators")
        for w in [s for rel in self.relations for s in rel] + list(self.zero_words):
            if not set(w) <= alpha:
                raise ValueError(f"word {w!r} uses symbols outside the generators")


# -- shortlex completion ---------------------------------------------------
#
# Rules are pairs (lhs, rhs) with rhs a word or None (None = zero).  Any word
# containing the lhs of a zero rule collapses to zero.

def _shortlex_key(word: str, order: dict):
    return (len(word), tuple(order[c] for c in word))


def _reduce(word, rules):
    if word is None:
        return None
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            i = word.find(lhs)
            if i < 0:
                continue
            if rhs is None:
                return None
            word = word[:i] + rhs + word[i + len(lhs):]
            changed = True
    return word


def _orient(a, b, order):
    # None (zero) is strictly below every word
    if a == b:
        return None
    if a is None:
        return (b, None)
    if b is None:
        return (a, None)
    ka, kb = _shortlex_key(a, order), _shortlex_key(b, order)
    return (a, b) if ka > kb else (b, a)


def _complete(rules, order, max_rules=400, max_passes=60):
    rules = list(dict.fromkeys(rules))
    for _ in range(max_passes):
        # keep every side reduced with respect to the other rules; a rhs is
        # always shortlex-below its lhs, so reducing it by the full set is safe
        normalized = []
        for lhs, rhs in rules:
            others = [r for r in rules if r != (lhs, rhs)]
            pair = _orient(_reduce(lhs, others), _reduce(rhs, rules), order)
            if pair is not None:
                normalized.append(pair)
        rules = list(dict.fromkeys(normalized))

        new = []
        for l1, r1 in rules:
            for l2, r2 in rules:
                overlaps = []
                # suffix of l1 = prefix of l2
                for k in range(1, min(len(l1), len(l2))):
                    if l1[-k:] == l2[:k]:
                        overlaps.append(l1 + l2[k:])
                # l2 inside l1
                if l2 in l1 and (l1, r1) != (l2, r2):
                    overlaps.append(l1)
                for s in overlaps:
                    i = s.find(l1)
                    a = None if r1 is None else s[:i] + r1 + s[i + len(l1):]
                    j = s.rfind(l2)
                    b = None if r2 is None else s[:j] + r2 + s[j + len(l2):]
                    na, nb = _reduce(a, rules), _reduce(b, rules)
                    if na != nb:
                        pair = _orient(na, nb, order)
                        if pair is not None and pair not in rules and pair not in new:
                            new.append(pair)
        if not new:
            return rules
        rules.extend(new)
        if len(rules) > max_rules:
            break
    raise PresentationError("completion did not converge (rule cap exceeded)")


def from_presentation(p: Presentation, cap: int = 4096) -> Semigroup:
    """Close a presentation into a finite semigroup table.

    The element set is the set of irreducible nonempty generator words under
    the completed rule system, plus a zero element whenever some product
    collapses.  Raises ``PresentationError`` when the closure does not fit in
    ``cap`` elements or (after the fact) some input relation fails on the
    produced table.
    """
    order = {g: i for i, g in enumerate(p.generators)}
    rules = [_orient(l, r, order) for l, r in p.relations]
    rules = [r for r in rules if r is not None]
    rules += [(z, None) for z in p.zero_words]
    rules = _complete(rules, order)

    words = []
    index: dict = {}
    zero_index = None
    queue = []
    for g in p.generators:
        nf = _reduce(g, rules)
        if nf is None:
            zero_index = True
        elif nf == "":
            raise PresentationError("presentation collapses a generator to the empty word")
        elif nf not in index:
            index[nf] = len(words)
            words.append(nf)
            queue.append(nf)
    while queue:
        w = queue.pop()
        for g in p.generators:
            nf = _reduce(w + g, rules)
            if nf is None:
                zero_index = True
            elif nf not in index:
                if len(words) >= cap:
                    raise PresentationError("not closed within cap")
                index[nf] = len(words)
                words.append(nf)
                queue.append(nf)
    if zero_index or p.zero_words:
        zero_index = len(words)
    else:
        zero_index = None
    n = len(words) + (1 if zero_index is not None else 0)

    def val(word):
        nf = _reduce(word, rules)
        if nf is None:
            if zero_index is None:
                raise PresentationError("product collapsed to zero unexpectedly")
            return zero_index
        if nf == "":
            raise PresentationError("presentation collapses a word to the empty word")
        return index[nf]

    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == zero_index or j == zero_index:
                row.append(zero_index)
            else:
                row.append(val(words[i] + words[j]))
        rows.append(tuple(row))
    labels = tuple(words) + (("0",) if zero_index is not None else ())
    sg = Semigroup(table=tuple(rows), labels=labels, zero=zero_index)

    # verification: the table must satisfy every input relation exactly
    def eval_word(word):
        it = iter(word)
        acc = val(next(it))
        for c in it:
            acc = sg.table[acc][val(c)]
        return acc

    for l, r in p.relations:
        if eval_word(l) != eval_word(r):
            raise PresentationError(f"non-confluent orientation: relation {l}={r} violated")
    for z in p.zero_words:
        if eval_word(z) != zero_index:
            raise PresentationError(f"non-confluent orientation: {z}=0 violated")
    return sg


def adjoin_identity(s: Semigroup) -> FiniteMonoid:
    """Adjoin a fresh neutral element (index 0, labelled ``1``).

    An existing neutral element, if any, is kept as an ordinary element.
    """
    n = s.size
    rows = [tuple(range(n + 1))]
    for i in range(n):
        rows.append((i + 1,) + tuple(x + 1 for x in s.table[i]))
    zero = None if s.zero is None else s.zero + 1
    return FiniteMonoid(table=tuple(rows), labels=("1",) + tuple(s.labels),
                        identity=0, zero=zero)


def is_j_trivial(m: Semigroup):
    """Whether distinct elements generate distinct two-sided ideals.

    Returns ``(True, None)`` or ``(False, (x, y))`` with a violating pair.
    """
    n = m.size
    ideals = []
    for x in range(n):
        ideal = {x}
        stack = [x]
        while stack:
            a = stack.pop()
            for s in range(n):
                for y in (m.table[s][a], m.table[a][s]):
                    if y not in ideal:
                        ideal.add(y)
                        stack.append(y)
        ideals.append(frozenset(ideal))
    seen: dict = {}
    for x, ideal in enumerate(ideals):
        if ideal in seen:
            return False, (seen[ideal], x)
        seen[ideal] = x
    return True, None


def is_aperiodic(m: Semigroup) -> bool:
    """Whether x^n = x^(n+1) holds for every x at some n <= size."""
    n = m.size
    for x in range(n):
        acc = x
        ok = False
        for _ in range(n + 1):
            nxt = m.table[acc][x]
            if nxt == acc:
                ok = True
                break
            acc = nxt
        if not ok:
            return False
    return True


def idempotents(m: Semigroup) -> list:
    return [x for x in range(m.size) if m.table[x][x] == x]


def idempotents_commute(m: Semigroup):
    idem = idempotents(m)
    for e in idem:
        for f in idem:
            if m.table[e][f] != m.table[f][e]:
                return False, (e, f)
    return True, None


def submonoid(m: FiniteMonoid, gens):
    """Closure of the identity and ``gens``, as a monoid plus embedding map.

    The embedding maps new indices to indices of ``m``.
    """
    gens = set(gens) | {m.identity}
    closure = set(gens)
    changed = True
    while changed:
        changed = False
        for a in list(closure):
            for b in list(closure):
                c = m.table[a][b]
                if c not in closure:
                    closure.add(c)
                    changed = True
    embed = sorted(closure)
    pos = {x: i for i, x in enumerate(embed)}
    rows = tuple(tuple(pos[m.table[a][b]] for b in embed) for a in embed)
    labels = tuple(m.labels[x] for x in embed)
    zero = pos.get(m.zero) if m.zero in pos else None
    if zero is not None:
        # the ambient zero is a zero of the submonoid only if it stayed absorbing
        if any(rows[zero][i] != zero or rows[i][zero] != zero
               for i in range(len(embed))):
            zero = None
    sub = FiniteMonoid(table=rows, labels=labels,
                       identity=pos[m.identity], zero=zero)
    return sub, embed


def dual(m: FiniteMonoid) -> FiniteMonoid:
    n = m.size
    rows = tuple(tuple(m.table[j][i] for j in range(n)) for i in range(n))
    return FiniteMonoid(table=rows, labels=m.labels,
                        identity=m.identity, zero=m.zero)


def direct_product(m: FiniteMonoid, n: FiniteMonoid, cap: int = 4096) -> FiniteMonoid:
    if m.size * n.size > cap:
        raise ValueError(f"product size {m.size * n.size} exceeds cap {cap}")
    pairs = [(a, b) for a in range(m.size) for b in range(n.size)]
    pos = {ab: i for i, ab in enumerate(pairs)}
    rows = tuple(
        tuple(pos[(m.table[a][c], n.table[b][d])] for (c, d) in pairs)
        for (a, b) in pairs)
    labels = tuple(f"({m.labels[a]},{n.labels[b]})" for (a, b) in pairs)
    zero = pos[(m.zero, n.zero)] if m.zero is not None and n.zero is not None else None
    return FiniteMonoid(table=rows, labels=labels,
                        identity=pos[(m.identity, n.identity)], zero=zero)


# -- isomorphism search ----------------------------------------------------

def _refined_colors(m: Semigroup, extra=None):
    n = m.size
    colors = []
    for x in range(n):
        acc, seen = x, {x: 0}
        k = 0
        while True:
            acc = m.table[acc][x]
            k += 1
            if acc in seen:
                idx, period = seen[acc], k - seen[acc]
                break
            seen[acc] = k
        colors.append((m.table[x][x] == x, idx, period,
                       extra[x] if extra else 0))
    # iterative refinement by multiplication behaviour against color classes
    for _ in range(n):
        palette = sorted(set(colors))
        rank = {c: i for i, c in enumerate(palette)}
        cur = [rank[c] for c in colors]
        nxt = []
        for x in range(n):
            row = sorted((cur[y], cur[m.table[x][y]], cur[m.table[y][x]])
                         for y in range(n))
            nxt.append((cur[x], tuple(row)))
        if len(set(nxt)) == len(set(cur)):
            return cur
        colors = nxt
    palette = sorted(set(colors))
    rank = {c: i for i, c in enumerate(palette)}
    return [rank[c] for c in colors]


def _absorbing_element(m: Semigroup):
    # structural, independent of the declared zero field
    for z in range(m.size):
        if all(m.table[z][x] == z == m.table[x][z] for x in range(m.size)):
            return z
    return None


def find_isomorphism(m: FiniteMonoid, n: FiniteMonoid):
    """A multiplication-preserving bijection m -> n, or None.

    The identity maps to the identity and the absorbing element (derived
    from the table, not the declared field) to the absorbing element.
    Backtracking is seeded by iterated invariant colors; at the sizes used
    here the search is exhaustive, so ``None`` means non-isomorphic.
    """
    if m.size != n.size:
        return None
    mz, nz = _absorbing_element(m), _absorbing_element(n)
    if (mz is None) != (nz is None):
        return None
    extra_m = [0] * m.size
    extra_n = [0] * n.size
    extra_m[m.identity] = 1
    extra_n[n.identity] = 1
    if mz is not None:
        extra_m[mz] = 2
        extra_n[nz] = 2
    cm = _refined_colors(m, extra_m)
    cn = _refined_colors(n, extra_n)
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
                stack.append((m.table[a][z], n.table[b][w]))
                stack.append((m.table[z][a], n.table[w][b]))
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
    for a in range(size):
        for b in range(size):
            if mapping[m.table[a][b]] != n.table[mapping[a]][mapping[b]]:
                return None
    return mapping


# -- text format -----------------------------------------------------------

def format_monoid(m: FiniteMonoid) -> str:
    zero = "none" if m.zero is None else str(m.zero)
    lines = [f"MONOID {m.size} identity={m.identity} zero={zero}"]
    lines.append(" ".join(l.replace(" ", "_") for l in m.labels))
    for row in m.table:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_monoid(text: str) -> FiniteMonoid:
    """Read ``format_monoid`` text; malformed input raises ValueError."""
    lines = [l.split() for l in text.splitlines() if l.strip()]
    head = lines[0] if lines else []
    fields = dict(kv.partition("=")[::2] for kv in head[2:])
    if not (len(head) == 4 and head[0] == "MONOID" and head[1].isdigit()
            and set(fields) == {"identity", "zero"}):
        raise ValueError("a monoid file starts 'MONOID <size> identity=<i> "
                         "zero=<z|none>'")
    size = int(head[1])
    if len(lines) != size + 2:
        raise ValueError(f"a {size}-element monoid file needs {size + 2} lines")

    def element(text: str) -> int:
        if not (text.isdigit() and int(text) < size):
            raise ValueError(f"{text!r} is not an element index below {size}")
        return int(text)

    zero = None if fields["zero"] == "none" else element(fields["zero"])
    rows = tuple(tuple(map(element, row)) for row in lines[2:])
    return FiniteMonoid(table=rows, labels=tuple(lines[1]),
                        identity=element(fields["identity"]), zero=zero)


def save_monoid(m: FiniteMonoid, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_monoid(m))


def load_monoid(path) -> FiniteMonoid:
    with open(path) as fh:
        return parse_monoid(fh.read())
