"""Finite monoids as multiplication tables.

A table is one read-only ``np.int32`` array of element indices (row = left
factor); the constructor turns any square nested sequence into that array,
and no other module knows how it is stored.  The ``FiniteMonoid`` wrapper
carries the identity index, an optional two-sided zero, and printable
labels; construction verifies the entry range, the identity law and
associativity, exactly at every size by Light's test over a generating set.
The zero is a fact of the table, never declared: construction checks the
product of all elements, the one candidate.  So ``zero`` is the table's
zero or None, whoever built the table.  The structural predicates are array
expressions.

Every generated monoid gets its table one way, ``cayley_table``: from the
right action of the generators on the elements, each column is gathered
from the column of the element it was first reached from.  The Rees
quotients of ``construct.build_monoid`` and the presentations here both
use it.

Presentations are closed by shortlex rewriting.  The given relations are
oriented longer-to-shorter and completed by resolving critical pairs, with
the rules inter-reduced one at a time, so a relation like ``ca = c``
together with the zero word ``ac`` correctly forces ``cc = 0`` even though
no given rule touches ``cc``.  The normal forms are then the shortlex-least
words of their classes.  A depth-first search by right multiplication from
the generators enumerates them and records the right action for the table.
If infinitely many words avoid every relation side (checked before
completion, which need not finish then) or every completed left side
(checked after it), or completion or the enumeration does not settle
within its cap (``MAX_RULES``, ``MAX_PASSES``, ``MAX_ELEMENTS``), the
construction fails loudly; a finished table is verified against every
input relation.

One right Cayley graph search, ``_generators``, grows a generating set
greedily; it gives Light's test its generators, which the monoid keeps as
``generators``, and ``submonoid`` its closure.  ``find_isomorphism`` searches
for the images of the kept generators: it extends the map along the right
Cayley graph as each image is chosen, and takes its candidate images from
a colour refinement of both tables together.  The refinement starts from
the identity and the zero and reads nothing but products; its rounds are
array sorts, and the search buys them one at a time, each only once it has
spent about a round's cost without finishing.  The search returns the map
of the lex-first generator images that extend to an isomorphism under any
invariant colours, so the rounds bought change its work, not its answer,
and at worst it does about twice the work of refining to stability first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

__all__ = [
    "FiniteMonoid", "Semigroup", "Presentation", "PresentationError",
    "cayley_table", "from_presentation", "adjoin_identity", "is_j_trivial",
    "is_aperiodic", "idempotents", "idempotents_commute", "submonoid", "dual",
    "direct_product", "find_isomorphism", "save_monoid", "load_monoid",
    "format_monoid", "parse_monoid",
]

# the most elements ``from_presentation`` enumerates and ``direct_product``
# builds
MAX_ELEMENTS = 4096
# completion gives up past this many rules or passes (``_complete``)
MAX_RULES = 400
MAX_PASSES = 60


class PresentationError(ValueError):
    pass


def _generators(t: np.ndarray, among=None) -> tuple:
    """A generating set grown greedily, and the mask of what it generates.

    The candidates ``among`` (every element in index order by default) are
    taken in turn, each one that no product of those taken before reaches.
    Products are followed along the right Cayley graph: a new generator
    multiplies every element reached so far on the right, and each newly
    reached element is multiplied by every generator.  Only the columns of
    the generators are read, each once, as a list.
    """
    inside = [False] * len(t)
    reached: list = []
    gens: list = []
    cols: list = []
    for g in range(len(t)) if among is None else among:
        if inside[g]:
            continue
        gens.append(g)
        cols.append(t[:, g].tolist())
        i = len(reached)
        for x in [g] + [cols[-1][u] for u in reached]:
            if not inside[x]:
                inside[x] = True
                reached.append(x)
        while i < len(reached):
            u = reached[i]
            for col in cols:
                x = col[u]
                if not inside[x]:
                    inside[x] = True
                    reached.append(x)
            i += 1
    return gens, np.array(inside, dtype=bool)


# the most cells (x, g, y) Light's test compares at once: 4 MB a side
_LIGHT_CELLS = 1 << 20


def _check_associative(t: np.ndarray) -> list:
    """Raise at the lex-first triple (a,b,c) with (ab)c != a(bc), if any;
    else return the generators the test used.

    Light's test (Clifford-Preston, vol. 1, section 1.2) checks
    (xg)y = x(gy) for the generators g of ``_generators`` only, at every
    size: the b with (xb)y = x(by) for all x, y are closed under products,
    since (x(bc))y = ((xb)c)y = (xb)(cy) = x(b(cy)) = x((bc)y), so they are
    everything once they hold a set whose products, even taken left to
    right only, reach every element.  The generators are compared in
    groups of at most ``_LIGHT_CELLS`` cells, one array expression each.
    """
    gens = _generators(t)[0]
    step = max(1, _LIGHT_CELLS // max(1, t.size))
    if all((t[t[:, g]] == np.take(t, t[g], axis=1)).all()
           for g in (gens[i:i + step] for i in range(0, len(gens), step))):
        return gens
    for a in range(len(t)):
        bad = np.argwhere(t[t[a]] != t[a, t])
        if len(bad):
            b, c = bad[0]
            raise ValueError(f"table not associative at ({a},{b},{c})")


def _fixes(t: np.ndarray, x: int, image) -> bool:
    """Whether x is an element and row x and column x both equal ``image``."""
    if not 0 <= x < len(t):
        return False
    return bool((t[x] == image).all() and (t[:, x] == image).all())


@dataclass(frozen=True, eq=False)
class Semigroup:
    """A bare multiplication table with labels (no identity required).

    ``zero`` is found from the table, the absorbing element or None.
    """

    table: np.ndarray
    labels: tuple
    zero: int | None = field(init=False)
    # the generators of ``_generators``, found by the associativity check
    # and read by ``find_isomorphism``; no part of equality or the text format
    generators: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        n = len(self.labels)
        try:
            table = np.array(self.table, order="C")
        except ValueError:
            raise ValueError("malformed table") from None
        if table.size == n == 0:
            table = np.zeros((0, 0), dtype=np.int32)
        if table.shape != (n, n) or table.dtype.kind not in "iu":
            raise ValueError("malformed table")
        if n and not (table.min() >= 0 and table.max() < n):
            raise ValueError(f"table entries must be element indices below {n}")
        table = table.astype(np.int32, copy=False)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "generators", tuple(_check_associative(table)))
        # a zero absorbs the product of all elements, the one candidate
        z = reduce(table.item, range(n), 0)
        object.__setattr__(self, "zero", z if _fixes(table, z, z) else None)

    def __eq__(self, other):
        return (type(other) is type(self) and self.labels == other.labels
                and np.array_equal(self.table, other.table))

    __hash__ = None

    @property
    def size(self) -> int:
        return len(self.table)


@dataclass(frozen=True, eq=False, kw_only=True)
class FiniteMonoid(Semigroup):
    identity: int = 0
    # the monoids this one is the direct product of, in order, or ()
    factors: tuple = field(default=(), repr=False)

    def __post_init__(self):
        super().__post_init__()
        if not _fixes(self.table, self.identity, np.arange(self.size)):
            raise ValueError("identity law fails at declared identity")

    def __eq__(self, other):
        return super().__eq__(other) and self.identity == other.identity

    def evaluate(self, word, assignment: dict) -> int:
        """Value of a plain word under a base -> element-index assignment."""
        acc = self.identity
        for b, p in word:
            if p:
                raise ValueError("evaluation is defined on plain words")
            acc = self.table.item(acc, assignment[b])
        return acc

    @cached_property
    def gap(self) -> np.ndarray | None:
        """``gap[a, b]``: whether ``a x b`` is the zero for every element x;
        None when there is no zero.  Built on first read and kept.

        Row a is the AND of the rows ``a x`` of ``table == zero``: n^3 steps,
        gathered a block of rows at a time in at most ``max(n^2, 2^16)``
        cells.
        """
        if self.zero is None:
            return None
        is_zero = self.table == self.zero
        gap = np.empty_like(is_zero)
        step = max(1, (1 << 16) // self.size ** 2)
        for a in range(0, self.size, step):
            gap[a:a + step] = is_zero[self.table[a:a + step]].all(axis=1)
        gap.flags.writeable = False
        return gap


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


def cayley_table(right: list, starts: dict, zero: int | None) -> np.ndarray:
    """The table of a finite semigroup from its right Cayley graph.

    ``right[u][j]`` is the product of element ``u`` by generator ``j``, for
    every element, the ``zero`` too if there is one.  ``starts`` maps the
    elements a breadth-first search along ``right`` begins at to their
    columns, and the search must reach every other element.  It reaches each
    element ``v`` first as ``u * x`` for a generator ``x``, and column ``v``
    is column ``u`` mapped through ``right[.][x]``: one whole-column gather
    per element (Froidure and Pin, "Algorithms for computing finite
    semigroups", 1997).  This is exact, as ``t * (u * x) = (t * u) * x``.
    """
    gather = np.array(right, dtype=np.int32)
    n = len(right)
    # a column the search never sets fails the table's range check
    columns = np.full((n, n), -1, dtype=np.int32)
    if zero is not None:
        columns[zero] = zero
    for v, column in starts.items():
        columns[v] = column
    reached = list(starts)
    seen = {*starts, zero}
    for u in reached:
        for j, v in enumerate(right[u]):
            if v not in seen:
                seen.add(v)
                reached.append(v)
                columns[v] = gather[columns[u], j]
    return columns.T


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


def _complete(rules, order):
    rules = list(dict.fromkeys(rules))
    for _ in range(MAX_PASSES):
        # reduce both sides of one rule at a time by the other rules as they
        # now stand: the old rule and its replacement follow from each other
        # given the rest, so every step keeps the congruence
        for i in range(len(rules)):
            rest = [r for r in rules[:i] + rules[i + 1:] if r is not None]
            lhs, rhs = rules[i]
            rules[i] = _orient(_reduce(lhs, rest), _reduce(rhs, rest), order)
        rules = list(dict.fromkeys(r for r in rules if r is not None))

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
        if len(rules) > MAX_RULES:
            break
    raise PresentationError("completion did not converge (rule cap exceeded)")


def _infinitely_many_avoid(sides: set, letters) -> bool:
    """Whether infinitely many words over ``letters`` have no factor in
    ``sides``, a set of nonempty words.

    A word is read letter by letter, its state the longest suffix that is a
    prefix of some side; it has a side as a factor exactly when a state on
    the way ends with one.  So the avoiding words are the paths from the
    empty prefix through the other states, and there are infinitely many
    exactly when those states hold a cycle: some remain after the states
    with no successor are removed again and again.  The states are at most
    the total length of the sides plus one.
    """
    prefixes = {""} | {s[:i] for s in sides for i in range(len(s) + 1)}

    def step(state, c):
        w = state + c
        while w not in prefixes:
            w = w[1:]
        return None if any(w.endswith(s) for s in sides) else w

    succ, todo = {}, [""]
    while todo:
        state = todo.pop()
        if state not in succ:
            succ[state] = {t for t in (step(state, c) for c in letters)
                           if t is not None}
            todo.extend(succ[state])
    while succ:
        ends = {state for state, out in succ.items() if not out}
        if not ends:
            return True
        succ = {state: out - ends for state, out in succ.items()
                if state not in ends}
    return False


def from_presentation(p: Presentation) -> Semigroup:
    """Close a presentation into a finite semigroup table.

    The element set is the set of irreducible nonempty generator words under
    the completed rule system, plus a zero element whenever some product
    collapses.  They are numbered in the order a depth-first search along
    right multiplication by the generators first meets them, and that search
    records the right action from which ``cayley_table`` builds the table.

    Raises ``PresentationError`` when the closure does not fit in
    ``MAX_ELEMENTS`` elements, when it is infinite, or (after the fact) when
    some input relation fails on the produced table.  Infinity is one
    question, asked twice: whether infinitely many words avoid a set of
    words (``_infinitely_many_avoid``).  Before completion, which need not
    finish on an infinite closure, the set is the relation sides and zero
    words: a word with none of them as a factor admits no rewriting step,
    so it is alone in its class.  After completion it is the left sides of
    the completed rules, the zero words among them, and the avoiding words
    are exactly the elements, so the answer is exact.
    """
    order = {g: i for i, g in enumerate(p.generators)}
    rules = [_orient(l, r, order) for l, r in p.relations]
    rules = [r for r in rules if r is not None]
    rules += [(z, None) for z in p.zero_words]
    sides = {w for rule in rules for w in rule if w is not None}
    if _infinitely_many_avoid(sides, p.generators):
        raise PresentationError(
            "not closed within cap: the closure is infinite (infinitely many "
            "words avoid every relation side and zero word)")
    rules = _complete(rules, order)
    if _infinitely_many_avoid({l for l, _ in rules}, p.generators):
        raise PresentationError(
            "not closed within cap: the closure is infinite (infinitely many "
            "words avoid every left side of the completed rules)")

    words: list = []
    index: dict = {}
    right: list = []
    stack: list = []

    def element(word):
        nf = _reduce(word, rules)
        if nf is not None and nf not in index:
            if len(words) >= MAX_ELEMENTS:
                raise PresentationError("not closed within cap")
            index[nf] = len(words)
            words.append(nf)
            right.append(None)
            stack.append(nf)
        return None if nf is None else index[nf]

    letter = {g: element(g) for g in p.generators}
    while stack:
        w = stack.pop()
        right[index[w]] = [element(w + g) for g in p.generators]
    collapsed = None in letter.values() or any(None in r for r in right)
    zero = len(words) if collapsed or p.zero_words else None
    if zero is not None:
        right = [[zero if v is None else v for v in r] for r in right]
        right.append([zero] * len(letter))
        letter = {g: zero if v is None else v for g, v in letter.items()}
    starts = {v: [r[order[g]] for r in right] for g, v in letter.items()}
    labels = tuple(words) + (("0",) if zero is not None else ())
    sg = Semigroup(table=cayley_table(right, starts, zero), labels=labels)

    # verification: the table must satisfy every input relation exactly
    def value(word):
        acc = letter[word[0]]
        for c in word[1:]:
            acc = sg.table[acc, letter[c]]
        return acc

    for l, r in p.relations:
        if value(l) != value(r):
            raise PresentationError(f"non-confluent orientation: relation {l}={r} violated")
    for z in p.zero_words:
        if value(z) != zero:
            raise PresentationError(f"non-confluent orientation: {z}=0 violated")
    return sg


def adjoin_identity(s: Semigroup) -> FiniteMonoid:
    """Adjoin a fresh neutral element (index 0, labelled ``1``).

    An existing neutral element, if any, is kept as an ordinary element.
    """
    n = s.size
    table = np.empty((n + 1, n + 1), dtype=np.int32)
    table[0] = table[:, 0] = np.arange(n + 1)
    table[1:, 1:] = s.table + 1
    return FiniteMonoid(table=table, labels=("1",) + tuple(s.labels),
                        identity=0)


def is_j_trivial(m: Semigroup):
    """Whether distinct elements generate distinct two-sided ideals.

    Returns ``(True, None)`` or ``(False, (x, y))`` with a violating pair:
    y is the first element that generates the same ideal as an earlier
    one, and x the first element of that ideal's generators.
    """
    t = m.table
    n = m.size
    every = np.arange(n)
    # left[x, y]: y is in S^1 x; right[x, y]: y is in x S^1
    left = np.zeros((n, n), dtype=np.float32)
    right = np.zeros((n, n), dtype=np.float32)
    left[every[:, None], t.T] = right[every[:, None], t] = 1
    left[every, every] = right[every, every] = 1
    ideal = (left @ right) > 0
    later = np.triu(ideal & ideal.T, 1)
    cols = later.any(axis=0)
    if not cols.any():
        return True, None
    y = int(np.argmax(cols))
    return False, (int(np.argmax(later[:, y])), y)


def is_aperiodic(m: Semigroup) -> bool:
    """Whether x^n = x^(n+1) holds for every x at some n <= size.

    Squaring reaches x^N with N >= size, at or past every index.
    """
    t = m.table
    power, exponent = np.arange(m.size), 1
    while exponent < m.size:
        power, exponent = t[power, power], 2 * exponent
    return bool((t[power, np.arange(m.size)] == power).all())


def idempotents(m: Semigroup) -> list:
    return np.flatnonzero(m.table.diagonal() == np.arange(m.size)).tolist()


def idempotents_commute(m: Semigroup):
    idem = idempotents(m)
    among = m.table[np.ix_(idem, idem)]
    bad = np.argwhere(among != among.T)
    if len(bad):
        i, j = bad[0]
        return False, (idem[i], idem[j])
    return True, None


def submonoid(m: FiniteMonoid, gens):
    """Closure of the identity and ``gens``, as a monoid plus embedding map.

    The embedding maps new indices to indices of ``m``.
    """
    inside = _generators(m.table, [*gens, m.identity])[1]
    embed = np.flatnonzero(inside).tolist()
    pos = np.cumsum(inside) - 1
    sub = FiniteMonoid(table=pos[m.table[np.ix_(embed, embed)]],
                       labels=tuple(m.labels[x] for x in embed),
                       identity=int(pos[m.identity]))
    return sub, embed


def dual(m: FiniteMonoid) -> FiniteMonoid:
    return FiniteMonoid(table=m.table.T, labels=m.labels, identity=m.identity)


def direct_product(m: FiniteMonoid, n: FiniteMonoid) -> FiniteMonoid:
    """The product monoid; the pair (a, b) has index a * n.size + b.

    The result records ``(m, n)`` as its ``factors``, which
    ``identities.satisfies`` checks one at a time.  They take no part in
    equality or the text format, so a product read back from its file is
    an ordinary monoid.
    """
    size = m.size * n.size
    if size > MAX_ELEMENTS:
        raise ValueError(f"product size {size} exceeds cap {MAX_ELEMENTS}")
    k = n.size
    mt, nt = m.table, n.table
    table = (mt[:, None, :, None] * k + nt[None, :, None, :]).reshape(size, size)
    labels = tuple(f"({a},{b})" for a in m.labels for b in n.labels)
    return FiniteMonoid(table=table, labels=labels,
                        identity=m.identity * k + n.identity, factors=(m, n))


# -- isomorphism search ----------------------------------------------------

# settle steps per element that the isomorphism search makes before it buys
# a round of colour refinement (``find_isomorphism``): about what a round
# costs.  Timed against one settle step of a search cut short by its
# allowance, a round cost 6-19 steps per element on the Rees quotients of 9
# to 64 elements that the construct benchmark builds (10-14 at 20-40;
# three runs on a 2-CPU x86-64 machine), and 19-45 on a 303-element null
# monoid, as its sorts grow with the square of the size, so larger tables
# buy their rounds early.  A search that does not backtrack makes one step
# per element and generator: 5 per element on those quotients
_SETTLES_PER_ROUND = 12
# what ``_search`` returns when it has spent its allowance
_SPENT = "spent"


def _classes(rows: np.ndarray) -> np.ndarray:
    """Equal rows of a 2-d array get equal numbers, dense from 0, in the
    order in which each distinct row first occurs."""
    first: dict = {}
    return np.array([first.setdefault(row.tobytes(), len(first))
                     for row in rows])


def _joint_colors(m: FiniteMonoid, n: FiniteMonoid, extra):
    """Invariant colours of the elements of two equal-sized monoids, one
    round of refinement at a time.

    Both tables are coloured together, so a colour is one class across m
    and n, and an isomorphism keeps every element's colour.  Element x of
    n is numbered ``size + x``.  The first colours are ``extra``, which
    tells the identity and the zero apart.  Each round then colours x by
    its colour and the sorted row of (c[y], c[xy], c[yx]) over the y of its
    own monoid.  Yields the colours of m and n as the two rows of one
    array: first the colours of ``extra``, then those of each round that
    splits a class.  A round that splits none ends the generator, so the
    last colours yielded are stable.
    """
    s = m.size
    # the values of ``extra``, numbered densely
    colors = (np.cumsum(np.bincount(extra) > 0) - 1)[extra]
    yield colors.reshape(2, s)
    right = np.concatenate([m.table, n.table + s])
    left = np.concatenate([m.table.T, n.table.T + s])
    # row x: c[x], then the keys over the y of x's own monoid, in place
    keys = np.empty((2, s, s + 1), dtype=np.int64)
    body = keys[:, :, 1:]
    while True:
        k = colors.max() + 1
        keys[:, :, 0] = own = colors.reshape(2, s)
        body[...] = own[:, None, :]
        body *= k
        body += colors[right].reshape(2, s, s)
        body *= k
        body += colors[left].reshape(2, s, s)
        body.sort(axis=2)
        finer = _classes(keys.reshape(2 * s, s + 1))
        if finer.max() + 1 == k:
            return
        colors = finer
        yield colors.reshape(2, s)


def find_isomorphism(m: FiniteMonoid, n: FiniteMonoid):
    """A multiplication-preserving bijection m -> n, or None.

    A homomorphism is fixed by its images of a generating set G of m
    (``m.generators``, found by ``_generators`` when m was built), since
    f(u*g) = f(u)*f(g).  The search (``_search``) backtracks over the
    images of G in index order, each tried in ascending order among the
    elements of n with the same colour (``_joint_colors``: the identity and
    the zero, which the table fixes, get colours of their own, refined by
    products alone).  Colours are only compared for equality.  After each
    choice the map is extended from the identity along the right Cayley
    graph of the generators chosen so far; a product whose image conflicts,
    repeats an image or changes colour rejects the choice at once.  The
    search reads the tables only in the columns of the generators and of
    their tried images, each turned into a list once.

    The refinement rounds are bought by the search.  It starts from the
    identity and zero colours; once it has made ``_SETTLES_PER_ROUND``
    settle steps per element, about what one round costs, a round is run
    and the search starts again under the finer colours, after the
    multiset check that may already tell the two apart.  Under stable
    colours it runs to the end.  Whichever colours prune it, the search
    returns the same map: it tries the tuples of generator images in lex
    order, colours are kept by every isomorphism, so they only skip tuples
    that no isomorphism has, and a complete extension along the Cayley
    graph is an isomorphism (f(u g) = f(u) f(g) for every generator g,
    hence f(uv) = f(u) f(v), and f is one-to-one).  So the map is that of
    the lex-first tuple of images that extends to an isomorphism, and
    ``None`` means non-isomorphic.  Each abandoned search costs about one
    round, so the worst case is about twice the work of refining to
    stability first.
    """
    if m.size != n.size:
        return None
    mz, nz = m.zero, n.zero
    if (mz is None) != (nz is None):
        return None
    size = m.size
    extra = np.zeros(2 * size, dtype=np.intp)
    extra[[m.identity, size + n.identity]] = 1
    if mz is not None:
        extra[[mz, size + nz]] = 2
    rounds = _joint_colors(m, n, extra)
    cm, cn = next(rounds)
    allowance = _SETTLES_PER_ROUND * size
    while True:
        if not np.array_equal(np.sort(cm), np.sort(cn)):
            return None
        mapping = _search(m, n, cm, cn, allowance)
        if mapping is not _SPENT:
            return mapping
        finer = next(rounds, None)
        if finer is None:
            allowance = math.inf
        else:
            cm, cn = finer


def _search(m: FiniteMonoid, n: FiniteMonoid, cm, cn, allowance):
    """The search of ``find_isomorphism`` under the colours ``cm``, ``cn``:
    the map of the lex-first generator images that extend to an
    isomorphism, or None; ``_SPENT`` once it has made more than ``allowance``
    settle steps."""
    size = m.size
    gens = m.generators
    cm, cn = cm.tolist(), cn.tolist()
    by_color: dict = {}       # colour -> the elements of n with it, ascending
    for y, c in enumerate(cn):
        by_color.setdefault(c, []).append(y)
    candidates = [by_color.get(cm[g], []) for g in gens]
    # column gens[i] of m and column y of n, each read on first use
    gen_cols: list = []
    image_cols: dict = {}
    mapping = [-1] * size
    used = [False] * size
    mapping[m.identity] = n.identity
    used[n.identity] = True
    # the mapped elements in the order reached, and the chosen generators
    reached = [m.identity]
    chosen: list = []
    spent = 0

    def settle(a, b):
        nonlocal spent
        spent += 1
        if spent > allowance:
            return False
        if mapping[a] >= 0:
            return mapping[a] == b
        if used[b] or cm[a] != cn[b]:
            return False
        mapping[a] = b
        used[b] = True
        reached.append(a)
        return True

    def extend(g, y):
        # the elements reached so far are closed under the chosen
        # generators; they now need the one of column g, and the new ones
        # every generator
        start = len(reached)
        if y not in image_cols:
            image_cols[y] = n.table[:, y].tolist()
        z = image_cols[y]
        chosen.append((g, z))
        for u in reached[:start]:
            if not settle(g[u], z[mapping[u]]):
                return False
        i = start
        while i < len(reached):
            u = reached[i]
            fu = mapping[u]
            for h, hz in chosen:
                if not settle(h[u], hz[fu]):
                    return False
            i += 1
        return True

    def retract(start):
        chosen.pop()
        for a in reached[start:]:
            used[mapping[a]] = False
            mapping[a] = -1
        del reached[start:]

    # depth first over the generators, without recursion: tried[i] counts
    # the images of gens[i] tried so far, and marks[i] is the length of
    # ``reached`` before its current image was chosen
    tried = [0] * len(gens)
    marks: list = []
    i = 0
    while i < len(gens):
        if spent > allowance:
            return _SPENT
        if tried[i] == len(candidates[i]):
            if not marks:
                return None
            tried[i] = 0
            i -= 1
            retract(marks.pop())
            continue
        y = candidates[i][tried[i]]
        tried[i] += 1
        # extend settles gens[i] -> y first (the identity times gens[i]),
        # which fails for a used y that is not already its image
        if used[y] and mapping[gens[i]] != y:
            continue
        marks.append(len(reached))
        if i == len(gen_cols):
            gen_cols.append(m.table[:, gens[i]].tolist())
        if extend(gen_cols[i], y):
            i += 1
        else:
            retract(marks.pop())
    return mapping


# -- text format -----------------------------------------------------------

_ESCAPE = str.maketrans({"\\": "\\\\", "_": "\\_", " ": "_"})


def format_monoid(m: FiniteMonoid) -> str:
    zero = "none" if m.zero is None else str(m.zero)
    lines = [f"MONOID {m.size} identity={m.identity} zero={zero}"]
    lines.append(" ".join(l.translate(_ESCAPE) for l in m.labels))
    for row in m.table.tolist():
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def parse_monoid(text: str) -> FiniteMonoid:
    """Read ``format_monoid`` text; malformed input, or a header zero that
    is not the table's, raises ValueError."""
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
    labels = tuple("\\".join(p.replace("_", " ").replace("\\ ", "_")  # undo _ESCAPE
                             for p in l.split("\\\\")) for l in lines[1])
    m = FiniteMonoid(table=rows, labels=labels,
                     identity=element(fields["identity"]))
    if zero not in (None, m.zero):
        raise ValueError("declared zero is not absorbing")
    return m


def save_monoid(m: FiniteMonoid, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_monoid(m))


def load_monoid(path) -> FiniteMonoid:
    with open(path) as fh:
        return parse_monoid(fh.read())
