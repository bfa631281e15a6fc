"""Bounded equational derivation with checkable traces.

A step rewrites a word by one axiom: the word is split as ``p + I + q`` where
``I`` is the image of one axiom side under a substitution sending letters to
arbitrary plain words (the empty word included, so erasing a letter is just
substituting the empty word), and ``I`` is replaced by the image of the other
side.  ``derive_bounded`` searches for a chain from one side of the goal to
the other by bidirectional breadth-first search over words up to a length
cap; a returned trace is replayed step by step by an independent checker.
Absence of a trace within the bounds never claims underivability.

The search runs on strings.  ``derive_bounded`` gives each letter of the
goal and the axioms one character (``Encoding``), encodes the goal and the
axiom sides once and decodes only the trace it returns, so that slicing,
comparing and hashing a word are done in C, and a piece is looked for with
``str.find``.  Bases of any length (``y1``) take one character like the
rest; the encoding is a bijection, so the search is the one on words.

Most instances of an axiom replace a block by the same block: in
``xtxs=xtxsx`` every instance with ``x`` bound to the empty word does.  For
each axiom direction the sets of letters whose erasure makes the two sides
one word (its collapse sets) are known up front, and the matcher cuts a
branch as soon as the letters it has bound to the empty word cover one.
Every instance below such a branch leaves the word unchanged and was never
a neighbour.

Two more cuts drop only bindings that complete to no instance at all.  A
letter's pieces are tried shortest first, each a prefix of the next.  When
the letter occurs again after its own group, every completion holds its
piece at or after the end of the group's repeats; once the piece is not
found there, no longer piece is (its own occurrence would contain the
shorter one, and its group ends no earlier), so the letter's loop stops.
When the first repeat after the new letter is an earlier letter with a
nonempty piece, the piece must end where that one begins, so the loop
steps from one occurrence of it to the next, in increasing order.

No cut reorders what remains, so the breadth-first order, and with it
every trace, is that of matching every binding.  Nor does skipping the
backward direction of a mirror axiom (``_is_mirror``), whose words the
forward direction has just recorded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .identities import Identity
from .words import Word, print_word


@dataclass(frozen=True)
class DerivationStep:
    before: Word
    after: Word
    axiom_index: int
    forward: bool            # True: lhs instance replaced by rhs
    position: int            # start of the matched instance in ``before``
    substitution: tuple      # sorted (base, Word) pairs

    def describe(self, axioms) -> str:
        ax = axioms[self.axiom_index]
        arrow = "->" if self.forward else "<-"
        sub = ", ".join(f"{b}:={print_word(w)}" for b, w in self.substitution)
        return (f"{print_word(self.before)} => {print_word(self.after)}"
                f"  via {ax} {arrow} at {self.position} [{sub}]")


@dataclass(frozen=True)
class DerivationTrace:
    start: Word
    end: Word
    steps: tuple

    def __len__(self) -> int:
        return len(self.steps)


class Encoding:
    """One character for each base of ``words``, in order of first
    occurrence: a plain word over those bases is then a ``str``."""

    def __init__(self, words):
        self.char: dict = {}
        for w in words:
            for b, _ in w:
                if b not in self.char:
                    self.char[b] = chr(ord("a") + len(self.char))
        self.base = {c: b for b, c in self.char.items()}
        self.letter = {c: (b, False) for b, c in self.char.items()}

    def encode(self, w: Word) -> str:
        return "".join([self.char[b] for b, _ in w])

    def decode(self, text: str) -> Word:
        return tuple([self.letter[c] for c in text])


class _CollapseTable(dict):
    """Bit mask over the letters of ``src`` -> whether deleting those
    letters and the letters of ``dst`` missing from ``src`` leaves both
    sides one word (the set is then a collapse set of ``src -> dst``).

    Entries are computed on first use, so an axiom with many letters costs
    only the masks that a search meets.
    """

    def __init__(self, src: str, dst: str, letters: list):
        super().__init__()
        self.src, self.dst, self.letters = src, dst, letters
        self.dst_only = set(dst) - set(letters)

    def __missing__(self, mask: int) -> bool:
        gone = self.dst_only | {b for k, b in enumerate(self.letters)
                                if mask >> k & 1}
        self[mask] = dead = ([b for b in self.src if b not in gone]
                             == [b for b in self.dst if b not in gone])
        return dead


@lru_cache(maxsize=256)
def _match_plan(src: str, dst: str) -> tuple:
    """How ``rewrites`` matches ``src``, and which of its branches are no-ops.

    Returns ``(steps, dead)``.  ``steps`` has one entry per distinct letter
    of ``src``, in order of first occurrence: ``(letter, repeats, mult,
    fixed, head, later)``.  The letter is bound to a piece there.
    ``repeats`` are the letters after it in ``src`` up to the next new
    letter; all are bound by then, so their pieces are checked at once.
    ``head`` is the first of them if it is an earlier letter, else ``""``.
    ``later`` says whether the letter occurs again after its repeats.  From
    the letter on, ``src`` holds ``mult`` copies of it and the letters
    ``fixed`` bound before it (with repeats), which caps the length of its
    piece.  ``dead`` is the ``_CollapseTable`` of the direction, the k-th
    letter of ``steps`` taking bit k of its masks.  Deleting more letters
    keeps equal words equal, so once the letters bound to the empty word
    cover a collapse set, every completion of the binding replaces a block
    by itself.
    """
    groups = []
    for b in src:
        if any(b == letter for letter, _ in groups):
            groups[-1][1].append(b)
        else:
            groups.append((b, []))
    steps = []
    for k, (b, repeats) in enumerate(groups):
        rest = [x for _, r in groups[k:] for x in r]
        earlier = {x for x, _ in groups[:k]}
        head = repeats[0] if repeats and repeats[0] != b else ""
        steps.append((b, tuple(repeats), 1 + rest.count(b),
                      tuple(x for x in rest if x in earlier), head,
                      b in rest[len(repeats):]))
    return tuple(steps), _CollapseTable(src, dst, [b for b, _ in groups])


def _substitute(pattern: Word, binding: dict) -> Word:
    out: list = []
    for b, _ in pattern:
        out.extend(binding[b])
    return tuple(out)


def rewrites(word: str, src: str, dst: str, max_len: int) -> list:
    """All one-step rewrites of ``word`` replacing an instance of src by dst.

    Words and sides are encoded (``Encoding``).  Returns ``(new, start,
    binding)`` triples in the order of the instances: by start, then depth
    first over the letters of ``src``, each new letter taking its pieces
    shortest first; a word already listed, one longer than ``max_len`` and
    the word itself are left out.  Letters occurring only in ``dst`` are
    bound to the empty word; the search is bounded anyway, and a binding
    introducing fresh material would blow up the branching without being
    needed for erasure-style derivations.

    Only instances that can change the word are matched: a branch whose
    letters bound to the empty word cover a collapse set (``_match_plan``)
    is cut, and so are a piece too long for the rest of ``src`` to fit, a
    piece that the pieces of the repeated letters after it do not follow,
    and a piece that a later occurrence of its letter cannot find again
    (the module docstring gives the argument).  The cuts drop only
    instances that would be left out or do not exist, and none reorders
    the rest, so the list is the one that matching every binding gives
    (``rewrites_by_all_bindings`` in the test oracles).
    """
    steps, dead = _match_plan(src, dst)
    if dead[0]:
        return []
    last = len(steps)
    n = len(word)
    # the live binding: an entry left from an abandoned branch is bound
    # again before it is read; the destination-only letters stay ""
    binding = dict.fromkeys(dst, "")
    seen = set()
    found = []

    def match(k: int, start: int, wi: int, empty: int):
        if k == last:
            # an instance word[start:wi]; keep it if it changes the word
            replacement = _instance(dst, binding)
            if (replacement == word[start:wi]
                    or n - wi + start + len(replacement) > max_len):
                return
            new = word[:start] + replacement + word[wi:]
            if new not in seen:
                seen.add(new)
                found.append((new, start, dict(binding)))
            return
        base, repeats, mult, fixed, head, later = steps[k]
        room = n - wi
        for b in fixed:
            room -= len(binding[b])
        if room < 0:
            # no piece fits, and a negative ``stop`` would count from the end
            return
        lead = binding[head] if head else ""
        # the piece ends where an occurrence of ``lead`` starts, at most here
        stop = wi + room // mult + len(lead)
        # ``empty`` covers no collapse set, so only the empty piece can
        # complete one
        end = wi + 1 if dead[empty | 1 << k] else wi
        while (end := word.find(lead, end, stop)) >= 0:
            piece = binding[base] = word[wi:end]
            at = end
            for b in repeats:
                if not word.startswith(binding[b], at):
                    break
                at += len(binding[b])
            else:
                if later and word.find(piece, at) < 0:
                    break
                match(k + 1, start, at, empty if end > wi else empty | 1 << k)
            end += 1

    for start in range(n + 1):
        match(0, start, start, 0)
    return found


def _instance(pattern: str, binding: dict) -> str:
    """The image of an encoded side: the one place an instance is formed."""
    return "".join([binding[b] for b in pattern])


def _is_mirror(lhs: str, rhs: str) -> bool:
    """Whether a bijection of the letters takes ``lhs`` to ``rhs`` and
    ``rhs`` to ``lhs``, as swapping x and y does in ``xyxy=yxyx``.

    Then each instance of ``rhs -> lhs`` under a substitution is the
    instance of ``lhs -> rhs`` under the substitution composed with the
    bijection, with the same result (a letter of one side only goes to a
    letter of the other side only, and both are bound to the empty word),
    so the two directions list the same words.
    """
    pi: dict = {}
    for x, y in zip(lhs + rhs, rhs + lhs):
        if pi.setdefault(x, y) != y:
            return False
    return len(lhs) == len(rhs) and len(set(pi.values())) == len(pi)


def _neighbors(word: str, sides, max_len: int):
    """The rewrites of ``word`` by each axiom, forward and then backward.

    The backward direction of a mirror axiom (``_is_mirror``) is skipped:
    its words are those of the forward direction, which the search has
    just recorded, so it would add none.
    """
    for idx, (lhs, rhs, mirror) in enumerate(sides):
        for new, pos, binding in rewrites(word, lhs, rhs, max_len):
            yield new, (idx, True, pos, binding)
        if mirror:
            continue
        for new, pos, binding in rewrites(word, rhs, lhs, max_len):
            yield new, (idx, False, pos, binding)


def derive_bounded(axioms, goal: Identity, max_len: int = 14,
                   max_steps: int = 100_000):
    """Search for a derivation of ``goal`` from ``axioms``.

    Returns a ``DerivationTrace`` or ``None`` when no chain was found within
    the word-length cap and the expansion budget.  The trivial goal yields an
    empty trace.  Every other trace is replayed by ``check_trace`` before
    it is returned, and one that fails raises ``AssertionError``; callers
    need not replay it again.
    """
    if max_len <= 0 or max_steps <= 0:
        raise ValueError("bounds must be positive")
    axioms = list(axioms)
    if goal.lhs == goal.rhs:
        return DerivationTrace(goal.lhs, goal.rhs, ())
    if max(len(goal.lhs), len(goal.rhs)) > max_len:
        return None
    code = Encoding([goal.lhs, goal.rhs]
                    + [w for ax in axioms for w in (ax.lhs, ax.rhs)])
    sides = []
    for ax in axioms:
        lhs, rhs = code.encode(ax.lhs), code.encode(ax.rhs)
        sides.append((lhs, rhs, _is_mirror(lhs, rhs)))
    start, end = code.encode(goal.lhs), code.encode(goal.rhs)
    # bidirectional BFS; parents record (previous word, move) per side
    fwd = {start: None}
    bwd = {end: None}
    fq, bq = deque([start]), deque([end])
    expansions = 0
    while fq and bq:
        if len(fq) <= len(bq):
            queue, this, other = fq, fwd, bwd
        else:
            queue, this, other = bq, bwd, fwd
        for _ in range(len(queue)):
            cur = queue.popleft()
            expansions += 1
            if expansions > max_steps:
                return None
            for new, move in _neighbors(cur, sides, max_len):
                if new in this:
                    continue
                this[new] = (cur, move)
                queue.append(new)
                if new in other:
                    return _trace_through(axioms, goal, code, fwd, bwd, new)
    return None


def _trace_through(axioms, goal: Identity, code: Encoding, fwd: dict,
                   bwd: dict, meet):
    """The derivation of ``goal`` along the forward search's path to
    ``meet`` and the backward search's path from it, decoded and checked."""

    def unwind(tree, node):
        chain = []
        while tree[node] is not None:
            prev, move = tree[node]
            chain.append((prev, node, move))
            node = prev
        chain.reverse()
        return chain

    def step(before, after, idx, forward, pos, binding):
        sub = sorted((code.base[b], code.decode(piece))
                     for b, piece in binding.items())
        return DerivationStep(code.decode(before), code.decode(after), idx,
                              forward, pos, tuple(sub))

    steps = [step(before, after, idx, forward, pos, binding)
             for before, after, (idx, forward, pos, binding)
             in unwind(fwd, meet)]
    # backward chain runs end -> meet; reverse it into meet -> end with each
    # move flipped; the prefix before the instance is unchanged by a step,
    # so the recorded offset still locates the flipped instance
    back = unwind(bwd, meet)
    steps += [step(after, before, idx, not forward, pos, binding)
              for before, after, (idx, forward, pos, binding)
              in reversed(back)]
    trace = DerivationTrace(goal.lhs, goal.rhs, tuple(steps))
    ok, msg = check_trace(axioms, trace, goal)
    if not ok:
        raise AssertionError(f"internal error: produced an invalid trace: {msg}")
    return trace


def check_trace(axioms, trace: DerivationTrace, goal: Identity):
    """Independent step-by-step validation of a derivation trace."""
    if trace.start != goal.lhs or trace.end != goal.rhs:
        return False, "endpoints do not match the goal"
    cur = trace.start
    for k, step in enumerate(trace.steps):
        if step.before != cur:
            return False, f"step {k} does not continue the chain"
        ax = axioms[step.axiom_index]
        src, dst = (ax.lhs, ax.rhs) if step.forward else (ax.rhs, ax.lhs)
        binding = dict(step.substitution)
        if set(binding) != {b for b, _ in src} | {b for b, _ in dst}:
            return False, f"step {k} binding does not cover the axiom letters"
        inst_src = _substitute(src, binding)
        inst_dst = _substitute(dst, binding)
        p = step.position
        if not 0 <= p <= len(step.before):
            return False, f"step {k} position {p} lies outside its word"
        if step.before[p:p + len(inst_src)] != inst_src:
            return False, f"step {k} source instance not found at its position"
        rebuilt = step.before[:p] + inst_dst + step.before[p + len(inst_src):]
        if rebuilt != step.after:
            return False, f"step {k} replacement does not produce the next word"
        cur = step.after
    if cur != trace.end:
        return False, "chain does not reach the goal"
    return True, "ok"
