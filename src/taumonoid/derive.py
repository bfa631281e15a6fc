"""Bounded equational derivation with checkable traces.

A step rewrites a word by one axiom: the word is split as ``p + I + q`` where
``I`` is the image of one axiom side under a substitution sending letters to
arbitrary plain words (the empty word included, so erasing a letter is just
substituting the empty word), and ``I`` is replaced by the image of the other
side.  ``derive_bounded`` searches for a chain from one side of the goal to
the other by bidirectional breadth-first search over words up to a length
cap; a returned trace is replayed step by step by an independent checker.
Absence of a trace within the bounds never claims underivability.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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


def _match_pattern(pattern: Word, word: Word, start: int):
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


def _substitute(pattern: Word, binding: dict) -> Word:
    out: list = []
    for b, _ in pattern:
        out.extend(binding[b])
    return tuple(out)


def rewrites(word: Word, src: Word, dst: Word, max_len: int):
    """All one-step rewrites of ``word`` replacing an instance of src by dst.

    Letters occurring only in ``dst`` are bound to the empty word; the search
    is bounded anyway, and a binding introducing fresh material would blow up
    the branching without being needed for erasure-style derivations.
    """
    seen = set()
    dst_only = [b for b in {b for b, _ in dst} if b not in {b for b, _ in src}]
    for start in range(len(word) + 1):
        for binding, end in _match_pattern(src, word, start):
            for b in dst_only:
                binding[b] = ()
            replacement = _substitute(dst, binding)
            new = word[:start] + replacement + word[end:]
            if len(new) > max_len or new == word or new in seen:
                continue
            seen.add(new)
            yield new, start, binding


def _neighbors(word: Word, axioms, max_len: int):
    for idx, ax in enumerate(axioms):
        for new, pos, binding in rewrites(word, ax.lhs, ax.rhs, max_len):
            yield new, (idx, True, pos, binding)
        for new, pos, binding in rewrites(word, ax.rhs, ax.lhs, max_len):
            yield new, (idx, False, pos, binding)


def derive_bounded(axioms, goal: Identity, max_len: int = 14,
                   max_steps: int = 100_000):
    """Search for a derivation of ``goal`` from ``axioms``.

    Returns a ``DerivationTrace`` or ``None`` when no chain was found within
    the word-length cap and the expansion budget.  The trivial goal yields an
    empty trace.
    """
    if max_len <= 0 or max_steps <= 0:
        raise ValueError("bounds must be positive")
    axioms = list(axioms)
    start, end = goal.lhs, goal.rhs
    if start == end:
        return DerivationTrace(start, end, ())
    if max(len(start), len(end)) > max_len:
        return None
    # bidirectional BFS; parents record (previous word, move) per side
    fwd = {start: None}
    bwd = {end: None}
    fq, bq = deque([start]), deque([end])
    expansions = 0
    meet = None
    while fq and bq and meet is None:
        if len(fq) <= len(bq):
            queue, this, other = fq, fwd, bwd
        else:
            queue, this, other = bq, bwd, fwd
        for _ in range(len(queue)):
            cur = queue.popleft()
            expansions += 1
            if expansions > max_steps:
                return None
            for new, move in _neighbors(cur, axioms, max_len):
                if new in this:
                    continue
                this[new] = (cur, move)
                queue.append(new)
                if new in other:
                    meet = new
                    break
            if meet is not None:
                break
        if meet is None and not queue:
            return None
    if meet is None:
        return None

    def unwind(tree, node):
        chain = []
        while tree[node] is not None:
            prev, move = tree[node]
            chain.append((prev, node, move))
            node = prev
        chain.reverse()
        return chain

    steps = []
    for before, after, (idx, forward, pos, binding) in unwind(fwd, meet):
        steps.append(DerivationStep(
            before, after, idx, forward, pos,
            tuple(sorted(binding.items()))))
    # backward chain runs end -> meet; reverse it into meet -> end with each
    # move flipped; the prefix before the instance is unchanged by a step,
    # so the recorded offset still locates the flipped instance
    back = unwind(bwd, meet)
    for before, after, (idx, forward, pos, binding) in reversed(back):
        steps.append(DerivationStep(
            after, before, idx, not forward, pos,
            tuple(sorted(binding.items()))))
    trace = DerivationTrace(start, end, tuple(steps))
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
        if step.before[p:p + len(inst_src)] != inst_src:
            return False, f"step {k} source instance not found at its position"
        rebuilt = step.before[:p] + inst_dst + step.before[p + len(inst_src):]
        if rebuilt != step.after:
            return False, f"step {k} replacement does not produce the next word"
        cur = step.after
    if cur != trace.end:
        return False, "chain does not reach the goal"
    return True, "ok"
