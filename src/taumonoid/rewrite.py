"""The marked-word rewriting systems and their canonical forms.

Five congruences are supported, named ``trivial``, ``tau1``, ``gamma``,
``lambda`` and ``rho``.  For the four nontrivial ones a class of plain words
is represented by the unique marked word to which no rewriting rule applies:

* ``mark`` turns a plain occurrence of ``a`` into ``a+``.  For ``tau1`` it is
  unconditional; for ``gamma`` it requires ``a`` to occur at least twice or
  ``a+`` to occur somewhere; for ``lambda`` it requires an ``a`` or ``a+``
  strictly to the left of the occurrence; for ``rho`` strictly to the right.
* three merge rules collapse the adjacent pairs ``a+a+``, ``aa+`` and ``a+a``
  to ``a+``.

``canonical`` applies the rules with a deterministic strategy (single linear
pass); order independence is covered by the property suite, which compares it
against the rule-by-rule reducer below on exhaustively enumerated small words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .words import Word, content, is_plain, print_word

CONGRUENCES = ("trivial", "tau1", "gamma", "lambda", "rho")

# rule identifiers, in listing order
RULE_MARK = "mark"
RULE_PP = "plus-plus"
RULE_NP = "plain-plus"
RULE_PN = "plus-plain"


def _check_tau(tau: str) -> None:
    if tau not in CONGRUENCES:
        raise ValueError(f"unknown congruence {tau!r}")


def canonical(w: Word, tau: str) -> Word:
    """The unique irreducible word of the class of ``w`` under ``tau``.

    For the trivial congruence the word is returned unchanged; marked input
    is rejected there since plussed letters have no meaning without rules.
    """
    _check_tau(tau)
    if tau == "trivial":
        if not is_plain(w):
            raise ValueError("trivial congruence is defined on plain words only")
        return w
    if tau == "gamma":
        plain_counts: dict = {}
        plussed = set()
        for b, p in w:
            if p:
                plussed.add(b)
            else:
                plain_counts[b] = plain_counts.get(b, 0) + 1
        markable = plussed | {b for b, c in plain_counts.items() if c >= 2}
    out: list = []
    if tau == "rho":
        ahead: dict = {}
        for b, _ in w:
            ahead[b] = ahead.get(b, 0) + 1
        for b, p in w:
            ahead[b] -= 1
            newp = p or ahead[b] > 0
            if out and out[-1][0] == b:
                out[-1] = (b, True)
            else:
                out.append((b, newp))
        return tuple(out)
    seen = set()
    for b, p in w:
        if tau == "tau1":
            newp = True
        elif tau == "gamma":
            newp = p or b in markable
        else:  # lambda
            newp = p or b in seen
        seen.add(b)
        if out and out[-1][0] == b:
            out[-1] = (b, True)
        else:
            out.append((b, newp))
    return tuple(out)


def applicable_rules(w: Word, tau: str) -> list:
    """All ``(rule id, position)`` pairs applicable to ``w``.

    Positions are 0-based letter indices; for merge rules the position is the
    left letter of the pair.  Results come position-first, then in rule
    listing order, which is also the deterministic application order used by
    the step-by-step reducer.
    """
    _check_tau(tau)
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
    """Reference reducer: repeatedly apply the first applicable rule."""
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


@dataclass(frozen=True)
class TauWord:
    """A canonical representative of a congruence class.

    The wrapped word must already be irreducible; use ``TauWord.make`` to
    canonicalize arbitrary input.
    """

    word: Word
    tau: str

    def __post_init__(self):
        _check_tau(self.tau)
        if canonical(self.word, self.tau) != self.word:
            raise ValueError(
                f"{print_word(self.word)!r} is not canonical under {self.tau}")

    @staticmethod
    def make(w: Word, tau: str) -> "TauWord":
        return TauWord(canonical(w, tau), tau)

    def __str__(self) -> str:
        return print_word(self.word)

    def __len__(self) -> int:
        return len(self.word)


@dataclass(frozen=True)
class TauWordSet:
    """A finite set of canonical words sharing one congruence."""

    tau: str
    words: tuple

    def __init__(self, tau: str, words):
        ws = []
        for w in words:
            tw = w if isinstance(w, TauWord) else TauWord.make(w, tau)
            if tw.tau != tau:
                raise ValueError("mixed congruences in word set")
            ws.append(tw.word)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "words", tuple(sorted(set(ws))))


def compose(u: TauWord, v: TauWord) -> TauWord:
    """``u  v`` followed by canonicalization (the product of tau-words)."""
    if u.tau != v.tau:
        raise ValueError(f"mismatched congruences: {u.tau} vs {v.tau}")
    return TauWord(canonical(u.word + v.word, u.tau), u.tau)


def compose_words(u: Word, v: Word, tau: str) -> Word:
    """Product of two canonical words.  Under ``trivial`` canonical words are
    plain, so their concatenation needs no rewriting and no plainness check.
    """
    return u + v if tau == "trivial" else canonical(u + v, tau)


def tau_equal(u: Word, v: Word, tau: str) -> bool:
    """Whether two plain words lie in the same congruence class."""
    if not (is_plain(u) and is_plain(v)):
        raise ValueError("tau_equal compares plain words")
    return canonical(u, tau) == canonical(v, tau)


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
