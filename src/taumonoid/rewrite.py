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

``canonical`` reads a word once, left to right, and marks a letter whose
base is markable: under ``tau1`` every base, under ``gamma`` one occurring
twice (a plussed letter is written marked anyway), under ``lambda`` one
already read.  Reversal swaps ``lambda`` and ``rho`` and permutes the merge
rules, so ``rho`` is computed as the mirror of ``lambda``.  The independent
oracle is the rule-by-rule reducer in ``tests/oracles.py``: it keeps a
``rho`` rule of its own, and the property suite compares the two on
exhaustively enumerated small words.

``append_letter`` is the product of a canonical word by one plain letter,
which is all the right Cayley graph and the prefix automaton of
``construct`` need.  It reads only the end of the word and the letters of
the new base, since at most one earlier letter changes, and is tested
against ``canonical`` of the concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word, is_plain, print_word

CONGRUENCES = ("trivial", "tau1", "gamma", "lambda", "rho")


def _check_tau(tau: str) -> None:
    if tau not in CONGRUENCES:
        raise ValueError(f"unknown congruence {tau!r}; choose from "
                         + ", ".join(CONGRUENCES))


def canonical(w: Word, tau: str) -> Word:
    """The unique irreducible word of the class of ``w`` under ``tau``.

    For the trivial congruence the word is returned unchanged; marked input
    is rejected there since plussed letters have no meaning without rules.
    """
    if tau == "rho":
        return _left_to_right(w[::-1], "lambda")[::-1]
    return _left_to_right(w, tau)


def _left_to_right(w: Word, tau: str) -> Word:
    """``canonical`` for every congruence but ``rho``.

    A letter of the same base as the last one written merges into it, and
    any other is written marked when it is plussed or its base is in
    ``marks``.  Adding each written base to ``marks`` gives ``lambda`` its
    left context; under ``tau1`` every base is in already, and under
    ``gamma`` a base left out occurs only once.
    """
    if tau == "lambda":
        marks = set()
    elif tau == "tau1":
        marks = {b for b, _ in w}
    elif tau == "gamma":
        seen, marks = set(), set()
        for b, _ in w:
            if b in seen:
                marks.add(b)
            seen.add(b)
    else:
        _check_tau(tau)
        if not is_plain(w):
            raise ValueError("trivial congruence is defined on plain words only")
        return w
    out: list = []
    last = None
    for b, p in w:
        if b == last:
            out[-1] = (b, True)
        else:
            out.append((b, p or b in marks))
            marks.add(b)
            last = b
    return tuple(out)


@dataclass(frozen=True)
class TauWord:
    """A canonical representative of a congruence class.

    The wrapped word must already be irreducible; use ``TauWord.make`` to
    canonicalize arbitrary input.
    """

    word: Word
    tau: str

    def __post_init__(self):
        if canonical(self.word, self.tau) != self.word:
            raise ValueError(
                f"{print_word(self.word)!r} is not canonical under {self.tau}")

    @classmethod
    def make(cls, w: Word, tau: str) -> "TauWord":
        return cls.of_canonical(canonical(w, tau), tau)

    @classmethod
    def of_canonical(cls, w: Word, tau: str) -> "TauWord":
        """Wrap ``w`` without checking it: the caller knows it is canonical."""
        tw = object.__new__(cls)
        object.__setattr__(tw, "word", w)
        object.__setattr__(tw, "tau", tau)
        return tw

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
    return TauWord.of_canonical(canonical(u.word + v.word, u.tau), u.tau)


def append_letter(w: Word, b: str, tau: str) -> Word:
    """``canonical(w + ((b, False),), tau)`` for a canonical ``w``, read off
    the end of ``w`` and the two letters of base ``b`` (the product of ``w``
    by one plain letter; the right Cayley graph needs nothing more).

    A last letter of base ``b`` absorbs the new one and is plussed.
    Otherwise at most one earlier letter changes: under ``gamma`` and
    ``rho`` a plain ``b`` of ``w`` (under ``gamma`` the only ``b``, under
    ``rho`` the last one) is marked, as ``b`` now occurs twice, or again to
    its right.  The new letter is marked under ``tau1``, under ``lambda``
    when ``b`` is in ``w`` and under ``gamma`` when a ``b+`` is in ``w`` or
    was just marked.  Under ``trivial`` it is appended as it is.
    """
    if tau == "trivial":
        return w + ((b, False),)
    if tau not in CONGRUENCES:
        _check_tau(tau)
    if w and w[-1][0] == b:
        return w if w[-1][1] else w[:-1] + ((b, True),)
    if tau == "tau1":
        return w + ((b, True),)
    plain, plussed = (b, False), (b, True)
    if tau == "lambda":
        return w + ((b, plain in w or plussed in w),)
    if tau == "gamma" and plussed in w:
        return w + (plussed,)
    if plain not in w:
        return w + (plain,)
    i = w.index(plain)
    marked = w[:i] + (plussed,) + w[i + 1:]
    return marked + ((plussed,) if tau == "gamma" else (plain,))


def tau_equal(u: Word, v: Word, tau: str) -> bool:
    """Whether two plain words lie in the same congruence class."""
    if not (is_plain(u) and is_plain(v)):
        raise ValueError("tau_equal compares plain words")
    return canonical(u, tau) == canonical(v, tau)
