"""Plain and marked words over a finite alphabet.

A word is a tuple of letters; a letter is a ``(base, plussed)`` pair where
``base`` is a string identifier and ``plussed`` marks the "repeated" variant
of the base (printed ``a+``).  The empty tuple is the empty word, printed
``1``.  Bases are ordinary interned Python strings, so letter equality and
hashing are cheap.
"""

from __future__ import annotations

from typing import Tuple

Letter = Tuple[str, bool]
Word = Tuple[Letter, ...]

EMPTY: Word = ()

# parse_word refuses longer words before building them, so that an exponent
# like x^99999999999 is an error rather than an allocation; the paper's
# corpus needs at most 16 letters
MAX_WORD_LENGTH = 10_000


class WordSyntaxError(ValueError):
    """Raised by parse_word on malformed input; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    def shifted(self, offset: int) -> "WordSyntaxError":
        """The same error, for text that starts ``offset`` characters later."""
        return WordSyntaxError(self.message, self.position + offset)


def is_plain(w: Word) -> bool:
    return all(not p for _, p in w)


def content(w: Word) -> frozenset:
    """Set of base symbols occurring in ``w`` (plain or plussed alike)."""
    return frozenset(b for b, _ in w)


def islands(w: Word, base: str) -> int:
    """Number of maximal runs of ``base`` in ``w``.

    Plain and plussed occurrences of the same base belong to the same run,
    so ``a a+`` is a single island.
    """
    count = 0
    inside = False
    for b, _ in w:
        if b == base:
            if not inside:
                count += 1
                inside = True
        else:
            inside = False
    return count


def is_two_island_limited(w: Word) -> bool:
    return all(islands(w, b) <= 2 for b in content(w))


def _letter(text: str, i: int, end: int, spaced: bool) -> tuple:
    """The letter that starts at ``text[i]``: its symbol, its exponent and
    the index after it, reading no further than ``end``.

    BASE [+] [^k].  A base starts with a letter.  In the spaced format,
    where ``end`` is the end of the token, the base runs to the token's
    next ``+`` or ``^`` and the exponent to ``end``.  In the compact format
    the base is one character and the exponent may be a bare digit run.
    """
    if not text[i].isalpha():
        raise WordSyntaxError(f"unexpected character {text[i]!r}", i)
    j = i + 1
    if spaced:
        while j < end and text[j] not in "+^":
            j += 1
    if j < end and text[j] == "+":
        symbol = (text[i:j], True)
        j += 1
    else:
        symbol = (text[i:j], False)
    if j == end:
        return symbol, 1, j
    c = text[j]
    if c == "^":
        k = j + 1
    elif spaced:
        raise WordSyntaxError(f"unexpected character {c!r}", j)
    elif c.isdigit():
        k = j
    else:
        return symbol, 1, j
    stop = k
    while stop < end and text[stop].isdigit():
        stop += 1
    if stop == k or spaced and stop < end:
        raise WordSyntaxError("malformed exponent", j)
    return symbol, _exponent(text[k:stop], j), stop


def _exponent(digits: str, position: int) -> int:
    """A nonzero exponent.  A digit run longer than the cap's own reads as
    one past the cap, so ``int`` never converts a huge digit string."""
    digits = digits.lstrip("0")
    if not digits:
        raise WordSyntaxError("zero exponent", position)
    if len(digits) > len(str(MAX_WORD_LENGTH)):
        return MAX_WORD_LENGTH + 1
    return int(digits)


def parse_word(text: str) -> Word:
    """Parse the text word format.

    Single-character bases may be written back to back (``bta+b+``), with an
    optional ``+`` suffix and an exponent written ``^k`` or, after a
    single-character base, as a bare digit run (``ab2a5ba3``).  Multi-character
    bases (``y1``) must be whitespace-separated, one token per letter; a
    lone letter with a longer base is written after a ``1`` (``1 y1``),
    since ``y1`` alone is the compact ``y``.  A base starts with a letter in
    either format.
    ``1`` on its own denotes the empty word.  Words longer than
    ``MAX_WORD_LENGTH`` are refused before they are built.
    """
    text = text.strip()
    if text == "1" or text == "":
        return EMPTY
    # the token spans: a spaced word has one letter a token, and a compact
    # word is one token, read letter by letter
    spans = []
    end = 0
    for token in text.split():
        start = text.find(token, end)
        end = start + len(token)
        spans.append((start, end))
    spaced = len(spans) > 1
    lone = len(spans) == 2 and text[:spans[0][1]] == "1"
    out: list = []
    for i, end in spans[1:] if lone else spans:
        while i < end:
            symbol, exp, j = _letter(text, i, end, spaced)
            if len(out) + exp > MAX_WORD_LENGTH:
                raise WordSyntaxError(
                    f"word longer than {MAX_WORD_LENGTH} letters", i)
            out += [symbol] * exp
            i = j
    if lone and len(out[0][0]) == 1:
        raise WordSyntaxError("unexpected character '1'", 0)
    return tuple(out)


def print_word(w: Word) -> str:
    """Inverse of parse_word: compact for single-character bases, else
    spaced, with a lone letter written ``1 y1``."""
    if not w:
        return "1"
    tokens = [b + ("+" if p else "") for b, p in w]
    if all(len(b) == 1 and b.isalpha() for b, _ in w):
        return "".join(tokens)
    if len(w) == 1:
        tokens.insert(0, "1")
    return " ".join(tokens)
