"""Plain and marked words over a finite alphabet.

A word is a tuple of letters; a letter is a ``(base, plussed)`` pair where
``base`` is a string identifier and ``plussed`` marks the "repeated" variant
of the base (printed ``a+``).  The empty tuple is the empty word, printed
``1``.  Bases are ordinary interned Python strings, so letter equality and
hashing are cheap.
"""

from __future__ import annotations

from typing import Iterable, Tuple

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


def letter(base: str, plussed: bool = False) -> Letter:
    return (base, plussed)


def word(*letters: Letter) -> Word:
    return tuple(letters)


def is_plain(w: Word) -> bool:
    return all(not p for _, p in w)


def content(w: Word) -> frozenset:
    """Set of base symbols occurring in ``w`` (plain or plussed alike)."""
    return frozenset(b for b, _ in w)


def simple_and_multiple(w: Word) -> tuple:
    """Partition the content of a plain word by occurrence count.

    Letters occurring exactly once are simple, letters occurring at least
    twice are multiple.  Rejects marked words: the notion only makes sense
    before any rewriting.
    """
    if not is_plain(w):
        raise ValueError("simple/multiple partition is defined on plain words only")
    counts: dict = {}
    for b, _ in w:
        counts[b] = counts.get(b, 0) + 1
    simple = frozenset(b for b, c in counts.items() if c == 1)
    multiple = frozenset(b for b, c in counts.items() if c >= 2)
    return simple, multiple


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


def projection(w: Word, keep: Iterable[str]) -> Word:
    """The word obtained by deleting every letter whose base is not in ``keep``."""
    keep = frozenset(keep)
    return tuple(l for l in w if l[0] in keep)


def _parse_token(tok: str, offset: int) -> tuple:
    # BASE [+] [^k]; the base is everything before the first '+' or '^'
    i = 0
    while i < len(tok) and tok[i] not in "+^":
        i += 1
    base = tok[:i]
    if not base:
        raise WordSyntaxError(f"missing base symbol in token {tok!r}", offset)
    plussed = False
    if i < len(tok) and tok[i] == "+":
        plussed = True
        i += 1
    exp = 1
    if i < len(tok):
        if tok[i] != "^":
            raise WordSyntaxError(f"unexpected character {tok[i]!r}", offset + i)
        digits = tok[i + 1:]
        if not digits.isdigit():
            raise WordSyntaxError("malformed exponent", offset + i)
        exp = _exponent(digits, offset + i)
    return (base, plussed), exp


def _exponent(digits: str, position: int) -> int:
    """A nonzero exponent.  A digit run longer than the cap's own reads as
    one past the cap, so ``int`` never converts a huge digit string."""
    digits = digits.lstrip("0")
    if not digits:
        raise WordSyntaxError("zero exponent", position)
    if len(digits) > len(str(MAX_WORD_LENGTH)):
        return MAX_WORD_LENGTH + 1
    return int(digits)


def _extend(out: list, symbol: Letter, exp: int, position: int) -> None:
    if len(out) + exp > MAX_WORD_LENGTH:
        raise WordSyntaxError(
            f"word longer than {MAX_WORD_LENGTH} letters", position)
    out.extend([symbol] * exp)


def parse_word(text: str) -> Word:
    """Parse the text word format.

    Single-character bases may be written back to back (``bta+b+``), with an
    optional ``+`` suffix and an exponent written ``^k`` or, after a
    single-character base, as a bare digit run (``ab2a5ba3``).  Multi-character
    bases (``y1``) must be whitespace-separated, one token per letter.
    ``1`` on its own denotes the empty word.  Words longer than
    ``MAX_WORD_LENGTH`` are refused before they are built.
    """
    text = text.strip()
    if text == "1" or text == "":
        return EMPTY
    if any(c.isspace() for c in text):
        out: list = []
        offset = 0
        for tok in text.split():
            offset = text.find(tok, offset)
            _extend(out, *_parse_token(tok, offset), offset)
            offset += len(tok)
        return tuple(out)
    out = []
    i = 0
    while i < len(text):
        start = i
        c = text[i]
        if not c.isalpha():
            raise WordSyntaxError(f"unexpected character {c!r}", i)
        base = c
        i += 1
        plussed = False
        if i < len(text) and text[i] == "+":
            plussed = True
            i += 1
        exp = 1
        if i < len(text) and text[i] == "^":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise WordSyntaxError("malformed exponent", i)
            exp = _exponent(text[i + 1:j], i)
            i = j
        elif i < len(text) and text[i].isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            exp = _exponent(text[i:j], i)
            i = j
        _extend(out, (base, plussed), exp, start)
    return tuple(out)


def print_word(w: Word) -> str:
    """Inverse of parse_word: compact for single-character bases, else spaced."""
    if not w:
        return "1"
    if all(len(b) == 1 and b.isalpha() for b, _ in w):
        return "".join(b + ("+" if p else "") for b, p in w)
    return " ".join(b + ("+" if p else "") for b, p in w)
