"""Named monoids used throughout the claim corpus.

Four semigroup presentations (A, E, A0, S) with their adjoined-identity
monoids, the quotient monoids from the subvariety-lattice figure, and the
generators of the previously known limit varieties.  Everything is built on
demand and cached; the presentation closures are verified against the
element lists they are supposed to produce by the corpus, not here.
"""

from __future__ import annotations

from functools import lru_cache

from .construct import build_monoid
from .monoid import (FiniteMonoid, Presentation, Semigroup, adjoin_identity,
                     dual, from_presentation)
from .rewrite import TauWordSet
from .words import WordSyntaxError, parse_word

PRESENTATIONS = {
    # a2=a, b2=b, ab=ca=0, ac=cb=c
    "A": Presentation(("a", "b", "c"),
                      (("aa", "a"), ("bb", "b"), ("ac", "c"), ("cb", "c")),
                      ("ab", "ca")),
    # a2=ab=0, ba=ca=a, b2=bc=b, c2=cb=c
    "E": Presentation(("a", "b", "c"),
                      (("ba", "a"), ("ca", "a"), ("bb", "b"), ("bc", "b"),
                       ("cc", "c"), ("cb", "c")),
                      ("aa", "ab")),
    # e2=e, f2=f, fe=0
    "A0": Presentation(("e", "f"),
                       (("ee", "e"), ("ff", "f")),
                       ("fe",)),
    # a2=a, b2=b3, abc=ac=ba=b2c=0, bcb2=bcb, ca=c
    "S": Presentation(("a", "b", "c"),
                      (("aa", "a"), ("bbb", "bb"), ("bcbb", "bcb"),
                       ("ca", "c")),
                      ("abc", "ac", "ba", "bbc")),
}


@lru_cache(maxsize=None)
def semigroup(name: str) -> Semigroup:
    return from_presentation(PRESENTATIONS[name])


@lru_cache(maxsize=None)
def monoid_with_identity(name: str) -> FiniteMonoid:
    return adjoin_identity(semigroup(name))


@lru_cache(maxsize=None)
def mtau(tau: str, words: str) -> FiniteMonoid:
    """Quotient monoid of comma-separated word text under ``tau``.

    Empty text is the empty word set; an empty field between commas is an
    error (the empty word is written ``1``).  A malformed word raises
    ``WordSyntaxError`` with its position in ``words``.
    """
    fields = words.split(",") if words.strip() else []
    if not all(w.strip() for w in fields):
        raise ValueError(f"empty word in {words!r}; write the empty word as 1")
    parsed, start = [], 0
    for field in fields:
        try:
            parsed.append(parse_word(field))
        except WordSyntaxError as e:
            raise e.shifted(start + len(field) - len(field.lstrip())) from None
        start += len(field) + 1
    return build_monoid(TauWordSet(tau, parsed))


# the named monoids of the expression language, each built on demand
NAMED_MONOIDS = {
    "A1": lambda: monoid_with_identity("A"),
    "dualA1": lambda: dual(monoid_with_identity("A")),
    "E1": lambda: monoid_with_identity("E"),
    "A01": lambda: monoid_with_identity("A0"),
    "S1": lambda: monoid_with_identity("S"),
}


def named_monoid(name: str) -> FiniteMonoid:
    return NAMED_MONOIDS[name]()


# the subvariety-lattice figure: generator of each node, bottom to top
FIG_LATTICE = [
    ("M()", "trivial", ""),
    ("M(1)", "trivial", "1"),
    ("M(x)", "trivial", "x"),
    ("M(xy)", "trivial", "xy"),
    ("Mg(ta+)", "gamma", "ta+"),
    ("Mg(a+t)", "gamma", "a+t"),
    ("Ml(ata+)", "lambda", "ata+"),
    ("Mg(a+ta+)", "gamma", "a+ta+"),
    ("Ml(a+ta+)", "lambda", "a+ta+"),
    ("A01=Mt1(a+b+)", "tau1", "a+b+"),
    ("N=Ml(a+btb+)", "lambda", "a+btb+"),
    ("Ml(ata+b+)", "lambda", "ata+b+"),
    ("K=Ml(bta+b+)", "lambda", "bta+b+"),
]

# covering edges of the figure, annotated with a separating identity where
# the source text names one (satisfied below the edge, violated above)
FIG_EDGES = [
    ("M()", "M(1)", ""),
    ("M(1)", "M(x)", ""),
    ("M(x)", "M(xy)", ""),
    ("M(xy)", "Mg(ta+)", ""),
    ("M(xy)", "Mg(a+t)", "xtxs=xtxsx"),
    ("Mg(ta+)", "Ml(ata+)", "xtx=xxtx"),
    ("Mg(ta+)", "Mg(a+ta+)", ""),
    ("Mg(a+t)", "Mg(a+ta+)", ""),
    ("Mg(a+ta+)", "A01=Mt1(a+b+)", ""),
    ("Mg(a+ta+)", "Ml(a+ta+)", ""),
    ("Ml(ata+)", "Ml(a+ta+)", ""),
    ("Ml(a+ta+)", "N=Ml(a+btb+)", "xxyty=xyxty"),
    ("N=Ml(a+btb+)", "Ml(ata+b+)", ""),
    ("A01=Mt1(a+b+)", "Ml(ata+b+)", ""),
    ("Ml(ata+b+)", "K=Ml(bta+b+)", "xtysxy=xtysyx"),
]


def lattice_dot() -> str:
    """DOT rendering of the lattice figure with computed monoid sizes."""
    sizes = {name: mtau(tau, words).size for name, tau, words in FIG_LATTICE}
    lines = ["digraph subvariety_lattice {", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    for name, _, _ in FIG_LATTICE:
        lines.append(f'  "{name}" [label="{name}\\n{sizes[name]} elements"];')
    for low, high, ident in FIG_EDGES:
        attr = f' [label="{ident}"]' if ident else ""
        lines.append(f'  "{low}" -> "{high}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# generators of the previously known limit varieties, for the J-triviality
# and aperiodicity sweep
EXTRA_GENERATORS = [
    ("Mg(a+b+ta+,a+tb+a+)", "gamma", "a+b+ta+,a+tb+a+"),
    ("J=Ml(atba+sb+)", "lambda", "atba+sb+"),
    ("Jbar=Mr(a+tb+asb)", "rho", "a+tb+asb"),
    ("L=M(atbasb)", "trivial", "atbasb"),
    ("Mvar=M(abtasb,atbsab)", "trivial", "abtasb,atbsab"),
]


def corpus_monoids() -> dict:
    """Every monoid exercised by the J-triviality/aperiodicity sweep."""
    out = {name: mtau(tau, words)
           for name, tau, words in FIG_LATTICE + EXTRA_GENERATORS}
    for name in NAMED_MONOIDS:
        out[name] = named_monoid(name)
    return out
