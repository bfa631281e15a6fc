"""Declarative claim corpus and its verification runner.

A corpus is a text file with one claim per line::

    id | kind | inputs | expected | provenance | source_loc

``#`` starts a comment.  The inputs are cut at each ``;`` outside brackets,
and may end in ``key=value`` options.  Monoids are written in the grammar
``expr := NAME | M[tau](words) | dual(expr) | prod(expr, expr) |
sub(expr; label, ...)`` with ``NAME`` a key of ``catalog.NAMED_MONOIDS``;
a label may contain bracketed commas.  Errors give their position in the
whole expression.  The runner executes every claim, never aborts on a
failing one, and renders one stable tab-separated line per claim.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import catalog
from .derive import derive_bounded
from .freeobj import BudgetExceededError, is_isoterm, is_tau_term
from .identities import parse_identity, satisfies
from .monoid import (FiniteMonoid, direct_product, dual, find_isomorphism,
                     idempotents_commute, is_aperiodic, is_j_trivial,
                     submonoid)
from .rewrite import TauWord
from .words import (WordSyntaxError, is_two_island_limited, parse_word,
                    print_word)


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str
    inputs: str
    expected: str
    provenance: str
    source_loc: str

    @property
    def slow(self) -> bool:
        return "slow" in self.provenance.split(",")


@dataclass
class ClaimResult:
    claim: Claim
    verdict: str          # "pass" | "fail" | "skipped"
    actual: str
    millis: int

    def line(self) -> str:
        return "\t".join([self.claim.id, self.verdict, self.actual,
                          self.claim.expected, self.claim.source_loc,
                          str(self.millis)])


@dataclass
class ClaimReport:
    results: list
    corpus_hash: str

    @property
    def all_passed(self) -> bool:
        # skipped claims were not executed and do not fail the run
        return all(r.verdict != "fail" for r in self.results)

    def lines(self) -> list:
        return [r.line() for r in self.results]

    def summary(self) -> str:
        counts = Counter(r.verdict for r in self.results)
        return (f"{counts['pass']} passed, {counts['fail']} failed, "
                f"{counts['skipped']} skipped (corpus {self.corpus_hash[:12]})")


def parse_corpus(text: str) -> list:
    claims = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 6:
            raise ValueError(f"line {lineno}: a claim has 6 '|'-separated fields")
        claim = Claim(*parts)
        if claim.kind not in KINDS:
            raise ValueError(f"line {lineno}: unknown claim kind {claim.kind!r}")
        claims.append(claim)
    ids = [c.id for c in claims]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate claim ids in corpus")
    return claims


# -- monoid expression language ---------------------------------------------

def parse_monoid_expr(text: str) -> FiniteMonoid:
    """The monoid that an expression of the grammar above denotes."""
    return _monoid(text, *_trim(text, 0, len(text)))


def _monoid(text: str, i: int, j: int) -> FiniteMonoid:
    """The monoid written in ``text[i:j]``, a span without outer spaces."""
    k = text.find("(", i, j)
    if k < 0:
        if text[i:j] not in catalog.NAMED_MONOIDS:
            raise WordSyntaxError(f"expected a monoid, got {text[i:j]!r}", i)
        return catalog.named_monoid(text[i:j])
    head = text[i:k].rstrip()
    args, end = _split(text, k + 1, {"prod": ",", "sub": ";"}.get(head, ""), ")")
    if end < j:
        raise WordSyntaxError(f"unexpected {text[end:j].strip()!r}", end)
    if head.startswith("M[") and head.endswith("]"):
        try:
            return catalog.mtau(head[2:-1], text[slice(*args[0])])
        except WordSyntaxError as e:
            raise e.shifted(args[0][0]) from None
    if head == "dual":
        return dual(_monoid(text, *args[0]))
    if head == "prod":
        if len(args) != 2:
            raise WordSyntaxError(f"prod takes two monoids, got {len(args)}", i)
        return direct_product(*(_monoid(text, *arg) for arg in args))
    if head == "sub":
        if len(args) != 2:
            raise WordSyntaxError("sub takes a monoid, ';' and labels", i)
        m = _monoid(text, *args[0])
        labels, _ = _split(text, args[1][0], ",", ")")
        return submonoid(m, [_element(m, text, *label) for label in labels])[0]
    raise WordSyntaxError(f"expected a monoid, got {text[i:j]!r}", i)


def _element(m: FiniteMonoid, text: str, i: int, j: int) -> int:
    if text[i:j] not in m.labels:
        raise WordSyntaxError(f"no element labelled {text[i:j]!r}", i)
    return m.labels.index(text[i:j])


def _split(text: str, i: int, seps: str, close: str = "") -> tuple:
    """Cut ``text`` from ``i`` at the ``seps`` outside brackets, up to the
    bracket ``close`` or the end, where brackets must match; return each
    field's trimmed ``(start, stop)`` span and the index after ``close``."""
    spans, start, opened = [], i, []
    for k, c in enumerate(text[i:], i):
        if c in "([":
            opened.append(k)
        elif c in ")]":
            if opened and text[opened[-1]] + c in ("()", "[]"):
                opened.pop()
            elif opened or c != close:
                raise WordSyntaxError(f"unbalanced {c!r}", k)
            else:
                return spans + [_trim(text, start, k)], k + 1
        elif c in seps and not opened:
            spans.append(_trim(text, start, k))
            start = k + 1
    if close or opened:
        raise WordSyntaxError("unclosed bracket", opened[0] if opened else i - 1)
    return spans + [_trim(text, start, len(text))], len(text)


def _trim(text: str, i: int, j: int) -> tuple:
    field = text[i:j]
    i += len(field) - len(field.lstrip())
    return i, i + len(field.strip())


# -- claims -------------------------------------------------------------------

def _axioms(text: str) -> list:
    return [parse_identity(a) for a in text.split("&")]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _satisfaction(m, ident) -> str:
    res = satisfies(m, ident)
    if res.holds:
        return "holds"
    wit = ",".join(f"{b}={m.labels[e]}"
                   for b, e in sorted(res.witness.items()))
    # soundness: re-evaluate the reported witness on the table
    lv = m.evaluate(ident.lhs, res.witness)
    rv = m.evaluate(ident.rhs, res.witness)
    if lv == rv:
        return "unsound-witness"
    return f"violated@{wit}->{m.labels[lv]},{m.labels[rv]}"


def _stated_violation(actual, expected, m, ident) -> bool:
    """Whether ``actual`` is a violation and, when ``expected`` states one
    as ``substitution->lhs,rhs``, that substitution gives those values."""
    if not actual.startswith("violated@"):
        return False
    if expected in ("yes", ""):
        return True
    want_sub, want_vals = expected.split("->")
    assignment = {}
    for i, j in _split(want_sub, 0, ",")[0]:
        var, lab = want_sub[i:j].split("=")
        assignment[var.strip()] = m.labels.index(lab.strip())
    lv = m.evaluate(ident.lhs, assignment)
    rv = m.evaluate(ident.rhs, assignment)
    lw, rw = [want_vals[i:j] for i, j in _split(want_vals, 0, ",")[0]]
    return m.labels[lv] == lw and m.labels[rv] == rw


def _same_labels(actual, expected, *inputs) -> bool:
    return sorted(actual.split(",")) == sorted(
        lab.strip() for lab in expected.split(","))


def _tau_term(tau, m, w) -> str:
    verdict = is_tau_term(m, TauWord.make(w, tau))
    if verdict.fails:
        member, off = verdict.witness
        return f"fails@{print_word(member)}~{print_word(off)}"
    return verdict.status


def _derivation(goal, axioms, **opts) -> str:
    trace = derive_bounded(axioms, goal, **opts)
    if trace is None:
        return "not-found-within-bounds"
    return f"derived-in-{len(trace)}-steps"


class _Kind(NamedTuple):
    """A claim kind.  Its question reads the library through this module's
    globals when it runs, so a function rebound here is the one called."""
    readers: tuple        # one reader per leading input
    options: dict         # option name -> type
    question: Callable    # (*inputs, **options) -> actual
    matches: Callable = lambda actual, expected, *inputs: actual == expected


# the readers of a monoid, an identity and a word
_M, _ID, _W = parse_monoid_expr, parse_identity, parse_word
_KINDS = {
    "monoid-size": _Kind((_M,), {}, lambda m: str(m.size)),
    "element-set": _Kind((_M,), {}, lambda m: ",".join(sorted(m.labels)),
                         _same_labels),
    "satisfies": _Kind((_M, _ID), {}, _satisfaction,
                       lambda actual, *_: actual == "holds"),
    "violates": _Kind((_M, _ID), {}, _satisfaction, _stated_violation),
    "isomorphic": _Kind((_M, _M), {}, lambda m, n: _yesno(
        find_isomorphism(m, n) is not None)),
    "j-trivial": _Kind((_M,), {}, lambda m: _yesno(is_j_trivial(m)[0])),
    "aperiodic": _Kind((_M,), {}, lambda m: _yesno(is_aperiodic(m))),
    "idempotents-commute": _Kind((_M,), {}, lambda m: _yesno(
        idempotents_commute(m)[0])),
    "tau-term": _Kind((str, _M, _W), {}, _tau_term),
    "not-tau-term": _Kind((str, _M, _W), {}, _tau_term,
                          lambda actual, *_: actual.startswith("fails")),
    "isoterm": _Kind((_M, _W), {}, lambda m, w: _yesno(
        is_isoterm(m, w).is_isoterm)),
    "derivable": _Kind((_ID, _axioms), {"max_len": int, "max_steps": int},
                       _derivation,
                       lambda actual, *_: actual.startswith("derived-in-")),
    "two-island-limited": _Kind((_W,), {}, lambda w: _yesno(
        is_two_island_limited(w))),
}
KINDS = tuple(_KINDS)


def _inputs(claim: Claim) -> tuple:
    """The claim's inputs, each read once, and its ``key=value`` options."""
    readers, accepted, *_ = _KINDS[claim.kind]
    parts = [claim.inputs[a:b] for a, b in _split(claim.inputs, 0, ";")[0]]
    if len(parts) < len(readers):
        raise ValueError(f"{claim.kind} takes {len(readers)} inputs")
    opts = {}
    for part in parts[len(readers):]:
        key, eq, value = (s.strip() for s in part.partition("="))
        if not eq or key not in accepted:
            raise ValueError(f"{claim.kind} takes no option {part!r}")
        opts[key] = accepted[key](value)
    return [read(p) for read, p in zip(readers, parts)], opts


def run_claim(claim: Claim) -> ClaimResult:
    t0 = time.perf_counter()
    try:
        args, opts = _inputs(claim)
        kind = _KINDS[claim.kind]
        actual = kind.question(*args, **opts)
        passed = kind.matches(actual, claim.expected, *args)
        verdict = "pass" if passed else "fail"
    except BudgetExceededError as e:
        actual = f"budget: {e}"
        verdict = "skipped"
    except Exception as e:  # a broken claim must not stop the run
        actual = f"error: {type(e).__name__}: {e}"
        verdict = "fail"
    ms = int((time.perf_counter() - t0) * 1000)
    return ClaimResult(claim, verdict, actual, ms)


def verify_corpus(text: str, id_filter: str | None = None,
                  include_slow: bool = False) -> ClaimReport:
    """Run every claim of a corpus text in corpus order; failures are
    recorded, not raised."""
    selected = [c for c in parse_corpus(text)
                if id_filter is None or c.id.startswith(id_filter)]
    results = [run_claim(c) if include_slow or not c.slow else
               ClaimResult(c, "skipped", "slow (enable with --slow)", 0)
               for c in selected]
    return ClaimReport(results, hashlib.sha256(text.encode()).hexdigest())
