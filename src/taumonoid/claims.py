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
from functools import partial

from . import catalog
from .derive import check_trace, derive_bounded
from .freeobj import is_isoterm, is_tau_term
from .identities import BudgetExceededError, parse_identity, satisfies
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


# per kind: the readers of its leading inputs, then the types of its options
_INPUTS = {
    "monoid-size": ((parse_monoid_expr,), {}),
    "element-set": ((parse_monoid_expr,), {}),
    "satisfies": ((parse_monoid_expr, parse_identity), {}),
    "violates": ((parse_monoid_expr, parse_identity), {}),
    "isomorphic": ((parse_monoid_expr, parse_monoid_expr), {}),
    "j-trivial": ((parse_monoid_expr,), {}),
    "aperiodic": ((parse_monoid_expr,), {}),
    "idempotents-commute": ((parse_monoid_expr,), {}),
    "tau-term": ((str, parse_monoid_expr, parse_word), {"mode": str, "bound": int}),
    "not-tau-term": ((str, parse_monoid_expr, parse_word), {"mode": str, "bound": int}),
    "isoterm": ((parse_monoid_expr, parse_word), {}),
    "derivable": ((parse_identity, _axioms), {"max_len": int, "max_steps": int}),
    "two-island-limited": ((parse_word,), {}),
}
KINDS = tuple(_INPUTS)


def _inputs(claim: Claim) -> tuple:
    """The claim's inputs, each read once, and its ``key=value`` options."""
    readers, accepted = _INPUTS[claim.kind]
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


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def run_claim(claim: Claim, budget: int | None = None) -> ClaimResult:
    t0 = time.perf_counter()
    try:
        args, opts = _inputs(claim)
        actual = _execute(claim.kind, args, opts, budget)
        verdict = "pass" if _matches(claim, actual, args) else "fail"
    except BudgetExceededError as e:
        actual = f"budget: {e}"
        verdict = "skipped"
    except Exception as e:  # a broken claim must not stop the run
        actual = f"error: {type(e).__name__}: {e}"
        verdict = "fail"
    ms = int((time.perf_counter() - t0) * 1000)
    return ClaimResult(claim, verdict, actual, ms)


def _execute(kind: str, args: list, opts: dict, budget) -> str:
    if kind == "monoid-size":
        return str(args[0].size)
    if kind == "element-set":
        return ",".join(sorted(args[0].labels))
    if kind in ("satisfies", "violates"):
        m, ident = args
        res = satisfies(m, ident, budget=budget)
        if res.holds:
            return "holds"
        wit = ",".join(f"{b}={m.labels[e]}" for b, e in sorted(res.witness.items()))
        # soundness: re-evaluate the reported witness on the table
        lv = m.evaluate(ident.lhs, res.witness)
        rv = m.evaluate(ident.rhs, res.witness)
        if lv == rv:
            return "unsound-witness"
        return f"violated@{wit}->{m.labels[lv]},{m.labels[rv]}"
    if kind == "isomorphic":
        return _yesno(find_isomorphism(*args) is not None)
    if kind == "j-trivial":
        ok, pair = is_j_trivial(args[0])
        return _yesno(ok)
    if kind == "aperiodic":
        return _yesno(is_aperiodic(args[0]))
    if kind == "idempotents-commute":
        ok, pair = idempotents_commute(args[0])
        return _yesno(ok)
    if kind == "isoterm":
        rep = is_isoterm(*args)
        return _yesno(rep.is_isoterm)
    if kind in ("tau-term", "not-tau-term"):
        tau, m, w = args
        verdict = is_tau_term(m, TauWord.make(w, tau), **opts)
        if verdict.fails:
            member, off = verdict.witness
            return f"fails@{print_word(member)}~{print_word(off)}"
        return verdict.status
    if kind == "derivable":
        goal, axioms = args
        trace = derive_bounded(axioms, goal, **opts)
        if trace is None:
            return "not-found-within-bounds"
        ok, msg = check_trace(axioms, trace, goal)
        return f"derived-in-{len(trace)}-steps" if ok else f"invalid-trace: {msg}"
    if kind == "two-island-limited":
        return _yesno(is_two_island_limited(args[0]))


def _matches(claim: Claim, actual: str, args: list) -> bool:
    kind, expected = claim.kind, claim.expected
    if kind == "satisfies":
        return actual == "holds"
    if kind == "violates":
        if not actual.startswith("violated@"):
            return False
        if expected in ("yes", ""):
            return True
        # expected: substitution -> lhs,rhs; check the stated evaluation too
        want_sub, want_vals = expected.split("->")
        m, ident = args
        assignment = {}
        for i, j in _split(want_sub, 0, ",")[0]:
            var, lab = want_sub[i:j].split("=")
            assignment[var.strip()] = m.labels.index(lab.strip())
        lv = m.evaluate(ident.lhs, assignment)
        rv = m.evaluate(ident.rhs, assignment)
        lw, rw = [want_vals[i:j] for i, j in _split(want_vals, 0, ",")[0]]
        return m.labels[lv] == lw and m.labels[rv] == rw
    if kind == "element-set":
        return sorted(actual.split(",")) == sorted(
            lab.strip() for lab in expected.split(","))
    if kind == "tau-term":
        if expected == "holds-up-to-bound":
            return actual in ("holds", "holds-up-to-bound")
        return actual == expected
    if kind == "not-tau-term":
        return actual.startswith("fails")
    if kind == "derivable":
        return actual.startswith("derived-in-")
    return actual == expected


def verify_corpus(text: str, id_filter: str | None = None,
                  include_slow: bool = False, budget: int | None = None,
                  jobs: int = 1) -> ClaimReport:
    """Run every claim of a corpus text; failures are recorded, not raised.

    With ``jobs > 1`` the executed claims run in worker processes.  Results
    come back in corpus order, so the report stays deterministic.
    """
    selected = [c for c in parse_corpus(text)
                if id_filter is None or c.id.startswith(id_filter)]
    todo = [c for c in selected if include_slow or not c.slow]
    if jobs > 1 and len(todo) > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            done = list(ex.map(partial(run_claim, budget=budget), todo))
    else:
        done = [run_claim(c, budget=budget) for c in todo]
    ran = dict(zip(todo, done))
    results = [ran[c] if c in ran else
               ClaimResult(c, "skipped", "slow (enable with --slow)", 0)
               for c in selected]
    return ClaimReport(results, hashlib.sha256(text.encode()).hexdigest())
