"""Declarative claim corpus and its verification runner.

A corpus is a text file with one claim per line::

    id | kind | inputs | expected | provenance | source_loc

``#`` starts a comment.  Monoids inside the inputs field are written in a
small expression language: ``M[lambda](bta+b+)`` builds a quotient monoid,
``A1 / E1 / A01 / S1 / dualA1`` name the presentation monoids, and
``dual(...)``, ``prod(...,...)`` and ``sub(EXPR; label, ...)`` wrap them.
The runner executes every claim, never aborts on a failing one, and renders
one stable tab-separated line per claim.
"""

from __future__ import annotations

import hashlib
import time
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
from .words import is_two_island_limited, parse_word, print_word

KINDS = (
    "monoid-size", "element-set", "satisfies", "violates", "isomorphic",
    "j-trivial", "aperiodic", "idempotents-commute", "tau-term",
    "not-tau-term", "isoterm", "derivable", "two-island-limited",
)


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
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.results:
            counts[r.verdict] += 1
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
    text = text.strip()
    if text in ("A1", "E1", "A01", "S1", "dualA1"):
        return catalog.named_monoid(text)
    if text.startswith("M["):
        tau, close, words = text[2:].partition("]")
        if not (close and words.startswith("(") and words.endswith(")")):
            raise ValueError(f"malformed monoid expression {text!r}")
        return catalog.mtau(tau, words[1:-1])
    if text.startswith("dual(") and text.endswith(")"):
        return dual(parse_monoid_expr(text[5:-1]))
    if text.startswith("prod(") and text.endswith(")"):
        factors = _fields(text[5:-1], ",")
        if len(factors) != 2:
            raise ValueError(f"prod takes two monoids, got {len(factors)}: "
                             f"{text!r}")
        return direct_product(*map(parse_monoid_expr, factors))
    if text.startswith("sub(") and text.endswith(")"):
        inner = text[4:-1]
        expr, labels = _split_top(inner, ";")
        m = parse_monoid_expr(expr)
        gens = []
        for lab in labels.split(","):
            lab = lab.strip()
            if lab not in m.labels:
                raise ValueError(f"no element labelled {lab!r}")
            gens.append(m.labels.index(lab))
        return submonoid(m, gens)[0]
    raise ValueError(f"unknown construction {text!r}")


def _split_top(text: str, sep: str):
    depth = 0
    for i, c in enumerate(text):
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == sep and depth == 0:
            return text[:i], text[i + 1:]
    raise ValueError(f"expected top-level {sep!r} in {text!r}")


def _fields(inputs: str, sep: str = ";") -> list:
    # split on top-level separators only: sub(...) expressions carry a ';'
    # and prod(...) expressions a ',' inside
    parts = []
    depth = 0
    cur = []
    for c in inputs:
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        if c == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur).strip())
    return parts


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _options(parts, start):
    opts = {}
    for p in parts[start:]:
        if "=" in p:
            k, v = p.split("=", 1)
            opts[k.strip()] = v.strip()
    return opts


def run_claim(claim: Claim, budget: int | None = None) -> ClaimResult:
    t0 = time.perf_counter()
    try:
        actual = _execute(claim, budget)
        verdict = "pass" if _matches(claim, actual) else "fail"
    except BudgetExceededError as e:
        actual = f"budget: {e}"
        verdict = "skipped"
    except Exception as e:  # a broken claim must not stop the run
        actual = f"error: {type(e).__name__}: {e}"
        verdict = "fail"
    ms = int((time.perf_counter() - t0) * 1000)
    return ClaimResult(claim, verdict, actual, ms)


def _execute(claim: Claim, budget) -> str:
    kind = claim.kind
    parts = _fields(claim.inputs)
    if kind == "monoid-size":
        return str(parse_monoid_expr(parts[0]).size)
    if kind == "element-set":
        m = parse_monoid_expr(parts[0])
        return ",".join(sorted(m.labels))
    if kind in ("satisfies", "violates"):
        m = parse_monoid_expr(parts[0])
        ident = parse_identity(parts[1])
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
        a = parse_monoid_expr(parts[0])
        b = parse_monoid_expr(parts[1])
        return _yesno(find_isomorphism(a, b) is not None)
    if kind == "j-trivial":
        ok, pair = is_j_trivial(parse_monoid_expr(parts[0]))
        return _yesno(ok)
    if kind == "aperiodic":
        return _yesno(is_aperiodic(parse_monoid_expr(parts[0])))
    if kind == "idempotents-commute":
        ok, pair = idempotents_commute(parse_monoid_expr(parts[0]))
        return _yesno(ok)
    if kind == "isoterm":
        m = parse_monoid_expr(parts[0])
        rep = is_isoterm(m, parse_word(parts[1]))
        return _yesno(rep.is_isoterm)
    if kind in ("tau-term", "not-tau-term"):
        tau = parts[0]
        m = parse_monoid_expr(parts[1])
        u = TauWord.make(parse_word(parts[2]), tau)
        opts = _options(parts, 3)
        verdict = is_tau_term(m, u, mode=opts.get("mode", "auto"),
                              bound=int(opts.get("bound", 10)))
        if verdict.fails:
            member, off = verdict.witness
            return f"fails@{print_word(member)}~{print_word(off)}"
        return verdict.status
    if kind == "derivable":
        goal = parse_identity(parts[0])
        axioms = [parse_identity(a) for a in parts[1].split("&")]
        opts = _options(parts, 2)
        trace = derive_bounded(axioms, goal,
                               max_len=int(opts.get("max_len", 14)),
                               max_steps=int(opts.get("max_steps", 100000)))
        if trace is None:
            return "not-found-within-bounds"
        ok, msg = check_trace(axioms, trace, goal)
        return f"derived-in-{len(trace)}-steps" if ok else f"invalid-trace: {msg}"
    if kind == "two-island-limited":
        return _yesno(is_two_island_limited(parse_word(parts[0])))
    raise ValueError(f"unknown claim kind {kind!r}")


def _matches(claim: Claim, actual: str) -> bool:
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
        m = parse_monoid_expr(_fields(claim.inputs)[0])
        ident = parse_identity(_fields(claim.inputs)[1])
        assignment = {}
        for kv in want_sub.split(","):
            b, lab = kv.split("=")
            assignment[b.strip()] = m.labels.index(lab.strip())
        lv = m.evaluate(ident.lhs, assignment)
        rv = m.evaluate(ident.rhs, assignment)
        lw, rw = [s.strip() for s in want_vals.split(",")]
        return m.labels[lv] == lw and m.labels[rv] == rw
    if kind == "element-set":
        return sorted(actual.split(",")) == sorted(
            lab.strip() for lab in expected.split(","))
    if kind == "tau-term":
        if expected == "holds":
            return actual == "holds"
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
