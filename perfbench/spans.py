"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function wherever its name is bound in
a loaded ``taumonoid`` module (``claims.satisfies`` as well as
``identities.satisfies``), so calls between library modules are seen too.
Every call of a traced function becomes a span carrying the current op id
and its parent span; spans stay in memory until ``dump``.  Leaves called
hundreds of thousands of times per pass (``canonical``) are aggregated per
op and parent instead: a count and a total time.  A span's self time is its
duration minus its child spans and the aggregated leaf time inside it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from taumonoid import claims

# (module, attribute path, recorded name); LEAVES are aggregated, not spanned
SPANNED = [
    ("construct", "lower_set", "construct.lower_set"),
    ("construct", "build_monoid", "construct.build_monoid"),
    ("monoid", "FiniteMonoid.__post_init__", "monoid.FiniteMonoid"),
    ("monoid", "is_j_trivial", "monoid.is_j_trivial"),
    ("monoid", "is_aperiodic", "monoid.is_aperiodic"),
    ("monoid", "find_isomorphism", "monoid.find_isomorphism"),
    ("monoid", "from_presentation", "monoid.from_presentation"),
    ("monoid", "direct_product", "monoid.direct_product"),
    ("identities", "satisfies", "identities.satisfies"),
    ("freeobj", "rel_free_automaton", "freeobj.rel_free_automaton"),
    ("freeobj", "is_isoterm", "freeobj.is_isoterm"),
    ("freeobj", "is_tau_term", "freeobj.is_tau_term"),
    ("derive", "derive_bounded", "derive.derive_bounded"),
    ("derive", "check_trace", "derive.check_trace"),
    ("catalog", "mtau", "catalog.mtau"),
    ("claims", "run_claim", "claims.run_claim"),
]
LEAVES = [("rewrite", "canonical", "rewrite.canonical")]

# tables above this size get only a sampled associativity check
SAMPLED_ABOVE = 64


def per_layer_names() -> list:
    """Every per-layer metric a traced pass reports, with its unit.

    ``run.py`` adds ``trace.overhead_s``, which needs an untraced pass too.
    """
    out = [("rewrite.canonical.calls", "count"), ("rewrite.canonical.busy_s", "s"),
           ("construct.lower_set.calls", "count"), ("construct.lower_set.busy_s", "s"),
           ("construct.lower_set.words", "count"),
           ("construct.build_monoid.busy_s", "s"),
           ("construct.build_monoid.elements", "count"),
           ("monoid.FiniteMonoid.calls", "count"), ("monoid.FiniteMonoid.busy_s", "s"),
           ("monoid.FiniteMonoid.sampled", "count"),
           ("monoid.is_j_trivial.busy_s", "s"), ("monoid.is_aperiodic.busy_s", "s"),
           ("monoid.find_isomorphism.calls", "count"),
           ("monoid.find_isomorphism.busy_s", "s"),
           ("monoid.from_presentation.busy_s", "s"),
           ("monoid.direct_product.busy_s", "s"),
           ("identities.satisfies.calls", "count"), ("identities.satisfies.busy_s", "s"),
           ("identities.satisfies.holds.busy_s", "s"),
           ("identities.satisfies.violated.busy_s", "s"),
           ("identities.satisfies.space", "count"),
           ("identities.satisfies.checked", "count"),
           ("identities.satisfies.subs_per_s", "1/s"),
           ("identities.satisfies.useful_ratio", "ratio"),
           ("freeobj.rel_free_automaton.calls", "count"),
           ("freeobj.rel_free_automaton.busy_s", "s"),
           ("freeobj.rel_free_automaton.states", "count"),
           ("freeobj.rel_free_automaton.cells", "count"),
           ("freeobj.is_isoterm.busy_s", "s"), ("freeobj.is_tau_term.busy_s", "s"),
           ("freeobj.is_tau_term.exact_ratio", "ratio"),
           ("derive.derive_bounded.calls", "count"), ("derive.derive_bounded.busy_s", "s"),
           ("derive.derive_bounded.steps", "count"),
           ("derive.derive_bounded.not_found", "count"),
           ("derive.check_trace.busy_s", "s"),
           ("catalog.mtau.busy_s", "s"), ("catalog.mtau.hit_ratio", "ratio")]
    for kind in claims.KINDS:
        out.append((f"claims.run_claim.{kind}.busy_s", "s"))
        out.append((f"claims.run_claim.{kind}.total_s", "s"))
    return out


class Tracer:
    def __init__(self):
        self.op = -1                 # -1 while setting up, then the op index
        self.spans: list = []        # [id, parent, op, name, start, end, tag]
        self.leaves = defaultdict(lambda: [0, 0.0])   # (name, op, parent) -> [calls, s]
        self.counts = defaultdict(float)
        self._stack: list = []
        self._undo: list = []
        self._mtau = None

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "taumonoid" or name.startswith("taumonoid."))]
        for mod, path, name in SPANNED + LEAVES:
            owner = sys.modules[f"taumonoid.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            leaf = (mod, path, name) in LEAVES
            wrapped = self._leaf(orig, name) if leaf else self._span(orig, name)
            if outer:          # a method: one binding, on its class
                self._rebind(owner, attr, wrapped)
                continue
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._rebind(m, key, wrapped)
            if name == "catalog.mtau":
                self._mtau = orig

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _span(self, fn, name):
        tracer = self
        note = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            span = [len(tracer.spans), tracer._stack[-1][0] if tracer._stack else -1,
                    tracer.op, name, 0.0, 0.0, None]
            tracer.spans.append(span)
            tracer._stack.append(span)
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()
            if note is not None:
                span[6] = note(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn, name):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack = tracer._stack
                acc = tracer.leaves[(name, tracer.op, stack[-1][0] if stack else -1)]
                acc[0] += 1
                acc[1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        covered = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (_, _, parent), (_, total) in self.leaves.items():
            if parent >= 0:
                covered[parent] += total
        return [end - start - covered[sid]
                for sid, _, _, _, start, end, _ in self.spans]

    def report(self) -> dict:
        """``per_layer_names`` with their values, as ``{name: {value, unit}}``."""
        values = self.metrics()
        return {name: {"value": values[name], "unit": unit}
                for name, unit in per_layer_names()}

    def metrics(self) -> dict:
        """Per-layer metric values over everything traced in this pass."""
        busy = defaultdict(float)
        total = defaultdict(float)
        calls = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            _, _, _, name, start, end, tag = span
            calls[name] += 1
            busy[name] += own
            if tag is not None:
                busy[f"{name}.{tag}"] += own
                total[f"{name}.{tag}"] += end - start
        for (name, _, _), (n, t) in self.leaves.items():
            calls[name] += n
            busy[name] += t
        c = self.counts
        out = {
            "rewrite.canonical.calls": calls["rewrite.canonical"],
            "construct.lower_set.calls": calls["construct.lower_set"],
            "construct.lower_set.words": c["construct.lower_set.words"],
            "construct.build_monoid.elements": c["construct.build_monoid.elements"],
            "monoid.FiniteMonoid.calls": calls["monoid.FiniteMonoid"],
            "monoid.FiniteMonoid.sampled": c["monoid.FiniteMonoid.sampled"],
            "monoid.find_isomorphism.calls": calls["monoid.find_isomorphism"],
            "identities.satisfies.calls": calls["identities.satisfies"],
            "identities.satisfies.space": c["identities.satisfies.space"],
            "identities.satisfies.checked": c["identities.satisfies.checked"],
            "identities.satisfies.subs_per_s": _ratio(
                c["identities.satisfies.checked"], busy["identities.satisfies"]),
            "identities.satisfies.useful_ratio": _ratio(
                c["identities.satisfies.useful"], c["identities.satisfies.checked"]),
            "freeobj.rel_free_automaton.calls": calls["freeobj.rel_free_automaton"],
            "freeobj.rel_free_automaton.states": c["freeobj.rel_free_automaton.states"],
            "freeobj.rel_free_automaton.cells": c["freeobj.rel_free_automaton.cells"],
            "freeobj.is_tau_term.exact_ratio": _ratio(
                c["freeobj.is_tau_term.exact"], calls["freeobj.is_tau_term"]),
            "derive.derive_bounded.calls": calls["derive.derive_bounded"],
            "derive.derive_bounded.steps": c["derive.derive_bounded.steps"],
            "derive.derive_bounded.not_found": c["derive.derive_bounded.not_found"],
        }
        for name in ("rewrite.canonical", "construct.lower_set",
                     "construct.build_monoid", "monoid.FiniteMonoid",
                     "monoid.is_j_trivial", "monoid.is_aperiodic",
                     "monoid.find_isomorphism", "monoid.from_presentation",
                     "monoid.direct_product", "identities.satisfies",
                     "identities.satisfies.holds", "identities.satisfies.violated",
                     "freeobj.rel_free_automaton", "freeobj.is_isoterm",
                     "freeobj.is_tau_term", "derive.derive_bounded",
                     "derive.check_trace", "catalog.mtau"):
            out[f"{name}.busy_s"] = busy[name]
        info = self._mtau.cache_info()
        out["catalog.mtau.hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
        for kind in claims.KINDS:
            out[f"claims.run_claim.{kind}.busy_s"] = busy[f"claims.run_claim.{kind}"]
            out[f"claims.run_claim.{kind}.total_s"] = total[f"claims.run_claim.{kind}"]
        return out

    def dump(self, path) -> None:
        """Write the spans and leaf aggregates as one JSON document."""
        own = self.self_times()
        doc = {
            "spans": [{"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
                       "start": s[4], "end": s[5], "self": o,
                       "tag": s[6]}
                      for s, o in zip(self.spans, own)],
            "leaves": [{"name": name, "op": op, "parent": parent,
                        "calls": n, "total": t}
                       for (name, op, parent), (n, t) in self.leaves.items()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- per-call counters, recorded where the call returns ---------------------
#
# Each note adds to the tracer's counters and returns the span's tag: a
# string that splits the span's time by outcome or kind, or None.

def _note_lower_set(c, args, kwargs, result):
    c["construct.lower_set.words"] += len(result)


def _note_build_monoid(c, args, kwargs, result):
    c["construct.build_monoid.elements"] += result.size


def _note_finite_monoid(c, args, kwargs, result):
    if args[0].size > SAMPLED_ABOVE:
        c["monoid.FiniteMonoid.sampled"] += 1


def _note_satisfies(c, args, kwargs, result):
    m, ident = args[0], args[1]
    k = len(ident.letters())
    space = m.size ** k
    c["identities.satisfies.space"] += space
    c["identities.satisfies.checked"] += result.checked
    if result.holds:
        c["identities.satisfies.useful"] += space
        return "holds"
    rank = 0
    for x in ident.letters():
        rank = rank * m.size + result.witness[x]
    c["identities.satisfies.useful"] += rank + 1
    return "violated"


def _note_rel_free(c, args, kwargs, result):
    c["freeobj.rel_free_automaton.states"] += result.num_states
    c["freeobj.rel_free_automaton.cells"] += (
        result.num_states * result.monoid.size ** len(result.letters))


def _note_tau_term(c, args, kwargs, result):
    if result.method == "exact":
        c["freeobj.is_tau_term.exact"] += 1


def _note_derive(c, args, kwargs, result):
    if result is None:
        c["derive.derive_bounded.not_found"] += 1
    else:
        c["derive.derive_bounded.steps"] += len(result)


def _note_run_claim(c, args, kwargs, result):
    return args[0].kind


_NOTES = {
    "construct.lower_set": _note_lower_set,
    "construct.build_monoid": _note_build_monoid,
    "monoid.FiniteMonoid": _note_finite_monoid,
    "identities.satisfies": _note_satisfies,
    "freeobj.rel_free_automaton": _note_rel_free,
    "freeobj.is_tau_term": _note_tau_term,
    "derive.derive_bounded": _note_derive,
    "claims.run_claim": _note_run_claim,
}
