from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from taumonoid import derive
from taumonoid.claims import _inputs, parse_corpus
from taumonoid.cli import corpus_text
from taumonoid.derive import (DerivationStep, DerivationTrace, Encoding,
                              _is_mirror, check_trace, derive_bounded, rewrites)
from taumonoid.identities import parse_identity
from taumonoid.words import parse_word

from oracles import rewrites_by_all_bindings

# collapse sets ({x}; {x}, {y}; ...), destination-only letters, sides
# equal to 1, and letters that both sides hold the same number of times
ORACLE_AXIOMS = [
    "x=xx", "xy=yx", "xtx=xtxx", "xyxy=yxyx", "xtxs=xtxsx", "xtsx=xtxsx",
    "xxyy=yyxx", "xtx=1", "x=xyx", "x=xy", "xy=1", "xyt=tyx",
]
# those that a bijection of the letters maps side to side, both ways
MIRROR_AXIOMS = ["xy=yx", "xyxy=yxyx", "xxyy=yyxx", "xyt=tyx"]


def ids(*texts):
    return [parse_identity(t) for t in texts]


def match_all_bindings(monkeypatch):
    """Swap the oracle in for ``derive.rewrites``: each call is decoded with
    the search's own encoding, matched on words and encoded back."""
    codes = []

    class Recording(Encoding):
        def __init__(self, words):
            super().__init__(words)
            codes.append(self)

    def oracle(word, src, dst, max_len):
        code = codes[-1]
        return [(code.encode(new), start,
                 {code.char[b]: code.encode(piece)
                  for b, piece in binding.items()})
                for new, start, binding in rewrites_by_all_bindings(
                    code.decode(word), code.decode(src), code.decode(dst),
                    max_len)]

    monkeypatch.setattr(derive, "Encoding", Recording)
    monkeypatch.setattr(derive, "rewrites", oracle)


def word_rewrites(word, src, dst, max_len):
    """``rewrites`` on words, encoded and decoded as the search does it."""
    code = Encoding([word, src, dst])
    return [(code.decode(new), start,
             {code.base[b]: code.decode(piece) for b, piece in binding.items()})
            for new, start, binding in rewrites(
                code.encode(word), code.encode(src), code.encode(dst),
                max_len)]


class TestRewrites:
    def test_erasure_instances(self):
        # xtysyx with y,s bound to the empty word matches inside xtx
        axiom = parse_identity("xtysyx=xtysxyx")
        results = {new for new, _, _ in
                   word_rewrites(parse_word("xtx"), axiom.lhs, axiom.rhs, 10)}
        assert parse_word("xtxx") in results

    def test_length_cap(self):
        axiom = parse_identity("xtx=xtxx")
        found = word_rewrites(parse_word("xtx"), axiom.lhs, axiom.rhs, 4)
        assert found and all(len(new) <= 4 for new, _, _ in found)

    @settings(max_examples=400, deadline=None)
    @given(st.text("xyt", max_size=10), st.sampled_from(ORACLE_AXIOMS),
           st.booleans(), st.integers(0, 14))
    def test_agrees_with_all_bindings(self, text, axiom, forward, max_len):
        # same rewrites, starts and bindings, in the same order
        ax = parse_identity(axiom)
        src, dst = (ax.lhs, ax.rhs) if forward else (ax.rhs, ax.lhs)
        word = parse_word(text)
        assert (word_rewrites(word, src, dst, max_len)
                == list(rewrites_by_all_bindings(word, src, dst, max_len)))

    def test_mirror_axioms(self):
        mirrors = [a for a in ORACLE_AXIOMS if _is_mirror(*a.split("="))]
        assert mirrors == MIRROR_AXIOMS
        assert not _is_mirror("xy", "yy") and not _is_mirror("xyz", "yzx")

    @settings(max_examples=200, deadline=None)
    @given(st.text("xyt", max_size=10), st.integers(0, 14))
    def test_mirror_axioms_rewrite_alike_both_ways(self, text, max_len):
        # the search skips the backward direction of these axioms: it would
        # list no word that the forward direction does not
        word = parse_word(text)
        for axiom in MIRROR_AXIOMS:
            ax = parse_identity(axiom)
            forward = {new for new, _, _ in
                       word_rewrites(word, ax.lhs, ax.rhs, max_len)}
            backward = {new for new, _, _ in
                        word_rewrites(word, ax.rhs, ax.lhs, max_len)}
            assert forward == backward, axiom


class TestDeriveBounded:
    def test_erasing_two_letters(self):
        axioms = ids("xtysyx=xtysxyx")
        trace = derive_bounded(axioms, parse_identity("xtx=xtxx"))
        assert trace is not None and len(trace) == 1
        assert check_trace(axioms, trace, parse_identity("xtx=xtxx"))[0]

    def test_equivalence_both_directions(self):
        base = ids("xtx=xtxx", "xxt=xxtx")
        goal = parse_identity("xtxs=xtxsx")
        fwd = derive_bounded(base, goal)
        assert fwd is not None
        single = ids("xtxs=xtxsx")
        for text in ("xtx=xtxx", "xxt=xxtx"):
            back = derive_bounded(single, parse_identity(text))
            assert back is not None and len(back) == 1

    def test_three_step_chain(self):
        axioms = ids("xtx=xtxx", "xyytx=xyyxtx")
        goal = parse_identity("xtyxsy=xtyxysy")
        trace = derive_bounded(axioms, goal, max_len=14, max_steps=100_000)
        assert trace is not None
        assert check_trace(axioms, trace, goal)[0]
        assert all(len(s.after) <= 14 for s in trace.steps)

    def test_trivial_goal(self):
        trace = derive_bounded(ids("xtx=xtxx"), parse_identity("abc=abc"))
        assert trace is not None and len(trace) == 0

    def test_symmetry(self):
        axioms = ids("xtysyx=xtysxyx")
        goal = parse_identity("xtxx=xtx")   # reversed goal
        trace = derive_bounded(axioms, goal)
        assert trace is not None
        assert check_trace(axioms, trace, goal)[0]

    def test_not_found_within_tiny_bounds(self):
        axioms = ids("xtx=xtxx", "xyytx=xyyxtx")
        goal = parse_identity("xtyxsy=xtyxysy")
        assert derive_bounded(axioms, goal, max_len=7) is None
        assert derive_bounded(axioms, goal, max_steps=1) is None

    def test_corpus_traces_match_all_bindings(self, monkeypatch):
        # the cut matcher leaves the breadth-first order, hence every trace,
        # as the exhaustive one has it
        runs = [_inputs(c) for c in parse_corpus(corpus_text())
                if c.kind == "derivable"]
        assert len(runs) == 13
        fast = [derive_bounded(axioms, goal, **opts).steps
                for (goal, axioms), opts in runs]
        match_all_bindings(monkeypatch)
        slow = [derive_bounded(axioms, goal, **opts).steps
                for (goal, axioms), opts in runs]
        assert fast == slow

    def test_skipping_mirror_directions_changes_no_trace(self, monkeypatch):
        runs = [_inputs(c) for c in parse_corpus(corpus_text())
                if c.kind == "derivable"]
        skipped = [derive_bounded(axioms, goal, **opts).steps
                   for (goal, axioms), opts in runs]
        monkeypatch.setattr(derive, "_is_mirror", lambda lhs, rhs: False)
        both = [derive_bounded(axioms, goal, **opts).steps
                for (goal, axioms), opts in runs]
        assert skipped == both

    @settings(max_examples=250, deadline=None)
    @given(st.text("xyt", max_size=6), st.text("xyt", max_size=6),
           st.lists(st.sampled_from(ORACLE_AXIOMS), min_size=1, max_size=2),
           st.integers(1, 8), st.integers(1, 300))
    def test_search_agrees_with_all_bindings(self, lhs, rhs, axioms, max_len,
                                             max_steps):
        # the whole search, found or not, takes the oracle's steps
        axioms = ids(*axioms)
        goal = parse_identity(f"{lhs or 1}={rhs or 1}")
        fast = derive_bounded(axioms, goal, max_len, max_steps)
        with pytest.MonkeyPatch.context() as mp:
            match_all_bindings(mp)
            slow = derive_bounded(axioms, goal, max_len, max_steps)
        assert (fast is None and slow is None
                or fast.steps == slow.steps)

    def test_multi_character_bases(self):
        axioms = ids("x1 t x1=x1 t x1 x1")
        goal = parse_identity("a1 b a1=a1 b a1 a1")
        trace = derive_bounded(axioms, goal)
        assert trace.steps == (DerivationStep(
            goal.lhs, goal.rhs, 0, True, 0,
            (("t", parse_word("b")), ("x1", parse_word("1 a1")))),)

    def test_matches_few_instances(self, monkeypatch):
        # der-var-eq1: matching every binding substitutes 21,231 instances,
        # nearly all of them no-ops; the collapse-set cut leaves 2,981
        count = [0]
        instance = derive._instance

        def counting(pattern, binding):
            count[0] += 1
            return instance(pattern, binding)

        monkeypatch.setattr(derive, "_instance", counting)
        trace = derive_bounded(ids("xtxs=xtxsx", "xyxy=yxyx"),
                               parse_identity("xxyy=yyxx"), max_steps=200_000)
        assert trace is not None
        assert 0 < count[0] <= 6_000

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError):
            derive_bounded(ids("xtx=xtxx"), parse_identity("xtx=xtxx"), max_len=0)


class TestCheckTrace:
    def test_rejects_tampered_step(self):
        axioms = ids("xtysyx=xtysxyx")
        goal = parse_identity("xtx=xtxx")
        trace = derive_bounded(axioms, goal)
        step = trace.steps[0]
        bad = DerivationStep(step.before, parse_word("xtxxx"), step.axiom_index,
                             step.forward, step.position, step.substitution)
        broken = type(trace)(trace.start, parse_word("xtxxx"), (bad,))
        ok, msg = check_trace(axioms, broken, parse_identity("xtx=xtx^3"))
        assert not ok

    def test_rejects_wrong_endpoints(self):
        axioms = ids("xtx=xtxx")
        trace = derive_bounded(axioms, parse_identity("xtx=xtxx"))
        ok, msg = check_trace(axioms, trace, parse_identity("xtx=xxtx"))
        assert not ok and "endpoint" in msg

    def test_rejects_position_outside_the_word(self):
        # a negative slice start counts from the end of the word
        axioms = ids("x=xx")
        step = DerivationStep(parse_word("ab"), parse_word("aab"), 0, True,
                              -2, (("x", parse_word("a")),))
        trace = DerivationTrace(step.before, step.after, (step,))
        ok, msg = check_trace(axioms, trace, parse_identity("ab=aab"))
        assert not ok and "outside" in msg
        trace = DerivationTrace(step.before, step.after,
                                (replace(step, position=0),))
        assert check_trace(axioms, trace, parse_identity("ab=aab")) == (True, "ok")

    def test_derive_bounded_replays_what_it_returns(self, monkeypatch):
        # the one replay of a found derivation: claims and the command line
        # report the trace derive_bounded returns without replaying it
        calls = []

        def reject(*args):
            calls.append(args)
            return False, "rejected"

        monkeypatch.setattr(derive, "check_trace", reject)
        with pytest.raises(AssertionError, match="rejected"):
            derive_bounded(ids("xtx=xtxx"), parse_identity("ata=ataa"))
        assert len(calls) == 1

    def test_step_description_mentions_axiom(self):
        axioms = ids("xtx=xtxx")
        trace = derive_bounded(axioms, parse_identity("ata=ataa"))
        text = trace.steps[0].describe(axioms)
        assert "xtx=xtxx" in text
