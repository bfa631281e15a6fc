from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from taumonoid.rewrite import (CONGRUENCES, RULE_MARK, TauWord, TauWordSet,
                               applicable_rules, canonical, canonical_stepwise,
                               class_members, compose, compose_words,
                               normal_forms_all_orders, tau_equal)
from taumonoid.words import content, is_two_island_limited, parse_word, print_word

NONTRIVIAL = [t for t in CONGRUENCES if t != "trivial"]


def w(text):
    return parse_word(text)


def plain_words(alphabet="ab", max_len=8):
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(
        lambda bs: tuple((b, False) for b in bs))


def marked_words(alphabet="ab", max_len=8):
    return st.lists(st.tuples(st.sampled_from(alphabet), st.booleans()),
                    max_size=max_len).map(tuple)


# -- the congruences defined directly, as an independent oracle -------------

def _run_collapse(word):
    out = []
    for b, _ in word:
        if not out or out[-1] != b:
            out.append(b)
    return tuple(out)


def _mul_set(word):
    counts = {}
    for b, _ in word:
        counts[b] = counts.get(b, 0) + 1
    return frozenset(b for b, c in counts.items() if c >= 2)


def _first_two_adjacent(word, base):
    positions = [i for i, (b, _) in enumerate(word) if b == base]
    return len(positions) >= 2 and positions[1] == positions[0] + 1


def _last_two_adjacent(word, base):
    positions = [i for i, (b, _) in enumerate(word) if b == base]
    return len(positions) >= 2 and positions[-1] == positions[-2] + 1


def equal_by_definition(u, v, tau):
    """The congruences as defined, without any rewriting."""
    if tau == "trivial":
        return u == v
    if _run_collapse(u) != _run_collapse(v):
        return False
    if tau == "tau1":
        return True
    if _mul_set(u) != _mul_set(v):
        return False
    if tau == "gamma":
        return True
    flag = _first_two_adjacent if tau == "lambda" else _last_two_adjacent
    return all(flag(u, b) == flag(v, b) for b in _mul_set(u))


class TestApplicableRules:
    def test_tau1_unconditional(self):
        rules = applicable_rules(w("aa"), "tau1")
        assert (RULE_MARK, 0) in rules and (RULE_MARK, 1) in rules

    def test_lambda_left_context(self):
        marks = [r for r in applicable_rules(w("ata"), "lambda") if r[0] == RULE_MARK]
        assert marks == [(RULE_MARK, 2)]

    def test_canonical_word_has_no_rules(self):
        assert applicable_rules(w("bta+b+"), "lambda") == []

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            applicable_rules(w("a"), "trivial")


class TestCanonical:
    def test_lambda_example(self):
        assert canonical(w("btaabb"), "lambda") == w("bta+b+")

    def test_single_letter(self):
        # the mark rule needs same-base context except under tau1, where it
        # is unconditional (consistent with a ~ aa under tau1)
        for tau in ("gamma", "lambda", "rho"):
            assert canonical(w("x"), tau) == w("x")
        assert canonical(w("x"), "tau1") == w("x+")

    def test_gamma_marks_multiple_letters(self):
        assert canonical(w("aba"), "gamma") == w("a+ba+")

    def test_trivial_rejects_marked(self):
        with pytest.raises(ValueError):
            canonical(w("a+"), "trivial")
        assert canonical(w("ab"), "trivial") == w("ab")

    def test_idempotent(self):
        for tau in NONTRIVIAL:
            for text in ("btaabb", "aabbaab", "abcabc", "a+ba"):
                once = canonical(w(text), tau)
                assert canonical(once, tau) == once

    def test_agrees_with_stepwise_reducer_exhaustively(self):
        symbols = [("a", False), ("a", True), ("b", False), ("b", True)]
        for n in range(5):
            for combo in product(symbols, repeat=n):
                word = tuple(combo)
                for tau in NONTRIVIAL:
                    assert canonical(word, tau) == canonical_stepwise(word, tau)

    def test_all_orders_reach_one_form(self):
        for text in ("btaabb", "aabb", "abab", "aab+a"):
            for tau in NONTRIVIAL:
                forms = normal_forms_all_orders(w(text), tau)
                assert forms == {canonical(w(text), tau)}

    @settings(max_examples=300)
    @given(marked_words(max_len=8), st.sampled_from(NONTRIVIAL))
    def test_all_orders_random(self, word, tau):
        assert normal_forms_all_orders(word, tau) == {canonical(word, tau)}


class TestDefinitionalOracle:
    """The rewriting normal forms decide exactly the defined congruences."""

    def test_exhaustive_two_letters(self):
        words = [tuple((b, False) for b in combo)
                 for n in range(6) for combo in product("ab", repeat=n)]
        for tau in NONTRIVIAL:
            canon = {word: canonical(word, tau) for word in words}
            for u in words:
                for v in words:
                    assert (canon[u] == canon[v]) == equal_by_definition(u, v, tau), \
                        (print_word(u), print_word(v), tau)

    @settings(max_examples=300)
    @given(plain_words("abc", 7), plain_words("abc", 7), st.sampled_from(NONTRIVIAL))
    def test_random_three_letters(self, u, v, tau):
        assert (canonical(u, tau) == canonical(v, tau)) == equal_by_definition(u, v, tau)


class TestCompose:
    def test_worked_composition_example(self):
        u = TauWord(w("bta+"), "lambda")
        v = TauWord(w("a+b+"), "lambda")
        assert compose(u, v).word == w("bta+b+")

    def test_empty_is_neutral(self):
        for tau in NONTRIVIAL:
            u = TauWord.make(w("abab"), tau)
            one = TauWord(w("1"), tau)
            assert compose(u, one) == u == compose(one, u)

    def test_square_of_letter(self):
        for tau in NONTRIVIAL:
            a = TauWord(w("a"), tau) if tau != "tau1" else TauWord.make(w("a"), tau)
            assert compose(a, a).word == w("a+")

    def test_mismatched_congruences(self):
        with pytest.raises(ValueError):
            compose(TauWord(w("a"), "lambda"), TauWord(w("b"), "gamma"))

    def test_associative_exhaustively(self):
        words = [w(t) for t in ("a", "b", "ab", "ba", "aab")]
        for tau in ("lambda", "rho", "gamma"):
            ws = [TauWord.make(word, tau) for word in words]
            for x in ws:
                for y in ws:
                    for z in ws:
                        assert compose(compose(x, y), z) == compose(x, compose(y, z))


class TestTauEqual:
    def test_examples(self):
        assert tau_equal(w("a"), w("aa"), "tau1")
        assert not tau_equal(w("ab"), w("ba"), "lambda")
        # xyxy and xyyx have different run collapses, so no congruence here
        # relates them (their gamma forms are x+y+x+y+ and x+y+x+)
        assert not tau_equal(w("xyxy"), w("xyyx"), "gamma")
        assert canonical(w("xyyx"), "gamma") == w("x+y+x+")

    def test_rejects_marked(self):
        with pytest.raises(ValueError):
            tau_equal(w("a+"), w("a"), "tau1")


class TestClassMembers:
    def test_tau1_class_of_plus(self):
        u = TauWord(w("a+"), "tau1")
        # a single letter already marks under tau1, so "a" belongs to the class
        assert class_members(u, 3) == {w("a"), w("aa"), w("aaa")}

    def test_lambda_singleton(self):
        u = TauWord(w("a"), "lambda")
        assert class_members(u, 2) == {w("a")}

    def test_members_of_generator_are_island_limited(self):
        u = TauWord(w("bta+b+"), "lambda")
        members = class_members(u, 8)
        assert members
        assert all(is_two_island_limited(m) for m in members)
        assert w("btaabb") in members and w("btaab") in members

    def test_trivial_class_is_singleton(self):
        u = TauWord(w("ab"), "trivial")
        assert class_members(u, 5) == {w("ab")}


class TestProperties:
    @settings(max_examples=400)
    @given(plain_words("abc", 9), st.sampled_from("abc"),
           st.sampled_from(NONTRIVIAL))
    def test_length_monotonicity(self, word, base, tau):
        u = canonical(word, tau)
        letter = ((base, False),)
        assert len(compose_words(u, letter, tau)) >= len(u)
        assert len(compose_words(letter, u, tau)) >= len(u)

    @settings(max_examples=400)
    @given(marked_words("abc", 9))
    def test_rho_is_reversed_lambda(self, word):
        rev = tuple(reversed(word))
        assert canonical(word, "rho") == tuple(reversed(canonical(rev, "lambda")))

    @settings(max_examples=200)
    @given(plain_words("ab", 8), st.sampled_from(NONTRIVIAL))
    def test_generated_by_letters(self, word, tau):
        acc = ()
        for letter in word:
            acc = compose_words(acc, (letter,), tau)
        assert acc == canonical(word, tau)


class TestTauWordTypes:
    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            TauWord(w("aa"), "lambda")

    def test_word_set_collapses_duplicates(self):
        ws = TauWordSet("lambda", [w("btaabb"), w("bta+b+")])
        assert len(ws.words) == 1

    def test_word_set_rejects_mixed(self):
        with pytest.raises(ValueError):
            TauWordSet("lambda", [TauWord(w("a"), "gamma")])
