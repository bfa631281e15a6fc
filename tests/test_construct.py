import hashlib
from collections import deque
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from taumonoid import construct
from taumonoid.catalog import EXTRA_GENERATORS, FIG_LATTICE, mtau
from taumonoid.construct import _lower_words, build_monoid, leq_tau, lower_set
from taumonoid.monoid import (FiniteMonoid, dual, find_isomorphism,
                              is_aperiodic, is_j_trivial)
from taumonoid.rewrite import (CONGRUENCES, TauWord, TauWordSet,
                               append_letter, canonical)
from taumonoid.words import EMPTY, content, parse_word, print_word

from oracles import (leq_tau_by_factor_search, lower_graph,
                     lower_words_by_members)

# the lambda lower set of bta+b+, frozen after the factor-search oracle run
K_LOWER = sorted(
    "1 a a+ b b+ t bt ta ta+ ab ab+ a+b a+b+ bta bta+ ta+b ta+b+ bta+b+".split())

# the lambda lower set of ata+, frozen the same way (8 nonzero words)
ATA_LOWER = sorted("1 a a+ t at ta ta+ ata+".split())


def tw(text, tau="lambda"):
    return TauWord.make(parse_word(text), tau)


class TestLeq:
    def test_listed_factor(self):
        assert leq_tau(tw("a+"), tw("bta+b+"))

    def test_reflexive_and_bottom(self):
        u = tw("bta+b+")
        assert leq_tau(u, u)
        assert leq_tau(tw("1"), u)

    def test_listed_and_unlisted(self):
        assert leq_tau(tw("ta+b"), tw("bta+b+"))
        assert not leq_tau(tw("a+t"), tw("bta+b+"))

    def test_mismatched_congruence(self):
        with pytest.raises(ValueError):
            leq_tau(tw("a"), tw("ab", "gamma"))

    def test_agrees_with_factor_search(self):
        for base in ("bta+b+", "ata+"):
            u = tw(base)
            low = lower_set(TauWordSet("lambda", [u.word]))
            everything = {t.word for t in low}
            for v in low:
                assert leq_tau_by_factor_search(v, u)
            # a couple of words outside the lower set
            for text in ("a+t", "b+t", "tb"):
                v = tw(text)
                assert leq_tau(v, u) == leq_tau_by_factor_search(v, u) == \
                    (v.word in everything)

    def test_order_axioms_on_lower_set(self):
        low = sorted(lower_set(TauWordSet("lambda", [parse_word("bta+b+")])),
                     key=lambda t: (len(t.word), str(t)))
        for x in low:
            assert leq_tau(x, x)
        for x in low:
            for y in low:
                if leq_tau(x, y) and leq_tau(y, x):
                    assert x == y          # antisymmetry
        for x in low:
            for y in low:
                for z in low:
                    if leq_tau(x, y) and leq_tau(y, z):
                        assert leq_tau(x, z)


@lru_cache(maxsize=None)
def _reverse_graph(bases: tuple, max_len: int, tau: str):
    """All canonical words over ``bases`` of length <= max_len, as edges.

    Returns ``(into_right, into_left)``: ``into_right[y]`` lists the ``x``
    with ``x * letter == y`` and ``into_left[y]`` those with
    ``letter * x == y``, for words of length <= max_len.  Every canonical
    word is a product of plain letters, so a breadth-first closure from the
    empty word visits all of them.
    """
    letters = [((b, False),) for b in bases]
    nodes = {EMPTY}
    into_right: dict = {}
    into_left: dict = {}
    queue = deque([EMPTY])
    while queue:
        x = queue.popleft()
        for l in letters:
            for y, into in ((canonical(x + l, tau), into_right),
                            (canonical(l + x, tau), into_left)):
                if len(y) <= max_len:
                    into.setdefault(y, []).append(x)
                    if y not in nodes:
                        nodes.add(y)
                        queue.append(y)
    return into_right, into_left


def _backward_closure(starts, into: dict) -> set:
    out: set = set()
    stack = list(starts)
    while stack:
        x = stack.pop()
        if x not in out:
            out.add(x)
            stack.extend(into.get(x, ()))
    return out


def lower_set_by_reachability(u: TauWord) -> set:
    """Independent oracle: the lower set as two reachability questions.

    Multiplying a canonical word by a letter never shortens it, so the
    search for ``u = p * v * s`` stays among the canonical words over the
    content of ``u`` no longer than ``u``.  On that finite graph with its
    letter edges, the words that reach ``u`` by right multiplication are
    the ``v * s``; the words that reach one of those by left multiplication
    are the ``v``.
    """
    into_right, into_left = _reverse_graph(
        tuple(sorted(content(u.word))), len(u.word), u.tau)
    reach_u = _backward_closure([u.word], into_right)
    return {TauWord(w, u.tau) for w in _backward_closure(reach_u, into_left)}


def canonical_words(tau: str, max_len: int, bases: str = "abc"):
    """Every canonical word over ``bases`` of length 1..max_len."""
    out = set()
    for n in range(1, max_len + 1):
        for combo in product(bases, repeat=n):
            for marks in product((False, True), repeat=n):
                if tau == "trivial" and any(marks):
                    continue
                w = tuple(zip(combo, marks))
                if canonical(w, tau) == w:
                    out.add(w)
    return sorted(out, key=lambda w: (len(w), w))


def assert_agrees_with_reachability(max_len: int):
    for tau in CONGRUENCES:
        for w in canonical_words(tau, max_len):
            u = TauWord(w, tau)
            assert lower_set(TauWordSet(tau, [w])) == \
                lower_set_by_reachability(u), (tau, str(u))


class TestLowerSet:
    def test_generator_word_lower_set(self):
        low = lower_set(TauWordSet("lambda", [parse_word("bta+b+")]))
        assert sorted(str(t) for t in low) == K_LOWER

    def test_agrees_with_reachability_oracle(self):
        cases = [("lambda", "bta+b+"), ("lambda", "ata+"),
                 ("lambda", "a+btb+"), ("lambda", "ata+b+"),
                 ("gamma", "a+ta+"), ("gamma", "ta+"), ("tau1", "a+b+"),
                 ("rho", "a+t"), ("rho", "a+tb+asb"), ("trivial", "atbasb")]
        for tau, text in cases:
            u = TauWord.make(parse_word(text), tau)
            low = lower_set(TauWordSet(tau, [u.word]))
            assert low == lower_set_by_reachability(u), (tau, text)

    def test_gamma_single_letter_already_marked(self):
        # under gamma a single a is marked once a occurs twice, so members
        # may carry a run of one for a+; a doubled first run misses bas
        u = TauWord.make(parse_word("ba+s+a+t+s+"), "gamma")
        low = lower_set(TauWordSet("gamma", [u.word]))
        assert low == lower_set_by_reachability(u)
        assert len(low) == 58
        got = {str(t) for t in low}
        assert {"bas", "bas+", "a+sa+"} <= got

    def test_agrees_with_reachability_up_to_length_4(self):
        assert_agrees_with_reachability(4)

    @pytest.mark.slow
    def test_agrees_with_reachability_up_to_length_6(self):
        # re-proves on every small word that the windows read along the
        # prefix automaton of the class are the whole lower set
        assert_agrees_with_reachability(6)

    def test_agrees_with_the_capped_members_up_to_length_5(self):
        # the windows of all 2^p capped members, listed, against the windows
        # read along the prefix automaton
        for tau in CONGRUENCES:
            for u in [EMPTY] + canonical_words(tau, 5, "abt"):
                assert _lower_words(u, tau) == lower_words_by_members(u, tau), \
                    (tau, print_word(u))

    def test_lower_set_is_found_without_listing_the_members(self, monkeypatch):
        # (a+b+)^12 has 2^24 capped members; the search makes at most |u|^3
        # calls, and the counter stops a listing as soon as it passes them
        calls = []

        def counting(fn):
            def wrapped(*args):
                calls.append(args)
                if len(calls) > 24 ** 3:
                    raise AssertionError("more than |u|^3 calls")
                return fn(*args)
            return wrapped

        monkeypatch.setattr(construct, "append_letter", counting(append_letter))
        for tau in CONGRUENCES[1:]:
            calls.clear()
            _lower_words.cache_clear()
            u = TauWord.make(parse_word("a+b+" * 12), tau)
            assert u in lower_set(TauWordSet(tau, [u])), tau

    def test_empty_set(self):
        assert lower_set(TauWordSet("lambda", [])) == set()

    def test_words_pass_the_canonical_check(self):
        # lower_set wraps its words unchecked; the checked constructor
        # accepts every one of them
        for _, tau, text in FIG_LATTICE + EXTRA_GENERATORS:
            low = lower_set(TauWordSet(tau, [parse_word(w.strip())
                                             for w in text.split(",")]))
            assert {TauWord(t.word, t.tau) for t in low} == low, (tau, text)

    def test_golden_ata(self):
        low = lower_set(TauWordSet("lambda", [parse_word("ata+")]))
        assert sorted(str(t) for t in low) == ATA_LOWER
        assert len(low) == 8

    def test_monotone_in_word_set(self):
        small = lower_set(TauWordSet("lambda", [parse_word("ata+")]))
        big = lower_set(TauWordSet("lambda",
                                   [parse_word("ata+"), parse_word("a+b+")]))
        assert {t.word for t in small} <= {t.word for t in big}


def forms_of_plain_words(tau: str, max_len: int, bases: str = "abt") -> list:
    """The canonical forms of every plain word over ``bases`` of length
    0..max_len."""
    return sorted({canonical(tuple((b, False) for b in combo), tau)
                   for n in range(max_len + 1)
                   for combo in product(bases, repeat=n)},
                  key=lambda w: (len(w), w))


class TestLowerGraph:
    def test_graph_is_the_right_action_on_the_lower_set(self):
        # every form f below u has an entry f -> b exactly when f * b is
        # below u, and the entry is that product; letters outside the
        # content of u have none
        count = 0
        for tau in CONGRUENCES:
            for u in forms_of_plain_words(tau, 6):
                graph = lower_graph(u, tau)
                low = set(graph)
                assert low == _lower_words(u, tau), (tau, print_word(u))
                for f, out in graph.items():
                    want = {b: g for b in "abt"
                            if (g := append_letter(f, b, tau)) in low}
                    assert out == want, (tau, print_word(u), print_word(f))
                count += 1
        assert count == 2714

    def test_build_forms_each_product_once(self, monkeypatch):
        # one memo serves the whole build: one append_letter per distinct
        # (form, letter), each one that a per-word search also forms, and no
        # lower-set cache filled; the sets of several words share some
        calls, shared = [], 0

        def counting(*args):
            calls.append(args)
            return append_letter(*args)

        monkeypatch.setattr(construct, "append_letter", counting)
        for name, tau, words in FIG_LATTICE + EXTRA_GENERATORS:
            ws = TauWordSet(tau, [parse_word(w) for w in words.split(",") if w])
            _lower_words.cache_clear()
            calls.clear()
            build_monoid(ws)
            built = list(calls)
            assert _lower_words.cache_info().currsize == 0, name
            assert len(built) == len(set(built)), name
            calls.clear()
            for w in ws.words:
                lower_graph(w, tau)
            assert set(built) == set(calls), name
            shared += len(calls) - len(built)
        assert shared > 0


class TestBuildMonoid:
    def test_single_plain_word(self):
        m = mtau("trivial", "x")
        assert m.size == 3
        assert sorted(m.labels) == ["0", "1", "x"]

    def test_tau1_pair(self):
        m = mtau("tau1", "a+b+")
        assert m.size == 5
        assert sorted(m.labels) == ["0", "1", "a+", "a+b+", "b+"]

    def test_generator_monoid_size(self):
        m = mtau("lambda", "bta+b+")
        assert m.size == 19
        assert m.zero is not None
        assert m.labels[m.identity] == "1"

    def test_empty_word_set(self):
        m = mtau("trivial", "")
        assert m.size == 1
        assert m.identity == m.zero

    def test_zero_is_absorbing_and_products_leave_lower_set(self):
        m = mtau("lambda", "ata+")
        z = m.zero
        for i in range(m.size):
            assert m.table[z][i] == z == m.table[i][z]
        # b is not even a letter here; squaring the top element must vanish
        top = m.labels.index("ata+")
        assert m.table[top][top] == z

    def test_quotients_are_j_trivial_with_zero(self):
        for tau, words in [("lambda", "bta+b+"), ("gamma", "a+ta+"),
                           ("rho", "a+tb+asb"), ("tau1", "a+b+"),
                           ("trivial", "atbasb")]:
            m = mtau(tau, words)
            ok, _ = is_j_trivial(m)
            assert ok and is_aperiodic(m) and m.zero is not None

    def test_rho_of_reversed_word_is_the_dual(self):
        # reversal is an anti-isomorphism carrying lambda-classes to
        # rho-classes, so the two constructions are duals of each other
        for text in ("bta+b+", "ata+", "a+btb+"):
            u = TauWord.make(parse_word(text), "lambda")
            rev = TauWord.make(tuple(reversed(u.word)), "rho")
            left = mtau("rho", str(rev))
            right = dual(mtau("lambda", text))
            assert find_isomorphism(left, right) is not None, text


def build_monoid_by_compose(ws: TauWordSet, low: set | None = None
                            ) -> FiniteMonoid:
    """Oracle: the Rees quotient with every one of the n^2 products composed.

    Same elements, label order, identity and zero as ``build_monoid``; each
    entry is the canonical product when it stays in the lower set, else zero.
    The lower set ``low`` (tau-words) defaults to ``lower_set(ws)``.
    """
    low = sorted((w.word for w in (lower_set(ws) if low is None else low)),
                 key=lambda w: (len(w), print_word(w)))
    if not low:
        return FiniteMonoid(table=((0,),), labels=("0",), identity=0, zero=0)
    index = {w: i for i, w in enumerate(low)}
    zero = len(low)
    rows = [tuple(index.get(canonical(x + y, ws.tau), zero) for y in low)
            + (zero,) for x in low]
    rows.append((zero,) * (zero + 1))
    labels = tuple(print_word(w) for w in low) + ("0",)
    return FiniteMonoid(table=tuple(rows), labels=labels,
                        identity=index[EMPTY], zero=zero)


class TestCayleyBuildAgainstCompose:
    @pytest.mark.parametrize("name,tau,words", FIG_LATTICE + EXTRA_GENERATORS,
                             ids=[n for n, _, _ in FIG_LATTICE + EXTRA_GENERATORS])
    def test_corpus_generators(self, name, tau, words):
        ws = TauWordSet(tau, [parse_word(w) for w in words.split(",") if w])
        assert build_monoid(ws) == build_monoid_by_compose(ws)

    @pytest.mark.parametrize("tau", CONGRUENCES)
    def test_empty_set_and_empty_word(self, tau):
        # FiniteMonoid equality covers table, labels, identity and zero
        for ws in (TauWordSet(tau, []), TauWordSet(tau, [EMPTY])):
            assert build_monoid(ws) == build_monoid_by_compose(ws)

    @pytest.mark.parametrize("tau", CONGRUENCES)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_drawn_word_sets(self, tau, data):
        # the graphs are keyed by base, so multi-character bases are drawn too
        bases = data.draw(st.sampled_from(["abc", ("x1", "x2", "t")]))
        pool = _canonical_up_to_5(tau, bases)
        words = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=3))
        ws = TauWordSet(tau, words)
        assert build_monoid(ws) == build_monoid_by_compose(ws)

    @pytest.mark.parametrize("tau", CONGRUENCES)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_word_sets_sharing_a_factor(self, tau, data):
        # two or three words around one core: the build's one memo serves
        # all of them, and their lower sets overlap below the core
        plain = st.text("abt", max_size=2)
        core = data.draw(st.text("abt", min_size=1, max_size=3))
        ends = data.draw(st.lists(st.tuples(plain, plain), min_size=2,
                                  max_size=3))
        ws = TauWordSet(tau, [parse_word(p + core + s) for p, s in ends])
        assume(len(ws.words) >= 2)
        assert build_monoid(ws) == build_monoid_by_compose(ws)

    def test_pinned_grid(self):
        # labels and table of M_tau(u) for every form u of a plain word of
        # length <= 4 over abt, under each congruence (452 monoids); the
        # hash is the one that building from per-word graphs gave
        h = hashlib.sha256()
        count = 0
        for tau in CONGRUENCES:
            for u in forms_of_plain_words(tau, 4):
                m = build_monoid(TauWordSet(tau, [u]))
                h.update("\n".join(m.labels).encode() + b"\0")
                h.update(np.asarray(m.table, dtype="<i4").tobytes())
                count += 1
        assert count == 452
        assert h.hexdigest() == ("c5534df0b52829e2ee7f56a2af811a67"
                                 "0c000dc5b8e4f2c694fe71aaf48ca15d")


@lru_cache(maxsize=None)
def _canonical_up_to_5(tau: str, bases) -> list:
    return canonical_words(tau, 5, bases)
