from itertools import product

import numpy as np
import pytest

from taumonoid import freeobj
from taumonoid.catalog import corpus_monoids, mtau, monoid_with_identity
from taumonoid.freeobj import (RelFreeAutomaton, is_isoterm, is_tau_term,
                               rel_free_automaton, _tracker_next, _SINK)
from taumonoid.identities import BudgetExceededError, Identity, satisfies
from taumonoid.monoid import FiniteMonoid
from taumonoid.rewrite import TauWord, canonical, class_members
from taumonoid.words import parse_word, print_word, projection, simple_and_multiple

SEMILATTICE = FiniteMonoid(table=((0, 1), (1, 1)), labels=("1", "e"), identity=0)
Z2 = FiniteMonoid(table=((0, 1), (1, 0)), labels=("1", "g"), identity=0)


def w(text):
    return parse_word(text)


def tw(text, tau):
    return TauWord.make(w(text), tau)


class TestAutomaton:
    def test_semilattice_one_letter(self):
        aut = rel_free_automaton(SEMILATTICE, ["x"])
        assert aut.num_states == 2

    def test_zero_letters(self):
        aut = rel_free_automaton(SEMILATTICE, [])
        assert aut.num_states == 1

    def test_state_count_independent_of_letter_order(self):
        k = mtau("lambda", "bta+b+")
        a1 = rel_free_automaton(k, ["x", "y"])
        a2 = rel_free_automaton(k, ["y", "x"])
        assert a1.num_states == a2.num_states

    def test_states_separate_exactly_the_identities(self):
        k = mtau("lambda", "bta+b+")
        aut = rel_free_automaton(k, ["x", "y"])
        for u, v in [("xy", "yx"), ("xx", "xxx"), ("xyx", "yxx")]:
            same_state = aut.state_of_word(w(u)) == aut.state_of_word(w(v))
            assert same_state == satisfies(k, Identity(w(u), w(v))).holds

    def test_homomorphism_on_vectors(self):
        k = mtau("lambda", "ata+")
        aut = rel_free_automaton(k, ["x", "y"])
        table = np.asarray(k.table)
        for u, v in [("xy", "yx"), ("xxy", "y"), ("yxy", "xy")]:
            su = aut.state_of_word(w(u))
            sv = aut.state_of_word(w(v))
            suv = aut.state_of_word(w(u) + w(v))
            assert np.array_equal(table[aut.vectors[su], aut.vectors[sv]],
                                  aut.vectors[suv])

    def test_budget(self):
        k = mtau("lambda", "bta+b+")
        with pytest.raises(BudgetExceededError):
            rel_free_automaton(k, ["x", "y", "z", "w", "v"], max_cells=100)
        with pytest.raises(BudgetExceededError):
            rel_free_automaton(k, ["x", "y"], max_states=3)


class TestIsoterm:
    def test_xy_for_the_generator_monoid(self):
        k = mtau("lambda", "bta+b+")
        rep = is_isoterm(k, w("xy"))
        assert rep.is_isoterm

    def test_x_for_single_word_monoid(self):
        rep = is_isoterm(mtau("trivial", "x"), w("x"))
        assert rep.is_isoterm

    def test_x_fails_for_idempotent_monoid(self):
        rep = is_isoterm(SEMILATTICE, w("x"))
        assert not rep.is_isoterm
        assert rep.counterexample is not None
        # the counterexample really is an identity of the monoid
        assert satisfies(SEMILATTICE, Identity(w("x"), rep.counterexample)).holds

    def test_counterexamples_are_sound(self):
        for m, word in [(mtau("tau1", "a+b+"), "xyx"),
                        (mtau("gamma", "a+t"), "xx"),
                        (monoid_with_identity("E"), "xy")]:
            rep = is_isoterm(m, w(word))
            if not rep.is_isoterm:
                assert rep.counterexample != w(word)
                assert satisfies(m, Identity(w(word), rep.counterexample)).holds

    def test_cross_oracle_with_bounded_enumeration(self):
        # if exhaustive enumeration finds any satisfied nontrivial identity
        # with the word on one side, the isoterm verdict must be negative,
        # and conversely
        from itertools import product as iproduct
        cases = [(mtau("lambda", "bta+b+"), "xy"),
                 (mtau("tau1", "a+b+"), "xy"),
                 (mtau("gamma", "a+t"), "xx"),
                 (SEMILATTICE, "x"),
                 (mtau("trivial", "xy"), "xy")]
        for m, text in cases:
            word = w(text)
            letters = sorted({b for b, _ in word})
            found = None
            for n in range(len(word) + 3):
                for combo in iproduct(letters, repeat=n):
                    other = tuple((c, False) for c in combo)
                    if other != word and satisfies(m, Identity(word, other)).holds:
                        found = other
                        break
                if found:
                    break
            assert is_isoterm(m, word).is_isoterm == (found is None), (text, found)

    def test_balance_of_satisfied_identities_when_xy_is_isoterm(self):
        # with xy an isoterm, a satisfied identity preserves the multiple-letter
        # set and the projection onto simple letters
        k = mtau("lambda", "bta+b+")
        aut = rel_free_automaton(k, ["x", "y"])
        from itertools import product as iproduct
        by_state = {}
        for n in range(5):
            for combo in iproduct("xy", repeat=n):
                word = tuple((c, False) for c in combo)
                by_state.setdefault(aut.state_of_word(word), []).append(word)
        for words in by_state.values():
            u0 = words[0]
            s0, m0 = simple_and_multiple(u0)
            for v in words[1:]:
                sv, mv = simple_and_multiple(v)
                assert mv == m0
                assert projection(v, sv) == projection(u0, s0)


class TestTracker:
    def test_tracker_matches_canonical_forms(self):
        u = tw("bta+b+", "lambda")
        limit = len(u.word)
        from itertools import product as iproduct
        for n in range(limit + 2):
            for combo in iproduct("abt", repeat=n):
                word = tuple((c, False) for c in combo)
                state = ()
                for b, _ in word:
                    state = _tracker_next(state, b, "lambda", limit)
                expect = canonical(word, "lambda")
                if len(expect) <= limit:
                    assert state == expect
                else:
                    assert state is _SINK

    def test_members_never_sink(self):
        u = tw("bta+b+", "lambda")
        for member in class_members(u, 8):
            state = ()
            for b, _ in member:
                state = _tracker_next(state, b, "lambda", len(u.word))
                assert state is not _SINK
            assert state == u.word


class TestTauTerm:
    def test_generator_word_is_a_term_for_its_own_monoid(self):
        k = mtau("lambda", "bta+b+")
        verdict = is_tau_term(k, tw("bta+b+", "lambda"), mode="exact")
        assert verdict.holds

    def test_failure_with_verified_witness(self):
        f = mtau("lambda", "a+ta+")
        verdict = is_tau_term(f, tw("a+btb+", "lambda"))
        assert verdict.fails
        member, off = verdict.witness
        assert canonical(member, "lambda") == w("a+btb+")
        assert canonical(off, "lambda") != w("a+btb+")
        assert satisfies(f, Identity(member, off)).holds

    def test_class_members_may_split_states_without_failing(self):
        # members of a+b+ evaluate differently under some substitutions in
        # the quotient by a+b+ itself, yet the word is still a tau1-term
        m = mtau("tau1", "a+b+")
        aut = rel_free_automaton(m, ["a", "b"])
        states = {aut.state_of_word(member)
                  for member in class_members(tw("a+b+", "tau1"), 4)}
        assert len(states) > 1
        assert is_tau_term(m, tw("a+b+", "tau1"), mode="exact").holds

    def test_trivial_congruence_matches_isoterm(self):
        # two methods for one question: under the trivial congruence a word
        # is a tau-term exactly when it is an isoterm.  The grid holds the
        # empty word on Z2 (1 = zz) and on M() (1 = z), which need a letter
        # outside the word
        monoids = [m for m in corpus_monoids().values() if m.size <= 12]
        monoids += [SEMILATTICE, Z2]
        words = [()] + [tuple((c, False) for c in combo)
                        for n in (1, 2, 3) for combo in product("xy", repeat=n)]
        for m in monoids:
            for word in words:
                rep = is_isoterm(m, word)
                verdict = is_tau_term(m, TauWord(word, "trivial"), mode="exact")
                assert rep.is_isoterm == verdict.holds, (m.labels, word)
                assert rep.is_isoterm == (rep.counterexample is None)
                if rep.counterexample is not None:
                    assert rep.counterexample != word
                    assert satisfies(m, Identity(word, rep.counterexample)).holds

    def test_empty_word(self):
        m = mtau("trivial", "x")
        assert is_tau_term(m, tw("1", "trivial"), mode="exact").holds

    def test_exact_and_bounded_agree_on_instances(self):
        instances = [
            ("lambda", mtau("lambda", "bta+b+"), "bta+b+"),
            ("lambda", mtau("lambda", "bta+b+"), "a+b+"),
            ("lambda", mtau("lambda", "bta+b+"), "ata+"),
            ("lambda", mtau("lambda", "a+ta+"), "a+ta+"),
            ("lambda", mtau("lambda", "a+ta+"), "a+btb+"),
            ("lambda", mtau("lambda", "ata+"), "ata+"),
            ("gamma", mtau("gamma", "a+t"), "a+t"),
            ("gamma", mtau("gamma", "a+t"), "ta+"),
            ("tau1", mtau("tau1", "a+b+"), "a+b+"),
            ("rho", mtau("rho", "a+t"), "a+t"),
        ]
        for tau, m, text in instances:
            u = tw(text, tau)
            exact = is_tau_term(m, u, mode="exact")
            bounded = is_tau_term(m, u, mode="bounded", bound=10)
            if exact.fails:
                assert bounded.fails, (tau, text)
            else:
                assert bounded.status in ("holds", "holds-up-to-bound"), (tau, text)

    def test_bounded_fallback_is_flagged(self, monkeypatch):
        builds = []

        def counting(*args, **kwargs):
            builds.append(args)
            return rel_free_automaton(*args, **kwargs)

        monkeypatch.setattr(freeobj, "rel_free_automaton", counting)
        f = mtau("lambda", "a+ta+")
        verdict = is_tau_term(f, tw("a+ta+", "lambda"), mode="auto",
                              bound=6, max_states=2)
        assert verdict.status == "holds-up-to-bound"
        assert verdict.bound == 6
        assert "downgraded" in verdict.note
        assert verdict.method == "bounded-pairwise"
        assert len(builds) == 1

    @pytest.mark.parametrize("gen,tau,word,bound", [
        # every member of ab is zero in M(): both paths report (ab, zab)
        ("lambda:", "lambda", "ab", 2),
        ("lambda:a+ta+", "lambda", "a+ta+", 6),
        ("lambda:a+ta+", "lambda", "a+btb+", 5),
        ("lambda:ata+", "lambda", "ata+", 5),
        ("gamma:a+t", "gamma", "ta+", 6),
        ("tau1:a+b+", "tau1", "a+b+", 5),
        ("trivial:xy", "trivial", "x", 4),
        # zero-free, so a fresh letter is adjoined
        ("semilattice", "tau1", "a+", 5),
        ("Z2", "tau1", "a+", 5),
    ])
    def test_fallback_agrees_with_bounded(self, gen, tau, word, bound):
        zero_free = {"semilattice": SEMILATTICE, "Z2": Z2}
        m = zero_free[gen] if gen in zero_free else mtau(*gen.split(":"))
        u = tw(word, tau)
        fallback = is_tau_term(m, u, mode="auto", bound=bound, max_cells=0)
        bounded = is_tau_term(m, u, mode="bounded", bound=bound)
        assert fallback.method == "bounded-pairwise"
        assert bounded.method == "bounded"
        assert (fallback.status, fallback.witness) == \
            (bounded.status, bounded.witness)

    def test_zero_member_witness(self):
        verdict = is_tau_term(mtau("lambda", ""), tw("ab", "lambda"),
                              mode="auto", bound=2, max_cells=0)
        assert verdict.fails
        assert verdict.witness == (w("ab"), w("zab"))

    def test_zero_free_monoid_uses_fresh_letter(self):
        # the semilattice has no identity introducing a fresh letter, so a+
        # stays a tau1-term; the two-element group satisfies x = x z^2 and
        # the fresh letter is what exposes the failure there
        verdict = is_tau_term(SEMILATTICE, tw("a+", "tau1"))
        assert verdict.fresh_letter_used and verdict.holds
        z2 = FiniteMonoid(table=((0, 1), (1, 0)), labels=("1", "g"), identity=0)
        verdict = is_tau_term(z2, tw("a+", "tau1"))
        assert verdict.fresh_letter_used and verdict.fails
        member, off = verdict.witness
        assert canonical(member, "tau1") == w("a+")
        assert canonical(off, "tau1") != w("a+")
        assert satisfies(z2, Identity(member, off)).holds
