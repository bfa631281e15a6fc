import time
from collections import deque
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taumonoid import cli, construct, freeobj
from taumonoid.catalog import (EXTRA_GENERATORS, FIG_LATTICE, corpus_monoids,
                              monoid_with_identity, mtau)
from taumonoid.claims import Claim, run_claim
from taumonoid.construct import _tracker_table
from taumonoid.freeobj import (BudgetExceededError, RelFreeAutomaton,
                               is_isoterm, is_tau_term, rel_free_automaton)
from taumonoid.identities import Identity, satisfies
from taumonoid.monoid import (FiniteMonoid, Semigroup, adjoin_identity,
                              format_monoid, parse_monoid, submonoid)
from taumonoid.rewrite import CONGRUENCES, TauWord, append_letter, canonical
from taumonoid.words import content, parse_word, print_word

from oracles import (SEMILATTICE, Z2, capped_members, class_members, dense,
                     dense_automaton, isoterm_by_accepted_words, projection,
                     search_letters, simple_and_multiple,
                     tau_term_by_enumeration, tau_term_search_unpruned)


def w(text):
    return parse_word(text)


def whole_automaton(m, letters):
    """``rel_free_automaton`` with a row for every state, built in state
    order, so that the states are numbered breadth-first."""
    aut = rel_free_automaton(m, letters)
    s = 0
    while s < aut.num_states:
        aut.row(s)
        s += 1
    return aut


def rows_of(aut):
    """The rows of a whole automaton, as a list in state order."""
    return [aut.transitions[s] for s in range(aut.num_states)]


def spent(m, u):
    """The automaton that the search of ``is_tau_term`` on ``u`` builds,
    under the default budget."""
    letters = search_letters(m, u)
    aut = rel_free_automaton(m, letters)
    freeobj._search(u, letters, aut)
    return aut


def same_states(aut, whole):
    """Each state of ``aut`` as the state of ``whole`` with its vector."""
    return {s: whole.index[key] for key, s in aut.index.items()}


def vector(aut, s):
    """State ``s`` of ``aut`` as its full evaluation vector."""
    m = aut.monoid
    support, values = aut.states[s]
    v = np.full(m.size ** len(aut.letters), -1 if m.zero is None else m.zero,
                dtype=np.int32)
    v[support] = values
    return v


def tw(text, tau):
    return TauWord.make(w(text), tau)


def monoid_named(name):
    """``SEMILATTICE``, ``Z2``, or ``mtau(tau, gen)`` named ``tau:gen``."""
    tables = {"semilattice": SEMILATTICE, "Z2": Z2}
    return tables[name] if name in tables else mtau(*name.split(":"))


GROWN = ["semilattice", "Z2", "tau1:a+b+", "gamma:a+t", "lambda:bta+b+"]


@lru_cache(maxsize=None)
def grown_whole(name, k):
    return whole_automaton(monoid_named(name), "abcd"[:k])


def cells_of(aut):
    """The cells ``aut`` holds: its generator columns and two per entry."""
    k = len(aut.letters)
    return k * aut.monoid.size ** k + 2 * sum(len(sup) for sup, _ in aut.states)


class TestAutomaton:
    def test_semilattice_one_letter(self):
        aut = whole_automaton(SEMILATTICE, ["x"])
        assert aut.num_states == 2

    def test_zero_letters(self):
        aut = whole_automaton(SEMILATTICE, [])
        assert aut.num_states == 1

    def test_state_count_independent_of_letter_order(self):
        k = mtau("lambda", "bta+b+")
        a1 = whole_automaton(k, ["x", "y"])
        a2 = whole_automaton(k, ["y", "x"])
        assert a1.num_states == a2.num_states

    def test_states_separate_exactly_the_identities(self):
        k = mtau("lambda", "bta+b+")
        aut = rel_free_automaton(k, ["x", "y"])
        for u, v in [("xy", "yx"), ("xx", "xxx"), ("xyx", "yxx")]:
            same_state = aut.state_of_word(w(u)) == aut.state_of_word(w(v))
            assert same_state == satisfies(k, Identity(w(u), w(v))).holds

    def test_a_letter_outside_the_alphabet_is_refused(self):
        aut = rel_free_automaton(mtau("lambda", "bta+b+"), ["x", "y"])
        with pytest.raises(ValueError, match="z is not a letter of the automaton"):
            aut.state_of_word(w("xz"))

    def test_homomorphism_on_vectors(self):
        k = mtau("lambda", "ata+")
        aut = rel_free_automaton(k, ["x", "y"])
        table = np.asarray(k.table)
        for u, v in [("xy", "yx"), ("xxy", "y"), ("yxy", "xy")]:
            su = aut.state_of_word(w(u))
            sv = aut.state_of_word(w(v))
            suv = aut.state_of_word(w(u) + w(v))
            assert np.array_equal(table[vector(aut, su), vector(aut, sv)],
                                  vector(aut, suv))

    def test_budget(self, monkeypatch):
        k = mtau("lambda", "bta+b+")
        monkeypatch.setattr(freeobj, "MAX_CELLS", 100)
        with pytest.raises(BudgetExceededError):
            rel_free_automaton(k, ["x", "y", "z", "w", "v"])

    def test_budget_counts_states_and_generator_columns(self, monkeypatch):
        # 2 generator columns of 19^2 cells and two cells, an index and a
        # value, per nonzero entry of the 18 states; both arrays of a state
        # are views of its index key
        k = mtau("lambda", "bta+b+")
        entries = sum(int((v != k.zero).sum()) for v in dense(k, 2)[0])
        assert entries < 18 * 361 // 2
        cells = 2 * 361 + 2 * entries
        monkeypatch.setattr(freeobj, "MAX_CELLS", cells)
        aut = whole_automaton(k, ["x", "y"])
        assert aut.num_states == 18
        assert all(sup.base is val.base and isinstance(sup.base.base, bytes)
                   for sup, val in aut.states)
        monkeypatch.setattr(freeobj, "MAX_CELLS", cells - 1)
        with pytest.raises(BudgetExceededError) as e:
            whole_automaton(k, ["x", "y"])
        assert e.value.needed == cells

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(GROWN), st.integers(0, 3),
           st.lists(st.integers(0, 250), max_size=6))
    def test_any_growth_is_a_prefix_of_the_whole(self, name, k, steps):
        # a fresh automaton has its initial state and no row; after rows
        # are built in any order, each state and row is the whole build's
        # up to numbering, the cells spent are those of the states held,
        # and building every row gives the whole build's states and cells
        whole = grown_whole(name, k)
        aut = rel_free_automaton(monoid_named(name), "abcd"[:k])
        assert (aut.num_states, aut.transitions) == (1, {})
        for n in steps:
            aut.row(n % aut.num_states)
            same = same_states(aut, whole)
            assert sorted(same) == list(range(aut.num_states))
            for s, row in aut.transitions.items():
                assert [same[t] for t in row] == whole.transitions[same[s]]
            assert aut.cells == cells_of(aut)
        for s in range(whole.num_states):
            aut.row(s)
        assert aut.num_states == whole.num_states
        assert aut.cells == whole.cells


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

    def test_marked_word_is_refused(self):
        with pytest.raises(ValueError, match=r"plain word, got x\+y"):
            is_isoterm(mtau("lambda", "bta+b+"), w("x+y"))

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


def run_tracker(table, letters, word):
    """The tracker states ``word`` passes through, from state 0."""
    states = [0]
    for b, _ in word:
        states.append(table[states[-1]][letters.index(b)])
    return states


def tracker_forms(u, table, letters):
    """The canonical form of the shortlex-first word reaching each tracker
    state but the sink (the last row), by breadth-first search."""
    forms, queue = {0: ()}, deque([()])
    while queue:
        word = queue.popleft()
        for b in letters:
            nxt = word + ((b, False),)
            s = run_tracker(table, letters, nxt)[-1]
            if s not in forms and s != len(table) - 1:
                forms[s] = nxt
                queue.append(nxt)
    return {s: canonical(f, u.tau) for s, f in forms.items()}


class TestTracker:
    def test_members_never_sink(self):
        u = tw("bta+b+", "lambda")
        table, target = _tracker_table(u, "abt")
        for member in class_members(u, 8):
            states = run_tracker(table, "abt", member)
            assert len(table) - 1 not in states, print_word(member)
            assert states[-1] == target

    def test_tracker_matches_canonical_forms(self):
        # the capped members of bta+b+ have at most 8 letters, so the
        # members of up to 8 letters have every prefix form
        u = tw("bta+b+", "lambda")
        prefix_forms = {canonical(m[:j], "lambda")
                        for m in class_members(u, 8) for j in range(len(m) + 1)}
        table, target = _tracker_table(u, "abt")
        state_of = tracker_forms(u, table, "abt")
        assert set(state_of.values()) == prefix_forms
        assert len(state_of) == len(table) - 1 and state_of[target] == u.word
        for n in range(len(u.word) + 2):
            for combo in product("abt", repeat=n):
                word = tuple((c, False) for c in combo)
                end = run_tracker(table, "abt", word)[-1]
                expect = canonical(word, "lambda")
                if expect in prefix_forms:
                    assert state_of[end] == expect, print_word(word)
                else:
                    assert end == len(table) - 1, print_word(word)

    def test_states_are_the_prefix_forms_of_the_capped_members(self):
        words = grid_words() + [tw(text, tau) for tau in CONGRUENCES[1:]
                                for text in ("a+ba+sb+t", "ba+sa+t+s+")]
        for u in words:
            letters = sorted(content(u.word) | {"a", "b"})
            table, target = _tracker_table(u, letters)
            forms = tracker_forms(u, table, letters)
            assert sorted(forms.values(), key=lambda f: (len(f), f)) == \
                sorted({canonical(m[:j], u.tau)
                        for m in capped_members(u.word, u.tau)
                        for j in range(len(m) + 1)},
                       key=lambda f: (len(f), f)), u
            assert len(forms) == len(table) - 1 and forms[target] == u.word

    def test_table_is_built_without_listing_the_members(self, monkeypatch):
        # (a+b+)^12 has 2^24 capped expansions; the table appends a letter
        # to a few forms per letter of u instead
        calls = []

        def counting(*args):
            calls.append(args)
            return append_letter(*args)

        monkeypatch.setattr(construct, "append_letter", counting)
        for tau in CONGRUENCES[1:]:
            calls.clear()
            u = tw("a+b+" * 12, tau)
            _, target = _tracker_table(u, "ab")
            assert target is not None and len(calls) <= len(u.word) ** 2, tau

    def test_each_product_is_appended_once(self, monkeypatch):
        # the table reuses the products the steps formed: one append_letter
        # per distinct (form, letter), where each of these words formed
        # some twice (26, 36, 48 and 72 calls)
        calls = []

        def counting(*args):
            calls.append(args)
            return append_letter(*args)

        monkeypatch.setattr(construct, "append_letter", counting)
        for text, tau, want in [("bta+b+", "lambda", 19),
                                ("atba+sb+", "lambda", 28),
                                ("a+b+ta+", "gamma", 33),
                                ("a+tb+asb", "rho", 56)]:
            calls.clear()
            u = tw(text, tau)
            _tracker_table(u, sorted(content(u.word)))
            assert (len(calls), len(set(calls))) == (want, want), text

    def test_trivial_table_is_the_prefix_lengths(self, monkeypatch):
        # under the trivial congruence no letter is appended to a form:
        # letter i moves prefix length j on exactly when it is u[j]
        calls = []

        def counting(fn):
            def wrapped(*args):
                calls.append(args)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(construct, "append_letter", counting(append_letter))
        u = TauWord(w("xy" * 2000), "trivial")
        table, target = _tracker_table(u, "xy")
        assert calls == []
        assert target == 4000 and len(table) == 4002
        assert all(table[j] == ([j + 1, 4001] if j % 2 == 0 else [4001, j + 1])
                   for j in range(4000))
        assert table[4000] == table[4001] == [4001, 4001]

    def test_one_compose_per_state_and_letter(self, monkeypatch):
        # the trivial class of xyxyxyxyxy has 11 prefixes and K has a zero,
        # so the search runs over x and y alone
        calls = []

        def counting(*args):
            calls.append(args)
            return append_letter(*args)

        k = mtau("lambda", "bta+b+")     # built before its products count
        monkeypatch.setattr(construct, "append_letter", counting)
        u = tw("xyxyxyxyxy", "trivial")
        is_tau_term(k, u)
        assert len(calls) <= (len(u.word) + 1) * 2


class TestTauTerm:
    def test_generator_word_is_a_term_for_its_own_monoid(self):
        k = mtau("lambda", "bta+b+")
        verdict = is_tau_term(k, tw("bta+b+", "lambda"))
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
        assert is_tau_term(m, tw("a+b+", "tau1")).holds

    def test_trivial_congruence_matches_isoterm(self):
        # under the trivial congruence a word is a tau-term exactly when it
        # is an isoterm, and the isoterm report is the accepted-words
        # oracle's.  The grid holds the empty word on Z2 (1 = zz) and on M()
        # (1 = z), which need a letter outside the word
        monoids = [m for m in corpus_monoids().values() if m.size <= 12]
        monoids += [SEMILATTICE, Z2]
        words = [()] + [tuple((c, False) for c in combo)
                        for n in (1, 2, 3) for combo in product("xy", repeat=n)]
        for m in monoids:
            for word in words:
                rep = is_isoterm(m, word)
                assert rep == isoterm_by_accepted_words(m, word), \
                    (m.labels, word)
                verdict = is_tau_term(m, TauWord(word, "trivial"))
                assert rep.is_isoterm == verdict.holds, (m.labels, word)
                assert rep.is_isoterm == (rep.counterexample is None)
                if rep.counterexample is not None:
                    assert rep.counterexample != word
                    assert satisfies(m, Identity(word, rep.counterexample)).holds

    def test_empty_word(self):
        m = mtau("trivial", "x")
        assert is_tau_term(m, tw("1", "trivial")).holds

    def test_over_budget_is_refused_on_every_surface(self, monkeypatch, capsys):
        # the library raises, a claim is skipped with the budget, and the
        # command line exits 2 with one line
        def over_budget(m, letters):
            raise BudgetExceededError(freeobj.MAX_CELLS + 1)

        monkeypatch.setattr(freeobj, "rel_free_automaton", over_budget)
        f = mtau("lambda", "a+ta+")
        with pytest.raises(BudgetExceededError):
            is_tau_term(f, tw("a+ta+", "lambda"))
        result = run_claim(Claim("t", "tau-term", "lambda ; M[lambda](a+ta+) ; "
                                 "a+ta+", "holds", "DERIVED", "here"))
        assert result.verdict == "skipped"
        assert result.actual.startswith("budget: ")
        code = cli.main(["tau-term", "lambda", "M[lambda](a+ta+)", "a+ta+"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("refused: ")

    def test_zero_member_witness(self):
        verdict = is_tau_term(mtau("lambda", ""), tw("ab", "lambda"))
        assert verdict.fails
        assert verdict.witness == (w("ab"), w("zab"))

    def test_zero_free_monoid_uses_fresh_letter(self, monkeypatch):
        # the semilattice has no identity introducing a fresh letter, so a+
        # stays a tau1-term; the two-element group satisfies aa = 1.  Only
        # the zero-free Z2 searches a fresh letter: the table of {1, e}
        # has the zero e
        assert (SEMILATTICE.zero, Z2.zero) == (1, None)
        builds = []

        def counting(m, letters, **kwargs):
            builds.append(letters)
            return rel_free_automaton(m, letters, **kwargs)

        monkeypatch.setattr(freeobj, "rel_free_automaton", counting)
        assert is_tau_term(SEMILATTICE, tw("a+", "tau1")).holds
        verdict = is_tau_term(Z2, tw("a+", "tau1"))
        assert verdict.fails
        member, off = verdict.witness
        assert canonical(member, "tau1") == w("a+")
        assert canonical(off, "tau1") != w("a+")
        assert satisfies(Z2, Identity(member, off)).holds
        assert builds == [("a",), ("a", "z")]

    def test_exact_refuses_before_the_automaton_outgrows_the_budget(
            self, monkeypatch):
        # J's own generator word: 4 letters, 34^4 substitutions, and far
        # more than the two states that fit beside the generator columns
        j = mtau("lambda", "atba+sb+")
        u = tw("atba+sb+", "lambda")
        monkeypatch.setattr(freeobj, "MAX_CELLS", 8 * 34 ** 4)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            is_tau_term(j, u)
        assert time.perf_counter() - start < 1

    def test_unknown_keywords_are_refused(self):
        # every verdict is exact: neither a mode nor a bound is taken
        f = mtau("lambda", "a+ta+")
        for option in ("mode", "bound"):
            with pytest.raises(TypeError, match=option):
                is_tau_term(f, tw("a+btb+", "lambda"), **{option: 3})


def grid_words():
    """The tau-words of the words of at most 3 letters over ab and of the
    paper's tau-term claims, under every congruence that takes them."""
    plain = [""] + ["".join(c) for n in (1, 2, 3) for c in product("ab", repeat=n)]
    paper = ["bta+b+", "a+b+", "ata+", "a+ta+", "a+btb+", "a+t", "ta+"]
    return sorted({TauWord.make(w(text), tau) for tau in CONGRUENCES
                   for text in plain + (paper if tau != "trivial" else [])},
                  key=repr)


@pytest.fixture
def grid(monkeypatch):
    """Monoids and tau-words for the differential grids, with one
    evaluation automaton per monoid and alphabet shared by every call."""
    built = {}

    def shared(m, letters, **budgets):
        key = (id(m), tuple(letters), tuple(sorted(budgets.items())))
        if key not in built:
            built[key] = rel_free_automaton(m, letters, **budgets)
        return built[key]

    monkeypatch.setattr(freeobj, "rel_free_automaton", shared)
    monoids = [m for m in corpus_monoids().values() if m.size <= 12]
    return [(m, u) for m in monoids + [SEMILATTICE, Z2] for u in grid_words()]


class TestAgainstEnumeration:
    def test_exact_witnesses_are_the_first_enumerated(self, grid):
        # a failure's witness is what enumeration finds once the bound
        # admits both words; a tau-term survives enumeration to bound 6
        for m, u in grid:
            exact = is_tau_term(m, u)
            if exact.fails:
                bound = max(map(len, exact.witness))
                oracle = tau_term_by_enumeration(m, u, bound)
                assert oracle == exact.witness, (m.labels, u)
            else:
                assert exact.holds
                assert tau_term_by_enumeration(m, u, 6) is None, (m.labels, u)


def unpruned_agrees(m, u, built):
    """``_search`` and the unpruned search give the same first member and
    witness; ``built`` holds one automaton per monoid and alphabet, which
    every search shares, as the rows it already has do not matter."""
    letters = search_letters(m, u)
    key = (id(m), letters)
    if key not in built:
        built[key] = rel_free_automaton(m, letters)
    assert freeobj._search(u, letters, built[key]) == \
        tau_term_search_unpruned(m, u, letters), (m.labels, u)


# the paper's tau-term words on K, F and N, and J's generator word under
# gamma on N
PAPER_WORDS = [("lambda:bta+b+", "lambda", "bta+b+"),
               ("lambda:bta+b+", "lambda", "a+b+"),
               ("lambda:bta+b+", "lambda", "ata+"),
               ("lambda:a+ta+", "lambda", "a+ta+"),
               ("lambda:a+ta+", "lambda", "a+btb+"),
               ("lambda:a+btb+", "lambda", "a+btb+"),
               ("lambda:a+btb+", "gamma", "atba+sb+")]


class TestAgainstUnprunedSearch:
    """The search skips the sink nodes whose states reach no member state,
    and finds the first member and the witness of the search that expands
    every node."""

    def test_grid(self, grid):
        built = {}
        for m, u in grid:
            unpruned_agrees(m, u, built)

    @pytest.mark.parametrize("gen,tau,word", PAPER_WORDS)
    def test_paper_words_on_k_f_and_n(self, gen, tau, word):
        unpruned_agrees(monoid_named(gen), tw(word, tau), {})

    @pytest.mark.slow
    @pytest.mark.parametrize("tau,gen", [("lambda", "atba+sb+"),
                                         ("rho", "a+tb+asb")])
    def test_j_and_jbar_generators(self, tau, gen):
        # the unpruned search takes about a second on each
        unpruned_agrees(mtau(tau, gen), tw(gen, tau), {})

    def test_k_generator_builds_a_few_rows(self):
        # the unpruned search built all 221 rows of K's automaton over abt
        k = mtau("lambda", "bta+b+")
        aut = spent(k, tw("bta+b+", "lambda"))
        whole = whole_automaton(k, "abt")
        assert len(aut.transitions) <= 10 < 221 == whole.num_states


class TestTheTablesZero:
    """``is_tau_term`` reads the zero of the table, however the monoid was
    built, and adjoins a fresh letter only when the table has none."""

    def test_one_element_monoid_built_three_ways(self):
        # its one element is the identity and the zero, so every word is 1,
        # a+ = za among them
        u = tw("a+", "tau1")
        for m in (FiniteMonoid(table=((0,),), labels=("1",), identity=0),
                  mtau("trivial", ""),
                  adjoin_identity(Semigroup(table=(), labels=()))):
            assert m.zero == m.identity == 0
            assert is_tau_term(m, u).witness == (w("a"), w("za")), m.labels

    def test_submonoid_with_an_absorbing_generator(self, monkeypatch):
        # {1, a+} in K: a+ a+ = a+, so a+ is the zero of the submonoid,
        # though K's zero lies outside it
        k = mtau("lambda", "bta+b+")
        sub = submonoid(k, [k.labels.index("a+")])[0]
        assert (sub.labels, sub.zero) == (("1", "a+"), 1)
        text = format_monoid(sub)
        assert text.splitlines()[0] == "MONOID 2 identity=0 zero=1"
        again = parse_monoid(text)
        assert again == sub and again.zero == 1
        builds = []

        def counting(m, letters, **kwargs):
            builds.append(letters)
            return rel_free_automaton(m, letters, **kwargs)

        monkeypatch.setattr(freeobj, "rel_free_automaton", counting)
        verdict = is_tau_term(sub, tw("ab", "trivial"))
        assert verdict.witness == (w("ab"), w("ba"))
        assert builds == [("a", "b")]

    def test_no_witness_needs_a_letter_outside_the_content(self):
        # with a zero 0 != 1, sending z to 0 and every other letter to 1
        # makes a word with z 0 and a word without z 1, so no state holds
        # both kinds: a search over the content plus a fresh letter z finds
        # the same first member and witness as one over the content alone
        monoids = [m for m in corpus_monoids().values()
                   if m.size <= 12 and m.zero not in (None, m.identity)]
        found = 0
        for m in monoids:
            built = {}     # one automaton per alphabet, grown as searched

            def search(u, letters):
                if letters not in built:
                    built[letters] = rel_free_automaton(m, letters)
                return freeobj._search(u, letters, built[letters])

            for u in grid_words():
                letters = tuple(sorted(content(u.word)))
                fresh = letters + (next(c for c in "zwvuq" if c not in letters),)
                first, witness = search(u, letters)
                assert search(u, fresh) == (first, witness), (m.labels, u)
                found += witness is not None
        assert len(monoids) > 5 and found > 100


def check_against_dense(m, letters):
    """``rel_free_automaton`` has the states of ``dense_automaton``, each
    stored on exactly its entries that are not the zero, numbered alike and
    with the same transitions."""
    aut = whole_automaton(m, letters)
    vectors, transitions = dense_automaton(m, len(letters))
    assert rows_of(aut) == transitions, m.labels
    assert aut.num_states == len(vectors)
    for s, v in enumerate(vectors):
        assert np.array_equal(vector(aut, s), v), (m.labels, s)
        assert m.zero is None or (aut.states[s][1] != m.zero).all()
        assert m.zero is not None or len(aut.states[s][0]) == len(v)


class TestAgainstDenseOracle:
    def test_grid_monoids(self):
        for m in [m for m in corpus_monoids().values() if m.size <= 12] + \
                [SEMILATTICE, Z2]:
            for k in range(4):
                check_against_dense(m, "abcd"[:k])

    def test_k_over_atb(self):
        check_against_dense(mtau("lambda", "bta+b+"), "atb")

    @pytest.mark.slow
    @pytest.mark.parametrize("tau,gen", [("lambda", "a+btb+"),
                                         ("trivial", "atbasb")])
    def test_n_and_l_over_atbs(self, tau, gen):
        # N: 2784 states, L: 664; the dense oracle holds about 0.9 GB and
        # 0.5 GB of vectors
        check_against_dense(mtau(tau, gen), "abst")


class TestNewlyExact:
    """Four-letter generator words that the automaton decides exactly now
    that it holds only the nonzero entries of each vector."""

    def test_n_with_the_generator_of_j_under_gamma_fails(self):
        n = mtau("lambda", "a+btb+")
        verdict = is_tau_term(n, tw("atba+sb+", "gamma"))
        assert verdict.fails
        assert verdict.witness == (w("atbasb"), w("atabasb"))
        assert satisfies(n, Identity(*verdict.witness)).holds

    @pytest.mark.parametrize("tau,gen", [("lambda", "atba+sb+"),
                                         ("rho", "a+tb+asb")])
    def test_j_and_jbar_generators_are_terms(self, tau, gen):
        start = time.perf_counter()
        verdict = is_tau_term(mtau(tau, gen), tw(gen, tau))
        assert verdict.holds
        assert time.perf_counter() - start < 30

    @pytest.mark.slow
    def test_every_generator_word_on_every_corpus_monoid(self):
        # no question of this size is refused, so no caller needs a search
        # cut at some length; the largest, abtasb on the 37-element
        # Mg(a+b+ta+,a+tb+a+), spends about 14% of MAX_CELLS
        words = [tw(text, tau)
                 for _, tau, texts in FIG_LATTICE + EXTRA_GENERATORS
                 for text in texts.split(",") if text]
        monoids = corpus_monoids().values()
        assert len(monoids) * len(words) == 437
        for m in monoids:
            for u in words:
                is_tau_term(m, u)     # raises BudgetExceededError if refused
