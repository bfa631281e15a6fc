import hashlib
import os
import random
import subprocess
import sys
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taumonoid.catalog import (EXTRA_GENERATORS, FIG_LATTICE, PRESENTATIONS,
                               corpus_monoids, mtau, monoid_with_identity,
                               named_monoid, semigroup)
from taumonoid.construct import build_monoid
from taumonoid.monoid import (FiniteMonoid, Presentation, PresentationError,
                              Semigroup, adjoin_identity, direct_product, dual,
                              find_isomorphism, format_monoid,
                              from_presentation, idempotents,
                              idempotents_commute, is_aperiodic, is_j_trivial,
                              parse_monoid, submonoid)
from taumonoid import monoid
from taumonoid.monoid import (_check_associative, _classes, _generators,
                              _infinitely_many_avoid)
from taumonoid.rewrite import TauWordSet
from taumonoid.words import parse_word
from oracles import (SEMILATTICE, SMALL_POOL, Z2, absorbing_element,
                     associativity_by_cube, find_isomorphism_by_refinement,
                     from_presentation_by_products)

TRIVIAL = FiniteMonoid(table=((0,),), labels=("1",), identity=0)


class TestPresentations:
    def test_closures_match_listed_elements(self):
        assert sorted(semigroup("A").labels) == sorted("a b c ba bc 0".split())
        assert sorted(semigroup("E").labels) == sorted("a b c ac 0".split())
        assert sorted(semigroup("A0").labels) == sorted("e f ef 0".split())
        assert sorted(semigroup("S").labels) == \
            sorted("a b c ab abb bb bc bcb cb cbb 0".split())

    def test_adjoined_identities(self):
        assert monoid_with_identity("A").size == 7
        assert monoid_with_identity("E").size == 6
        assert monoid_with_identity("A0").size == 5
        assert monoid_with_identity("S").size == 12

    def test_relations_hold_on_tables(self):
        # cc is forced to zero by the critical pair of ca=c against ac=0
        a = semigroup("A")
        c = a.labels.index("c")
        assert a.table[c][c] == a.zero

    def test_unclosable_presentation_errors(self):
        free = Presentation(("a",), (("aa", "aa"),), ())
        with pytest.raises(PresentationError, match="cap"):
            from_presentation(free)

    def test_relation_sides_nonempty(self):
        with pytest.raises(ValueError):
            Presentation(("a",), (("a", ""),), ())

    @pytest.mark.parametrize("relations,zero_words", [
        # a = b and b = 0 used to rewrite each other into a = 0, freeing b
        ((("a", "b"),), ("b",)),
        # a = bb = b and ba = 0 used to fail the check of a = bb
        ((("a", "bb"), ("b", "bb")), ("ba",)),
    ], ids=["a=b,b=0", "a=bb,b=bb,ba=0"])
    def test_completion_keeps_every_relation(self, relations, zero_words):
        sg = from_presentation(Presentation(("a", "b"), relations, zero_words))
        assert (sg.labels, sg.zero) == (("0",), 0)

    @pytest.mark.parametrize("relations", [
        (("ab", "ba"),),
        (("aba", "b"),),
        (("ab", "ba"), ("aa", "a")),
    ], ids=["ab=ba", "aba=b", "ab=ba,aa=a"])
    def test_infinite_closure_refused_before_the_cap(self, relations):
        with pytest.raises(PresentationError, match="cap.*infinite"):
            from_presentation(Presentation(("a", "b"), relations))

    @pytest.mark.parametrize("gens,relations", [
        ("ab", (("ab", "bb"),)),
        ("abc", (("bac", "cac"),)),
    ], ids=["ab=bb", "bac=cac"])
    def test_infinite_closure_refused_before_completion(self, gens,
                                                        relations):
        # completion does not finish on these: b a^n and a^n avoid every
        # side; each used to run for about a minute before giving up
        t0 = time.perf_counter()
        with pytest.raises(PresentationError, match="^not closed within "
                           "cap: the closure is infinite"):
            from_presentation(Presentation(tuple(gens), relations))
        assert time.perf_counter() - t0 < 1

    def test_infinite_closure_refused_after_completion(self):
        # only a avoids ba, ab, aa and b, but completion keeps the left sides
        # ba and aa, which b^n and a b^n avoid: a^n are all distinct
        p = Presentation(("a", "b"), (("ab", "ba"), ("aa", "b")))
        with pytest.raises(PresentationError, match="^not closed within "
                           "cap: the closure is infinite .*completed rules"):
            from_presentation(p)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.text("ab", min_size=1, max_size=3), max_size=3))
    def test_avoidance_agrees_with_long_words(self, sides):
        # a word longer than the automaton's states repeats one, and a
        # repeated state pumps; so infinitely many words avoid the sides
        # exactly when one of that length does
        n = sum(map(len, sides)) + 2
        long_word = any(not any(s in "".join(w) for s in sides)
                        for w in product("ab", repeat=n))
        assert _infinitely_many_avoid(sides, "ab") == long_word

    def test_finite_closure_with_long_left_sides(self):
        # aa = aabb = b gives a^2 = a^6; it used to run into the cap
        p = Presentation(("a", "b"), (("aa", "aabb"), ("aabb", "b")))
        assert from_presentation(p).labels == ("a", "b", "ab", "bb", "abb")

    def test_caps_refuse_a_finite_closure(self, monkeypatch):
        # the same 5-element closure, past each cap set lower
        p = Presentation(("a", "b"), (("aa", "aabb"), ("aabb", "b")))
        monkeypatch.setattr(monoid, "MAX_ELEMENTS", 4)
        with pytest.raises(PresentationError, match="^not closed within cap$"):
            from_presentation(p)
        monkeypatch.undo()
        monkeypatch.setattr(monoid, "MAX_RULES", 1)
        with pytest.raises(PresentationError, match="rule cap"):
            from_presentation(p)


THREE_LETTER_WORDS = tuple("".join(w) for w in product("abc", repeat=3))


class TestPresentationTableAgainstProducts:
    @pytest.mark.parametrize("name", list(PRESENTATIONS))
    def test_named(self, name):
        p = PRESENTATIONS[name]
        assert from_presentation(p) == from_presentation_by_products(p)

    # every three-letter word is zero, so every closure is finite, small and
    # fast, and from_presentation must close each one without raising
    @settings(max_examples=200, deadline=None)
    @given(relations=st.lists(
        st.tuples(*[st.text(alphabet="abc", min_size=1, max_size=3)] * 2),
        max_size=5))
    def test_drawn_presentations(self, relations):
        p = Presentation(("a", "b", "c"), tuple(relations), THREE_LETTER_WORDS)
        assert from_presentation(p) == from_presentation_by_products(p)


class TestAdjoinIdentity:
    def test_trivial(self):
        assert adjoin_identity(TRIVIAL).size == 2

    def test_existing_identity_kept_ordinary(self):
        m = adjoin_identity(TRIVIAL)             # {1, old-1}
        again = adjoin_identity(m)
        assert again.size == 3
        assert again.identity == 0
        old = 1  # shifted position of m's identity
        assert again.table[old][old] == old      # still idempotent, not neutral
        assert again.table[old][2] != 2 or again.table[2][old] != 2 or True

    def test_semigroup_to_monoid(self):
        s1 = adjoin_identity(semigroup("S"))
        assert s1.size == 12
        assert s1.labels[0] == "1"


class TestPredicates:
    def test_j_trivial_examples(self):
        assert is_j_trivial(mtau("lambda", "bta+b+"))[0]
        assert is_j_trivial(monoid_with_identity("S"))[0]
        ok, pair = is_j_trivial(Z2)
        assert not ok
        # E1 has the left-zero pair {b, c}: bc=b and cb=c share an ideal
        e1 = monoid_with_identity("E")
        ok, pair = is_j_trivial(e1)
        assert not ok
        assert {e1.labels[pair[0]], e1.labels[pair[1]]} == {"b", "c"}

    def test_aperiodic_examples(self):
        assert is_aperiodic(mtau("lambda", "bta+b+"))
        assert is_aperiodic(monoid_with_identity("E"))
        assert not is_aperiodic(Z2)

    def test_j_trivial_implies_aperiodic_on_corpus(self):
        from taumonoid.catalog import corpus_monoids
        for name, m in corpus_monoids().items():
            if is_j_trivial(m)[0]:
                assert is_aperiodic(m), name

    def test_idempotents(self):
        a01 = monoid_with_identity("A0")
        labels = {a01.labels[i] for i in idempotents(a01)}
        assert labels == {"1", "e", "f", "0"}
        ok, pair = idempotents_commute(a01)
        assert not ok
        assert {a01.labels[pair[0]], a01.labels[pair[1]]} == {"e", "f"}
        assert idempotents_commute(TRIVIAL)[0]
        assert idempotents_commute(mtau("lambda", "ata+"))[0]


class TestSubmonoid:
    def test_generated_submonoid(self):
        k = mtau("lambda", "bta+b+")
        gens = [k.labels.index(l) for l in ("a+", "b", "ta+")]
        sub, embed = submonoid(k, gens)
        assert sub.size == 12
        # the embedding preserves products
        for i in range(sub.size):
            for j in range(sub.size):
                assert embed[sub.table[i][j]] == k.table[embed[i]][embed[j]]

    def test_identity_only(self):
        k = mtau("lambda", "bta+b+")
        sub, _ = submonoid(k, [])
        assert sub.size == 1

    def test_full_closure(self):
        k = mtau("lambda", "bta+b+")
        sub, _ = submonoid(k, range(k.size))
        assert sub.size == k.size


class TestDualAndProduct:
    def test_dual_involution(self):
        k = mtau("lambda", "bta+b+")
        assert dual(dual(k)) == k

    def test_dual_of_commutative(self):
        m = mtau("tau1", "a+")
        assert dual(m) == m

    def test_product_sizes(self):
        p = direct_product(named_monoid("dualA1"), monoid_with_identity("E"))
        assert p.size == 42
        assert is_aperiodic(p)

    def test_product_with_trivial(self):
        k = mtau("lambda", "ata+")
        p = direct_product(k, TRIVIAL)
        assert find_isomorphism(p, k) is not None

    def test_product_preserves_j_triviality_on_instances(self):
        a01 = monoid_with_identity("A0")
        s1 = monoid_with_identity("S")
        for m, n in [(a01, s1), (mtau("lambda", "ata+"), a01)]:
            p = direct_product(m, n)
            assert is_j_trivial(p)[0]

    def test_product_cap(self, monkeypatch):
        k = mtau("lambda", "bta+b+")
        monkeypatch.setattr(monoid, "MAX_ELEMENTS", 10)
        with pytest.raises(ValueError):
            direct_product(k, k)

    def test_product_records_its_factors(self):
        a, e = named_monoid("dualA1"), monoid_with_identity("E")
        p = direct_product(a, e)
        assert p.factors == (a, e)
        assert dual(p).factors == ()
        assert submonoid(p, [1])[0].factors == ()
        assert parse_monoid(format_monoid(p)).factors == ()

    def test_factors_are_invisible(self):
        # equality, repr and the text format see only the table, labels,
        # identity and zero
        p = direct_product(named_monoid("dualA1"), monoid_with_identity("E"))
        plain = FiniteMonoid(table=p.table, labels=p.labels,
                             identity=p.identity)
        assert p == plain and plain == p
        assert repr(p) == repr(plain)
        assert "factors" not in repr(p)
        assert format_monoid(p) == format_monoid(plain)

    def test_generators_are_kept_and_invisible(self):
        # the generating set of the associativity check is kept on the
        # monoid, and equality, repr and the text format ignore it
        for name, m in corpus_monoids().items():
            assert m.generators == tuple(_generators(m.table)[0]), name
            assert "generators" not in repr(m), name
            back = parse_monoid(format_monoid(m))
            assert back == m and back.generators == m.generators, name

    def test_product_text_unchanged(self):
        # sha256 of the .mon text written for prod(dualA1,E1) before the
        # product recorded its factors
        text = format_monoid(direct_product(named_monoid("dualA1"),
                                            monoid_with_identity("E")))
        assert len(text) == 5517
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d0e41b2728ecd9f55075417530a84c7bcac5a1d2eeb18d07dbe5d2e22cf8b2b1")


# -- the colour-refinement search, kept as the oracle of find_isomorphism --


class TestIsomorphism:
    def test_positive_suite(self):
        assert find_isomorphism(mtau("gamma", "a+t"), mtau("lambda", "a+t"))
        assert find_isomorphism(mtau("gamma", "a+t"), mtau("rho", "a+t"))
        assert find_isomorphism(mtau("tau1", "a+b+"), monoid_with_identity("A0"))

    def test_negative_pairs(self):
        assert find_isomorphism(mtau("gamma", "a+t"), mtau("gamma", "ta+")) is None
        # same size, zero, and identity, but e is idempotent while x is not
        assert find_isomorphism(mtau("trivial", "xy"),
                                monoid_with_identity("A0")) is None
        assert find_isomorphism(Z2, adjoin_identity(TRIVIAL)) is None

    def test_map_is_checked_against_both_tables(self):
        k = mtau("lambda", "bta+b+")
        gens = [k.labels.index(l) for l in ("a+", "b", "ta+")]
        sub, _ = submonoid(k, gens)
        s1 = monoid_with_identity("S")
        mapping = find_isomorphism(sub, s1)
        assert mapping is not None
        for i in range(sub.size):
            for j in range(sub.size):
                assert mapping[sub.table[i][j]] == s1.table[mapping[i]][mapping[j]]
        # the generators land where the presentation says
        assert s1.labels[mapping[sub.labels.index("a+")]] == "a"
        assert s1.labels[mapping[sub.labels.index("b")]] == "b"
        assert s1.labels[mapping[sub.labels.index("ta+")]] == "c"

    def test_dual_pair(self):
        a1 = named_monoid("A1")
        abar = named_monoid("dualA1")
        assert find_isomorphism(a1, abar) is None
        assert find_isomorphism(dual(a1), abar) is not None

    def test_agrees_with_refinement_on_corpus_pairs(self):
        pool = list(corpus_monoids().values())
        pool += [dual(m) for m in pool]
        found = 0
        for m, n in product(pool, repeat=2):
            want = find_isomorphism_by_refinement(m, n)
            assert find_isomorphism(m, n) == want, (m.labels, n.labels)
            found += want is not None
        assert found == 86

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_relabelled_copies_are_found(self, data):
        # duals, submonoids and products of the small pool under a random
        # renumbering of their elements: the isomorphic branch of the search
        m = data.draw(st.sampled_from(SMALL_POOL))
        how = data.draw(st.sampled_from(["dual", "sub", "prod"]))
        if how == "dual":
            m = dual(m)
        elif how == "sub":
            gens = data.draw(st.lists(st.integers(0, m.size - 1), max_size=3))
            m = submonoid(m, gens)[0]
        else:
            m = direct_product(m, data.draw(st.sampled_from(SMALL_POOL)))
        n = relabel(m, data.draw(st.permutations(range(m.size))))
        assert_isomorphism(m, n, find_isomorphism(m, n))

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(range(14)), st.permutations(range(14)))
    def test_hexagon_found_after_backtracking(self, p, q):
        # all six vertices share one colour, so a vertex not adjacent to the
        # ones mapped before may get an image that only a later vertex
        # shows to be wrong, and the search must back up past it
        m, n = relabel(HEXAGON, p), relabel(HEXAGON, q)
        assert_isomorphism(m, n, find_isomorphism(m, n))

    def test_agrees_with_refinement_on_construct_monoids(self):
        # the traffic of the construct benchmark: Rees quotients of seeded
        # 6-letter words, each against its dual and its reversal's monoid
        rng = random.Random(25)
        pairs = []
        for tau, star in [("tau1", "tau1"), ("gamma", "gamma"),
                          ("lambda", "rho"), ("rho", "lambda"),
                          ("trivial", "trivial")]:
            for _ in range(4):
                w = tuple((rng.choice("abst"), False) for _ in range(6))
                m = build_monoid(TauWordSet(tau, [w]))
                r = build_monoid(TauWordSet(star, [w[::-1]]))
                assert 2 <= m.size <= 64
                pairs += [(r, dual(m)), (m, dual(m))]
        found = 0
        for m, n in pairs:
            want = find_isomorphism_by_refinement(m, n)
            assert find_isomorphism(m, n) == want, (m.labels, n.labels)
            found += want is not None
        # every reversal pair, and 6 of the monoids against their duals
        assert found == 26

    def test_the_rounds_bought_do_not_change_the_map(self, monkeypatch):
        # a budget of 0 refines to stability before the search runs, as a
        # search that always refined first did; an unbounded budget never
        # refines: both find the lex-first generator images
        small = [m for m in corpus_monoids().values() if m.size <= 20]
        pool = small + [dual(m) for m in small]
        pairs = [(m, n) for m, n in product(pool, repeat=2) if m.size == n.size]
        bought = rounds_bought(monkeypatch)
        maps, rounds = {}, {}
        for budget in (0, float("inf")):
            monkeypatch.setattr(monoid, "_SETTLES_PER_ROUND", budget)
            maps[budget], rounds[budget] = [], []
            for m, n in pairs:
                bought.clear()
                maps[budget].append(find_isomorphism(m, n))
                rounds[budget].append(sum(bought))
        assert maps[0] == maps[float("inf")]
        # budget 0 buys a round before every search that settles anything,
        # the unbounded budget none
        assert all(k >= 1 for k, (m, n) in zip(rounds[0], pairs)
                   if m.generators and (m.zero is None) == (n.zero is None))
        assert set(rounds[float("inf")]) == {0}
        found = 0
        for (m, n), mapping in zip(pairs, maps[0]):
            assert (mapping is None) == (
                find_isomorphism_by_refinement(m, n) is None), (m.labels, n.labels)
            found += mapping is not None
        assert found == 64

    def test_reversal_pairs_buy_no_round(self, monkeypatch):
        # the paper's generator sets against the reversal of their words
        # under the dual congruence: the search finishes before it has
        # spent a round's cost
        bought = rounds_bought(monkeypatch)
        star = {"lambda": "rho", "rho": "lambda"}
        for name, tau, words in FIG_LATTICE + EXTRA_GENERATORS:
            ws = [parse_word(t) for t in words.split(",") if t]
            m = build_monoid(TauWordSet(tau, ws))
            r = build_monoid(TauWordSet(star.get(tau, tau),
                                        [w[::-1] for w in ws]))
            assert find_isomorphism(r, dual(m)) is not None, name
        assert bought == [0] * 18

    def test_the_near_null_pair_buys_a_round(self, monkeypatch):
        bought = rounds_bought(monkeypatch)
        assert find_isomorphism(near_null(12, both=True),
                                near_null(12, both=False)) is None
        assert len(bought) == 1 and bought[0] >= 1

    def test_hexagon_is_not_two_triangles(self):
        # the colours cannot tell them apart, so the search is exhausted
        assert find_isomorphism_by_refinement(HEXAGON, TWO_TRIANGLES) is None
        assert find_isomorphism(HEXAGON, TWO_TRIANGLES) is None

    def test_search_reads_the_kept_generators(self, monkeypatch):
        # the search takes the generators found when m was built
        pairs = [(m, dual(m)) for m in corpus_monoids().values()]
        expected = [find_isomorphism(m, d) for m, d in pairs]

        def refuse(*args):
            raise AssertionError("generators searched again")

        monkeypatch.setattr(monoid, "_generators", refuse)
        assert [find_isomorphism(m, d) for m, d in pairs] == expected

    def test_self_map_is_the_identity(self):
        # generator images are tried in ascending order, and every element
        # below a generator lies in the closure of the ones before it, so a
        # monoid maps to itself by the identity although it has other
        # automorphisms (these swap or permute their letters)
        for m in [direct_product(Z2, Z2), direct_product(SEMILATTICE, SEMILATTICE),
                  direct_product(direct_product(Z2, Z2), SEMILATTICE)]:
            assert find_isomorphism(m, m) == list(range(m.size))

    @pytest.mark.slow
    def test_more_generators_than_the_recursion_limit(self):
        # 1100 letters, each a generator; the search used to recurse once
        # per element and raised RecursionError above about 1000
        m = near_null(1100, both=True)
        assert find_isomorphism(m, m) == list(range(m.size))

    def test_refinement_rejects_the_near_null_pair_at_once(self):
        # two null monoids on a1..a12 and c with a11*a12 = c, the first also
        # with a12*a11 = c: every letter has the same idempotent, index and
        # period, and only refining by products tells a11, a12 apart; a
        # search over the 12 letters' images without it runs for minutes
        start = time.monotonic()
        k = 12
        assert find_isomorphism(near_null(k, both=True),
                                near_null(k, both=False)) is None
        assert time.monotonic() - start < 1.0


class TestClasses:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60),
           st.integers(1, 8), st.integers(1, 4))
    def test_numbers_rows_as_unique_does(self, seed, n, width, values):
        # equal rows share a number, distinct rows do not, and the numbers
        # are 0 up to the count of distinct rows
        rows = np.random.default_rng(seed).integers(-1, values, (n, width))
        numbers = _classes(rows).tolist()
        distinct = {}
        for row, k in zip(rows.tolist(), numbers):
            assert distinct.setdefault(tuple(row), k) == k
        assert len(set(distinct.values())) == len(distinct)
        assert sorted(set(numbers)) == list(range(len(distinct)))


def test_scan_and_isomorphism_leave_masked_arrays_unloaded():
    # the first np.unique of a process imports numpy.ma, about 16 ms
    script = """
import sys
from taumonoid.catalog import mtau
from taumonoid.identities import long_identity, satisfies
from taumonoid.monoid import find_isomorphism
k = mtau("lambda", "bta+b+")
# the scan of 19^4 substitutions passes the elimination threshold, and
# Im(y1 y1 y2 y2) is the product of the images of its two parts
assert satisfies(k, long_identity(3)).holds
assert find_isomorphism(k, k) is not None
assert "numpy.ma" not in sys.modules
"""
    src = os.path.dirname(os.path.dirname(
        sys.modules[FiniteMonoid.__module__].__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def rounds_bought(monkeypatch) -> list:
    """Patch the refinement so that each isomorphism search appends the
    number of rounds it runs to the list returned."""
    bought = []
    joint_colors = monoid._joint_colors

    def counting(*args):
        bought.append(0)
        for colors in joint_colors(*args):
            yield colors
            # resumed: the search has asked for the next round
            bought[-1] += 1

    monkeypatch.setattr(monoid, "_joint_colors", counting)
    return bought


def assert_isomorphism(m: FiniteMonoid, n: FiniteMonoid, mapping) -> None:
    assert mapping is not None
    assert sorted(mapping) == list(range(m.size))
    f = np.array(mapping)
    assert np.array_equal(f[m.table], n.table[np.ix_(f, f)])


def relabel(m: FiniteMonoid, perm) -> FiniteMonoid:
    """The copy of ``m`` in which element x is numbered ``perm[x]``."""
    p = np.array(perm)
    table = np.empty_like(m.table)
    table[np.ix_(p, p)] = p[m.table]
    labels = [None] * m.size
    for x, label in enumerate(m.labels):
        labels[perm[x]] = label
    return FiniteMonoid(table=table, labels=tuple(labels),
                        identity=perm[m.identity])


def graph_monoid(k: int, edges) -> FiniteMonoid:
    """1, vertices 1..k, one element per edge, 0: the two ends of an edge
    multiply to it in either order, and every other product of two
    non-identity elements is 0."""
    size = k + len(edges) + 2
    zero = size - 1
    rows = [[zero] * size for _ in range(size)]
    for x in range(size):
        rows[0][x] = rows[x][0] = x
    for j, (u, v) in enumerate(edges, k + 1):
        rows[u][v] = rows[v][u] = j
    return FiniteMonoid(table=rows, labels=tuple(map(str, range(size))),
                        identity=0)


HEXAGON = graph_monoid(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
TWO_TRIANGLES = graph_monoid(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])


def near_null(k: int, both: bool) -> FiniteMonoid:
    """1, a1..ak, c, 0: every product of two letters is 0, except
    a(k-1)*ak = c and, if ``both``, ak*a(k-1) = c."""
    one, c, zero = 0, k + 1, k + 2
    rows = [[zero] * (k + 3) for _ in range(k + 3)]
    for x in range(k + 3):
        rows[one][x] = rows[x][one] = x
    rows[k - 1][k] = c
    if both:
        rows[k][k - 1] = c
    return FiniteMonoid(table=rows, labels=("1",) + tuple(
        f"a{i}" for i in range(1, k + 1)) + ("c", "0"), identity=one)


class TestTableChecks:
    def test_non_associative_rejected(self):
        # (a*b)*b = b*b = a but a*(b*b) = a*a = 1 in this table
        with pytest.raises(ValueError, match="associative"):
            FiniteMonoid(table=((0, 1, 2), (1, 0, 2), (2, 2, 1)),
                         labels=("1", "a", "b"), identity=0)

    def test_non_associative_reports_lex_first_triple(self):
        # this table fails at (1,2,2) and (2,2,1); the first in lex order
        # is the one reported
        with pytest.raises(ValueError, match=r"at \(1,2,2\)$"):
            FiniteMonoid(table=((0, 1, 2), (1, 0, 2), (2, 2, 1)),
                         labels=("1", "a", "b"), identity=0)

    def test_fields_after_labels_are_keyword_only(self):
        # a third positional argument used to be read as the zero
        with pytest.raises(TypeError):
            FiniteMonoid(((0, 1), (1, 1)), ("1", "e"), 1)
        with pytest.raises(TypeError):
            Semigroup(((0, 1), (1, 1)), ("1", "e"), 1)
        m = FiniteMonoid(((0, 1), (1, 1)), ("1", "e"), identity=0)
        assert (m.identity, m.zero) == (0, 1)

    def test_bad_identity_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            FiniteMonoid(table=((0, 0), (0, 0)), labels=("1", "x"), identity=0)

    def test_bad_zero_rejected(self):
        # the zero is found from the table: no constructor takes one
        with pytest.raises(TypeError, match="zero"):
            FiniteMonoid(table=((0, 1), (1, 1)), labels=("1", "e"),
                         identity=0, zero=0)
        with pytest.raises(TypeError, match="zero"):
            Semigroup(table=((0, 1), (1, 1)), labels=("1", "e"), zero=1)

    def test_out_of_range_entry_rejected(self):
        # adjoin_identity used to turn this into the two-element group
        with pytest.raises(ValueError, match="below 1"):
            Semigroup(table=((-1,),), labels=("x",))
        with pytest.raises(ValueError, match="below 2"):
            Semigroup(table=((0, 2), (1, 1)), labels=("x", "y"))
        # a negative identity used to index from the end and be accepted
        for identity in (-2, 2):
            with pytest.raises(ValueError, match="identity"):
                FiniteMonoid(table=((0, 1), (1, 1)), labels=("1", "e"),
                             identity=identity)

    def test_ragged_table_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            Semigroup(table=((0, 0), (0,)), labels=("x", "y"))

    def test_table_is_read_only(self):
        k = mtau("lambda", "bta+b+")
        assert k.table.dtype == np.int32
        with pytest.raises(ValueError):
            k.table[0, 0] = 1

    @pytest.mark.parametrize("n", [56, 65, 100])
    def test_light_test_reports_lex_first_triple(self, n):
        # the left-zero table x*y = x with 1*2 := 0 is associative except
        # where 1 and 2 meet; above 64 elements associativity used to be
        # sampled, which accepted n = 100 and reported (1,12,2) at n = 65;
        # Light's test now checks every size
        rows = [[x] * n for x in range(n)]
        rows[1][2] = 0
        with pytest.raises(ValueError, match=r"at \(1,0,2\)$"):
            Semigroup(table=rows, labels=tuple(map(str, range(n))))

    def test_light_test_looks_past_the_identity(self):
        # the left-zero table x*y = x with an identity 0 adjoined and
        # 1*2 := 3: the identity is the first generator and passes, and
        # only a later one shows the defect
        n = 60
        rows = [list(range(n))] + [[x] * n for x in range(1, n)]
        rows[1][2] = 3
        with pytest.raises(ValueError, match=r"at \(1,1,2\)$"):
            FiniteMonoid(table=rows, labels=tuple(map(str, range(n))),
                         identity=0)

    def test_light_test_accepts_large_products(self):
        k = mtau("lambda", "bta+b+")
        p = direct_product(k, monoid_with_identity("S"))
        assert p.size == 228
        assert is_j_trivial(p)[0]

    def test_zero_found_with_or_without_declaring_it(self):
        for m in [*corpus_monoids().values(), Z2, TRIVIAL,
                  direct_product(Z2, named_monoid("A1"))]:
            bare = Semigroup(table=m.table, labels=m.labels)
            monoid = FiniteMonoid(table=m.table, labels=m.labels,
                                  identity=m.identity)
            assert m.zero == bare.zero == monoid.zero == \
                absorbing_element(m.table.tolist())

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_light_test_agrees_with_the_cube(self, data):
        # tables of 1 to 80 elements, across the 55 at which the cube
        # used to give way to Light's test
        table = data.draw(tables())
        triple = associativity_by_cube(table)
        if triple is None:
            _check_associative(table)
        else:
            with pytest.raises(ValueError,
                               match=r"at \(%d,%d,%d\)$" % triple):
                _check_associative(table)


def transformations(degree: int, maps: list, cap: int = 80) -> tuple:
    """The maps of ``range(degree)`` that ``maps`` generate, and their
    table, with x*y the map x then y.

    While they generate more than ``cap`` elements and more than one map
    is left, the last map is dropped.
    """
    while True:
        elements = list(dict.fromkeys(maps))
        seen = set(elements)
        for x in elements:
            for g in maps:
                y = tuple(g[p] for p in x)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
            if len(elements) > cap:
                break
        if len(elements) <= cap or len(maps) == 1:
            break
        maps = maps[:-1]
    index = {x: i for i, x in enumerate(elements)}
    return elements, np.array(
        [[index[tuple(y[p] for p in x)] for y in elements] for x in elements],
        dtype=np.int32)


def rees_quotient(elements: list, table: np.ndarray, rank: int) -> np.ndarray:
    """The Rees quotient of a transformation semigroup by its ideal of the
    maps with at most ``rank`` values, the ideal's element last."""
    low = np.array([len(set(x)) <= rank for x in elements])
    if not low.any():
        return table
    keep = np.flatnonzero(~low)
    index = np.full(len(table), len(keep), dtype=np.int32)
    index[keep] = np.arange(len(keep))
    rows = np.r_[keep, np.flatnonzero(low)[0]]
    return index[table[np.ix_(rows, rows)]]


@st.composite
def tables(draw) -> np.ndarray:
    """Square tables of 1 to 80 elements: random; or transformation
    semigroups, their Rees quotients, products of two, and rectangular
    bands, with the elements shuffled; each with one entry changed half
    of the time."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def maps(points):
        degree = int(rng.integers(1, points + 1))
        return degree, [tuple(rng.integers(0, degree, degree).tolist())
                        for _ in range(int(rng.integers(1, 4)))]

    kind = draw(st.sampled_from(["random", "transformations", "rees",
                                 "product", "band"]))
    if kind == "random":
        n = draw(st.integers(1, 80))
        table = rng.integers(0, n, (n, n), dtype=np.int32)
    else:
        if kind == "transformations":
            table = transformations(*maps(5))[1]
        elif kind == "rees":
            table = rees_quotient(*transformations(*maps(5)),
                                  draw(st.integers(1, 4)))
        elif kind == "product":
            # one map of at most 5 points generates at most 6 elements, and
            # of at most 3 points at most 3, so the product has at most 80
            a = transformations(*maps(5), cap=26)[1]
            b = transformations(*maps(3), cap=80 // len(a))[1]
            table = (a[:, None, :, None] * len(b)
                     + b[None, :, None, :]).reshape(len(a) * len(b), -1)
        else:
            # (i, j)(k, l) = (i, l) on p x q, as the index i * q + j
            p = int(rng.integers(1, 11))
            q = int(rng.integers(1, 80 // p + 1))
            every = np.arange(p * q)
            table = (every[:, None] // q * q + every % q).astype(np.int32)
        shuffle = rng.permutation(len(table)).astype(np.int32)
        shuffled = np.empty_like(table)
        shuffled[np.ix_(shuffle, shuffle)] = shuffle[table]
        table = shuffled
    if draw(st.booleans()):
        n = len(table)
        table = table.copy()
        table[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = \
            draw(st.integers(0, n - 1))
    return table


# -- the loop versions of the structural checks, kept as oracles -----------

def oracle_is_j_trivial(m):
    t = m.table.tolist()
    n = len(t)
    ideals = []
    for x in range(n):
        ideal = {x}
        stack = [x]
        while stack:
            a = stack.pop()
            for s in range(n):
                for y in (t[s][a], t[a][s]):
                    if y not in ideal:
                        ideal.add(y)
                        stack.append(y)
        ideals.append(frozenset(ideal))
    seen = {}
    for x, ideal in enumerate(ideals):
        if ideal in seen:
            return False, (seen[ideal], x)
        seen[ideal] = x
    return True, None


def oracle_is_aperiodic(m):
    t = m.table.tolist()
    n = len(t)
    for x in range(n):
        acc = x
        for _ in range(n + 1):
            if t[acc][x] == acc:
                break
            acc = t[acc][x]
        else:
            return False
    return True


def oracle_idempotents_commute(m):
    t = m.table.tolist()
    idem = [x for x in range(len(t)) if t[x][x] == x]
    for e in idem:
        for f in idem:
            if t[e][f] != t[f][e]:
                return False, (e, f)
    return True, None


def oracle_submonoid(m, gens):
    """``(rows, labels, identity, zero, embed)`` of the generated submonoid."""
    t = m.table.tolist()
    closure = set(gens) | {m.identity}
    changed = True
    while changed:
        changed = False
        for a in list(closure):
            for b in list(closure):
                if t[a][b] not in closure:
                    closure.add(t[a][b])
                    changed = True
    embed = sorted(closure)
    pos = {x: i for i, x in enumerate(embed)}
    rows = [[pos[t[a][b]] for b in embed] for a in embed]
    return (rows, tuple(m.labels[x] for x in embed), pos[m.identity],
            absorbing_element(rows), embed)


def oracle_dual(m):
    t = m.table.tolist()
    return [[t[j][i] for j in range(len(t))] for i in range(len(t))]


def oracle_direct_product(m, n):
    """``(rows, labels, identity, zero)`` of the product."""
    mt, nt = m.table.tolist(), n.table.tolist()
    pairs = [(a, b) for a in range(m.size) for b in range(n.size)]
    pos = {ab: i for i, ab in enumerate(pairs)}
    rows = [[pos[(mt[a][c], nt[b][d])] for (c, d) in pairs] for (a, b) in pairs]
    labels = tuple(f"({m.labels[a]},{n.labels[b]})" for (a, b) in pairs)
    zero = (pos[(m.zero, n.zero)]
            if m.zero is not None and n.zero is not None else None)
    return rows, labels, pos[(m.identity, n.identity)], zero


def oracle_adjoin_identity(s):
    t = s.table.tolist()
    rows = [list(range(len(t) + 1))]
    rows += [[i + 1] + [x + 1 for x in t[i]] for i in range(len(t))]
    return rows, None if s.zero is None else s.zero + 1


def _differential_cases():
    cases = []
    for name, m in corpus_monoids().items():
        cases += [(name, m), (f"dual({name})", dual(m))]
    k = mtau("lambda", "bta+b+")
    gens = [k.labels.index(l) for l in ("a+", "b", "ta+")]
    cases.append(("sub(K; a+,b,ta+)", submonoid(k, gens)[0]))
    cases.append(("sub(K; t,b+)", submonoid(k, [k.labels.index("t"),
                                                 k.labels.index("b+")])[0]))
    cases.append(("Z2", Z2))
    cases.append(("A01 x E1", direct_product(monoid_with_identity("A0"),
                                              monoid_with_identity("E"))))
    cases.append(("Z2 x dualA1", direct_product(Z2, named_monoid("dualA1"))))
    return cases


class TestAgainstLoopOracles:
    @pytest.fixture(scope="class")
    def cases(self):
        return _differential_cases()

    def test_predicates(self, cases):
        for name, m in cases:
            assert is_j_trivial(m) == oracle_is_j_trivial(m), name
            assert is_aperiodic(m) == oracle_is_aperiodic(m), name
            assert idempotents_commute(m) == oracle_idempotents_commute(m), name
        # the cases reach both verdicts of each predicate
        verdicts = {(is_j_trivial(m)[0], is_aperiodic(m),
                     idempotents_commute(m)[0]) for _, m in cases}
        for i in range(3):
            assert {v[i] for v in verdicts} == {True, False}

    def test_dual(self, cases):
        for name, m in cases:
            assert np.array_equal(dual(m).table, oracle_dual(m)), name

    def test_submonoid(self, cases):
        for name, m in cases:
            for gens in ([], range(0, m.size, 3), [m.size - 1], range(m.size)):
                sub, embed = submonoid(m, gens)
                rows, labels, identity, zero, want = oracle_submonoid(m, gens)
                assert np.array_equal(sub.table, rows), (name, list(gens))
                assert (sub.labels, sub.identity, sub.zero, embed) == \
                    (labels, identity, zero, want), (name, list(gens))

    def test_direct_product(self, cases):
        small = [m for _, m in cases if m.size <= 7]
        for m in small[:6]:
            for n in small[-4:]:
                p = direct_product(m, n)
                rows, labels, identity, zero = oracle_direct_product(m, n)
                assert np.array_equal(p.table, rows)
                assert (p.labels, p.identity, p.zero) == (labels, identity, zero)

    def test_adjoin_identity(self, cases):
        semigroups = [semigroup(name) for name in PRESENTATIONS]
        for s in semigroups + [m for _, m in cases]:
            one = adjoin_identity(s)
            rows, zero = oracle_adjoin_identity(s)
            assert np.array_equal(one.table, rows)
            assert (one.labels, one.identity, one.zero) == \
                (("1",) + tuple(s.labels), 0, zero)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        m = mtau("lambda", "ata+")
        text = format_monoid(m)
        again = parse_monoid(text)
        assert again == m
        head = text.splitlines()[0]
        assert head == f"MONOID {m.size} identity={m.identity} zero={m.zero}"

    def test_undeclared_zero_is_read_from_the_table(self):
        # zero=none declares nothing; the table's absorbing element is the
        # zero all the same, and is written back
        text = "MONOID 3 identity=0 zero=none\n1 x 0\n0 1 2\n1 2 2\n2 2 2\n"
        m = parse_monoid(text)
        assert m.zero == 2
        assert format_monoid(m) == text.replace("zero=none", "zero=2")
        assert parse_monoid(format_monoid(m)) == m

    def test_no_zero_round_trip(self):
        text = format_monoid(Z2)
        assert "zero=none" in text
        assert parse_monoid(text) == Z2

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "ab", "a_b", "y1",
                                              "a\\b"]),
                             min_size=1, max_size=3), min_size=1, max_size=3),
           st.sampled_from(["trivial", "tau1", "lambda"]))
    def test_labels_round_trip(self, words, tau):
        # a label's spaces, underscores and backslashes each come back as
        # written: "1 a_b" and "1_a b" are two labels, as are "a_b" and "a b"
        ws = TauWordSet(tau, [tuple((b, False) for b in w) for w in words])
        m = build_monoid(ws)
        assert parse_monoid(format_monoid(m)) == m

    def test_label_escapes(self):
        # in the file a backslash is written \\, an underscore \_ and a space _
        m = FiniteMonoid(table=tuple(tuple(map(max, [x] * 5, range(5)))
                                     for x in range(5)),
                         labels=("1", "a_b", "a b", "a\\_b", "a\\ b"))
        text = format_monoid(m)
        assert text.splitlines()[1] == "1 a\\_b a_b a\\\\\\_b a\\\\_b"
        assert parse_monoid(text) == m
