from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from taumonoid import identities
from taumonoid.catalog import (corpus_monoids, monoid_with_identity, mtau,
                               named_monoid)
from taumonoid.identities import (_FIRST_ROWS, _GAP_CELLS_PER_ROW,
                                  BudgetExceededError, Identity, _image,
                                  _private_factor, long_identity,
                                  parse_identity, parse_identity_file,
                                  satisfies)
from taumonoid.monoid import (FiniteMonoid, direct_product, dual,
                              format_monoid, parse_monoid, submonoid)
from taumonoid.words import parse_word, print_word

from oracles import (gap_by_triples, naive_satisfies,
                     private_factor_by_windows, simple_and_multiple)

Z2 = FiniteMonoid(table=((0, 1), (1, 0)), labels=("1", "g"), identity=0)
SEMILATTICE = FiniteMonoid(table=((0, 1), (1, 1)), labels=("1", "e"), identity=0)

SMALL_POOL = [
    Z2, SEMILATTICE,
    mtau("trivial", "x"), mtau("trivial", "xy"),
    mtau("tau1", "a+b+"), mtau("gamma", "a+t"),
]

IDENTITY_POOL = [
    "x=xx", "xx=xxx", "xy=yx", "xyx=xxy", "xtx=xtxx", "xyxy=yxyx",
    "xtysxy=xtysyx", "xy=xyy", "xxyy=yyxx",
]


class TestParsing:
    def test_parse_identity(self):
        ident = parse_identity("xtx=xtx^2")
        assert ident.lhs == parse_word("xtx")
        assert ident.rhs == parse_word("xtxx")

    def test_rejects_marked_sides(self):
        with pytest.raises(ValueError):
            parse_identity("a+=a")
        with pytest.raises(ValueError):
            parse_identity("a=b=c")

    def test_identity_file(self):
        text = "# axioms\nxtx=xtxx\n\nxxt=xxtx  # tail comment\n"
        idents = parse_identity_file(text)
        assert [str(i) for i in idents] == ["xtx=xtxx", "xxt=xxtx"]


class TestLongIdentity:
    def test_small_instances(self):
        assert str(long_identity(1)) == "x y1 y1 x=x y1 x y1"
        assert str(long_identity(2)) == "x y1 y1 y2 y2 x=x y1 y1 y2 x y2"

    def test_letter_structure(self):
        for n in (1, 3, 5):
            ident = long_identity(n)
            assert len(ident.letters()) == n + 1
            simple, multiple = simple_and_multiple(ident.lhs)
            assert simple == set()
            assert len(multiple) == n + 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            long_identity(0)


class TestSatisfies:
    def test_reflexive(self):
        for m in SMALL_POOL:
            ident = parse_identity("xyx=xyx")
            assert satisfies(m, ident).holds

    def test_group_violates_aperiodicity_identity(self):
        res = satisfies(Z2, parse_identity("x=xx"))
        assert not res.holds
        assert res.witness == {"x": 1}
        assert (res.lhs_value, res.rhs_value) == (1, 0)

    def test_witness_is_lex_first(self):
        # scan order is over sorted letters; the naive scan pins it down
        for m in SMALL_POOL:
            for text in IDENTITY_POOL:
                fast = satisfies(m, parse_identity(text))
                slow = naive_satisfies(m, parse_identity(text))
                assert fast.holds == slow.holds, (m.labels, text)
                assert fast.witness == slow.witness, (m.labels, text)

    def test_budget_refusal(self):
        k = mtau("lambda", "bta+b+")
        ident = parse_identity("xtysxy=xtysyx")
        with pytest.raises(BudgetExceededError):
            satisfies(k, ident, budget=1000)

    def test_zero_letter_identity(self):
        assert satisfies(Z2, Identity((), ())).holds

    def test_lex_first_witness_across_chunk_boundaries(self, monkeypatch):
        # a tiny chunk forces many outer iterations; the first reported
        # witness must still be the lexicographically first one
        m = mtau("gamma", "a+t")
        monkeypatch.setattr(identities, "CHUNK", 7)
        for text in ("xyx=xxy", "xty=ytx", "xtysxy=xtysyx"):
            tiny = satisfies(m, parse_identity(text))
            ref = naive_satisfies(m, parse_identity(text))
            assert tiny.holds == ref.holds
            assert tiny.witness == ref.witness

    def test_chunked_scan_keeps_naive_lex_first_witness(self, monkeypatch):
        # the scan runs in one process, in chunks, and still reports the
        # naive lex-first witness
        k = mtau("lambda", "bta+b+")
        monkeypatch.setattr(identities, "CHUNK", 4096)
        ident = parse_identity("xytxsy=yxtxsy")
        assert satisfies(k, ident).holds
        bad = parse_identity("xtysxy=xtysyx")
        res = satisfies(k, bad)
        assert not res.holds
        # the reported witness must be sound
        lv = k.evaluate(bad.lhs, res.witness)
        rv = k.evaluate(bad.rhs, res.witness)
        assert lv != rv
        assert res.witness == naive_satisfies(k, bad).witness

    def test_long_identity_at_six_by_block_elimination(self):
        # y1^2...y5^2 is shared by both sides and its letters occur nowhere
        # else, so most of the 19^7 substitutions are never evaluated
        k = mtau("lambda", "bta+b+")
        res = satisfies(k, long_identity(6))
        assert res.holds
        assert res.checked < 19 ** 7

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SMALL_POOL), st.sampled_from(IDENTITY_POOL))
    def test_fast_agrees_with_naive(self, m, text):
        fast = satisfies(m, parse_identity(text))
        slow = naive_satisfies(m, parse_identity(text))
        assert fast.holds == slow.holds
        assert fast.witness == slow.witness
        if not fast.holds:
            assert (fast.lhs_value, fast.rhs_value) == (slow.lhs_value, slow.rhs_value)


def _word_over(letters, max_size=3):
    return st.lists(st.sampled_from(letters), max_size=max_size).map(
        lambda cs: tuple((c, False) for c in cs))


@st.composite
def _private_factor_identities(draw):
    """u1 B u2 = v1 B v2 with B's letters occurring nowhere else."""
    block = draw(_word_over("ab").filter(len))
    u1, u2, v1, v2 = (draw(_word_over("xyz")) for _ in range(4))
    return Identity(u1 + block + u2, v1 + block + v2)


class TestBlockElimination:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SMALL_POOL + [mtau("lambda", "a+ta+")]),
           _private_factor_identities(), st.sampled_from([1, 3, 7, 50, 1 << 18]))
    def test_agrees_with_naive(self, m, ident, chunk):
        with mock.patch.object(identities, "CHUNK", chunk):
            fast = satisfies(m, ident)
        slow = naive_satisfies(m, ident)
        assert fast.holds == slow.holds
        assert fast.witness == slow.witness
        assert (fast.lhs_value, fast.rhs_value) == (slow.lhs_value, slow.rhs_value)

    @settings(max_examples=300, deadline=None)
    @given(_private_factor_identities()
           | st.builds(Identity, *[_word_over("abxy", max_size=10)] * 2))
    def test_private_factor_agrees_with_every_window(self, ident):
        assert _private_factor(ident.lhs, ident.rhs) == \
            private_factor_by_windows(ident.lhs, ident.rhs)


    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(SMALL_POOL + [mtau("lambda", "bta+b+")]),
           st.lists(st.sampled_from("abc"), min_size=1, max_size=5),
           st.sampled_from([1, 7, 1 << 18]))
    def test_image_agrees_with_brute_force(self, m, letters, chunk):
        # letter-disjoint parts of B are multiplied as sets; the product
        # must be exactly the set of values of B
        block = tuple((c, False) for c in letters)
        bases = sorted(set(letters))
        brute = {m.evaluate(block, dict(zip(bases, values)))
                 for values in product(range(m.size), repeat=len(bases))}
        table = np.asarray(m.table, dtype=np.int32)
        with mock.patch.object(identities, "CHUNK", chunk):
            got = _image(table, block)
        assert got.tolist() == sorted(brute)


@st.composite
def _factors(draw):
    """A monoid of SMALL_POOL, as it is, dualised, or a submonoid of it."""
    m = draw(st.sampled_from(SMALL_POOL))
    how = draw(st.sampled_from(["plain", "dual", "submonoid"]))
    if how == "dual":
        return dual(m)
    if how == "submonoid":
        gens = draw(st.lists(st.integers(0, m.size - 1), max_size=2))
        return submonoid(m, gens)[0]
    return m


@st.composite
def _products(draw):
    """prod(A,B), prod(prod(A,B),C) or prod(A,prod(B,C)), at most 36 elements."""
    m = direct_product(draw(_factors()), draw(_factors()))
    nest = draw(st.sampled_from(["none", "left", "right"]))
    if nest == "left":
        m = direct_product(m, draw(_factors()))
    elif nest == "right":
        m = direct_product(draw(_factors()), m)
    assume(m.size <= 36)
    return m


def _nested_products():
    e1 = monoid_with_identity("E")
    return [
        direct_product(Z2, SEMILATTICE),
        direct_product(direct_product(SEMILATTICE, dual(mtau("trivial", "xy"))),
                       Z2),
        direct_product(mtau("gamma", "a+t"),
                       submonoid(e1, [1])[0]),
        direct_product(SEMILATTICE,
                       direct_product(mtau("tau1", "a+b+"), mtau("trivial", "x"))),
    ]


class TestDirectProducts:
    """An identity is checked on a product's factors first (module docstring)."""

    @settings(max_examples=150, deadline=None)
    @given(_products(),
           st.sampled_from([t for t in IDENTITY_POOL
                            if len(parse_identity(t).letters()) <= 3])
           | st.builds(Identity, _word_over("xyz"), _word_over("xyz")),
           st.sampled_from([7, 1 << 18]))
    def test_agrees_with_naive(self, m, ident, chunk):
        if isinstance(ident, str):
            ident = parse_identity(ident)
        with mock.patch.object(identities, "CHUNK", chunk):
            fast = satisfies(m, ident)
        slow = naive_satisfies(m, ident)
        assert fast.holds == slow.holds
        assert fast.witness == slow.witness
        assert (fast.lhs_value, fast.rhs_value) == (slow.lhs_value, slow.rhs_value)

    def test_nested_products_agree_with_naive(self):
        verdicts = set()
        for m in _nested_products():
            for text in IDENTITY_POOL:
                ident = parse_identity(text)
                if len(ident.letters()) > 3:
                    continue
                fast = satisfies(m, ident)
                slow = naive_satisfies(m, ident)
                assert fast.holds == slow.holds, (m.labels, text)
                assert fast.witness == slow.witness, (m.labels, text)
                assert (fast.lhs_value, fast.rhs_value) == (
                    slow.lhs_value, slow.rhs_value), (m.labels, text)
                verdicts.add(fast.holds)
        assert verdicts == {True, False}

    def test_holds_counts_only_the_factor_scans(self):
        p = direct_product(named_monoid("dualA1"), named_monoid("E1"))
        ident = parse_identity("xtyxsy=xtyxysy")
        res = satisfies(p, ident)
        assert res.holds
        assert res.checked == sum(satisfies(f, ident).checked
                                  for f in p.factors)
        assert res.checked == 1_583

    def test_nested_holds_counts_every_leaf(self):
        p = direct_product(direct_product(Z2, SEMILATTICE), SEMILATTICE)
        ident = parse_identity("xy=yx")
        res = satisfies(p, ident)
        assert res.holds
        assert res.checked == sum(satisfies(f, ident).checked
                                  for f in p.factors)
        assert res.checked == 18

    def test_without_factors_the_product_is_scanned(self):
        # a product read back from its text, or dualised twice, has no
        # factors and takes the full scan to the same answer
        p = direct_product(named_monoid("dualA1"), named_monoid("E1"))
        reloaded = parse_monoid(format_monoid(p))
        twice = dual(dual(p))
        assert reloaded.factors == () and twice.factors == ()
        for text, holds in [("xtyxsy=xtyxysy", True), ("xyx=xxy", False)]:
            ident = parse_identity(text)
            full = satisfies(reloaded, ident)
            assert full.holds == holds
            assert satisfies(twice, ident) == full
            assert replace(satisfies(p, ident), checked=full.checked) == full
            if holds:
                # more rows than the two factor scans: the product itself
                # was scanned, with the prefixes that send both sides to
                # its zero pruned
                assert full.checked > 7 ** 4 + 6 ** 4
                assert full.checked == 1_467_648

    def test_budget_refuses_on_the_product(self):
        p = direct_product(named_monoid("dualA1"), named_monoid("E1"))
        with pytest.raises(BudgetExceededError) as e:
            satisfies(p, parse_identity("xtyxsy=xtyxysy"), budget=1000)
        assert e.value.needed == 42 ** 4


REES_POOL = [
    mtau("trivial", "xy"), mtau("gamma", "a+t"), mtau("tau1", "a+b+"),
    mtau("lambda", "a+ta+"), mtau("rho", "ta+"), named_monoid("E1"),
]


@st.composite
def _zero_identities(draw):
    """Sides over xyz, or a right side over the last letter z only, which
    no prefix of x and y can send to the zero, so only the left side is
    ever flagged and nothing is pruned."""
    lhs = draw(_word_over("xyz").filter(len))
    if draw(st.booleans()):
        return Identity(lhs, draw(_word_over("z")))
    return Identity(lhs, draw(_word_over("xyz")))


def _agree(fast, slow):
    assert fast.holds == slow.holds
    assert fast.witness == slow.witness
    assert (fast.lhs_value, fast.rhs_value) == (slow.lhs_value, slow.rhs_value)


class TestZeroPruning:
    """The level-by-level scan drops prefixes that send both sides to the
    zero (module docstring); the naive scan prunes nothing."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(REES_POOL), _zero_identities(),
           st.sampled_from([7, 4096, 1 << 18]))
    def test_agrees_with_naive(self, m, ident, chunk):
        with mock.patch.object(identities, "CHUNK", chunk):
            fast = satisfies(m, ident)
        _agree(fast, naive_satisfies(m, ident))

    def test_declared_and_undeclared_zero_alike(self):
        m = mtau("lambda", "a+ta+")
        bare = FiniteMonoid(table=m.table, labels=m.labels, identity=m.identity)
        # the zero is the table's, declared or not
        assert bare.zero == m.zero == m.labels.index("0")
        for text in ("xytxy=yxtxy", "xyxy=yxyx", "xtyxy=xtyyx"):
            ident = parse_identity(text)
            assert satisfies(bare, ident) == satisfies(m, ident)
            assert satisfies(m, ident).checked < m.size ** 5

    def test_nothing_is_pruned_without_a_zero(self):
        # the cyclic group of order 5 has no zero: every level is expanded
        # in full, and the abelian identity holds after 5 + 5^2 + ... + 5^6
        # rows
        z5 = FiniteMonoid(table=[[(a + b) % 5 for b in range(5)]
                                 for a in range(5)],
                          labels=tuple("01234"), identity=0)
        ident = parse_identity("xyzstu=utszyx")
        res = satisfies(z5, ident)
        assert res.holds
        assert res.checked == sum(5 ** i for i in range(1, 7))
        bad = parse_identity("xyzstu=uxyzst")
        _agree(satisfies(z5, bad), naive_satisfies(z5, bad))

    def test_s1_instance_scans_a_fraction_of_its_space(self):
        # xyxy=yxyx holds in S1; its instance with x = exr, y = fly has
        # six letters and 12^6 substitutions
        s1 = named_monoid("S1")
        res = satisfies(s1, parse_identity("exrflyexrfly=flyexrflyexr"))
        assert res.holds
        assert res.checked < 12 ** 6

    def test_witness_after_a_pruned_subtree(self):
        # in M(xy), b = x sends the run bba (and bb) to the zero, so the
        # prefix a = 1, b = x is dropped; the violation needs a = x, b = 1,
        # c = y, later in lex order
        m = mtau("trivial", "xy")
        one, x, y, _, zero = range(m.size)
        assert m.labels[zero] == "0" and (m.labels[x], m.labels[y]) == ("x", "y")
        ident = parse_identity("bbacdef=bbcadef")
        for rest in product(range(m.size), repeat=4):
            sub = dict(zip("acdef", (one,) + rest), b=x)
            assert m.evaluate(ident.lhs, sub) == m.evaluate(ident.rhs, sub) == zero
        res = satisfies(m, ident)
        assert res.witness == dict(a=x, b=one, c=y, d=one, e=one, f=one)
        assert m.size ** 6 > 4096 and res.checked < m.size ** 6
        _agree(res, naive_satisfies(m, ident))


K = mtau("lambda", "bta+b+")


def _switch(m):
    """The rows a scan of ``m`` expands before it reads ``m.gap``."""
    return max(_FIRST_ROWS, m.size ** 3 // _GAP_CELLS_PER_ROW)


# monoids and letter counts whose scans can pass the switch to the gap test,
# with spaces small enough for the naive scan
GAP_CASES = [(m, k) for m in REES_POOL + [K] for k in (3, 4, 5)
             if _switch(m) < m.size ** k <= 250_000]


@st.composite
def _late_identities(draw):
    """``(m, identity)`` over the letters a, b, ... of a ``GAP_CASES`` pair,
    of one of two kinds whose scans often pass the switch.  Either both
    sides are one word over b, c, ... with a inserted, so they agree while a
    is the identity (element 0, the first value in lex order) and a
    violation comes after every substitution with a = 1.  Or the right side
    is the left with two neighbouring letters swapped, which often holds."""
    m, k = draw(st.sampled_from(GAP_CASES))
    letters = "abcde"[:k]
    rest = list(letters[1:])
    if draw(st.booleans()):
        w = draw(st.permutations(
            rest + draw(st.lists(st.sampled_from(rest), max_size=2))))

        def with_a():
            side = list(w)
            for at in draw(st.lists(st.integers(0, len(w)), min_size=1,
                                    max_size=2)):
                side.insert(at, "a")
            return "".join(side)

        return m, parse_identity(f"{with_a()}={with_a()}")
    lhs = draw(st.permutations(list(letters) + draw(
        st.lists(st.sampled_from(letters), min_size=1, max_size=3))))
    i = draw(st.integers(0, len(lhs) - 2))
    rhs = lhs[:i] + [lhs[i + 1], lhs[i]] + lhs[i + 2:]
    return m, parse_identity(f"{''.join(lhs)}={''.join(rhs)}")


class TestGapPruning:
    """Past the switch a side is flagged when two neighbouring runs a, b of
    assigned positions have a x b = 0 for every x (module docstring)."""

    def test_gap_table_agrees_with_every_triple(self):
        for name, m in corpus_monoids().items():
            assert m.zero is not None, name
            assert np.array_equal(m.gap, gap_by_triples(m)), name
            assert m.gap is m.gap and not m.gap.flags.writeable
        assert Z2.gap is None

    @settings(max_examples=25, deadline=None)
    @given(_late_identities())
    def test_agrees_with_naive_past_the_switch(self, case):
        m, ident = case
        fast = satisfies(m, ident)
        assume(fast.checked > _switch(m))
        _agree(fast, naive_satisfies(m, ident))

    def test_pair_test_fires(self):
        # with the table a == 0 or b == 0 throughout, the scan evaluates
        # 60,102 rows of sat-MLb-2 (Sec. 6), 182,533 on K and 63,168 of
        # the S1 instance of xyxy=yxyx
        for m, text, rows in [
                (mtau("lambda", "ata+b+"), "xtysxy=xtysyx", 11_445),
                (K, "cxtycxsy=cxtcxycxsy", 21_280),
                (named_monoid("S1"), "exrflyexrfly=flyexrflyexr", 11_508)]:
            res = satisfies(m, parse_identity(text))
            assert res.holds, text
            assert res.checked == rows, text

    def test_two_letters_never_read_the_gap_table(self):
        # a two-letter scan prunes only as it expands the first letter, n
        # rows, short of _FIRST_ROWS, so it reads no table and prunes
        # nothing; the 95-element product is rebuilt without its factors,
        # so that it is scanned itself, past the switch at 95^3 / 32 =
        # 26,796 rows
        p = direct_product(K, mtau("trivial", "xy"))
        m = FiniteMonoid(table=p.table, labels=p.labels, identity=p.identity)
        res = satisfies(m, parse_identity("xyxy=yxyx"))
        assert res.holds and res.checked == 95 + 95 ** 2
        assert "gap" not in vars(m)
        assert satisfies(m, parse_identity("xyzxy=xyzyx")).holds
        assert "gap" in vars(m)

    def test_an_early_violation_builds_no_gap_table(self):
        # 1, a zero and 98 elements whose products are all the zero: the
        # scan expands a level past _ELIMINATE_AFTER rows, so a switch at
        # that count alone would build the table, and finds the violation
        # before 100^3 / 32 rows, so it does not pay the 10^6 cells of it
        n = 100
        table = np.ones((n, n), dtype=np.int32)
        table[0] = table[:, 0] = np.arange(n)
        m = FiniteMonoid(table=table, labels=tuple(map(str, range(n))),
                         identity=0)
        res = satisfies(m, parse_identity("yttyyzx=zyxy"))
        assert res.witness == {"t": 1, "x": 0, "y": 0, "z": 0}
        assert res.checked == 25_500 < n ** 3 // 32
        assert "gap" not in vars(m)


class TestWitnessReporting:
    def test_labels(self):
        s1 = monoid_with_identity("S")
        res = satisfies(s1, parse_identity("xtysxy=xtysyx"))
        assert not res.holds
        assert {b: s1.labels[e] for b, e in res.witness.items()} == \
            {"x": "b", "y": "a", "t": "c", "s": "1"}
        assert s1.labels[res.lhs_value] == "0"
        assert s1.labels[res.rhs_value] == "bcb"
