"""End-to-end acceptance checks, one test per numbered criterion.

Each test pins the exact expected values and the stated runtime budget.
Two checks document known defects of the source statements and fail by
design (see notes in the repository README and data/disputed_claims.txt):

* test_01: the worked lower-set example lists the reducible word bta+b, so
  the engine finds 18 nonzero words and a 19-element monoid, not 19/20;
* test_04: E1 is listed in the sweep but is not J-trivial (bc=b, cb=c).
"""

import itertools
import random
import time

import pytest

from taumonoid.catalog import (corpus_monoids, monoid_with_identity, mtau,
                               named_monoid, semigroup)
from taumonoid.construct import lower_set
from taumonoid.derive import check_trace, derive_bounded
from taumonoid.freeobj import is_isoterm, is_tau_term
from taumonoid.identities import (Identity, long_identity, parse_identity,
                                  satisfies)
from taumonoid.monoid import (adjoin_identity, dual, find_isomorphism,
                              is_aperiodic, is_j_trivial, submonoid)
from taumonoid.rewrite import TauWord, TauWordSet, canonical
from taumonoid.words import parse_word, print_word

from oracles import normal_forms_all_orders

K_EXAMPLE_WORDS = [
    "1", "a", "a+", "b", "b+", "t",
    "bt", "ta", "ta+", "ab", "ab+", "a+b", "a+b+",
    "bta", "bta+", "ta+b", "ta+b+",
    "bta+b", "bta+b+",
]


def _ident(text):
    return parse_identity(text)


def test_01_lower_set_of_the_k_generator_reproduces_the_listed_example():
    start = time.monotonic()
    low = lower_set(TauWordSet("lambda", [parse_word("bta+b+")]))
    monoid = mtau("lambda", "bta+b+")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    got = sorted(str(w) for w in low)
    assert got == sorted(K_EXAMPLE_WORDS), (
        "lower set differs from the listed example: "
        f"missing={sorted(set(K_EXAMPLE_WORDS) - set(got))}, "
        f"extra={sorted(set(got) - set(K_EXAMPLE_WORDS))}")
    assert monoid.size == 20


def test_02_twelve_element_submonoid_isomorphic_to_s1():
    start = time.monotonic()
    k = mtau("lambda", "bta+b+")
    gens = [k.labels.index(l) for l in ("a+", "b", "ta+")]
    sub, _ = submonoid(k, gens)
    assert sub.size == 12
    s = semigroup("S")
    assert s.size == 11
    assert sorted(s.labels) == sorted("a b c ab abb bb bc bcb cb cbb 0".split())
    s1 = adjoin_identity(s)
    assert s1.size == 12
    mapping = find_isomorphism(sub, s1)
    assert mapping is not None
    for i in range(sub.size):
        for j in range(sub.size):
            assert mapping[sub.table[i][j]] == s1.table[mapping[i]][mapping[j]]
    assert time.monotonic() - start < 1.0


def test_03_presentation_element_lists():
    a1 = monoid_with_identity("A")
    assert a1.size == 7
    assert sorted(a1.labels) == sorted("1 a b c ba bc 0".split())
    e1 = monoid_with_identity("E")
    assert e1.size == 6
    assert sorted(e1.labels) == sorted("1 a b c ac 0".split())
    a01 = monoid_with_identity("A0")
    assert a01.size == 5
    assert sorted(a01.labels) == sorted("1 e f ef 0".split())


def test_04_j_triviality_and_aperiodicity_across_the_corpus():
    start = time.monotonic()
    failures = []
    for name, m in corpus_monoids().items():
        jt, pair = is_j_trivial(m)
        if not jt:
            failures.append(
                f"{name}: not J-trivial "
                f"({m.labels[pair[0]]} and {m.labels[pair[1]]} share an ideal)")
        if not is_aperiodic(m):
            failures.append(f"{name}: not aperiodic")
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"
    assert not failures, "; ".join(failures)


SATISFACTION_SUITE = [
    ("M[lambda](bta+b+)", "xtx=xtxx"),
    ("M[lambda](bta+b+)", "xyytx=yxytx"),
    ("M[lambda](bta+b+)", "xytxsy=yxtxsy"),
    ("M[lambda](bta+b+)", "xzxtxsx=xzxtsx"),
    ("M[lambda](bta+b+)", "xtyxy=xtxyxy"),
    ("E1", "xtx=xtxx"),
    ("E1", "xtx=xxtx"),
    ("E1", "xyyx=xxyy"),
    ("E1", "xyytx=xyyxtx"),
    ("dualA1", "xtx=xtxx"),
    ("dualA1", "xyytx=xyyxtx"),
    ("A01", "xtsx=xtxsx"),
    ("A01", "xyxy=yxyx"),
    ("M[lambda](a+ta+)", "xxyty=xyxty"),
]


def test_05_identity_satisfaction_suite():
    from taumonoid.claims import parse_monoid_expr
    failures = []
    for expr, ident in SATISFACTION_SUITE:
        res = satisfies(parse_monoid_expr(expr), _ident(ident))
        if not res.holds:
            failures.append(f"{expr} violates {ident} at {res.witness}")
    assert not failures, "; ".join(failures)


def test_06_violation_suite_with_witnesses():
    s1 = monoid_with_identity("S")
    res = satisfies(s1, _ident("xtysxy=xtysyx"))
    assert not res.holds
    # the engine-found witness is sound on the table
    lv = s1.evaluate(_ident("xtysxy=xtysyx").lhs, res.witness)
    rv = s1.evaluate(_ident("xtysxy=xtysyx").rhs, res.witness)
    assert lv != rv
    assert (s1.labels[lv], s1.labels[rv]) == ("0", "bcb")

    k = mtau("lambda", "bta+b+")
    res = satisfies(dual(k), _ident("xtx=xtxx"))
    assert not res.holds

    n = mtau("lambda", "a+btb+")
    f = mtau("lambda", "a+ta+")
    assert satisfies(f, _ident("xxyty=xyxty")).holds
    res = satisfies(n, _ident("xxyty=xyxty"))
    assert not res.holds


def test_07_long_identity_family_up_to_four():
    k = mtau("lambda", "bta+b+")
    start = time.monotonic()
    for n in range(1, 5):
        res = satisfies(k, long_identity(n))
        assert res.holds, f"long identity fails at n={n}: {res.witness}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@pytest.mark.slow
def test_07_long_identity_benchmark_at_five():
    k = mtau("lambda", "bta+b+")
    res = satisfies(k, long_identity(5))
    assert res.holds


def test_08_isomorphism_suite():
    assert find_isomorphism(mtau("gamma", "a+t"), mtau("lambda", "a+t"))
    assert find_isomorphism(mtau("gamma", "a+t"), mtau("rho", "a+t"))
    assert find_isomorphism(mtau("lambda", "a+t"), mtau("rho", "a+t"))
    assert find_isomorphism(mtau("tau1", "a+b+"), monoid_with_identity("A0"))


def test_09_bounded_derivations_with_verified_traces():
    start = time.monotonic()
    jobs = [
        (["xtyxsy=xtxyxsy"], "xtx=xtxx"),
        (["xtysyx=xtysxyx"], "xtx=xtxx"),
        (["xtx=xtxx", "xxt=xxtx"], "xtxs=xtxsx"),
        (["xtxs=xtxsx"], "xtx=xtxx"),
        (["xtxs=xtxsx"], "xxt=xxtx"),
        (["xtx=xtxx", "xyytx=xyyxtx"], "xtyxsy=xtyxysy"),
    ]
    for axiom_texts, goal_text in jobs:
        axioms = [_ident(t) for t in axiom_texts]
        goal = _ident(goal_text)
        trace = derive_bounded(axioms, goal, max_len=14, max_steps=100_000)
        assert trace is not None, f"no derivation for {goal_text}"
        ok, msg = check_trace(axioms, trace, goal)
        assert ok, msg
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_10_tau_term_and_isoterm_suite():
    k = mtau("lambda", "bta+b+")
    f = mtau("lambda", "a+ta+")

    assert is_isoterm(k, parse_word("xy")).is_isoterm

    verdict = is_tau_term(f, TauWord.make(parse_word("a+btb+"), "lambda"))
    assert verdict.fails
    member, off = verdict.witness
    assert satisfies(f, Identity(member, off)).holds
    assert canonical(off, "lambda") != parse_word("a+btb+")

    verdict = is_tau_term(k, TauWord.make(parse_word("bta+b+"), "lambda"))
    assert verdict.status == "holds"

    instances = [
        ("lambda", k, "bta+b+"),
        ("lambda", k, "a+b+"),
        ("lambda", k, "ata+"),
        ("lambda", f, "a+ta+"),
        ("lambda", f, "a+btb+"),
        ("lambda", mtau("lambda", "ata+"), "ata+"),
        ("gamma", mtau("gamma", "a+t"), "a+t"),
        ("tau1", mtau("tau1", "a+b+"), "a+b+"),
        ("rho", mtau("rho", "a+t"), "a+t"),
    ]
    for tau, m, text in instances:
        verdict = is_tau_term(m, TauWord.make(parse_word(text), tau))
        if m is f and text == "a+btb+":
            assert verdict.fails, (tau, text)
            assert satisfies(m, Identity(*verdict.witness)).holds, (tau, text)
        else:
            assert verdict.holds, (tau, text)


def test_11_rewriting_property_suite():
    taus = ("tau1", "gamma", "lambda", "rho")

    # order independence, exhaustively on plain words over three bases; the
    # rules only ever compare bases for equality, so words that agree after
    # renaming bases in first-occurrence order have isomorphic rewriting
    # graphs and one representative per renaming pattern covers all words
    seen_patterns = set()
    for n in range(0, 9):
        for combo in itertools.product("abc", repeat=n):
            order = {}
            for b in combo:
                order.setdefault(b, len(order))
            pattern = tuple(order[b] for b in combo)
            if pattern in seen_patterns:
                continue
            seen_patterns.add(pattern)
            word = tuple((b, False) for b in combo)
            for tau in taus:
                forms = normal_forms_all_orders(word, tau)
                assert forms == {canonical(word, tau)}, (combo, tau)

    # and on marked words over two bases up to length five
    symbols = [("a", False), ("a", True), ("b", False), ("b", True)]
    for n in range(0, 6):
        for combo in itertools.product(symbols, repeat=n):
            word = tuple(combo)
            for tau in taus:
                forms = normal_forms_all_orders(word, tau)
                assert forms == {canonical(word, tau)}, (combo, tau)

    rng = random.Random(20210621)

    def random_plain(max_len=10):
        return tuple((rng.choice("abc"), False)
                     for _ in range(rng.randrange(max_len + 1)))

    def random_marked(max_len=10):
        return tuple((rng.choice("abc"), rng.random() < 0.4)
                     for _ in range(rng.randrange(max_len + 1)))

    # length monotonicity of letter multiplication, 10^5 random cases
    for _ in range(100_000):
        tau = rng.choice(taus)
        u = canonical(random_plain(), tau)
        letter = ((rng.choice("abc"), False),)
        assert len(canonical(u + letter, tau)) >= len(u)
        assert len(canonical(letter + u, tau)) >= len(u)

    # duality, 10^5 random cases
    for _ in range(100_000):
        word = random_marked()
        rev = tuple(reversed(word))
        assert canonical(word, "rho") == tuple(reversed(canonical(rev, "lambda")))
