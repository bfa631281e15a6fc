import pytest

from taumonoid import catalog, claims
from taumonoid.claims import (Claim, ClaimReport, _inputs, parse_corpus,
                              parse_monoid_expr, run_claim, verify_corpus)
from taumonoid.cli import corpus_text
from taumonoid.monoid import adjoin_identity, direct_product, dual, submonoid
from taumonoid.rewrite import TauWord, TauWordSet
from taumonoid.words import parse_word
from oracles import naive_satisfies, satisfies_by_depth_first
from test_construct import build_monoid_by_compose, lower_set_by_reachability
from test_freeobj import isoterm_by_accepted_words, tau_term_by_enumeration
from test_monoid import (find_isomorphism_by_refinement,
                         from_presentation_by_products)


def make_claim(kind, inputs, expected, id="t1"):
    return Claim(id, kind, inputs, expected, "DERIVED", "here")


# -- the former prefix-matching reader, kept as the oracle for the new one ---

def oracle_parse_monoid_expr(text, named=catalog.named_monoid,
                             mtau=catalog.mtau):
    """The monoid of an expression, its leaves built by ``named`` (a name)
    and ``mtau`` (a congruence and comma-separated words)."""
    text = text.strip()
    if text in ("A1", "E1", "A01", "S1", "dualA1"):
        return named(text)
    if text.startswith("M["):
        tau, close, words = text[2:].partition("]")
        if not (close and words.startswith("(") and words.endswith(")")):
            raise ValueError(f"malformed monoid expression {text!r}")
        return mtau(tau, words[1:-1])
    if text.startswith("dual(") and text.endswith(")"):
        return dual(oracle_parse_monoid_expr(text[5:-1], named, mtau))
    if text.startswith("prod(") and text.endswith(")"):
        factors = oracle_fields(text[5:-1], ",")
        if len(factors) != 2:
            raise ValueError(f"prod takes two monoids, got {len(factors)}: "
                             f"{text!r}")
        return direct_product(*(oracle_parse_monoid_expr(f, named, mtau)
                                for f in factors))
    if text.startswith("sub(") and text.endswith(")"):
        inner = text[4:-1]
        expr, labels = oracle_split_top(inner, ";")
        m = oracle_parse_monoid_expr(expr, named, mtau)
        gens = []
        for lab in labels.split(","):
            lab = lab.strip()
            if lab not in m.labels:
                raise ValueError(f"no element labelled {lab!r}")
            gens.append(m.labels.index(lab))
        return submonoid(m, gens)[0]
    raise ValueError(f"unknown construction {text!r}")


def oracle_split_top(text, sep):
    depth = 0
    for i, c in enumerate(text):
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == sep and depth == 0:
            return text[:i], text[i + 1:]
    raise ValueError(f"expected top-level {sep!r} in {text!r}")


def oracle_fields(inputs, sep=";"):
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


# the inputs that are monoid expressions, by claim kind
MONOID_INPUTS = {"monoid-size": (0,), "element-set": (0,), "satisfies": (0,),
                 "violates": (0,), "isomorphic": (0, 1), "j-trivial": (0,),
                 "aperiodic": (0,), "idempotents-commute": (0,),
                 "isoterm": (0,), "tau-term": (1,), "not-tau-term": (1,)}

# written in the README and in the other tests
DOCUMENTED_EXPRESSIONS = [
    "M[lambda](bta+b+)", "sub(M[lambda](bta+b+); a+, b, ta+)", "S1", "E1",
    "A1", "A01", "dualA1", "M[lambda](a+ta+)", "M[trivial]()", "dual(A1)",
    "prod(A01,E1)", "M[gamma](a+t)", "M[gamma](ta+)", "M[lambda]()",
    "M[lambda](1)", "M[rho](a+t)",
]


def corpus_expressions():
    found = set(DOCUMENTED_EXPRESSIONS)
    for claim in parse_corpus(corpus_text() + corpus_text(disputed=True)):
        parts = oracle_fields(claim.inputs)
        found.update(parts[i] for i in MONOID_INPUTS.get(claim.kind, ()))
    return sorted(found)


class TestReaderAgainstOracle:
    @pytest.mark.parametrize("expr", corpus_expressions())
    def test_same_monoid(self, expr):
        assert parse_monoid_expr(expr) == oracle_parse_monoid_expr(expr)

    def test_covers_every_construction(self):
        heads = {e.split("(")[0].split("[")[0] for e in corpus_expressions()}
        assert {"M", "dual", "prod", "sub", "S1", "dualA1"} <= heads

    def test_product_labels_with_commas(self):
        # the oracle cut labels at every comma, so it could name none of these
        p = direct_product(catalog.named_monoid("A1"),
                           catalog.named_monoid("E1"))
        gens = [p.labels.index("(a,1)"), p.labels.index("(1,b)")]
        expected = submonoid(p, gens)[0]
        assert parse_monoid_expr("sub(prod(A1,E1); (a,1), (1,b))") == expected
        assert parse_monoid_expr("sub(prod(A1,E1); (1,1))").labels == ("(1,1)",)


class TestExpressionLanguage:
    def test_quotient_and_named(self):
        assert parse_monoid_expr("M[lambda](bta+b+)").size == 19
        assert parse_monoid_expr("S1").size == 12
        assert parse_monoid_expr("M[trivial]()").size == 1

    def test_wrappers(self):
        assert parse_monoid_expr("dual(A1)").size == 7
        assert parse_monoid_expr("prod(A01,E1)").size == 30
        assert parse_monoid_expr("sub(M[lambda](bta+b+); a+, b, ta+)").size == 12

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_monoid_expr("nonsense(1)")
        with pytest.raises(ValueError):
            parse_monoid_expr("sub(A1; nolabel)")


class TestRunClaim:
    def test_wrong_expectation_reports_actual(self):
        res = run_claim(make_claim("monoid-size", "M[lambda](bta+b+)", "99"))
        assert res.verdict == "fail"
        assert res.actual == "19"

    def test_satisfies_and_violates(self):
        good = run_claim(make_claim("satisfies", "A01 ; xtsx=xtxsx", "yes"))
        assert good.verdict == "pass"
        bad = run_claim(make_claim("violates", "S1 ; xtysxy=xtysyx",
                                   "x=b,y=a,t=c,s=1->0,bcb"))
        assert bad.verdict == "pass"
        assert bad.actual.startswith("violated@")

    def test_stated_witness_with_product_labels(self):
        res = run_claim(make_claim("violates", "prod(A1,E1) ; xy=yx",
                                   "x=(1,a), y=(1,b) -> (1,0), (1,a)"))
        assert res.verdict == "pass"
        assert res.actual == "violated@x=(1,a),y=(1,b)->(1,0),(1,a)"

    def test_broken_input_is_a_recorded_failure(self):
        res = run_claim(make_claim("monoid-size", "M[zeta](a)", "5"))
        assert res.verdict == "fail"
        assert res.actual.startswith("error:")

    def test_isoterm_of_a_marked_word_is_an_error(self):
        res = run_claim(make_claim("isoterm", "M[lambda](bta+b+) ; x+y", "yes"))
        assert res.verdict == "fail"
        assert res.actual == "error: ValueError: an isoterm is a plain word, got x+y"

    def test_derivable(self):
        res = run_claim(make_claim(
            "derivable", "xtx=xtxx ; xtysyx=xtysxyx", "yes"))
        assert res.verdict == "pass"
        assert res.actual == "derived-in-1-steps"

    def test_options_reach_the_search(self):
        res = run_claim(make_claim(
            "derivable", "xtx=xtxx ; xtysyx=xtysxyx ; max_len=3", "yes"))
        assert res.actual == "not-found-within-bounds"

    @pytest.mark.parametrize("kind, inputs", [
        ("derivable", "xtx=xtxx ; xtysyx=xtysxyx ; max_step=200000"),
        ("derivable", "xtx=xtxx ; xtysyx=xtysxyx ; 200000"),
        ("derivable", "xtx=xtxx ; xtysyx=xtysxyx ; bound=3"),
        ("tau-term", "lambda ; M[lambda](a+ta+) ; a+ta+ ; max_len=3"),
        ("tau-term", "lambda ; M[lambda](a+ta+) ; a+ta+ ; bound=6"),
        ("tau-term", "lambda ; M[lambda](a+ta+) ; a+ta+ ; mode=exat"),
        # a+btb+ is not a tau-term here (ntt-F), so an empty search must not
        # pass for one
        ("tau-term", "lambda ; M[lambda](a+ta+) ; a+btb+ ; bound=-1"),
        ("satisfies", "A01 ; xtsx=xtxsx ; mode=exact"),
        ("satisfies", "A01"),
    ])
    def test_unknown_options_and_missing_inputs_fail(self, kind, inputs):
        res = run_claim(make_claim(kind, inputs, "yes"))
        assert res.verdict == "fail"
        assert res.actual.startswith("error: ValueError:")

    def test_inputs_are_read_once(self, monkeypatch):
        calls = []
        named = catalog.named_monoid
        monkeypatch.setattr(catalog, "named_monoid",
                            lambda name: calls.append(name) or named(name))
        res = run_claim(make_claim("violates", "S1 ; xtysxy=xtysyx",
                                   "x=b,y=a,t=c,s=1->0,bcb"))
        assert res.verdict == "pass"
        assert calls == ["S1"]

    @pytest.mark.parametrize("kind, name", [
        ("satisfies", "satisfies"), ("violates", "satisfies"),
        ("isomorphic", "find_isomorphism"), ("j-trivial", "is_j_trivial"),
        ("aperiodic", "is_aperiodic"),
        ("idempotents-commute", "idempotents_commute"),
        ("tau-term", "is_tau_term"), ("not-tau-term", "is_tau_term"),
        ("isoterm", "is_isoterm"), ("derivable", "derive_bounded"),
        ("two-island-limited", "is_two_island_limited"),
    ])
    def test_questions_look_up_the_library_when_called(self, monkeypatch,
                                                       kind, name):
        # a function rebound on the module after import is the one a
        # question calls, as a tracer that rebinds it needs
        calls = []
        library = getattr(claims, name)
        monkeypatch.setattr(claims, name, lambda *args, **kwargs:
                            calls.append(args) or library(*args, **kwargs))
        claim = next(c for c in parse_corpus(corpus_text())
                     if c.kind == kind and not c.slow)
        assert run_claim(claim).verdict == "pass"
        assert calls


class TestCorpusFile:
    def test_parses_with_unique_ids(self):
        claims = parse_corpus(corpus_text())
        assert len(claims) == len({c.id for c in claims})
        assert any(c.slow for c in claims)

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_corpus("only | five | fields | here | nope")

    def test_filter_selects_prefix(self):
        report = verify_corpus(corpus_text(), id_filter="isl-")
        assert {r.claim.id for r in report.results} == \
            {"isl-yes", "isl-no", "isl-K-gen", "isl-J-gen", "isl-Jbar-gen"}
        assert report.all_passed

    def test_report_line_format(self):
        report = verify_corpus(corpus_text(), id_filter="size-A1")
        line = report.lines()[0]
        fields = line.split("\t")
        assert len(fields) == 6
        assert fields[0] == "size-A1"
        assert fields[1] == "pass"
        assert fields[2] == fields[3] == "7"
        assert fields[5].isdigit()

    def test_slow_claims_skip_by_default(self):
        report = verify_corpus(corpus_text(), id_filter="li-5")
        assert report.results[0].verdict == "skipped"
        assert report.all_passed  # skipped claims do not fail the run

    def test_shipped_corpus_passes(self):
        report = verify_corpus(corpus_text())
        failures = [r.line() for r in report.results if r.verdict == "fail"]
        assert not failures, failures

    def test_disputed_corpus_fails_as_documented(self):
        report = verify_corpus(corpus_text(disputed=True))
        verdicts = {r.claim.id: r for r in report.results}
        assert verdicts["dp-EK-size"].verdict == "fail"
        assert verdicts["dp-EK-size"].actual == "19"
        assert verdicts["dp-EK-elems"].verdict == "fail"
        assert "bta+b" not in verdicts["dp-EK-elems"].actual.split(",")
        assert verdicts["dp-E1-jtrivial"].verdict == "fail"
        assert verdicts["dp-E1-jtrivial"].actual == "no"

    def test_budget_overflow_is_a_skip_not_a_failure(self):
        claim = make_claim("satisfies", "M[lambda](bta+b+) ; xtysxy=xtysyx",
                           "yes")
        res = run_claim(claim, budget=100)
        assert res.verdict == "skipped"
        assert res.actual.startswith("budget:")


# identity claims beyond the naive scan, li-4 (19^5 substitutions) to li-6
# (19^7), recomputed by the depth-first search that cuts at the zero
BY_DEPTH_FIRST = ("li-4", "li-5", "li-6")
# those of 3.1M substitutions, recomputed under -m slow; the others have at
# most 10^6
NAIVE_SCAN_SLOW = ("sat-AE-1", "sat-AE-2")


def named_by_products(name):
    """A named monoid, its presentation closed by the products oracle:
    ``X1`` is the presentation ``X`` with an identity adjoined."""
    if name == "dualA1":
        return dual(named_by_products("A1"))
    return adjoin_identity(from_presentation_by_products(
        catalog.PRESENTATIONS[name[:-1]]))


def mtau_by_compose(tau, words):
    """``M_tau(W)`` composed entry by entry over the reachability lower set."""
    ws = TauWordSet(tau, [parse_word(w) for w in words.split(",") if w])
    low = set().union(*(lower_set_by_reachability(TauWord(w, tau))
                        for w in ws.words))
    return build_monoid_by_compose(ws, low)


class TestCorpusAgainstOracles:
    """Each corpus claim recomputed by its kind's independent method.

    ``derivable`` claims are not recomputed here: ``derive_bounded``
    replays each derivation it returns with ``check_trace``.
    """

    @pytest.mark.parametrize("claim", [
        c for text in (corpus_text(), corpus_text(disputed=True))
        for c in parse_corpus(text)
        if c.kind in ("element-set", "monoid-size", "isomorphic")],
        ids=lambda c: c.id)
    def test_monoid_claims_by_compose_and_refinement(self, claim):
        # every monoid rebuilt by the oracles, from its lower set or its
        # presentation up
        ms = [oracle_parse_monoid_expr(part, named_by_products,
                                       mtau_by_compose)
              for part in oracle_fields(claim.inputs)]
        if claim.kind == "monoid-size":
            expected = str(ms[0].size)
        elif claim.kind == "element-set":
            expected = ",".join(sorted(ms[0].labels))
        else:
            iso = find_isomorphism_by_refinement(*ms)
            expected = "yes" if iso is not None else "no"
        assert run_claim(claim).actual == expected

    @pytest.mark.parametrize("claim", [
        c for c in parse_corpus(corpus_text())
        if c.kind in ("tau-term", "not-tau-term")], ids=lambda c: c.id)
    def test_tau_term_claims_by_enumeration(self, claim):
        # the verdict family of every word up to 8 letters
        (tau, m, word), _ = _inputs(claim)
        oracle = tau_term_by_enumeration(m, TauWord.make(word, tau), 8)
        actual = run_claim(claim).actual
        assert (oracle is not None) == actual.startswith("fails"), \
            (oracle, actual)

    @pytest.mark.parametrize("claim", [
        c for c in parse_corpus(corpus_text()) if c.kind == "isoterm"],
        ids=lambda c: c.id)
    def test_isoterm_claims_by_accepted_words(self, claim):
        (m, word), _ = _inputs(claim)
        oracle = isoterm_by_accepted_words(m, word)
        assert run_claim(claim).actual == ("yes" if oracle.is_isoterm else "no")

    @pytest.mark.parametrize("claim", [
        pytest.param(c, marks=[pytest.mark.slow]
                     if c.id in NAIVE_SCAN_SLOW else [])
        for c in parse_corpus(corpus_text())
        if c.kind in ("satisfies", "violates")
        and c.id not in BY_DEPTH_FIRST],
        ids=lambda c: c.id)
    def test_identity_claims_by_naive_scan(self, claim):
        (m, ident), _ = _inputs(claim)
        if claim.id not in NAIVE_SCAN_SLOW:
            assert m.size ** len(ident.letters()) <= 10 ** 6
        ref = naive_satisfies(m, ident)
        if ref.holds:
            expected = "holds"
        else:
            wit = ",".join(f"{b}={m.labels[e]}"
                           for b, e in sorted(ref.witness.items()))
            expected = (f"violated@{wit}->"
                        f"{m.labels[ref.lhs_value]},{m.labels[ref.rhs_value]}")
        assert run_claim(claim).actual == expected

    @pytest.mark.parametrize("claim", [
        pytest.param(c, marks=[pytest.mark.slow]
                     if c.id in NAIVE_SCAN_SLOW else [])
        for c in parse_corpus(corpus_text())
        if c.kind in ("satisfies", "violates")], ids=lambda c: c.id)
    def test_identity_claims_by_depth_first_search(self, claim):
        # the violated claims, vio-K among them, show that the cut at the
        # zero keeps a violation in the search; one that cut where either
        # side is the zero would miss vio-N's
        (m, ident), _ = _inputs(claim)
        found = satisfies_by_depth_first(m, ident)
        if found is not None:
            assert m.evaluate(ident.lhs, found) != m.evaluate(ident.rhs,
                                                              found)
        actual = run_claim(claim).actual
        assert actual.startswith("holds" if found is None else "violated@")
