import contextlib
import hashlib
import io
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from taumonoid.catalog import named_monoid
from taumonoid.claims import parse_monoid_expr
from taumonoid.cli import main
from taumonoid.monoid import format_monoid, load_monoid, submonoid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestWordCommands:
    def test_canon(self, capsys):
        code, out, _ = run(capsys, "canon", "lambda", "btaabb")
        assert code == 0 and out.strip() == "bta+b+"

    def test_compose(self, capsys):
        code, out, _ = run(capsys, "compose", "lambda", "bta+", "a+b+")
        assert code == 0 and out.strip() == "bta+b+"

    def test_lower_set(self, capsys):
        code, out, _ = run(capsys, "lower-set", "lambda", "bta+b+")
        words = out.split()
        assert code == 0
        assert len(words) == 18
        assert "ta+b" in words and "a+t" not in words

    def test_unknown_congruence(self, capsys):
        for argv in (("canon", "zeta", "ab"), ("compose", "zeta", "a", "b"),
                     ("lower-set", "zeta", "ab"), ("build", "zeta", "ab"),
                     ("tau-term", "zeta", "S1", "ab")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.splitlines() == [
                "error: unknown congruence 'zeta'; choose from trivial, "
                "tau1, gamma, lambda, rho"], argv


class TestMonoidCommands:
    def test_build_and_reload(self, capsys, tmp_path):
        path = tmp_path / "k.mon"
        code, out, _ = run(capsys, "build", "lambda", "bta+b+", "--out", str(path))
        assert code == 0
        m = load_monoid(path)
        assert m.size == 19

    def test_build_labels_name_their_elements(self, capsys):
        # the one letter ab and the product a b are two elements
        code, out, _ = run(capsys, "build", "trivial", "ab x", "a b")
        assert code == 0
        printed = out.splitlines()[1].split()
        assert len(printed) == len(set(printed)) == 8
        expr = "M[trivial](ab x, a b)"
        m = parse_monoid_expr(expr)
        for i, label in enumerate(m.labels):
            want = submonoid(m, [i])[0]
            assert parse_monoid_expr(f"sub({expr}; {label})") == want, label

    def test_saved_labels_name_their_elements(self, capsys, tmp_path):
        # the labels "a_b x" and "a b_x" were both written a_b_x, so the
        # reloaded monoid had 8 elements and 7 names
        path = tmp_path / "f.mon"
        code, _, _ = run(capsys, "build", "trivial", "a_b x", "a b_x",
                         "--out", str(path))
        assert code == 0
        m = load_monoid(path)
        assert m.size == len(set(m.labels)) == 8
        expr = "M[trivial](a_b x, a b_x)"
        assert m == parse_monoid_expr(expr)
        for i, label in enumerate(m.labels):
            want = submonoid(m, [i])[0]
            assert parse_monoid_expr(f"sub({expr}; {label})") == want, label

    def test_check_pass_and_fail(self, capsys, tmp_path):
        path = tmp_path / "k.mon"
        run(capsys, "build", "lambda", "bta+b+", "--out", str(path))
        code, out, _ = run(capsys, "check", str(path), "xtx=xtxx")
        assert code == 0 and out.strip() == "holds"
        code, out, _ = run(capsys, "check", str(path), "xtysxy=xtysyx")
        assert code == 1 and "violated" in out

    def test_present(self, capsys):
        code, out, _ = run(capsys, "present", "S")
        assert code == 0 and "11 elements" in out

    @pytest.mark.parametrize("text,want", [
        ("gens: a b\na = b\n0 = b\n", "1 elements: 0"),
        ("gens: a b\na = bb\nb = bb\n0 = ba\n", "1 elements: 0"),
        ("gens: a b\naa = aabb = b\n", "5 elements: a, b, ab, bb, abb"),
    ], ids=["a=b,b=0", "a=bb,b=bb,ba=0", "aa=aabb=b"])
    def test_present_file(self, capsys, tmp_path, text, want):
        path = tmp_path / "p.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "present", str(path))
        assert code == 0 and out.strip() == want

    def test_present_file_as_the_help_describes(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["present", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for form in ("'gens: a b' line", "'u = v' (or 'u = v = w') relation",
                     "'0 = w, w' lines"):
            assert form in help_text
        path = tmp_path / "p.txt"
        path.write_text("gens: a b\naa = a\nbb = b = bbb\n0 = ab, ba\n")
        assert run(capsys, "present", str(path)) == \
            (0, "3 elements: a, b, 0\n", "")

    @pytest.mark.parametrize("text", [
        "gens: a b\nab = ba\n",
        "gens: a b\naba = b\n",
        "gens: a b\nab = ba\naa = a\n",
        "gens: a b\nab = bb\n",
        "gens: a b c\nbac = cac\n",
        "gens: a b\nab = ba\naa = b\n",
    ], ids=["ab=ba", "aba=b", "ab=ba,aa=a", "ab=bb", "bac=cac", "ab=ba,aa=b"])
    def test_present_infinite_file(self, capsys, tmp_path, text):
        path = tmp_path / "p.txt"
        path.write_text(text)
        t0 = time.perf_counter()
        code, _, err = run(capsys, "present", str(path))
        assert time.perf_counter() - t0 < 1
        assert code == 2 and "not closed within cap" in err
        assert "infinite" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text", [
        "aa = a\ngens: a\n",
        "gens: a\ngens: b\n",
        "# a comment\n\naa = a\n",
        "",
    ], ids=["relation-first", "second-gens", "no-gens", "empty"])
    def test_present_file_has_one_gens_line_first(self, capsys, tmp_path,
                                                  text):
        path = tmp_path / "p.txt"
        path.write_text(text)
        assert run(capsys, "present", str(path)) == \
            (2, "", "error: presentation file must start with a 'gens:' "
                    "line and have only one\n")

    def test_iso(self, capsys):
        # the whole mapping line is pinned: the search picks the same map
        # among the isomorphisms whatever method it uses
        code, out, _ = run(capsys, "iso",
                           "sub(M[lambda](bta+b+); a+, b, ta+)", "S1")
        assert code == 0 and out == (
            "isomorphic: 1->1, a+->a, b->b, b+->bb, a+b->ab, a+b+->abb, "
            "ta+->c, bta+->bc, ta+b->cb, ta+b+->cbb, bta+b+->bcb, 0->0\n")
        code, out, _ = run(capsys, "iso", "M[rho](b+a+tb)",
                           "dual(M[lambda](bta+b+))")
        assert code == 0 and out == (
            "isomorphic: 1->1, a->a, a+->a+, b->b, b+->b+, t->t, a+t->ta+, "
            "at->ta, b+a->ab+, b+a+->a+b+, ba->ab, ba+->a+b, tb->bt, "
            "a+tb->bta+, atb->bta, b+a+t->ta+b+, ba+t->ta+b, "
            "b+a+tb->bta+b+, 0->0\n")
        code, out, _ = run(capsys, "iso", "M[gamma](a+t)", "M[gamma](ta+)")
        assert code == 1

    def test_predicates(self, capsys):
        code, out, _ = run(capsys, "jtrivial", "M[lambda](bta+b+)")
        assert code == 0
        code, out, _ = run(capsys, "jtrivial", "E1")
        assert code == 1 and "b" in out and "c" in out
        code, out, _ = run(capsys, "aperiodic", "E1")
        assert code == 0
        code, out, _ = run(capsys, "idem-commute", "A01")
        assert code == 1

    def test_dual_and_product(self, capsys):
        code, out, _ = run(capsys, "dual", "A1")
        assert code == 0 and out.startswith("MONOID 7")
        code, out, _ = run(capsys, "product", "A01", "E1")
        assert code == 0 and out.startswith("MONOID 30")

    def test_isoterm_and_tau_term(self, capsys):
        code, out, _ = run(capsys, "isoterm", "M[lambda](bta+b+)", "xy")
        assert code == 0 and out.strip() == "isoterm"
        # M() satisfies xy = 1, printed as the word 1
        assert run(capsys, "isoterm", "M[lambda]()", "xy") == \
            (1, "not an isoterm (equal-valued word: 1)\n", "")
        code, out, _ = run(capsys, "tau-term", "lambda",
                           "M[lambda](a+ta+)", "a+btb+")
        assert code == 1 and "fails" in out
        code, out, _ = run(capsys, "tau-term", "lambda",
                           "M[lambda](a+ta+)", "a+ta+")
        assert (code, out) == (0, "holds\n")

    def test_check_scans_a_product_by_its_factors(self, capsys):
        # 42^4 = 3,111,696 substitutions, but the factor scans evaluate
        # 1,583 rows; no size refuses a scan
        assert run(capsys, "check", "prod(dualA1,E1)", "xtyxsy=xtyxysy") == \
            (0, "holds\n", "")

    def test_check_with_jobs(self, capsys):
        # check runs one exact single-process scan, so --jobs is gone.
        code, out, _ = run(capsys, "check", "M[lambda](bta+b+)",
                           "xytxsy=yxtxsy")
        assert code == 0 and out.strip() == "holds"
        with pytest.raises(SystemExit) as exc:
            main(["check", "M[lambda](bta+b+)", "xytxsy=yxtxsy",
                  "--jobs", "2"])
        assert exc.value.code == 2

    def test_derive(self, capsys, tmp_path):
        axioms = tmp_path / "axioms.txt"
        axioms.write_text("xtx=xtxx\nxyytx=xyyxtx\n")
        code, out, _ = run(capsys, "derive", str(axioms), "xtyxsy=xtyxysy")
        assert code == 0 and "derived in 3 steps" in out

    def test_derive_with_longer_bases(self, capsys, tmp_path):
        # the same derivation with y spelled y1
        axioms = tmp_path / "axioms.txt"
        axioms.write_text("xtx=xtxx\nx y1 y1 t x=x y1 y1 x t x\n")
        code, out, _ = run(capsys, "derive", str(axioms),
                           "x t y1 x s y1=x t y1 x y1 s y1")
        assert code == 0 and "derived in 3 steps (checker: ok)" in out
        assert ("x t y1 x x s y1 => x t y1 x x y1 s y1  via x y1 y1 t x="
                "x y1 y1 x t x -> at 2 [t:=s, x:=1 y1, y1:=x]") in out

    def test_lattice_dot(self, capsys):
        code, out, _ = run(capsys, "lattice-dot")
        assert code == 0
        assert out.startswith("digraph")
        assert "19 elements" in out


class TestMalformedInput:
    def assert_one_line_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_monoid_expression_without_words(self, capsys):
        self.assert_one_line_error(capsys, "jtrivial", "M[lambda]")

    def test_empty_word_between_commas(self, capsys):
        self.assert_one_line_error(capsys, "jtrivial", "M[lambda](ab,,c)")

    def test_empty_word_sets_stay_valid(self, capsys):
        # no words is the one-element monoid, and 1 is the empty word
        for expr, size in (("M[lambda]()", "1"), ("M[lambda](1)", "2")):
            code, out, _ = run(capsys, "dual", expr)
            assert code == 0 and out.startswith(f"MONOID {size} ")

    @pytest.mark.parametrize("expr, message", [
        ("prod(A1),E1)", "unexpected ',E1)' (at position 8)"),
        ("M[lambda](a)(b)", "unexpected '(b)' (at position 12)"),
        ("dual(A1)x", "unexpected 'x' (at position 8)"),
        ("dual((A1))", "expected a monoid, got '(A1)' (at position 5)"),
        ("sub(A1; b, (c)", "unclosed bracket (at position 3)"),
        ("dual(M[lambda)(a))", "unbalanced ')' (at position 13)"),
        ("prod(A1, S)", "expected a monoid, got 'S' (at position 9)"),
        ("M[lambda](a,b$)", "unexpected character '$' (at position 13)"),
        ("dual(M[lambda]( a,  b^0))", "zero exponent (at position 21)"),
    ])
    def test_expression_errors_name_their_position(self, capsys, expr,
                                                   message):
        assert run(capsys, "jtrivial", expr) == (2, "", f"error: {message}\n")

    def test_deep_nesting(self, capsys):
        expr = "dual(" * 2000 + "A1" + ")" * 2000
        self.assert_one_line_error(capsys, "jtrivial", expr)

    def test_spaced_base_must_start_with_a_letter(self, capsys):
        # 1 is the empty word alone, never a letter of a spaced word
        assert run(capsys, "check", "A01", "x 1=x") == \
            (2, "", "error: unexpected character '1' (at position 2)\n")

    def test_isoterm_refuses_a_marked_word(self, capsys):
        assert run(capsys, "isoterm", "M[lambda](bta+b+)", "x+y") == \
            (2, "", "error: an isoterm is a plain word, got x+y\n")

    def test_prod_arity(self, capsys):
        self.assert_one_line_error(capsys, "jtrivial", "prod(A1,E1,S1)")
        assert "prod takes two monoids" in run(capsys, "jtrivial", "prod(A1)")[2]

    @pytest.mark.parametrize("identity", ["x^99999999999=x",
                                          "y1^99999999999 x = x"])
    def test_huge_exponent(self, capsys, identity):
        self.assert_one_line_error(capsys, "check", "A1", identity)

    def test_table_entry_out_of_range(self, capsys, tmp_path):
        path = tmp_path / "bad.mon"
        path.write_text("MONOID 3 identity=0 zero=2\n1 x 0\n"
                        "0 1 2\n1 7 2\n2 2 2\n")
        self.assert_one_line_error(capsys, "jtrivial", str(path))

    def test_declared_zero_must_be_the_tables(self, capsys, tmp_path):
        # zero=1 names x, and x * x = 0
        path = tmp_path / "badzero.mon"
        path.write_text("MONOID 3 identity=0 zero=1\n1 x 0\n"
                        "0 1 2\n1 2 2\n2 2 2\n")
        assert run(capsys, "jtrivial", str(path)) == \
            (2, "", "error: declared zero is not absorbing\n")

    def test_header_without_zero(self, capsys, tmp_path):
        path = tmp_path / "nozero.mon"
        path.write_text("MONOID 3 identity=0\n1 x 0\n0 1 2\n1 2 2\n2 2 2\n")
        self.assert_one_line_error(capsys, "jtrivial", str(path))

    @pytest.mark.parametrize("argv,option", [
        (["tau-term", "lambda", "M[lambda](a+ta+)", "a+ta+", "--bound", "6"],
         "--bound"),
        (["check", "A1", "x=x", "--budget", "1000"], "--budget"),
        (["verify-paper", "--budget", "1000"], "--budget"),
    ], ids=["tau-term-bound", "check-budget", "verify-paper-budget"])
    def test_removed_flags_are_usage_errors(self, capsys, argv, option):
        # every tau-term verdict is exact, and no size refuses a scan
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and option in err.splitlines()[-1]

    @pytest.mark.parametrize("argv,option", [
        (["derive", "axioms.txt", "x=x", "--max-len", "0"], "--max-len"),
        (["derive", "axioms.txt", "x=x", "--max-steps", "-5"], "--max-steps"),
    ], ids=["derive-max-len", "derive-max-steps"])
    def test_work_sizes_must_be_positive(self, capsys, argv, option):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and option in err.splitlines()[-1]


# generated command lines: short inputs, one-digit exponents, no work-size
# options, and check only on the 5-element A01, where 12 characters hold at
# most six letters: at most 5^6 = 15,625 substitutions
def _mutated(text):
    edit = st.tuples(st.integers(0, len(text)), st.integers(0, 2),
                     st.sampled_from(["", "0", "7", " ", "\n", "=", "a", "x",
                                      ",", "#"]))

    def apply(edits):
        out = text
        for at, cut, insert in edits:
            out = out[:at] + insert + out[at + cut:]
        return out
    return st.lists(edit, max_size=3).map(apply)


def _joined(*pieces):
    return st.lists(st.sampled_from(pieces), max_size=6).map(
        lambda parts: "".join(parts)[:12])


SURFACES = {
    "words": st.tuples(
        st.sampled_from(["canon trivial", "canon lambda", "canon rho",
                         "canon zeta"]),
        _joined("a", "b", "t+", "a2", "b^3", "^", "+", " ", "y1 ", "0", "(")),
    "identities": st.tuples(
        st.just("check A01"),
        _joined("x", "y", "t", "x2", "y^3", "=", "=", " ", "1", "^", "+",
                "y1 ")),
    "expressions": st.tuples(
        st.just("aperiodic"),
        _joined("A1", "E1", "S1", "dualA1", "dual(", "prod(", "sub(",
                "M[rho](", "M[x](", "M[", "](", "(", ")", "[", "]", ",", ";",
                " ", "a", "b+", "t", "1")),
    "monoid files": st.tuples(
        st.just("jtrivial {file}"),
        _mutated(format_monoid(named_monoid("A01")))),
    # an edit whose closure is infinite, such as 'ab = bb', is refused in
    # under a millisecond by the infinity check of from_presentation
    "presentation files": st.tuples(
        st.just("present {file}"),
        _mutated("gens: a b\naa = a\nbb = b\n0 = ab, ba\n")),
}


class TestFuzzedInput:
    @pytest.mark.parametrize("surface", list(SURFACES))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exits_cleanly(self, tmp_path, surface, data):
        command, text = data.draw(SURFACES[surface])
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv = command.format(file=path).split()
        if "{file}" not in command:
            argv.append(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1) or (code == 2 and len(lines) == 1), lines
        assert "Traceback" not in err.getvalue()


class TestVerifyPaper:
    @pytest.mark.parametrize("argv, digest", [
        ([],
         "79dc0f4506b5eefe931fc2d7b42145b38f861e9b4212754e31f14fdd29809094"),
        (["--disputed"],
         "82690da2e407ef2a9d4a8999924ee67ae5594e751441220af47131d1310cf91c"),
    ], ids=["slow", "slow-disputed"])
    def test_report_is_pinned(self, capsys, argv, digest):
        # every column but the milliseconds, as ``cut -f1-5`` leaves them
        main(["verify-paper", "--slow", *argv])
        kept = "".join("\t".join(line.split("\t")[:5]) + "\n"
                       for line in capsys.readouterr().out.splitlines())
        assert hashlib.sha256(kept.encode()).hexdigest() == digest

    def test_filter_runs_matching_claims(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--filter", "isl-")
        assert code == 0
        lines = [l for l in out.splitlines() if "\t" in l]
        assert len(lines) == 5
        assert all(l.split("\t")[0].startswith("isl-") for l in lines)

    def test_report_written(self, capsys, tmp_path):
        path = tmp_path / "report.tsv"
        code, out, _ = run(capsys, "verify-paper", "--filter", "size-A1",
                           "--report", str(path))
        assert code == 0
        assert path.read_text().startswith("size-A1\tpass")

    def test_disputed_claims_fail(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--disputed",
                           "--filter", "dp-")
        assert code == 1
        assert out.count("\tfail\t") == 3

    def test_corpus_and_disputed_exclude_each_other(self, capsys, tmp_path):
        # --disputed adds to the packaged corpus, which --corpus replaces
        path = tmp_path / "one.txt"
        path.write_text("size-A1 | monoid-size | A1 | 7 | DERIVED | here\n")
        assert run(capsys, "verify-paper", "--corpus", str(path))[0] == 0
        with pytest.raises(SystemExit) as e:
            main(["verify-paper", "--corpus", str(path), "--disputed"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "not allowed with argument" in err.splitlines()[-1]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_must_be_positive(self, capsys, jobs):
        # --jobs is gone, so the values it used to reject are refused too
        with pytest.raises(SystemExit) as e:
            main(["verify-paper", "--jobs", jobs])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--jobs" in err.splitlines()[-1]

    def test_jobs_is_refused(self, capsys):
        # the claims run in one process, in corpus order
        with pytest.raises(SystemExit) as e:
            main(["verify-paper", "--jobs", "2"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--jobs" in err.splitlines()[-1]

    def test_usage_error_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code != 0

    def test_a_filter_that_selects_nothing_is_an_error(self, capsys):
        assert run(capsys, "verify-paper", "--filter", "zzz") == \
            (2, "", "error: no claim id starts with 'zzz'\n")

    def test_a_corpus_without_claims_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "none.txt"
        path.write_text("# comments only\n")
        assert run(capsys, "verify-paper", "--corpus", str(path)) == \
            (2, "", "error: the corpus holds no claims\n")
        path.write_text("size-A1 | monoid-size | A1 | 7 | DERIVED | here\n")
        assert run(capsys, "verify-paper", "--corpus", str(path),
                   "--filter", "size-E") == \
            (2, "", "error: no claim id starts with 'size-E'\n")


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The README's command-line examples, in order: each line of the block
    under "Command line" but the synopses, whose optional parts are in
    brackets, as (arguments, the stdout a ``# -> X`` comment gives or
    None)."""
    block = README.read_text().split("## Command line\n\n```\n")[1]
    out = []
    for line in block.split("\n```")[0].splitlines():
        argv = shlex.split(line, comments=True)
        if any(a.startswith("[") for a in argv):
            continue
        assert argv[0] == "taumonoid", line
        expect = re.search(r"#\s*->\s*(.*)$", line)
        out.append((argv[1:], expect and expect.group(1).strip()))
    return out


class TestReadme:
    def test_command_line_block_runs(self, capsys, tmp_path, monkeypatch):
        # in order, so the table built to k.mon is the one checked
        monkeypatch.chdir(tmp_path)
        # der-hfb's axioms, from which the derive line's goal takes 3 steps
        (tmp_path / "axioms.txt").write_text("xtx=xtxx\nxyytx=xyyxtx\n")
        commands = readme_commands()
        assert any(argv[0] == "tau-term" for argv, _ in commands)
        for argv, expect in commands:
            code, out, err = run(capsys, *argv)
            assert code != 2, (argv, err)
            if expect is not None:
                assert out.strip() == expect, argv
