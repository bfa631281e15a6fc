import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from taumonoid.catalog import named_monoid
from taumonoid.cli import main
from taumonoid.monoid import format_monoid, load_monoid


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
        with pytest.raises(SystemExit):
            run(capsys, "canon", "zeta", "ab")


class TestMonoidCommands:
    def test_build_and_reload(self, capsys, tmp_path):
        path = tmp_path / "k.mon"
        code, out, _ = run(capsys, "build", "lambda", "bta+b+", "--out", str(path))
        assert code == 0
        m = load_monoid(path)
        assert m.size == 19

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

    def test_iso(self, capsys):
        code, out, _ = run(capsys, "iso",
                           "sub(M[lambda](bta+b+); a+, b, ta+)", "S1")
        assert code == 0 and out.startswith("isomorphic")
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
        code, out, _ = run(capsys, "tau-term", "lambda",
                           "M[lambda](a+ta+)", "a+btb+")
        assert code == 1 and "fails" in out
        code, out, _ = run(capsys, "tau-term", "lambda",
                           "M[lambda](a+ta+)", "a+ta+",
                           "--mode", "bounded", "--bound", "6")
        assert code == 0 and "bound 6" in out

    def test_check_budget_refusal(self, capsys):
        code, out, err = run(capsys, "check", "M[lambda](bta+b+)",
                             "xtysxy=xtysyx", "--budget", "100")
        assert code == 2 and "refused" in err

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

    def test_header_without_zero(self, capsys, tmp_path):
        path = tmp_path / "nozero.mon"
        path.write_text("MONOID 3 identity=0\n1 x 0\n0 1 2\n1 2 2\n2 2 2\n")
        self.assert_one_line_error(capsys, "jtrivial", str(path))

    @pytest.mark.parametrize("argv,option", [
        (["tau-term", "lambda", "M[lambda](a+ta+)", "a+ta+", "--mode",
          "bounded", "--bound", "-1"], "--bound"),
        (["tau-term", "lambda", "M[lambda](a+ta+)", "a+ta+",
          "--max-states", "-3"], "--max-states"),
        (["derive", "axioms.txt", "x=x", "--max-len", "0"], "--max-len"),
        (["derive", "axioms.txt", "x=x", "--max-steps", "-5"], "--max-steps"),
        (["check", "A1", "x=x", "--budget", "0"], "--budget"),
        (["verify-paper", "--budget", "-2"], "--budget"),
    ], ids=["tau-term-bound", "tau-term-max-states", "derive-max-len",
            "derive-max-steps", "check-budget", "verify-paper-budget"])
    def test_work_sizes_must_be_positive(self, capsys, argv, option):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and option in err.splitlines()[-1]


# generated command lines: short inputs, one-digit exponents, no work-size
# options, and check always under a small budget
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
        st.sampled_from(["canon trivial", "canon lambda", "canon rho"]),
        _joined("a", "b", "t+", "a2", "b^3", "^", "+", " ", "y1 ", "0", "(")),
    "identities": st.tuples(
        st.just("check A01 --budget 2000"),
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
    # the appended relations keep every closure finite and small: without
    # them an edit such as 'ab = ba' takes seconds to reach the closure cap
    "presentation files": st.tuples(
        st.just("present {file}"),
        _mutated("gens: a b\naa = a\nbb = b\n0 = ab, ba\n").map(
            lambda text: text + "\naa = a\nbb = b\n0 = ab, ba\n")),
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

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_must_be_positive(self, capsys, jobs):
        with pytest.raises(SystemExit) as e:
            main(["verify-paper", "--jobs", jobs])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--jobs" in err.splitlines()[-1]

    def test_usage_error_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code != 0
