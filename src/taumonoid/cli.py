"""Command-line surface.

Monoid arguments accept either a path to a saved table or an inline
construction expression such as ``M[lambda](bta+b+)``, ``S1`` or
``sub(M[lambda](bta+b+); a+,b,ta+)``.  Boolean subcommands exit 0 when the
checked property holds and 1 otherwise; ``verify-paper`` exits 0 only if
every executed claim passes, and 2 if it selects no claim.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

from .claims import parse_monoid_expr, verify_corpus
from .construct import build_monoid, lower_set
from .derive import derive_bounded
from .freeobj import BudgetExceededError, is_isoterm, is_tau_term
from .identities import parse_identity, parse_identity_file, satisfies
from .monoid import (Presentation, adjoin_identity, direct_product, dual,
                     find_isomorphism, format_monoid, from_presentation,
                     idempotents_commute, is_aperiodic, is_j_trivial,
                     load_monoid, save_monoid)
from .rewrite import TauWord, TauWordSet, canonical, compose
from .words import parse_word, print_word
from . import catalog


def _monoid_arg(text: str):
    if os.path.exists(text):
        return load_monoid(text)
    return parse_monoid_expr(text)


def _positive_int(text: str) -> int:
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _emit(m, out):
    if out:
        save_monoid(m, out)
        print(f"wrote {m.size}-element monoid to {out}")
    else:
        sys.stdout.write(format_monoid(m))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="taumonoid",
        description="quotient monoids of marked-word rewriting and an "
                    "equational engine over them")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonical form of a word")
    p.add_argument("tau")
    p.add_argument("word")

    p = sub.add_parser("compose", help="product of two canonical words")
    p.add_argument("tau")
    p.add_argument("w1")
    p.add_argument("w2")

    p = sub.add_parser("lower-set", help="downward closure in the factor order")
    p.add_argument("tau")
    p.add_argument("words", nargs="+")

    p = sub.add_parser("build", help="build the quotient monoid of a word set")
    p.add_argument("tau")
    p.add_argument("words", nargs="+")
    p.add_argument("--out")

    p = sub.add_parser("present", help="close a presentation (A, E, A0 or S)")
    p.add_argument("name", help="named presentation, or a file of a 'gens: a b' "
                   "line, then one 'u = v' (or 'u = v = w') relation per line "
                   "and '0 = w, w' lines for zero words")
    p.add_argument("--adjoin-1", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("check", help="check an identity against a monoid")
    p.add_argument("monoid")
    p.add_argument("identity")

    p = sub.add_parser("isoterm", help="is the word an isoterm for the monoid")
    p.add_argument("monoid")
    p.add_argument("word")

    p = sub.add_parser("tau-term", help="is the word a tau-term for the monoid")
    p.add_argument("tau")
    p.add_argument("monoid")
    p.add_argument("word")

    p = sub.add_parser("derive", help="bounded derivation search")
    p.add_argument("axioms", help="file with one identity per line")
    p.add_argument("goal")
    p.add_argument("--max-len", type=_positive_int, default=14)
    p.add_argument("--max-steps", type=_positive_int, default=100000)

    for name in ("jtrivial", "aperiodic", "idem-commute"):
        p = sub.add_parser(name)
        p.add_argument("monoid")

    p = sub.add_parser("iso", help="search for an isomorphism")
    p.add_argument("m1")
    p.add_argument("m2")

    p = sub.add_parser("dual", help="transpose the multiplication table")
    p.add_argument("monoid")
    p.add_argument("--out")

    p = sub.add_parser("product", help="direct product of two monoids")
    p.add_argument("m1")
    p.add_argument("m2")
    p.add_argument("--out")

    p = sub.add_parser("verify-paper", help="run the claim corpus")
    p.add_argument("--filter", default=None, help="run claims with this id prefix")
    p.add_argument("--slow", action="store_true", help="include slow claims")
    p.add_argument("--report", default=None, help="write the report to a file")
    corpus = p.add_mutually_exclusive_group()
    corpus.add_argument("--disputed", action="store_true",
                        help="also run the disputed source-text claims")
    corpus.add_argument("--corpus", default=None, help="alternative corpus file")

    p = sub.add_parser("lattice-dot", help="emit the subvariety lattice as DOT")
    p.add_argument("--out")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except BudgetExceededError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, RecursionError) as e:
        # RecursionError: an expression nested deeper than the reader recurses
        print(f"error: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "canon":
        print(print_word(canonical(parse_word(args.word), args.tau)))
        return 0
    if cmd == "compose":
        u = TauWord.make(parse_word(args.w1), args.tau)
        v = TauWord.make(parse_word(args.w2), args.tau)
        print(str(compose(u, v)))
        return 0
    if cmd == "lower-set":
        ws = TauWordSet(args.tau, [parse_word(w) for w in args.words])
        low = sorted(lower_set(ws), key=lambda t: (len(t.word), str(t)))
        for w in low:
            print(str(w))
        return 0
    if cmd == "build":
        ws = TauWordSet(args.tau, [parse_word(w) for w in args.words])
        _emit(build_monoid(ws), args.out)
        return 0
    if cmd == "present":
        if args.name in catalog.PRESENTATIONS:
            sg = catalog.semigroup(args.name)
        else:
            with open(args.name) as fh:
                sg = from_presentation(_parse_presentation_file(fh.read()))
        if args.adjoin_1:
            _emit(adjoin_identity(sg), args.out)
        else:
            print(f"{sg.size} elements: {', '.join(sg.labels)}")
        return 0
    if cmd == "check":
        m = _monoid_arg(args.monoid)
        res = satisfies(m, parse_identity(args.identity))
        if res.holds:
            print("holds")
            return 0
        wit = ", ".join(f"{b}->{m.labels[e]}" for b, e in sorted(res.witness.items()))
        print(f"violated: {wit}  (lhs={m.labels[res.lhs_value]}, "
              f"rhs={m.labels[res.rhs_value]})")
        return 1
    if cmd == "isoterm":
        m = _monoid_arg(args.monoid)
        rep = is_isoterm(m, parse_word(args.word))
        if rep.is_isoterm:
            print("isoterm")
            return 0
        print(f"not an isoterm (equal-valued word: {print_word(rep.counterexample)})")
        return 1
    if cmd == "tau-term":
        m = _monoid_arg(args.monoid)
        u = TauWord.make(parse_word(args.word), args.tau)
        v = is_tau_term(m, u)
        if v.fails:
            member, off = v.witness
            print(f"fails: {print_word(member)} and {print_word(off)} are "
                  f"equal in the monoid but not {args.tau}-equal")
            return 1
        print(v.status)
        return 0
    if cmd == "derive":
        with open(args.axioms) as fh:
            axioms = parse_identity_file(fh.read())
        goal = parse_identity(args.goal)
        trace = derive_bounded(axioms, goal, max_len=args.max_len,
                               max_steps=args.max_steps)
        if trace is None:
            print("no derivation found within bounds")
            return 1
        # derive_bounded has replayed the trace with check_trace
        print(f"derived in {len(trace)} steps (checker: ok)")
        for step in trace.steps:
            print("  " + step.describe(axioms))
        return 0
    if cmd == "jtrivial":
        m = _monoid_arg(args.monoid)
        ok, pair = is_j_trivial(m)
        if ok:
            print("J-trivial")
            return 0
        print(f"not J-trivial: {m.labels[pair[0]]} and {m.labels[pair[1]]} "
              "generate the same ideal")
        return 1
    if cmd == "aperiodic":
        ok = is_aperiodic(_monoid_arg(args.monoid))
        print("aperiodic" if ok else "not aperiodic")
        return 0 if ok else 1
    if cmd == "idem-commute":
        m = _monoid_arg(args.monoid)
        ok, pair = idempotents_commute(m)
        if ok:
            print("idempotents commute")
            return 0
        print(f"idempotents {m.labels[pair[0]]} and {m.labels[pair[1]]} "
              "do not commute")
        return 1
    if cmd == "iso":
        m1, m2 = _monoid_arg(args.m1), _monoid_arg(args.m2)
        mapping = find_isomorphism(m1, m2)
        if mapping is None:
            print("not isomorphic")
            return 1
        pairs = ", ".join(f"{m1.labels[i]}->{m2.labels[j]}"
                          for i, j in enumerate(mapping))
        print(f"isomorphic: {pairs}")
        return 0
    if cmd == "dual":
        _emit(dual(_monoid_arg(args.monoid)), args.out)
        return 0
    if cmd == "product":
        _emit(direct_product(_monoid_arg(args.m1), _monoid_arg(args.m2)),
              args.out)
        return 0
    if cmd == "verify-paper":
        return _verify_paper(args)
    if cmd == "lattice-dot":
        text = catalog.lattice_dot()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    raise AssertionError(f"unhandled command {cmd}")


def corpus_text(disputed: bool = False) -> str:
    name = "disputed_claims.txt" if disputed else "paper_claims.txt"
    return resources.files("taumonoid.data").joinpath(name).read_text()


def _verify_paper(args) -> int:
    if args.corpus:
        with open(args.corpus) as fh:
            text = fh.read()
    else:
        text = corpus_text()
        if args.disputed:
            text += "\n" + corpus_text(disputed=True)
    report = verify_corpus(text, id_filter=args.filter, include_slow=args.slow)
    if not report.results:
        raise ValueError("the corpus holds no claims" if args.filter is None
                         else f"no claim id starts with {args.filter!r}")
    out = "\n".join(report.lines()) + "\n" + report.summary() + "\n"
    sys.stdout.write(out)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(out)
    return 0 if report.all_passed else 1


_ONE_GENS_LINE = ("presentation file must start with a 'gens:' line and "
                  "have only one")


def _parse_presentation_file(text: str):
    """Format: line 1 ``gens: a b c``; then ``u = v`` lines; ``0 = w, w``."""
    gens = None
    relations = []
    zeros = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if (gens is None) != line.startswith("gens:"):
            raise ValueError(_ONE_GENS_LINE)
        if line.startswith("gens:"):
            gens = tuple(line[5:].split())
        elif line.startswith("0") and "=" in line and line.split("=")[0].strip() == "0":
            zeros.extend(w.strip() for w in line.split("=", 1)[1].split(","))
        elif "=" in line:
            sides = [s.strip() for s in line.split("=")]
            if sides[-1] == "0":
                zeros.extend(sides[:-1])
            else:
                for a, b in zip(sides, sides[1:]):
                    relations.append((a, b))
        else:
            raise ValueError(f"cannot parse presentation line {raw!r}")
    if gens is None:
        raise ValueError(_ONE_GENS_LINE)
    return Presentation(gens, tuple(relations), tuple(zeros))


if __name__ == "__main__":
    raise SystemExit(main())
