"""Seeded inputs, timed operations and answer checks for the four workloads.

Each workload is split into three steps so that the pieces can be tested on
their own:

* ``generate(workload, seed)`` draws the inputs from the seed alone and
  returns them as plain strings (byte-identical JSON for equal seeds);
* ``prepare(workload, inputs)`` parses them and builds whatever the timed
  operations need (for the scan workloads, their monoids);
* each returned ``Op`` has a ``run`` callable (the timed call into the
  library) and a ``check`` callable that judges its answer afterwards and
  returns ``None`` or a one-line reason.

The library is reached through module attributes (``identities.satisfies``
rather than a name imported into this module), so the traced run sees every
call after it rebinds those attributes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from taumonoid import catalog, claims, construct, identities, monoid
from taumonoid.rewrite import TauWordSet, canonical
from taumonoid.words import is_two_island_limited, parse_word, print_word

WORKLOADS = ("corpus", "construct", "scan-holds", "scan-violates")

CONGRUENCES = ("tau1", "gamma", "lambda", "rho", "trivial")
# reversal maps a class under tau to a class under tau*
DUAL_TAU = {"lambda": "rho", "rho": "lambda"}

# construct: an op answers one group of words.  The first group is the
# paper's generators; each seeded group holds one word per congruence, so
# every seeded op costs about the same and the latency percentiles do not
# fall between the cheap congruences (tau1, trivial) and the dear ones.
# Every seeded word has length 6 and uses all four letters, so the factor
# graph each congruence needs is the same for every seed.
CONSTRUCT_ALPHABET = "abst"
CONSTRUCT_LENGTH = 6
CONSTRUCT_GROUPS = 16

# scan workloads: an instance is kept when its substitution space |M|^k lies
# in this band (large enough to fill the first 2^18 chunk of the scan, small
# enough that a full scan stays well under a second)
SPACE_LO = 200_000
SPACE_HI = 4_000_000
VIOLATES_INSTANCES = 100
LONG_IDENTITY_MAX = 5
# names for shared letters; no corpus identity uses any of them
SHARED_POOL = "cdefghijklmnopqruvw"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def corpus_claims() -> list:
    path = Path(claims.__file__).parent / "data" / "paper_claims.txt"
    return claims.parse_corpus(path.read_text())


# -- input generation -------------------------------------------------------

def generate(workload: str, seed: int) -> list:
    """The workload's inputs for ``seed``, as JSON-serialisable strings."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "corpus":
        # the corpus in file order, as verify-paper runs it: the seed does
        # not change it, and the claim that first needs a shared monoid (and
        # so pays for building it) is the same on every run
        return [c.id for c in corpus_claims() if not c.slow]
    if workload == "construct":
        return _construct_inputs(rng)
    if workload == "scan-holds":
        longs = [["M[lambda](bta+b+)", str(identities.long_identity(n))]
                 for n in range(1, LONG_IDENTITY_MAX + 1)]
        inst = [_instance(rng, *base) for base in _scan_bases("satisfies")]
        rng.shuffle(inst)
        return longs + inst
    if workload == "scan-violates":
        bases = _scan_bases("violates")
        return [_instance(rng, *bases[i % len(bases)])
                for i in range(VIOLATES_INSTANCES)]
    raise ValueError(f"unknown workload {workload!r}")


def _construct_inputs(rng: random.Random) -> list:
    # the generators come first: they are the same in every pass, and they
    # pay for the factor graphs the seeded words then share
    generators = [[tau] + [w.strip() for w in text.split(",") if w.strip()]
                  for _, tau, text in catalog.FIG_LATTICE + catalog.EXTRA_GENERATORS]
    seen: set = set()
    groups = []
    for _ in range(CONSTRUCT_GROUPS):
        group = []
        for tau in CONGRUENCES:
            w = _random_canonical_word(rng, tau)
            while (tau, w) in seen:
                w = _random_canonical_word(rng, tau)
            seen.add((tau, w))
            group.append([tau, print_word(w)])
        groups.append(group)
    return [generators] + groups


def _random_canonical_word(rng: random.Random, tau: str):
    """A canonical two-island-limited word of the fixed length and content."""
    while True:
        n = CONSTRUCT_LENGTH if tau == "trivial" else rng.randint(
            CONSTRUCT_LENGTH, CONSTRUCT_LENGTH + 4)
        plain = tuple((rng.choice(CONSTRUCT_ALPHABET), False) for _ in range(n))
        w = canonical(plain, tau)
        if (len(w) == CONSTRUCT_LENGTH
                and {b for b, _ in w} == set(CONSTRUCT_ALPHABET)
                and is_two_island_limited(w)):
            return w


def _scan_bases(kind: str) -> list:
    """Corpus identities of one kind that admit an instance in the band.

    Returns ``(monoid expression, identity text, |M|, k)`` with ``k`` the
    number of letters an instance uses: the largest count whose space stays
    under ``SPACE_HI``, and at most three per letter of the identity (one
    private and two shared).  Depends on the corpus only, not on the seed.
    """
    out = []
    for c in corpus_claims():
        if c.kind != kind or c.slow or c.id.startswith("li-"):
            continue
        expr, ident_text = [p.strip() for p in c.inputs.split(";")]
        n = claims.parse_monoid_expr(expr).size
        letters = len(identities.parse_identity(ident_text).letters())
        k = letters
        while k < 3 * letters and n ** (k + 1) <= SPACE_HI:
            k += 1
        if SPACE_LO <= n ** k <= SPACE_HI:
            out.append((expr, ident_text, n, k))
    return out


def _instance(rng: random.Random, expr: str, ident_text: str, n: int, k: int):
    """A substitution instance of an identity that uses exactly ``k`` letters.

    Every letter x of the identity is replaced by a word holding x itself
    (its private letter) and up to two shared letters, in random order.
    Mapping the shared letters to the identity element gives back the
    original identity, so an instance of a violated identity is violated;
    an instance of a satisfied identity holds.  The shared letters go
    round-robin to the letters in order of decreasing occurrence count, so
    all instances of one identity have the same length and cost the same to
    scan in full; the seed picks the shared letters' names, the letter among
    equally frequent ones that receives each, and the order inside each word.
    """
    ident = identities.parse_identity(ident_text)
    letters = ident.letters()
    occurrences = {x: 0 for x in letters}
    for b, _ in ident.lhs + ident.rhs:
        occurrences[b] += 1
    shuffled = rng.sample(letters, len(letters))
    owners = sorted(shuffled, key=lambda x: -occurrences[x])
    shared = rng.sample([c for c in SHARED_POOL if c not in letters],
                        k - len(letters))
    parts = {x: [x] for x in letters}
    for i, c in enumerate(shared):
        parts[owners[i % len(owners)]].append(c)
    for x in letters:
        rng.shuffle(parts[x])

    def subst(w):
        return tuple((c, False) for b, _ in w for c in parts[b])

    inst = identities.Identity(subst(ident.lhs), subst(ident.rhs))
    return [expr, str(inst)]


# -- operations and their checks --------------------------------------------

def prepare(workload: str, inputs: list) -> list:
    """Parse the inputs and build everything the timed operations need."""
    if workload == "corpus":
        by_id = {c.id: c for c in corpus_claims()}
        return [_claim_op(by_id[i]) for i in inputs]
    if workload == "construct":
        return [_construct_op(group) for group in inputs]
    if workload in ("scan-holds", "scan-violates"):
        monoids = {expr: claims.parse_monoid_expr(expr)
                   for expr in sorted({expr for expr, _ in inputs})}
        make = _holds_op if workload == "scan-holds" else _violates_op
        return [make(monoids[expr], identities.parse_identity(text), text)
                for expr, text in inputs]
    raise ValueError(f"unknown workload {workload!r}")


def _claim_op(claim) -> Op:
    def check(res):
        if res.verdict != "pass":
            return f"claim {claim.id}: {res.verdict} ({res.actual})"
        return None
    return Op(claim.id, lambda: claims.run_claim(claim), check)


def _construct_op(group: list) -> Op:
    """Build, test and dualise the Rees quotient of each word set in a group."""
    parsed = []
    for tau, *texts in group:
        ws = [parse_word(t) for t in texts]
        parsed.append((tau, ws, DUAL_TAU.get(tau, tau),
                       [tuple(reversed(w)) for w in ws]))

    def run():
        out = []
        for tau, ws, tau_star, rev in parsed:
            m = construct.build_monoid(TauWordSet(tau, ws))
            jt = monoid.is_j_trivial(m)
            ap = monoid.is_aperiodic(m)
            d = monoid.dual(m)
            r = construct.build_monoid(TauWordSet(tau_star, rev))
            out.append((m, jt, ap, r, d, monoid.find_isomorphism(r, d)))
        return out

    def check(answers):
        for (tau, *texts), answer in zip(group, answers):
            error = check_construct(answer)
            if error is not None:
                return f"M[{tau}]({','.join(texts)}): {error}"
        return None

    return Op(";".join(f"{tau}:{','.join(texts)}" for tau, *texts in group),
              run, check)


def check_construct(answer) -> "str | None":
    """J-trivial, aperiodic, and the reversal is an anti-isomorphism."""
    m, jt, ap, r, d, iso = answer
    if not jt[0]:
        return f"not J-trivial: {jt[1]}"
    if not ap:
        return "not aperiodic"
    if iso is None:
        return "reversal isomorphism not found"
    if sorted(iso) != list(range(r.size)) or d.size != r.size:
        return "isomorphism is not a bijection"
    rt, dt = np.asarray(r.table), np.asarray(d.table)
    f = np.asarray(iso)
    if not np.array_equal(f[rt], dt[np.ix_(f, f)]):
        return "isomorphism does not preserve products"
    return None


def _holds_op(m, ident, text: str) -> Op:
    def check(res):
        if not res.holds:
            return f"{text}: reported violated at {res.witness}"
        return None
    return Op(text, lambda: identities.satisfies(m, ident), check)


def _violates_op(m, ident, text: str) -> Op:
    return Op(text, lambda: identities.satisfies(m, ident),
              lambda res: check_violation(m, ident, res))


def check_violation(m, ident, res) -> "str | None":
    """Violated, the witness evaluates unequal, and it is lex-first."""
    if res.holds or res.witness is None:
        return f"{ident}: reported to hold"
    letters = sorted({b for b, _ in ident.lhs + ident.rhs})
    if set(res.witness) != set(letters):
        return f"{ident}: witness does not bind exactly the letters"
    if m.evaluate(ident.lhs, res.witness) == m.evaluate(ident.rhs, res.witness):
        return f"{ident}: witness {res.witness} evaluates equal"
    rank = 0
    for x in letters:
        rank = rank * m.size + res.witness[x]
    first = first_violation_rank(m, ident, rank + 1)
    if first != rank:
        return f"{ident}: witness has rank {rank}, first violation is {first}"
    return None


def first_violation_rank(m, ident, limit: int, chunk: int = 1 << 16):
    """Rank of the lex-first violating substitution below ``limit``, or None.

    Substitutions are ranked as mixed-radix numbers over the sorted letters,
    the first letter most significant.  Written independently of
    ``identities.satisfies`` so that it can judge that function's witness.
    """
    letters = sorted({b for b, _ in ident.lhs + ident.rhs})
    pos = {x: i for i, x in enumerate(letters)}
    k, n = len(letters), m.size
    table = np.asarray(m.table, dtype=np.int64)
    for start in range(0, limit, chunk):
        ranks = np.arange(start, min(limit, start + chunk), dtype=np.int64)
        digits = []
        rest = ranks
        for _ in range(k):
            rest, d = np.divmod(rest, n)
            digits.append(d)
        digits.reverse()
        sides = []
        for word in (ident.lhs, ident.rhs):
            acc = np.full(len(ranks), m.identity, dtype=np.int64)
            for b, _ in word:
                acc = table[acc, digits[pos[b]]]
            sides.append(acc)
        bad = np.flatnonzero(sides[0] != sides[1])
        if len(bad):
            return start + int(bad[0])
    return None
