"""Tests of the benchmark itself: seeded generation, answer checks, tracing,
reference speed.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import signal
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refload  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, per_layer_names  # noqa: E402
from taumonoid import claims, identities  # noqa: E402
from taumonoid.rewrite import TauWord, canonical  # noqa: E402
from taumonoid.words import is_two_island_limited, parse_word  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a = json.dumps(workloads.generate(workload, 7))
    b = json.dumps(workloads.generate(workload, 7))
    assert a == b


@pytest.mark.parametrize("workload", ["construct", "scan-holds", "scan-violates"])
def test_other_seed_gives_other_inputs(workload):
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_construct_groups_hold_one_canonical_word_per_congruence():
    generators, *groups = workloads.generate("construct", 3)
    assert len(generators) == 18 and len(groups) == workloads.CONSTRUCT_GROUPS
    for group in groups:
        assert [tau for tau, _ in group] == list(workloads.CONGRUENCES)
        for tau, text in group:
            w = parse_word(text)
            assert canonical(w, tau) == w
            assert len(w) == workloads.CONSTRUCT_LENGTH
            assert {b for b, _ in w} == set(workloads.CONSTRUCT_ALPHABET)
            assert is_two_island_limited(w)


@pytest.mark.parametrize("workload", ["scan-holds", "scan-violates"])
def test_scan_instances_lie_in_the_band(workload):
    inputs = workloads.generate(workload, 5)
    if workload == "scan-holds":
        inputs = inputs[workloads.LONG_IDENTITY_MAX:]
    for expr, text in inputs:
        space = (claims.parse_monoid_expr(expr).size
                 ** len(identities.parse_identity(text).letters()))
        assert workloads.SPACE_LO <= space <= workloads.SPACE_HI


def _small_violation():
    m = claims.parse_monoid_expr("S1")
    ident = identities.parse_identity("xtysxy=xtysyx")
    return m, ident, identities.satisfies(m, ident)


def test_violation_check_accepts_the_real_answer():
    m, ident, res = _small_violation()
    assert workloads.check_violation(m, ident, res) is None


def test_violation_check_rejects_flipped_verdict():
    m, ident, _ = _small_violation()
    planted = identities.SatisfactionResult(ident, True, checked=m.size ** 4)
    assert workloads.check_violation(m, ident, planted) is not None


def test_violation_check_rejects_non_first_witness():
    m, ident, res = _small_violation()
    letters = ident.letters()
    later = None
    for values in product(range(m.size), repeat=len(letters)):
        sub = dict(zip(letters, values))
        if sub != res.witness and (m.evaluate(ident.lhs, sub)
                                   != m.evaluate(ident.rhs, sub)):
            later = sub
            break
    assert later is not None
    planted = dataclasses.replace(res, witness=later)
    assert "first violation" in workloads.check_violation(m, ident, planted)


def test_violation_check_rejects_witness_that_evaluates_equal():
    m, ident, res = _small_violation()
    planted = dataclasses.replace(res, witness=dict.fromkeys(res.witness, m.identity))
    assert "evaluates equal" in workloads.check_violation(m, ident, planted)


def test_first_violation_rank_matches_brute_force():
    m, ident, res = _small_violation()
    letters = ident.letters()
    for rank, values in enumerate(product(range(m.size), repeat=len(letters))):
        sub = dict(zip(letters, values))
        if m.evaluate(ident.lhs, sub) != m.evaluate(ident.rhs, sub):
            break
    assert workloads.first_violation_rank(m, ident, m.size ** len(letters),
                                          chunk=97) == rank


def test_holds_check_rejects_flipped_verdict():
    [op] = workloads.prepare("scan-holds",
                             [["M[lambda](bta+b+)", "xtx=xtxx"]])
    res = op.run()
    assert op.check(res) is None
    planted = dataclasses.replace(res, holds=False, witness={"t": 0, "x": 1})
    assert op.check(planted) is not None


def test_construct_check_rejects_wrong_answers():
    [op] = workloads.prepare("construct", [[["lambda", "bta+b+"], ["rho", "a+t"]]])
    answers = op.run()
    assert op.check(answers) is None
    m, jt, ap, r, d, iso = answers[0]
    assert workloads.check_construct((m, jt, ap, r, d, iso)) is None
    assert workloads.check_construct((m, (False, (1, 2)), ap, r, d, iso))
    assert workloads.check_construct((m, jt, False, r, d, iso))
    assert workloads.check_construct((m, jt, ap, r, d, None))
    swapped = list(iso)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert "preserve" in workloads.check_construct((m, jt, ap, r, d, swapped))
    assert "M[rho](a+t)" in op.check([answers[0], (m, jt, ap, r, d, None)])


def test_corpus_check_rejects_a_failed_claim():
    [op] = workloads.prepare("corpus", ["isl-yes"])
    res = op.run()
    assert op.check(res) is None
    assert op.check(dataclasses.replace(res, verdict="fail")) is not None


def test_tracer_wraps_every_binding_and_derives_self_time():
    tracer = Tracer()
    tracer.install()
    try:
        assert claims.satisfies is identities.satisfies
        assert claims.satisfies.__wrapped__ is not None
        tracer.op = 0
        [op] = workloads.prepare("corpus", ["sat-K-1"])
        assert op.check(op.run()) is None
        TauWord.make(parse_word("abab"), "lambda")
    finally:
        tracer.uninstall()
    assert not hasattr(identities.satisfies, "__wrapped__")
    names = {s[3] for s in tracer.spans}
    assert {"claims.run_claim", "identities.satisfies", "catalog.mtau"} <= names
    run_claim = next(s for s in tracer.spans if s[3] == "claims.run_claim")
    sat = next(s for s in tracer.spans if s[3] == "identities.satisfies")
    assert sat[1] == run_claim[0] and sat[2] == 0
    assert all(t >= -1e-9 for t in tracer.self_times())
    report = tracer.report()
    assert set(report) == {n for n, _ in per_layer_names()}
    assert report["identities.satisfies.calls"]["value"] == 1
    assert report["identities.satisfies.useful_ratio"]["value"] == 1.0
    assert report["rewrite.canonical.calls"]["value"] >= 2


def test_tail_quantile_keeps_ten_samples_beyond():
    assert run.tail_quantile(1000) == 90.0
    assert run.tail_quantile(50) == pytest.approx(80.0)
    assert run.percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert run.percentile(list(np.arange(11.0)), 90) == pytest.approx(9.0)


def _sampler_with(chunks):
    s = refload.Sampler()
    for start, length in chunks:
        s.starts.append(start)
        s.ends.append(start + length)
    return s


def test_reference_time_removes_chunks_and_scales_by_their_speed():
    # chunks every 10 ms that take twice the nominal time: the host runs at
    # half speed, so the interval's own time is halved
    nominal = refload.NOMINAL_S
    s = _sampler_with([(i * 0.01, 2 * nominal) for i in range(100)])
    t0, t1 = 0.005, 0.905
    inside = 90 * 2 * nominal
    assert s.chunk_time(t0, t1) == pytest.approx(inside)
    assert s.speed(t0, t1) == pytest.approx(0.5)
    assert s.reference_time(t0, t1) == pytest.approx((t1 - t0 - inside) / 2)


def test_short_interval_is_judged_by_the_nearest_chunks():
    nominal = refload.NOMINAL_S
    chunks = [(i * 0.01, nominal) for i in range(50)]
    chunks += [(0.5 + i * 0.01, 4 * nominal) for i in range(50)]
    s = _sampler_with(chunks)
    assert s.speed(0.8001, 0.8002) == pytest.approx(0.25)
    assert s.speed(0.0001, 0.0002) == pytest.approx(1.0)
    # straddling the change: half the nearest chunks are slow
    assert s.speed(0.4999, 0.5001) == pytest.approx(1 / 2.5)


def test_sampler_runs_chunks_and_restores_the_signal():
    s = refload.Sampler()
    s.start()
    s.stop()
    assert len(s.starts) >= refload.MIN_CHUNKS
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
