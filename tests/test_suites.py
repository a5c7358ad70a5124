"""Property suites: determinism, reporting, exhibits, witness replay."""

import dataclasses
import hashlib
import json

import pytest

from convval import suites
from convval.suites import (
    CHECKS,
    DEFAULT_TRIALS,
    SUITES,
    emit_report,
    mc_projection_area,
    replay_witness,
    report_doc,
    run_suite,
)
from convval import Polytope, Q
from convval.errors import ParseError
from convval.generators import rng_for
from convval.io import dump_json


def test_unknown_suite_and_bad_trials_rejected():
    with pytest.raises(ValueError):
        run_suite("no-such-suite", seed=0)
    with pytest.raises(ValueError):
        run_suite("thm-a", seed=0, trials=-1)


def test_zero_trials_gives_empty_valid_report():
    for name in SUITES:
        rep = run_suite(name, seed=0, trials=0)
        assert rep.cases == 0
        assert rep.failures == 0
        assert rep.passed
        text = emit_report(rep)
        assert text.rstrip().endswith("PASS")


def test_default_trials_known():
    assert set(DEFAULT_TRIALS) == set(SUITES)
    assert all(v > 0 for v in DEFAULT_TRIALS.values())


def test_small_runs_pass_every_suite():
    for name in SUITES:
        rep = run_suite(name, seed=5, trials=3)
        assert rep.failures == 0, (name, rep.witnesses)
        assert rep.cases > 0
        assert rep.passes == rep.cases


def test_reports_byte_identical_across_runs():
    for name in SUITES:
        a = run_suite(name, seed=9, trials=2)
        b = run_suite(name, seed=9, trials=2)
        assert dump_json(report_doc(a)) == dump_json(report_doc(b))


# sha256 of emit_report(run_suite(name, 1, trials), "machine"), recorded
# before every elimination became a wrapper over linalg.int_rref.  Exactness
# is the product: a change that moves any rational, witness or exhibit in a
# report changes its hash.  thm-a runs 25 of its 100 default trials to keep
# this test near a second.
GOLDEN_REPORTS = {
    "thm-a": (25, "497cc5867ae88729d9d3183399228f9a2b7e4a5c38ff5e79b2c52099bc7610cc"),
    "thm-b": (None, "c7886b726f4168eb24ba38f0a293ffa7828997094a2f7c37fa071a97c013c19b"),
    "thm-2-1": (None, "b3ba02cb22713dc11175d09f4a93fe4bd774403780920c78908e761711b57c85"),
    "classical": (None, "dd77ab9c379a70deddd114e3c3b1631770f297f947bc4679103e6a6fe769f103"),
    "cor-e": (None, "0ab5c51392e53ed1334f8e9cbd3ee31da442a91221db8b3e232a35a705c35da5"),
}


@pytest.mark.parametrize("name", SUITES)
def test_machine_report_bytes_are_pinned(name):
    trials, digest = GOLDEN_REPORTS[name]
    text = emit_report(run_suite(name, 1, trials), "machine")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_machine_report_shape():
    rep = run_suite("thm-b", seed=4, trials=2)
    text = emit_report(rep, format="machine")
    doc = json.loads(text)
    assert doc["suite"] == "thm-b"
    assert doc["seed"] == 4
    assert "wall_time" not in doc
    assert doc["cases"] == doc["passes"] + doc["failures"]
    with pytest.raises(ValueError):
        emit_report(rep, format="pretty")


def test_expected_failures_surface_as_exhibits_not_failures():
    rep = run_suite("cor-e", seed=2, trials=2)
    assert rep.failures == 0
    assert rep.exhibits, "the strictly convex profile must break lifted linearity"
    checks = {e["check"] for e in rep.exhibits}
    assert "lifted-linearity" in checks
    assert "lifted-pairing" in checks


def test_thm_a_invalid_measures_produce_exhibits():
    rep = run_suite("thm-a", seed=3, trials=1)
    assert rep.failures == 0
    invalid = [e for e in rep.exhibits if e["check"] == "dual-epi-invariance"]
    assert len(invalid) == 5


# sha256 of the dump_json texts, concatenated, of _thm_a_invalid_case over
# seeds 1-50 and every invalid measure.  Each case files the first of its
# eight draws that breaks dual-epi invariance; a change to the draws, their
# order or the witness layout changes this hash.
INVALID_EXHIBITS_DIGEST = "f0b400a5c8fdbedb21b9c7991a75ec9bca9efe3be881a4ada278a8e4d0a442b3"


def test_thm_a_invalid_exhibits_are_pinned():
    digest = hashlib.sha256()
    for seed in range(1, 51):
        for bi, nu in enumerate(suites.INVALID_MEASURES):
            digest.update(dump_json(suites._thm_a_invalid_case(seed, bi, nu)).encode())
    assert digest.hexdigest() == INVALID_EXHIBITS_DIGEST


def test_thm_b_exhibit_has_unit_gap():
    rep = run_suite("thm-b", seed=6, trials=1)
    assert rep.failures == 0
    gaps = [e for e in rep.exhibits if e["check"] == "contravariance-gap"]
    assert len(gaps) == 1


def test_every_exhibit_replays_to_recorded_values():
    for name in SUITES:
        rep = run_suite(name, seed=11, trials=2)
        for doc in rep.exhibits + rep.witnesses:
            res = replay_witness(doc)
            assert res["match"], (name, doc["check"], res)


def test_replay_rejects_unknown_check():
    with pytest.raises(ValueError):
        replay_witness({"check": "unheard-of", "inputs": {}, "lhs": None, "rhs": None})


def test_mc_projection_area_cube_shadow():
    # The unit cube's shadow beside the first axis is a unit square; the
    # sampled estimate with a fixed stream lands within one percent.
    import itertools

    P = Polytope.hull(
        [tuple(Q(c) for c in p) for p in itertools.product((0, 1), repeat=3)], dim=3
    )
    est = mc_projection_area(P, 0, samples=100_000, rng=rng_for(0, "mc-test"))
    assert abs(est - 1.0) < 0.01
    # Identical stream, identical estimate.
    again = mc_projection_area(P, 0, samples=100_000, rng=rng_for(0, "mc-test"))
    assert est == again


def _always(verdict):
    return lambda lhs, rhs: verdict


def _fails_first(name, check, fired):
    """`check`, except that its first comparison in a run fails."""

    def fails(lhs, rhs):
        if name in fired:
            return check.fails(lhs, rhs)
        fired.add(name)
        return True

    return dataclasses.replace(check, fails=fails)


def _emitted(seed=0, trials=1):
    docs = []
    for name in SUITES:
        rep = run_suite(name, seed=seed, trials=trials)
        docs += rep.witnesses + rep.exhibits
    return docs


def test_forced_failure_of_every_check_replays(monkeypatch):
    # Every registered comparator is made to fail the first time it is
    # consulted, and every suite runs, so the suites file witnesses from
    # failure paths that green runs never reach; a failure ends its case, so
    # rounds repeat until each check has failed once.  All of them must
    # replay to their recorded sides.  Fewer Monte Carlo samples keep this
    # quick; a witness records its sample count.
    monkeypatch.setattr(suites, "MC_SAMPLES", 1000)
    real = dict(CHECKS)
    docs, pending = {}, set(CHECKS)
    while pending:
        fired = set()
        for name in pending:
            monkeypatch.setitem(CHECKS, name, _fails_first(name, real[name], fired))
        emitted = _emitted()
        assert fired, pending
        assert fired <= {d["check"] for d in emitted}
        for name in fired:
            monkeypatch.setitem(CHECKS, name, real[name])
        pending -= fired
        docs.update((dump_json(d), d) for d in emitted)
    for doc in docs.values():
        res = replay_witness(doc)
        assert res["match"], (doc["case"], doc["check"], res)
    # The suite cases alone file every registered check.
    assert {d["check"] for d in docs.values()} == set(CHECKS)


def test_degree_two_diagonal_witness_replays_as_degree_two(monkeypatch):
    forced = dataclasses.replace(CHECKS["polarization-diagonal"], fails=_always(True))
    monkeypatch.setitem(CHECKS, "polarization-diagonal", forced)
    rep = run_suite("thm-2-1", seed=1, trials=2)
    diag = {w["case"]: w for w in rep.witnesses if w["check"] == "polarization-diagonal"}
    two, one = diag["thm-2-1/polarize0"], diag["thm-2-1/polarize1"]
    assert list(two["inputs"]) == ["spec", "x", "y", "f1", "f2"]
    assert list(one["inputs"]) == ["spec", "x", "y", "f1"]
    assert two["lhs"] == {"kind": "rational", "value": "3621/8"}
    for w in (two, one):
        res = replay_witness(w)
        assert res["match"], res


def test_missing_phenomena_are_filed_as_unreplayable(monkeypatch):
    for check in ("lifted-linearity", "lifted-pairing", "contravariance-gap", "dual-epi-invariance"):
        monkeypatch.setitem(CHECKS, check, dataclasses.replace(CHECKS[check], fails=_always(False)))
    absent = [w for w in _emitted() if w["check"] == "expected-absent"]
    assert sorted(w["case"] for w in absent) == sorted(
        [f"cor-e/measure{mi}/{kind}" for mi in range(5) for kind in ("midpoint", "pairing")]
        + ["thm-b/falsify-n3"]
        + [f"thm-a/invalid{bi}/dual-epi-breaks" for bi in range(5)])
    for w in absent:
        with pytest.raises(ParseError, match="not a comparison; it is not replayable"):
            replay_witness(w)


def test_even_polarize_case_polarizes_each_argument_order_once(monkeypatch):
    """The oracle and symmetry checks share polarize(mu, 2, (f1, f2)); the
    symmetry check adds only (f2, f1), the diagonal only (f1, f1)."""
    real = suites.polarize
    orders = []

    def recording(mu, degree, funcs, check=True):
        orders.append(tuple(funcs))
        return real(mu, degree, funcs, check)

    monkeypatch.setattr(suites, "polarize", recording)
    suites._memo.cache_clear()  # an earlier thm-2-1 run may hold this case's value
    suites._polarize_case(1, 0)
    (f1, f2), _, _ = orders
    assert orders == [(f1, f2), (f2, f1), (f1, f1)]
