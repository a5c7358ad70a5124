"""Acceptance gate: one test per criterion, each a single pass/fail line
under pytest -v, with runtime ceilings asserted where stated.

Suite reports are computed once per session and shared, so the determinism
criterion can compare a fresh second run against the cached first one.
"""

import itertools
import time

from convval import (
    Polytope,
    Q,
    conjugate,
    conjugate_cd,
    difference_body,
    projection_body_support,
    volume,
)
from convval.generators import paraboloid_tangents, rand_maxaffine, rng_for
from convval.io import dump_json, value_from_doc
from convval.linalg import unit_vector
from convval.suites import (
    mc_projection_area,
    replay_witness,
    report_doc,
    run_suite,
)

SEED = 1

_SUITE_PLAN = {
    "thm-a": 100,
    "thm-b": 100,
    "thm-2-1": 50,
    "classical": 50,
    "cor-e": 30,
}

_CACHE = {}


def suite_report(name):
    if name not in _CACHE:
        start = time.perf_counter()
        rep = run_suite(name, seed=SEED, trials=_SUITE_PLAN[name])
        _CACHE[name] = (rep, time.perf_counter() - start)
    return _CACHE[name]


def test_criterion_1_conjugation_involution_200_functions_under_10s():
    start = time.perf_counter()
    count = 0
    for k in range(200):
        dim = 1 + k % 3
        rng = rng_for(SEED, "acceptance", "involution", k)
        f = rand_maxaffine(rng, dim)
        assert conjugate_cd(conjugate(f)) == f
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 200
    assert elapsed < 10.0, f"involution batch took {elapsed:.2f}s"


def test_criterion_2_hinge_pair_suite_five_valid_five_invalid_under_60s():
    rep, elapsed = suite_report("thm-a")
    assert rep.failures == 0, rep.witnesses[:2]
    # 5 valid measures x 100 hinge-pair cases, plus expansion cross-checks.
    assert rep.cases >= 505
    # Each of the 5 violating measures delivers an exact invariance witness.
    invalid = [e for e in rep.exhibits if e["check"] == "dual-epi-invariance"]
    assert len(invalid) == 5
    for doc in invalid:
        assert value_from_doc(doc["lhs"]) != value_from_doc(doc["rhs"])
    assert elapsed < 60.0, f"thm-a took {elapsed:.2f}s"


def test_criterion_3_decomposition_and_polarization_50_trials():
    rep, _ = suite_report("thm-2-1")
    assert rep.failures == 0, rep.witnesses[:2]
    assert rep.cases == 100  # 50 decompositions + 50 polarizations
    assert not rep.exhibits


def test_criterion_4_contravariance_words_witness_and_vacuous_under_30s():
    rep, elapsed = suite_report("thm-b")
    assert rep.failures == 0, rep.witnesses[:2]
    # (a) 100 SL(2) word cases plus (b) the search case and (c) empty-measure
    # cases all passed; the search must have produced the exact unit gap.
    assert rep.cases == 102
    gaps = [e for e in rep.exhibits if e["check"] == "contravariance-gap"]
    assert len(gaps) == 1
    lhs = value_from_doc(gaps[0]["lhs"])
    rhs = value_from_doc(gaps[0]["rhs"])
    assert lhs - rhs == Q(1)
    assert elapsed < 30.0, f"thm-b took {elapsed:.2f}s"


def test_criterion_5_lifted_map_violation_and_zero_map_under_30s():
    rep, elapsed = suite_report("cor-e")
    assert rep.failures == 0, rep.witnesses[:2]
    assert rep.cases == 11  # 5 violation + 5 pairing + 1 zero-map
    violations = [e for e in rep.exhibits if e["check"] == "lifted-linearity"]
    assert len(violations) == 5, "every nonzero measure must break midpoint equality"
    for doc in violations:
        assert value_from_doc(doc["lhs"]) != value_from_doc(doc["rhs"])
    # Direct spot check: the strictly convex profile is genuinely convex, so
    # the violation is about the lifted map, not the function.
    f = paraboloid_tangents(dim=2, grid=2)
    assert 2 * f((Q(2), Q(2))) < f((Q(0), Q(0))) + f((Q(4), Q(4)))
    assert elapsed < 30.0, f"cor-e took {elapsed:.2f}s"


def test_criterion_6_classical_bodies_exact_and_mc_under_120s():
    start = time.perf_counter()
    # Difference bodies of unit cubes, exactly.
    for n in (2, 3):
        cube = Polytope.hull(
            [tuple(Q(c) for c in p) for p in itertools.product((0, 1), repeat=n)], dim=n
        )
        D = difference_body(cube)
        assert set(D.vertices) == {
            tuple(Q(c) for c in p) for p in itertools.product((-1, 1), repeat=n)
        }
    # Triangle blow-up ratio.
    T = Polytope.hull([(Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(1))], dim=2)
    assert volume(difference_body(T)) == Q(6) * volume(T)
    # Cube shadows: exact unit values, and within 1% of the sampled oracle.
    cube3 = Polytope.hull(
        [tuple(Q(c) for c in p) for p in itertools.product((0, 1), repeat=3)], dim=3
    )
    for axis in range(3):
        exact = projection_body_support(cube3, unit_vector(3, axis))
        assert exact == Q(1)
        est = mc_projection_area(
            cube3, axis, samples=100_000, rng=rng_for(SEED, "acceptance", "mc", axis)
        )
        assert abs(est - 1.0) <= 0.01
    # Cut-pair identities for both body-valued maps, 50 pairs x 50 directions.
    rep, suite_elapsed = suite_report("classical")
    assert rep.failures == 0, rep.witnesses[:2]
    assert rep.cases == 107  # 7 fixed cases + 100 cut cases
    elapsed = (time.perf_counter() - start) + suite_elapsed
    assert elapsed < 120.0, f"classical checks took {elapsed:.2f}s"


def test_criterion_7_determinism_and_witness_replay():
    for name in _SUITE_PLAN:
        first, _ = suite_report(name)
        second = run_suite(name, seed=SEED, trials=_SUITE_PLAN[name])
        assert dump_json(report_doc(first)) == dump_json(report_doc(second)), name
        for doc in first.witnesses + first.exhibits:
            res = replay_witness(doc)
            assert res["match"], (name, doc["check"], res)
            assert res["lhs"] == res["recorded_lhs"]
            assert res["rhs"] == res["recorded_rhs"]
