"""Valuation families: measures, evaluation, expansion, invariances."""

import random

import pytest

from convval import (
    DiscreteMeasure,
    MaxAffineFn,
    Q,
    ValuationSpec,
    add,
    compose_linear,
    lift_vector_map,
    psi_eval,
    psi_expand,
    validate_measure,
)
from convval.generators import (
    rand_affine,
    rand_gl_matrix,
    rand_maxaffine,
    rand_point,
    rand_sl_matrix,
)
from convval.linalg import RationalMatrix, unit_vector
from convval.suites import _Bound, replay_witness

from conftest import grid_points, hinge


def mf(dim, *pieces):
    return MaxAffineFn(dim, [(tuple(Q(v) for v in a), Q(b)) for a, b in pieces])


def diff_spec(dim):
    """c = 0 with unit atoms at s = 1 and s = -1: the symmetrization map."""
    return ValuationSpec("equivariant", dim, Q(0), DiscreteMeasure([(1, 1), (-1, 1)]))


def test_measure_atoms_validated():
    with pytest.raises(ValueError):
        DiscreteMeasure([(0, 1)])
    with pytest.raises(ValueError):
        DiscreteMeasure([(1, -1)])
    with pytest.raises(ValueError):
        DiscreteMeasure([(1, 1), (1, 2)])  # duplicate scale point
    m = DiscreteMeasure([(-1, 1), (1, 1)])
    assert m.total_mass() == Q(2)


def test_measure_moment_report():
    good = validate_measure(DiscreteMeasure([(1, 1), (-1, 1)]), require_dual_invariance=True)
    assert good.ok and good.dual_translation_invariant
    assert good.signed_moment == Q(0)
    assert good.abs_moment == Q(2)

    bad = validate_measure(DiscreteMeasure([(2, 1)]), require_dual_invariance=True)
    assert not bad.ok
    assert bad.signed_moment == Q(1, 2)

    mixed = validate_measure(DiscreteMeasure([(1, 1), (-2, 2)]), require_dual_invariance=True)
    assert mixed.ok
    assert mixed.signed_moment == Q(0)


def test_spec_validation():
    with pytest.raises(Exception):
        ValuationSpec("contravariant-2d", 3, Q(0), DiscreteMeasure.empty())
    with pytest.raises(ValueError):
        ValuationSpec("no-such-variant", 2, Q(0), DiscreteMeasure.empty())
    # Plain atom lists are accepted and wrapped.
    spec = ValuationSpec("equivariant", 2, Q(1), [(1, 1), (-1, 1)])
    assert isinstance(spec.nu, DiscreteMeasure)


def test_psi_eval_hand_computed_value():
    spec = diff_spec(2)
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    # f(1,0) = 2, f(-1,0) = 1, f(0,0) = 1: (2 - 1) + (1 - 1) = 1.
    assert psi_eval(spec, f, (Q(1), Q(0))) == Q(1)


def test_psi_of_affine_function_is_the_constant():
    spec = ValuationSpec(
        "equivariant", 2, Q(3, 2), DiscreteMeasure([(1, 1), (-2, 4), (Q(1, 2), 1), (-1, 1)])
    )
    # Any affine input collapses to c whenever the signed moment vanishes.
    assert spec.nu.signed_reciprocal_moment() == Q(0)
    aff = MaxAffineFn.affine((Q(2), Q(-5)), Q(7))
    for x in grid_points(2, 2, 1):
        assert psi_eval(spec, aff, x) == Q(3, 2)


def test_psi_with_empty_measure_is_constant():
    spec = ValuationSpec("equivariant", 3, Q(5), DiscreteMeasure.empty())
    f = mf(3, ((1, 2, 3), 0), ((0, 0, 0), 4))
    for x in ((Q(0),) * 3, (Q(1), Q(-2), Q(3))):
        assert psi_eval(spec, f, x) == Q(5)


def test_psi_expand_difference_function():
    spec = diff_spec(2)
    f = hinge(2)  # max(x1, 0)
    g = psi_expand(spec, f)
    assert {(tuple(a), b) for a, b in g.pieces} == {
        ((Q(1), Q(0)), Q(0)),
        ((Q(-1), Q(0)), Q(0)),
    }
    for x in grid_points(2, 2, 1):
        assert g(x) == abs(x[0])


def test_psi_expand_agrees_with_psi_eval():
    rng = random.Random(101)
    specs = [
        diff_spec(2),
        ValuationSpec("contravariant-2d", 2, Q(1), DiscreteMeasure([(2, 1), (-2, 1)])),
        ValuationSpec("gl-endomorphism", 2, Q(2), DiscreteMeasure([(1, 2), (-1, 2)])),
    ]
    for spec in specs:
        for _ in range(8):
            pieces = [
                (
                    tuple(Q(rng.randint(-3, 3)) for _ in range(2)),
                    Q(rng.randint(-3, 3)),
                )
                for _ in range(rng.randint(1, 3))
            ]
            f = MaxAffineFn(2, pieces)
            g = psi_expand(spec, f)
            for _ in range(6):
                x = tuple(Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(2))
                assert g(x) == psi_eval(spec, f, x)


def test_psi_output_is_convex_for_nonnegative_weights():
    spec = diff_spec(2)
    f = mf(2, ((1, 1), 0), ((-1, 0), 2), ((0, -1), -1))
    g = psi_expand(spec, f)
    for x in grid_points(2, 2, 1):
        for y in grid_points(2, 2, 1):
            mid = tuple((a + b) / 2 for a, b in zip(x, y))
            assert 2 * g(mid) <= g(x) + g(y)


def test_dual_epi_invariance_exact_for_valid_measure():
    spec = diff_spec(2)
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    ell = MaxAffineFn.affine((Q(3), Q(-2)), Q(5))
    shifted = add(f, ell, do_prune=False)
    for x in grid_points(2, 2, 1):
        assert psi_eval(spec, shifted, x) == psi_eval(spec, f, x)


def test_dual_epi_gap_for_invalid_measure():
    # One atom at s = 2 with unit weight; adding x1 shifts the output by the
    # signed moment in the probe direction.
    spec = ValuationSpec("equivariant", 2, Q(0), DiscreteMeasure([(2, 1)]))
    f = hinge(2)
    ell = MaxAffineFn.affine((Q(1), Q(0)), Q(0))
    shifted = add(f, ell, do_prune=False)
    x = tuple(Q(v) for v in unit_vector(2, 0))
    gap = psi_eval(spec, shifted, x) - psi_eval(spec, f, x)
    assert gap == Q(1, 2)


def test_constant_shift_never_changes_output():
    # The f(0) subtraction makes vertical translation invisible even for
    # invalid measures.
    spec = ValuationSpec("equivariant", 2, Q(0), DiscreteMeasure([(2, 1), (1, 3)]))
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    shifted = f.offset(Q(7, 3))
    for x in grid_points(2, 2, 1):
        assert psi_eval(spec, shifted, x) == psi_eval(spec, f, x)


def sampled_witnesses(check, spec, trials, rng, draw):
    """Witnesses the registry check files over `trials` seeded draws.

    Each trial binds the inputs `draw(rng)` returns, then probes one random
    point, the way the suite cases do.
    """
    found = []
    for _ in range(trials):
        bound = _Bound(check, "", spec=spec, **draw(rng))
        witness = bound.failure(x=rand_point(rng, spec.dim))
        if witness is not None:
            found.append(witness)
    return found


def shifts(rng):
    return {"f": rand_maxaffine(rng, 2), "ell": rand_affine(rng, 2)}


def sl_words(rng):
    return {"f": rand_maxaffine(rng, 2), "g": rand_sl_matrix(rng, 2)}


def test_check_dual_epi_invariance_reports():
    assert sampled_witnesses("dual-epi-invariance", diff_spec(2), 10, random.Random(3), shifts) == []
    bad_spec = ValuationSpec("equivariant", 2, Q(0), DiscreteMeasure([(2, 1)]))
    bad = sampled_witnesses("dual-epi-invariance", bad_spec, 10, random.Random(3), shifts)
    assert bad
    w = bad[0]
    assert w["check"] == "dual-epi-invariance"
    assert w["lhs"] != w["rhs"]
    assert replay_witness(w)["match"]


def test_equivariance_under_gl_and_sl():
    def gl3(rng):
        return {"f": rand_maxaffine(rng, 3), "g": rand_gl_matrix(rng, 3)}

    assert sampled_witnesses("equivariance", diff_spec(3), 12, random.Random(9), gl3) == []
    assert sampled_witnesses("equivariance", diff_spec(2), 12, random.Random(10), sl_words) == []


def test_contravariance_in_the_plane():
    spec = ValuationSpec(
        "contravariant-2d", 2, Q(0), DiscreteMeasure([(1, 1), (-1, 1)])
    )
    assert sampled_witnesses("contravariance", spec, 15, random.Random(13), sl_words) == []


def test_contravariance_hand_example_with_shear():
    spec = ValuationSpec(
        "contravariant-2d", 2, Q(0), DiscreteMeasure([(1, 1), (-1, 1)])
    )
    f = mf(2, ((1, 0), 0), ((0, 0), 0), ((0, 1), -1))
    g = RationalMatrix.shear(2, 0, 1, Q(2))
    x = (Q(1), Q(-1))
    lhs = psi_eval(spec, compose_linear(f, g), x)
    rhs = psi_eval(spec, f, g.inverse_transpose().matvec(x))
    assert lhs == rhs


def test_equivariant_family_fails_contravariance_in_dim_three():
    # The plane is special: the same check run in dimension 3 on the
    # equivariant family with a shear must produce a mismatch.
    spec = diff_spec(3)
    f = hinge(3)
    g = RationalMatrix.shear(3, 0, 1, Q(1))
    x = (Q(0), Q(1), Q(0))
    lhs = psi_eval(spec, compose_linear(f, g), x)
    rhs = psi_eval(spec, f, g.inverse_transpose().matvec(x))
    assert lhs == Q(1)
    assert rhs == Q(0)
    assert lhs != rhs


def test_gl_endomorphism_scales_constant_by_value_at_origin():
    nu = DiscreteMeasure([(1, 1), (-1, 1)])
    spec = ValuationSpec("gl-endomorphism", 2, Q(3), nu)
    f = mf(2, ((1, 0), 0), ((0, 0), 2))  # f(0) = 2
    base = ValuationSpec("equivariant", 2, Q(0), nu)
    for x in grid_points(2, 2, 1):
        assert psi_eval(spec, f, x) == Q(3) * Q(2) + psi_eval(base, f, x)


def test_lift_vector_map_pairing():
    def midpoint_slope(f):
        e1 = (Q(1), Q(0))
        ne1 = (Q(-1), Q(0))
        return ((f(e1) - f(ne1)) / 2, Q(0))

    f = mf(2, ((1, 0), 0), ((-1, 0), 0))  # |x1|
    for x in ((Q(2), Q(1)), (Q(-3), Q(5))):
        assert lift_vector_map(midpoint_slope, f, x) == Q(0)

    g = mf(2, ((1, 0), 0), ((0, 0), 0))  # max(x1, 0), slope estimate 1/2
    assert lift_vector_map(midpoint_slope, g, (Q(2), Q(7))) == Q(1)


def test_psi_expand_piece_budget():
    from convval import PieceBudgetExceeded

    spec = ValuationSpec(
        "equivariant",
        2,
        Q(0),
        DiscreteMeasure([(1, 1), (-1, 1), (2, 4), (-2, 4)]),
    )
    f = mf(
        2,
        ((1, 0), 0),
        ((0, 1), 0),
        ((-1, 0), 0),
        ((0, -1), 0),
        ((1, 1), -1),
        ((-1, -1), -1),
    )
    with pytest.raises(PieceBudgetExceeded):
        psi_expand(spec, f, piece_cap=4)
    # A generous cap succeeds and still agrees with direct evaluation.
    g = psi_expand(spec, f)
    x = (Q(1), Q(2))
    assert g(x) == psi_eval(spec, f, x)


def test_psi_eval_dimension_checks():
    spec = diff_spec(2)
    with pytest.raises(Exception):
        psi_eval(spec, hinge(3), (Q(0), Q(0)))
    with pytest.raises(Exception):
        psi_eval(spec, hinge(2), (Q(0),))


def test_zero_weight_atoms_are_inert():
    spec_a = ValuationSpec("equivariant", 2, Q(1), DiscreteMeasure([(1, 1), (-1, 1), (3, 0)]))
    spec_b = ValuationSpec("equivariant", 2, Q(1), DiscreteMeasure([(1, 1), (-1, 1)]))
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    for x in grid_points(2, 2, 1):
        assert psi_eval(spec_a, f, x) == psi_eval(spec_b, f, x)
    assert psi_expand(spec_a, f) == psi_expand(spec_b, f)
