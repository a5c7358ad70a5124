"""Deterministic input generation: stream independence and object validity."""

from convval import Q, prune, validate_measure
from convval.generators import (
    paraboloid_tangents,
    rand_direction,
    rand_gl_matrix,
    rand_hinge_pair,
    rand_maxaffine,
    rand_point,
    rand_polytope,
    rand_rational,
    rand_sl_matrix,
    rand_valid_measure,
    rng_for,
)
from convval.linalg import RationalMatrix


def test_rng_for_is_deterministic_and_path_separated():
    a1 = rng_for(7, "suite", 3).random()
    a2 = rng_for(7, "suite", 3).random()
    b = rng_for(7, "suite", 4).random()
    c = rng_for(8, "suite", 3).random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_rand_rational_type_and_bounds():
    rng = rng_for(1, "rat")
    for _ in range(50):
        v = rand_rational(rng, -5, 5, 3)
        assert isinstance(v, type(Q(0)))
        assert Q(-5) <= v <= Q(5)


def test_rand_point_and_direction():
    rng = rng_for(1, "pt")
    p = rand_point(rng, 3)
    assert len(p) == 3
    d = rand_direction(rng, 3)
    assert any(v != 0 for v in d)


def test_rand_maxaffine_is_pruned():
    rng = rng_for(2, "fn")
    for dim in (1, 2, 3):
        f = rand_maxaffine(rng, dim)
        assert f.dim == dim
        assert prune(f) == f


def test_rand_sl_matrix_has_determinant_one():
    rng = rng_for(3, "sl")
    for dim in (1, 2, 3, 4):
        g = rand_sl_matrix(rng, dim)
        assert g.det() == Q(1)
    assert rand_sl_matrix(rng, 1) == RationalMatrix.identity(1)


def test_rand_gl_matrix_is_invertible():
    rng = rng_for(4, "gl")
    for dim in (1, 2, 3):
        for _ in range(5):
            g = rand_gl_matrix(rng, dim)
            assert g.det() != 0


def test_rand_polytope_is_full_dimensional():
    rng = rng_for(5, "poly")
    for dim in (2, 3):
        for _ in range(5):
            P = rand_polytope(rng, dim)
            assert P.affine_dim() == dim


def test_rand_valid_measure_balances_signed_moment():
    rng = rng_for(6, "nu")
    for _ in range(20):
        nu = rand_valid_measure(rng)
        assert nu.signed_reciprocal_moment() == 0
        assert validate_measure(nu, require_dual_invariance=True).ok
        assert all(w > 0 for _, w in nu.atoms)


def test_rand_hinge_pair_certified():
    rng = rng_for(8, "hinge")
    for dim in (1, 2, 3):
        pair = rand_hinge_pair(rng, dim)
        x = rand_point(rng, dim)
        assert max(pair.f(x), pair.h(x)) == pair.fmax(x)
        assert min(pair.f(x), pair.h(x)) == pair.fmin(x)


def test_paraboloid_tangents_profile():
    f = paraboloid_tangents(dim=2, grid=2)
    assert len(f.pieces) == 25
    zero = (Q(0), Q(0))
    assert f(zero) == Q(0)
    # Tangent construction recovers the squared norm on grid points.
    for p in ((1, 0), (2, 2), (-1, 1)):
        x = (Q(p[0]), Q(p[1]))
        assert f(x) == Q(p[0] ** 2 + p[1] ** 2)
    # Strictly convex along the diagonal within the grid's reach.
    lo, mid, hi = (Q(0), Q(0)), (Q(2), Q(2)), (Q(4), Q(4))
    assert 2 * f(mid) < f(lo) + f(hi)
