"""Polytopes: hulls, Minkowski algebra, volumes, shadows, cuts.

Extreme-point filtering is exercised against the Caratheodory determinant
oracle from conftest (the production route is an LP per point), areas against
the shoelace formula, and 2D shadow lengths against direct support-function
widths in the rotated direction.
"""

import itertools
import random

import pytest

from convval import (
    Polytope,
    Q,
    cut_pair,
    difference_body,
    difference_body_support,
    facet_area_vectors,
    minkowski_sum,
    projection_body_support,
    volume,
)
from convval.linalg import RationalMatrix, dot, unit_vector, vadd, vneg

from conftest import in_hull_caratheodory, shoelace_area


def poly(dim, *pts):
    return Polytope.hull([tuple(Q(c) for c in p) for p in pts], dim=dim)


def vset(K):
    return set(K.vertices)


def unit_square():
    return poly(2, (0, 0), (1, 0), (0, 1), (1, 1))


def unit_cube():
    return poly(3, *itertools.product((0, 1), repeat=3))


def tri():
    return poly(2, (0, 0), (1, 0), (0, 1))


def test_hull_drops_interior_and_edge_points():
    K = poly(2, (0, 0), (1, 0), (0, 1), (1, 1), (Q(1, 2), Q(1, 2)), (Q(1, 2), 0))
    assert vset(K) == {
        (Q(0), Q(0)),
        (Q(1), Q(0)),
        (Q(0), Q(1)),
        (Q(1), Q(1)),
    }


def test_hull_matches_caratheodory_oracle_on_random_sets():
    rng = random.Random(11)
    for _ in range(20):
        dim = rng.randint(1, 3)
        pts = [
            tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim))
            for _ in range(rng.randint(dim + 1, 6))
        ]
        K = Polytope.hull(pts, dim=dim)
        kept = vset(K)
        for p in pts:
            others = [q for q in pts if q != p]
            if not others:
                assert p in kept
                continue
            redundant = in_hull_caratheodory(p, others, dim)
            assert (p not in kept) == redundant, (p, pts)


def test_support_function_of_square():
    K = unit_square()
    assert K.support((Q(1), Q(0))) == Q(1)
    assert K.support((Q(-1), Q(0))) == Q(0)
    assert K.support((Q(1), Q(1))) == Q(2)
    # Positive homogeneity.
    assert K.support((Q(2), Q(2))) == Q(4)


def test_translate_and_reflect():
    K = tri()
    T = K.translate((Q(1), Q(-1)))
    assert vset(T) == {(Q(1), Q(-1)), (Q(2), Q(-1)), (Q(1), Q(0))}
    R = K.reflect()
    assert vset(R) == {(Q(0), Q(0)), (Q(-1), Q(0)), (Q(0), Q(-1))}


def test_affine_dim():
    assert unit_square().affine_dim() == 2
    seg = poly(2, (0, 0), (1, 1))
    assert seg.affine_dim() == 1
    pt = poly(3, (1, 2, 3))
    assert pt.affine_dim() == 0


def test_minkowski_sum_of_squares():
    S = minkowski_sum(unit_square(), unit_square())
    assert vset(S) == {
        (Q(0), Q(0)),
        (Q(2), Q(0)),
        (Q(0), Q(2)),
        (Q(2), Q(2)),
    }


def test_minkowski_sum_support_additivity():
    rng = random.Random(23)
    for _ in range(10):
        pts1 = [(Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))) for _ in range(4)]
        pts2 = [(Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))) for _ in range(4)]
        K, L = Polytope.hull(pts1, dim=2), Polytope.hull(pts2, dim=2)
        S = minkowski_sum(K, L)
        for _ in range(8):
            u = (Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)))
            if u == (0, 0):
                continue
            assert S.support(u) == K.support(u) + L.support(u)


def test_difference_body_of_triangle_is_hexagon():
    D = difference_body(tri())
    e1, e2 = (Q(1), Q(0)), (Q(0), Q(1))
    expected = {
        e1,
        vneg(e1),
        e2,
        vneg(e2),
        (Q(1), Q(-1)),
        (Q(-1), Q(1)),
    }
    assert vset(D) == expected
    assert volume(D) == Q(3)


def test_difference_body_of_square_and_cube():
    D2 = difference_body(unit_square())
    assert vset(D2) == {(Q(a), Q(b)) for a in (-1, 1) for b in (-1, 1)}
    assert volume(D2) == Q(4)
    D3 = difference_body(unit_cube())
    assert vset(D3) == {tuple(map(Q, p)) for p in itertools.product((-1, 1), repeat=3)}
    assert volume(D3) == Q(8)


def test_difference_body_is_origin_symmetric():
    rng = random.Random(5)
    for _ in range(10):
        pts = [
            (Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)))
            for _ in range(5)
        ]
        D = difference_body(Polytope.hull(pts, dim=3))
        assert vset(D) == {vneg(v) for v in D.vertices}


def test_volume_examples():
    assert volume(unit_square()) == Q(1)
    assert volume(unit_cube()) == Q(1)
    simplex3 = poly(3, (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert volume(simplex3) == Q(1, 6)
    assert volume(tri()) == Q(1, 2)
    # Lower-dimensional bodies have zero volume.
    assert volume(poly(2, (0, 0), (1, 1))) == Q(0)


def test_volume_matches_shoelace_on_random_polygons():
    rng = random.Random(17)
    for _ in range(15):
        pts = [
            (Q(rng.randint(-4, 4), rng.randint(1, 2)), Q(rng.randint(-4, 4), rng.randint(1, 2)))
            for _ in range(rng.randint(3, 7))
        ]
        K = Polytope.hull(pts, dim=2)
        if K.affine_dim() < 2:
            assert volume(K) == Q(0)
            continue
        assert volume(K) == shoelace_area(list(K.vertices))


def test_area_vectors_of_square_and_cube():
    vec2 = facet_area_vectors(unit_square())
    assert sorted(vec2) == sorted(
        [(Q(1), Q(0)), (Q(-1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1))]
    )
    vec3 = facet_area_vectors(unit_cube())
    expected = [tuple(Q(v) for v in unit_vector(3, k)) for k in range(3)]
    expected += [vneg(v) for v in expected]
    assert sorted(vec3) == sorted(expected)


def test_area_vectors_of_triangle():
    vecs = facet_area_vectors(tri())
    assert sorted(vecs) == sorted([(Q(0), Q(-1)), (Q(-1), Q(0)), (Q(1), Q(1))])


def test_area_vectors_close_up():
    rng = random.Random(29)
    for dim in (2, 3):
        for _ in range(8):
            pts = [
                tuple(Q(rng.randint(-3, 3)) for _ in range(dim))
                for _ in range(dim + 2 + rng.randint(0, 3))
            ]
            K = Polytope.hull(pts, dim=dim)
            if K.affine_dim() != dim:
                continue
            vecs = facet_area_vectors(K)
            total = vecs[0]
            for v in vecs[1:]:
                total = vadd(total, v)
            assert all(c == 0 for c in total)


def test_projection_body_of_cube_and_simplex():
    C = unit_cube()
    for k in range(3):
        assert projection_body_support(C, unit_vector(3, k)) == Q(1)
    T = poly(3, (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    for k in range(3):
        assert projection_body_support(T, unit_vector(3, k)) == Q(1, 2)


def test_projection_body_positive_homogeneity():
    C = unit_cube()
    u = (Q(1), Q(2), Q(-1))
    assert projection_body_support(C, tuple(2 * v for v in u)) == 2 * projection_body_support(C, u)


def test_projection_body_2d_matches_rotated_width_oracle():
    # In the plane the shadow beside direction u is the width along the
    # quarter-turned direction: an independent support-function oracle.
    theta = RationalMatrix.quarter_turn()
    rng = random.Random(31)
    for _ in range(12):
        pts = [
            (Q(rng.randint(-4, 4), rng.randint(1, 2)), Q(rng.randint(-4, 4), rng.randint(1, 2)))
            for _ in range(rng.randint(3, 6))
        ]
        K = Polytope.hull(pts, dim=2)
        if K.affine_dim() < 2:
            continue
        for _ in range(6):
            u = (Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)))
            if u == (0, 0):
                continue
            v = theta.matvec(u)
            width = K.support(v) + K.support(vneg(v))
            assert projection_body_support(K, u) == width


def test_projection_body_of_flat_body():
    seg = poly(2, (Q(1, 2), 0), (Q(1, 2), 1))
    assert projection_body_support(seg, (Q(1), Q(0))) == Q(1)
    assert projection_body_support(seg, (Q(0), Q(1))) == Q(0)
    # Affine dimension below dim-1 casts a null shadow.
    pt = poly(2, (1, 1))
    assert projection_body_support(pt, (Q(1), Q(0))) == Q(0)


def test_projection_body_of_flat_3d_body_caches_its_area_vector():
    # A right triangle with legs 2 and 3 in the plane z = 1/2: area 3.
    tri3 = poly(3, (0, 0, Q(1, 2)), (2, 0, Q(1, 2)), (0, 3, Q(1, 2)))
    assert projection_body_support(tri3, (0, 0, 1)) == 3
    assert projection_body_support(tri3, (0, 0, -2)) == 6
    assert projection_body_support(tri3, (1, 0, 0)) == 0
    assert "flat_area_vector" in tri3._cache
    assert projection_body_support(tri3, (1, 1, Q(1, 3))) == 1


def test_cut_pair_square_at_half():
    P = unit_square()
    K, L, M = cut_pair(P, (Q(1), Q(0)), Q(1, 2))
    assert vset(K) == {(Q(0), Q(0)), (Q(0), Q(1)), (Q(1, 2), Q(0)), (Q(1, 2), Q(1))}
    assert vset(L) == {(Q(1), Q(0)), (Q(1), Q(1)), (Q(1, 2), Q(0)), (Q(1, 2), Q(1))}
    assert vset(M) == {(Q(1, 2), Q(0)), (Q(1, 2), Q(1))}
    assert volume(K) + volume(L) == volume(P)


def test_cut_identity_for_difference_body_on_square():
    P = unit_square()
    K, L, M = cut_pair(P, (Q(1), Q(0)), Q(1, 2))
    e1 = (Q(1), Q(0))
    hP = difference_body_support(P, e1)
    hM = difference_body_support(M, e1)
    hK = difference_body_support(K, e1)
    hL = difference_body_support(L, e1)
    assert (hK, hL, hP, hM) == (Q(1, 2), Q(1, 2), Q(1), Q(0))
    assert hK + hL == hP + hM


def test_cut_volume_additivity_cube_diagonal():
    P = unit_cube()
    K, L, M = cut_pair(P, (Q(1), Q(1), Q(0)), Q(1))
    assert volume(K) + volume(L) == volume(P)
    assert volume(M) == Q(0)


def test_cut_identity_difference_and_projection_random():
    rng = random.Random(43)
    for trial in range(12):
        dim = 2 if trial % 2 == 0 else 3
        base = [tuple(Q(0) for _ in range(dim))]
        for k in range(dim):
            v = [Q(0)] * dim
            v[k] = Q(rng.randint(1, 3))
            base.append(tuple(v))
        base.extend(
            tuple(Q(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(dim))
            for _ in range(3)
        )
        P = Polytope.hull(base, dim=dim)
        w = tuple(Q(rng.randint(-2, 2)) for _ in range(dim))
        if all(c == 0 for c in w):
            w = tuple(Q(1) for _ in range(dim))
        vals = [dot(w, v) for v in P.vertices]
        lo, hi = min(vals), max(vals)
        t = lo + (hi - lo) * Q(rng.randint(1, 3), 4)
        if t == lo or t == hi:
            continue
        K, L, M = cut_pair(P, w, t)
        for h in (difference_body_support, projection_body_support):
            for _ in range(10):
                u = tuple(Q(rng.randint(-3, 3)) for _ in range(dim))
                if all(c == 0 for c in u):
                    continue
                assert h(K, u) + h(L, u) == h(P, u) + h(M, u)


def test_rogers_shephard_inequality_bound():
    import math

    rng = random.Random(47)
    for _ in range(10):
        dim = rng.randint(2, 3)
        pts = [
            tuple(Q(rng.randint(-3, 3)) for _ in range(dim))
            for _ in range(dim + 2 + rng.randint(0, 2))
        ]
        K = Polytope.hull(pts, dim=dim)
        if K.affine_dim() != dim:
            continue
        vk = volume(K)
        vd = volume(difference_body(K))
        bound = Q(math.comb(2 * dim, dim))
        assert vd <= bound * vk
        assert vd >= Q(2**dim) * vk  # lower bound, equality for symmetric K


def test_rogers_shephard_equality_for_simplex():
    import math

    T = poly(3, (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert volume(difference_body(T)) == Q(math.comb(6, 3)) * volume(T)
    T2 = tri()
    assert volume(difference_body(T2)) == Q(6) * volume(T2)


def test_cut_rejects_hyperplane_missing_interior():
    P = unit_square()
    with pytest.raises(ValueError):
        cut_pair(P, (Q(1), Q(0)), Q(2))
    with pytest.raises(ValueError):
        cut_pair(P, (Q(1), Q(0)), Q(0))  # touches the boundary only


def test_polytope_equality_semantic_and_hashable():
    a = poly(2, (0, 0), (1, 0), (0, 1), (Q(1, 4), Q(1, 4)))
    b = poly(2, (0, 1), (1, 0), (0, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
