"""Fraction-free vertex enumeration: solved against hand-checkable systems,
and against the rational Gauss-Jordan enumerator it replaced on a seeded
corpus of lifted epigraph pairs."""

import math

from collections import Counter
from itertools import combinations

import pytest

from convval import MaxAffineFn, Q, is_min_convex, min_convex_hull, prune
from convval import _geometry, lifted
from convval._geometry import int_solve, primitive_row, vertices_of_hrep
from convval.errors import CapabilityLimit
from convval.generators import paraboloid_tangents, rand_hinge_pair, rand_rational, rng_for
from convval.linalg import dot

from conftest import eval_all_pieces, grid_points
from elim_reference import matrix_rank, solve_square


def test_int_solve_lowest_terms_positive_denominator():
    # 2x + 4y = 3, 6x - 2y = -1: x = 1/14, y = 5/7 = 10/14.
    rows = [primitive_row((Q(2), Q(4)), Q(3)), primitive_row((Q(6), Q(-2)), Q(-1))]
    assert int_solve(rows, 2) == ((1, 10), 14)
    # A negative final pivot still gives a positive denominator.
    assert int_solve([(-3, 1)], 1) == ((-1,), 3)


def test_int_solve_rank_and_consistency():
    assert int_solve([(1, 2, 1), (2, 4, 2)], 2) is None
    # Overdetermined but consistent: x = 1, y = 2, x + y = 3.
    assert int_solve([(1, 0, 1), (0, 1, 2), (1, 1, 3)], 2) == ((1, 2), 1)
    assert int_solve([(1, 0, 1), (0, 1, 2), (1, 1, 4)], 2) is None


def test_primitive_row_keeps_direction():
    assert primitive_row((Q(-1, 2), Q(3, 4)), Q(-1, 6)) == (-6, 9, -2)
    assert primitive_row((Q(0), Q(0)), Q(0)) == (0, 0, 0)


def test_vertices_of_unit_square():
    ineqs = [((Q(1), Q(0)), Q(1)), ((Q(-1), Q(0)), Q(0)),
             ((Q(0), Q(1)), Q(1)), ((Q(0), Q(-1)), Q(0)), ((Q(1), Q(1)), Q(2))]
    verts = vertices_of_hrep(ineqs, [], 2)
    assert verts == [(Q(0), Q(0)), (Q(0), Q(1)), (Q(1), Q(0)), (Q(1), Q(1))]
    assert all(type(v) is type(Q(0)) for p in verts for v in p)


def test_facet_budget_raises_before_enumerating(monkeypatch):
    def refuse(vectors, d):
        raise AssertionError("enumerated")

    monkeypatch.setattr(_geometry, "_cross_normal", refuse)
    monkeypatch.setattr(_geometry, "int_scaled", refuse)
    points = [(Q(k), Q(k * k), Q(k * k * k)) for k in range(120)]
    count = 120 * 119 * 118 // 6
    assert count > _geometry.MAX_FACET_CANDIDATES
    with pytest.raises(CapabilityLimit, match=str(count)):
        _geometry.facet_enum(points, 3)


def test_lifted_hrep_budget_raises_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated")

    # The chart scales its own coordinate rows, so the marker of enumeration
    # here is the candidate loop itself rather than any integer scaling.
    monkeypatch.setattr(_geometry, "_cross_normal", refuse)
    monkeypatch.setattr(_geometry, "combinations", refuse)
    f = paraboloid_tangents(4, grid=1)
    points = [a + (-b,) for a, b in f.pieces]
    # 81 points and the ray span the lifted R^5: C(82, 5) candidates.
    count = math.comb(82, 5)
    assert len(points) == 81 and count > _geometry.MAX_FACET_CANDIDATES
    with pytest.raises(CapabilityLimit, match=str(count)):
        _geometry.hrep_with_vertical_ray(points)


def test_supporting_hyperplanes_need_a_point_in_every_candidate():
    # The ray alone spans the hyperplane x = 1, which every point lies above;
    # only the floor x >= 5 through a point supports conv{5, 6} + ray.
    ints, den, planes = _geometry._supporting_hyperplanes([(Q(5),), (Q(6),)], 1, (Q(1),))
    assert (ints, den, planes) == ([(5,), (6,)], 1, [((-1,), -5)])
    _, den, planes = _geometry._supporting_hyperplanes([(Q(1, 2), Q(0)), (Q(3, 2), Q(1))], 2,
                                                       (Q(0), Q(1, 3)))
    # Scaled by 6: the floor through both points and the two vertical walls.
    assert den == 6 and sorted(planes) == [((-1, 0), -3), ((1, -1), 3), ((1, 0), 9)]


@pytest.mark.parametrize("points", [
    [(0, 0), (1, 1), (2, 2)],
    [(1, 2)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0)],
    [(0, 0, 0), (1, 1, 1), (2, 2, 2), (-1, -1, -1)],
], ids=["collinear-2d", "point-2d", "coplanar-3d", "collinear-3d"])
def test_facet_enum_refuses_lower_dimensional_sets(points):
    points = [tuple(Q(v) for v in p) for p in points]
    with pytest.raises(ValueError, match="full-dimensional"):
        _geometry.facet_enum(points, len(points[0]))


def test_size_budget_raises_before_enumerating(monkeypatch):
    def refuse(rows, d):
        raise AssertionError("enumerated")

    monkeypatch.setattr(_geometry, "int_solve", refuse)
    ineqs = [((Q(k), Q(1), Q(0)), Q(k)) for k in range(200)]
    count = 200 * 199 * 198 // 6
    assert count > _geometry.MAX_HREP_CANDIDATES
    with pytest.raises(CapabilityLimit, match=str(count)):
        vertices_of_hrep(ineqs, [], 3)


# ---------------------------------------------------------------------------
# Differential oracle: the rational Gauss-Jordan enumerator that the integer
# kernel replaced, with its code unchanged.


def _solve_full_rank(rows, rhs, d):
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    rank = 0
    for col in range(d):
        piv = None
        for r in range(rank, len(aug)):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = Q(1) / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[rank])]
        rank += 1
    for r in range(rank, len(aug)):
        if aug[r][-1] != 0:
            return None
    return tuple(aug[i][-1] for i in range(d))


def _oracle_vertices(ineqs, eqs, d):
    eq_rows = [list(c) for c, _ in eqs]
    eq_rank = matrix_rank(eq_rows) if eq_rows else 0
    need = d - eq_rank
    if need < 0:
        return []
    verts = set()
    for subset in combinations(range(len(ineqs)), need):
        rows = [c for c, _ in eqs] + [ineqs[i][0] for i in subset]
        rhs = [b for _, b in eqs] + [ineqs[i][1] for i in subset]
        point = _solve_full_rank(rows, rhs, d)
        if point is None:
            continue
        ok = True
        for coeffs, bound in ineqs:
            if dot(coeffs, point) > bound:
                ok = False
                break
        if ok:
            for coeffs, bound in eqs:
                if dot(coeffs, point) != bound:
                    ok = False
                    break
        if ok:
            verts.add(point)
    return sorted(verts)


def _rand_fn(rng, dim, count, line):
    """Random function; with line, its slopes lie on one line (collinear)."""
    if line:
        base = tuple(rand_rational(rng, -3, 3, 2) for _ in range(dim))
        step = tuple(rand_rational(rng, -3, 3, 2) for _ in range(dim))
        slopes = [tuple(b + Q(rng.randint(-2, 2)) * s for b, s in zip(base, step))
                  for _ in range(count)]
    else:
        slopes = [tuple(rand_rational(rng, -4, 4, 3) for _ in range(dim)) for _ in range(count)]
    return MaxAffineFn(dim, [(a, rand_rational(rng, -6, 6, 4)) for a in slopes])


def _pair(seed, i):
    """Pruned operands: dims 1-3, some with collinear slopes, some sharing
    pieces, some translates of each other."""
    rng = rng_for(seed, "hrep-pair", i)
    dim = 1 + i % 3
    top = (4, 3, 3)[dim - 1]
    f = _rand_fn(rng, dim, rng.randint(1, top), rng.random() < 0.25)
    mode = rng.random()
    if mode < 0.15:
        h = f.offset(rand_rational(rng, 0, 3))
    elif mode < 0.35:
        h = MaxAffineFn(dim, list(f.pieces[:2]) + list(_rand_fn(rng, dim, 2, False).pieces))
    else:
        h = _rand_fn(rng, dim, rng.randint(1, top), rng.random() < 0.25)
    return prune(f), prune(h)


def test_vertices_of_hrep_matches_rational_enumerator_on_epigraph_pairs():
    seen = Counter()
    for i in range(2000):
        fp, hp = _pair(11, i)
        ineq_f, eq_f = lifted._epigraph_hrep(fp)
        ineq_h, eq_h = lifted._epigraph_hrep(hp)
        ineqs, eqs, d = ineq_f + ineq_h, eq_f + eq_h, fp.dim + 1
        got = vertices_of_hrep(ineqs, eqs, d)
        assert got == _oracle_vertices(ineqs, eqs, d), (i, fp, hp)
        assert all(type(v) is type(Q(0)) for p in got for v in p)
        seen[f"dim-{fp.dim}"] += 1
        seen["eqs"] += bool(eqs)
        seen["single-piece"] += len(fp.pieces) == 1 or len(hp.pieces) == 1
        seen["empty"] += not got
        seen["repeated-rows"] += len(set(ineqs)) < len(ineqs)
        seen["vertices"] += len(got)
    for key in ("dim-1", "dim-2", "dim-3", "eqs", "single-piece", "empty", "repeated-rows"):
        assert seen[key] >= 20, (key, seen)
    assert seen["vertices"] >= 2000, seen


def _oracle_arrangement(walls, n):
    points = set()
    for comb in combinations(walls, n):
        sol = solve_square([c for c, _ in comb], [r for _, r in comb])
        if sol is not None:
            points.add(sol)
    return sorted(points)


def _wall_hyperplanes(f, h):
    """Distinct walls {p_i = p_j} over pieces of f, of h, and across."""
    walls = set()

    def add_pairs(pieces_a, pieces_b):
        for (a1, b1) in pieces_a:
            for (a2, b2) in pieces_b:
                coeffs = tuple(x - y for x, y in zip(a1, a2))
                if all(c == 0 for c in coeffs):
                    continue
                rhs = b2 - b1
                # Normalize sign and scale for dedup.
                lead = next(c for c in coeffs if c != 0)
                inv = 1 / lead
                walls.add((tuple(c * inv for c in coeffs), rhs * inv))

    add_pairs(f.pieces, f.pieces)
    add_pairs(h.pieces, h.pieces)
    add_pairs(f.pieces, h.pieces)
    return sorted(walls)


def _three_stage_min_convex(fp, hp):
    """The former is_min_convex: the piece-union check, the hull against
    min{f, h} at every vertex of the wall arrangement, then the gap program
    over every piece pair, with no pair skipped."""
    hull = lifted._hull_of_pruned(fp, hp)
    if hull is None:
        return False
    union = set(fp.pieces) | set(hp.pieces)
    if any(piece not in union for piece in hull.pieces):
        return False
    for x in _oracle_arrangement(_wall_hyperplanes(fp, hp), fp.dim):
        if min(fp(x), hp(x)) != hull(x):
            return False
    return all(lifted._gap_above_hull(aq, bq, ar, br, hull, fp.dim) <= 0
               for aq, bq in fp.pieces for ar, br in hp.pieces)


def test_is_min_convex_matches_three_stage_oracle():
    seen = Counter()
    pairs = [_pair(12, i) for i in range(600)]
    rng = rng_for(12, "hinge-oracle")
    hinges = [rand_hinge_pair(rng, 1 + i % 3, 3) for i in range(60)]
    pairs += [(prune(p.f), prune(p.h)) for p in hinges]
    for i, (fp, hp) in enumerate(pairs):
        got = is_min_convex(fp, hp)
        assert got == _three_stage_min_convex(fp, hp), (i, fp, hp)
        seen[f"dim-{fp.dim}"] += 1
        hull = min_convex_hull(fp, hp)
        seen["no-minorant" if hull is None else got] += 1
        union = set(fp.pieces) | set(hp.pieces)
        # Rejected by the gap pass rather than by the union check.
        seen["gap-reject"] += hull is not None and not got and set(hull.pieces) <= union
        seen["shared"] += bool(set(fp.pieces) & set(hp.pieces))
        seen["translate"] += ([a for a, _ in fp.pieces] == [a for a, _ in hp.pieces] and
                              len({b2 - b1 for (_, b1), (_, b2) in zip(fp.pieces, hp.pieces)}) == 1)
    for key in ("dim-1", "dim-2", "dim-3", True, False, "no-minorant", "gap-reject", "shared",
                "translate"):
        assert seen[key] >= 10, (key, seen)


def test_min_convex_hull_below_min_on_grid():
    hits = Counter()
    for i in range(60):
        fp, hp = _pair(13, i)
        if fp.dim == 3:
            continue
        hull = min_convex_hull(fp, hp)
        if hull is None:
            hits["no-minorant"] += 1
            continue
        convex = is_min_convex(fp, hp)
        hits[convex] += 1
        for x in grid_points(fp.dim, 2, 2):
            low = min(eval_all_pieces(fp.pieces, x), eval_all_pieces(hp.pieces, x))
            value = eval_all_pieces(hull.pieces, x)
            assert value <= low, (i, x)
            if convex:
                assert value == low, (i, x)
    assert hits[True] and hits[False] and hits["no-minorant"], hits
