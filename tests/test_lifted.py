"""Conjugation, floor maps, and exact min-convexity decisions.

The evaluation oracle used here is deliberately different from the library
route: the library evaluates floor maps by linear programming, while the
oracle below enumerates simplicial convex combinations (Caratheodory) and
solves each barycentric system by Gaussian elimination.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from convval import (
    MaxAffineFn,
    POS_INF,
    Q,
    add,
    conjugate,
    conjugate_cd,
    floor_map,
    is_min_convex,
    min_convex_hull,
    prune,
)
from convval import lifted
from convval.analysis import hinge_pair
from convval.errors import CapabilityLimit
from convval.generators import paraboloid_tangents
from convval.linalg import dot

from conftest import grid_points, hinge


def mf(dim, *pieces):
    return MaxAffineFn(dim, [(tuple(Q(v) for v in a), Q(b)) for a, b in pieces])


def conjugate_value_oracle(f, y):
    """min of sum lam_i * (-b_i) over convex combos of slopes hitting y.

    Enumerates all subsets of at most dim+1 pieces, solves the barycentric
    system exactly, and keeps the best nonnegative solution.  Returns POS_INF
    when no combination reaches y.
    """
    n = f.dim
    pieces = list(f.pieces)
    best = None
    for size in range(1, min(n + 1, len(pieces)) + 1):
        for subset in itertools.combinations(pieces, size):
            if size == 1:
                (a, b), = subset
                if tuple(a) == tuple(y):
                    val = -b
                    if best is None or val < best:
                        best = val
                continue
            # Barycentric system: rows are slope coordinates plus the
            # normalization row; square it by extending with zero columns is
            # not possible, so only solve when size == n+1 or the subset is
            # degenerate; smaller subsets are covered by padding with the
            # normalization trick below.
            rows = [[subset[j][0][k] for j in range(size)] for k in range(n)]
            rows.append([Q(1)] * size)
            rhs = [y[k] for k in range(n)] + [Q(1)]
            sol = _solve_rectangular(rows, rhs)
            if sol is None:
                continue
            if all(c >= 0 for c in sol):
                val = sum(-subset[j][1] * sol[j] for j in range(size))
                if best is None or val < best:
                    best = val
    return POS_INF if best is None else best


def _solve_rectangular(rows, rhs):
    """Solve an overdetermined exact system by elimination; None if none."""
    m, k = len(rows), len(rows[0])
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(k):
        piv = None
        for i in range(r, m):
            if aug[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Q(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                fct = aug[i][c]
                aug[i] = [v - fct * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    # Consistency: zero rows must have zero rhs.
    for i in range(r, m):
        if aug[i][k] != 0:
            return None
    if len(pivots) < k:
        # Underdetermined: pick the solution with free variables at zero.
        sol = [Q(0)] * k
        for i, c in enumerate(pivots):
            sol[c] = aug[i][k]
        # Verify, since free-zero may not satisfy skipped rows exactly.
        for i in range(m):
            if sum(rows[i][j] * sol[j] for j in range(k)) != rhs[i]:
                return None
        return sol
    sol = [Q(0)] * k
    for i, c in enumerate(pivots):
        sol[c] = aug[i][k]
    return sol


def test_conjugate_single_affine_piece():
    f = mf(2, ((3, -1), 5))
    g = conjugate(f)
    assert g.vertices == ((Q(3), Q(-1), Q(-5)),)
    assert g((Q(3), Q(-1))) == Q(-5)
    assert g((Q(0), Q(0))) is POS_INF


def test_conjugate_absolute_value():
    f = mf(1, ((1,), 0), ((-1,), 0))
    g = conjugate(f)
    assert g.vertices == ((Q(-1), Q(0)), (Q(1), Q(0)))
    for y in (Q(-1), Q(0), Q(1, 2), Q(1)):
        assert g((y,)) == Q(0)
    assert g((Q(3, 2),)) is POS_INF
    assert g((Q(-2),)) is POS_INF


def test_conjugate_two_slopes_interpolates():
    f = mf(1, ((1,), 0), ((2,), -1))
    g = conjugate(f)
    assert g((Q(1),)) == Q(0)
    assert g((Q(2),)) == Q(1)
    assert g((Q(3, 2),)) == Q(1, 2)
    assert g((Q(5, 4),)) == Q(1, 4)
    assert g((Q(0),)) is POS_INF


def test_involution_on_handpicked_functions():
    funcs = [
        mf(1, ((1,), 0), ((-1,), 0)),
        mf(1, ((0,), 0), ((1,), 0), ((Q(1, 2),), 0)),
        mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0)),
        mf(2, ((0, 0), -5), ((1, 1), -1), ((1, 0), 0), ((0, 1), 0)),
        mf(3, ((1, 0, 0), 0), ((0, 0, 0), 0)),
        hinge(2, axis=1, shift=Q(1, 2)),
    ]
    for f in funcs:
        assert conjugate_cd(conjugate(f)) == prune(f)


def test_involution_random_batch():
    rng = random.Random(20260819)
    for _ in range(60):
        dim = rng.randint(1, 3)
        count = rng.randint(1, 5)
        pieces = [
            (
                tuple(Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim)),
                Q(rng.randint(-6, 6), rng.randint(1, 3)),
            )
            for _ in range(count)
        ]
        f = MaxAffineFn(dim, pieces)
        assert conjugate_cd(conjugate(f)) == prune(f)


def test_conjugate_values_match_caratheodory_oracle():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(1, 2)
        count = rng.randint(1, 4)
        pieces = [
            (
                tuple(Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(dim)),
                Q(rng.randint(-4, 4), rng.randint(1, 2)),
            )
            for _ in range(count)
        ]
        f = MaxAffineFn(dim, pieces)
        g = conjugate(f)
        probes = [
            tuple(Q(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(dim))
            for _ in range(6)
        ]
        # Slopes themselves are always in the domain.
        probes.extend(a for a, _ in f.pieces)
        for y in probes:
            expected = conjugate_value_oracle(f, y)
            got = g(y)
            if expected is POS_INF:
                assert got is POS_INF
            else:
                assert got == expected


def test_fenchel_young_inequality_on_grid():
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    g = conjugate(f)
    for x in grid_points(2, 2, 1):
        for v in g.vertices:
            y, t = v[:2], v[2]
            # g(y) <= t at a lifted vertex; Fenchel-Young needs g(y) exactly.
            val = g(y)
            assert val is not POS_INF
            assert f(x) + val >= dot(y, x)


def test_conjugate_reverses_order():
    f = mf(1, ((1,), 0), ((-1,), 0))
    h = f.offset(Q(1))  # h = f + 1 >= f pointwise
    gf, gh = conjugate(f), conjugate(h)
    for y in (Q(-1), Q(0), Q(1)):
        assert gf((y,)) >= gh((y,))


def test_floor_map_of_triangle_is_zero_on_unit_interval():
    g = floor_map(1, [(0, 0), (1, 0), (0, 1)])
    assert g.vertices == ((Q(0), Q(0)), (Q(1), Q(0)))
    assert g((Q(1, 2),)) == Q(0)
    assert g((Q(0),)) == Q(0)
    assert g((Q(1),)) == Q(0)
    assert g((Q(-1, 4),)) is POS_INF
    assert g((Q(5, 4),)) is POS_INF


def test_floor_map_drops_non_lower_vertices_and_interior_points():
    g = floor_map(1, [(0, 0), (1, 0), (Q(1, 2), Q(0)), (Q(1, 2), Q(3))])
    assert g.vertices == ((Q(0), Q(0)), (Q(1), Q(0)))


def test_floor_map_equality_is_semantic():
    a = floor_map(1, [(0, 0), (1, 0), (Q(1, 2), Q(1))])
    b = floor_map(1, [(1, 0), (0, 0)])
    assert a == b
    assert hash(a) == hash(b)


def test_involution_other_direction_round_trip():
    g = floor_map(2, [(0, 0, 0), (1, 0, 1), (0, 1, -1), (1, 1, 5)])
    f = conjugate_cd(g)
    assert conjugate(f) == g


def test_is_min_convex_hinge_pair_true():
    f = mf(2, ((1, 0), -1), ((0, 0), 0))
    h = mf(2, ((-1, 0), 1), ((0, 0), 0))
    assert is_min_convex(f, h)
    hull = min_convex_hull(f, h)
    for x in grid_points(2, 2, 1):
        assert hull(x) == min(f(x), h(x)) == Q(0)


def test_is_min_convex_two_wells_false():
    f = mf(1, ((1,), 0), ((-1,), 0))  # |x|
    h = mf(1, ((1,), -2), ((-1,), 2))  # |x - 2|
    assert not is_min_convex(f, h)


def test_is_min_convex_same_function_true():
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    assert is_min_convex(f, f)
    assert min_convex_hull(f, f) == prune(f)


def test_is_min_convex_translate_true():
    # min(f, f + 1) = f, trivially convex.
    f = mf(1, ((1,), 0), ((-1,), 0))
    assert is_min_convex(f, f.offset(Q(1)))


def test_is_min_convex_skips_hull_pieces_and_stops_at_first_gap(monkeypatch):
    gaps = []
    real = lifted._gap_above_hull

    def counted(*args):
        gaps.append(real(*args))
        return gaps[-1]

    monkeypatch.setattr(lifted, "_gap_above_hull", counted)
    # min{f, f + 1} = f: every piece of f is a hull piece, so no pair has a gap.
    f = paraboloid_tangents(dim=2, grid=2)
    assert len(prune(f).pieces) >= 16
    assert is_min_convex(f, f.offset(Q(1)))
    assert gaps == []
    # min{f, h} rises along h from -1 until f caps it at 3, so the hull is the
    # constant -1; four pairs have no hull piece and the first has a gap.
    f = mf(1, ((-1,), 4), ((0,), 3))
    h = mf(1, ((0,), -1), ((2,), 0), ((3,), -2))
    assert min_convex_hull(f, h) == mf(1, ((0,), -1))
    assert not is_min_convex(f, h)
    assert len(gaps) == 1 and gaps[0] > 0


def test_gap_pass_refuses_past_its_budget_before_any_program(monkeypatch):
    # A hinge pair over 60 parabola pieces is min-convex, and 30 x 31 of its
    # piece pairs have no hull piece: past the budget of gap programs.
    base = MaxAffineFn(1, [((Q(i),), Q(-i * i, 2)) for i in range(60)])
    pair = hinge_pair(base, (Q(1),), Q(30), Q(1))

    def unreachable(*args):
        raise AssertionError("gap program issued")

    monkeypatch.setattr(lifted, "_gap_above_hull", unreachable)
    with pytest.raises(CapabilityLimit, match="930 programs, more than the supported 500"):
        is_min_convex(pair.f, pair.h)
    # The budget is the only thing in the way: at 930 the gap pass starts.
    monkeypatch.setattr(lifted, "MAX_GAP_PAIRS", 930)
    with pytest.raises(AssertionError, match="gap program issued"):
        is_min_convex(pair.f, pair.h)

def test_min_convex_hull_is_largest_convex_minorant():
    f = mf(1, ((1,), 0), ((-1,), 0))
    h = mf(1, ((1,), -2), ((-1,), 2))
    hull = min_convex_hull(f, h)
    # The hull must minorize both and agree with min at the two well bottoms.
    for x in grid_points(1, 4, 2):
        assert hull(x) <= f(x)
        assert hull(x) <= h(x)
    assert hull((Q(0),)) == Q(0)
    assert hull((Q(2),)) == Q(0)
    assert hull((Q(1),)) == Q(0)  # strictly below min(f,h)(1) = 1


def test_pos_inf_is_a_singleton_sentinel():
    assert POS_INF is type(POS_INF)()
    assert repr(POS_INF) == "+inf"


def test_lifted_polytope_validation():
    with pytest.raises(ValueError):
        floor_map(1, [])
    with pytest.raises(Exception):
        floor_map(1, [(0, 0, 0)])  # wrong arity for dim 1


rational = st.fractions(min_value=-4, max_value=4, max_denominator=2)


def qq(fr):
    return Q(fr.numerator, fr.denominator)


@st.composite
def random_fn(draw, max_dim=2):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    count = draw(st.integers(min_value=1, max_value=4))
    pieces = []
    for _ in range(count):
        a = tuple(qq(draw(rational)) for _ in range(dim))
        b = qq(draw(rational))
        pieces.append((a, b))
    return MaxAffineFn(dim, pieces)


@settings(max_examples=40, deadline=None)
@given(random_fn())
def test_involution_property(f):
    assert conjugate_cd(conjugate(f)) == prune(f)


@settings(max_examples=25, deadline=None)
@given(random_fn(max_dim=1))
def test_conjugate_of_sum_majorizes_infimal_convolution_pointwise(f):
    # (f + f)* evaluated at 2y equals 2 f*(y) for the diagonal probe, a
    # direct consequence of the scaling rules; checked at slope points.
    s = add(f, f)
    gs, gf = conjugate(s), conjugate(f)
    for a, _ in prune(f).pieces:
        y2 = tuple(2 * v for v in a)
        val = gs(y2)
        base = gf(a)
        assert val is not POS_INF and base is not POS_INF
        assert val == 2 * base
