"""Integer fast paths against the plain Fraction formulas they replace.

`MaxAffineFn.evaluate` and `Polytope.support` work on integer images of the
coefficients; `extreme_indices` runs its certificates and LP rows on points
scaled to integers.  Here each is compared with the rational formula (and
with the conftest oracles) over seeded inputs: dimensions 1-4, non-integer
points, tied certificate maxima, duplicate slopes, lower-rank sets and
single points.  For the filter the reference is the rational filter itself,
with every LP it solves logged, so the test also pins down that the same
points reach the same LPs, row for row up to the common scale.
"""

import itertools
import random

import pytest

from convval import MaxAffineFn, Polytope, Q
from convval import _simplex
from convval.linalg import dot
from convval.maxaffine import _certify_directions, extreme_indices

from conftest import affinely_spans, eval_all_pieces, in_hull_caratheodory

_ONE = Q(1)
_FEASIBLE_EQ = _simplex.feasible_eq


def rq(rng, num=6, den=4):
    return Q(rng.randint(-num, num), rng.randint(1, den))


def rpoint(rng, dim, num=6, den=4):
    return tuple(rq(rng, num, den) for _ in range(dim))


def reference_filter(points, ray, lp):
    """The rational filter: Fraction certificates, then one LP per point."""
    m = len(points)
    if m == 1:
        return [0]
    n = len(points[0])
    free = n - 1 if ray else n
    certified = set()
    for y in _certify_directions(free):
        if ray:
            y = y + (-_ONE,)
        vals = [dot(y, p) for p in points]
        top = max(vals)
        if vals.count(top) == 1:
            certified.add(vals.index(top))
    kept = []
    for i in range(m):
        if i in certified:
            kept.append(i)
            continue
        others = points[:i] + points[i + 1 :]
        slack = [Q(0)] if ray else []
        rows = [[p[k] for p in others] + slack for k in range(free)]
        rows.append([_ONE] * len(others) + slack)
        rhs = list(points[i][:free]) + [_ONE]
        if ray:
            rows.append([p[-1] for p in others] + [_ONE])
            rhs.append(points[i][-1])
        if not lp(rows, rhs):
            kept.append(i)
    return kept


def logged(calls):
    def lp(rows, rhs):
        verdict = _FEASIBLE_EQ(rows, rhs)
        calls.append((rows, rhs, verdict))
        return verdict

    return lp


def assert_same_filter(points, ray, monkeypatch):
    ref_calls, calls = [], []
    expected = reference_filter(points, ray, logged(ref_calls))
    with monkeypatch.context() as mp:
        mp.setattr(_simplex, "feasible_eq", logged(calls))
        got = extreme_indices(points, ray=ray)
    assert got == expected
    assert len(calls) == len(ref_calls)
    for (rows, rhs, verdict), (ref_rows, ref_rhs, ref_verdict) in zip(calls, ref_calls):
        assert verdict == ref_verdict
        # Every row, the ones row included, is the rational row times one d.
        d = rhs[-2] if ray else rhs[-1]
        assert all(type(v) is int for row in rows for v in row + rhs)
        assert rows == [[v * d for v in row] for row in ref_rows]
        assert rhs == [v * d for v in ref_rhs]
    return got


# -- MaxAffineFn.evaluate -------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_evaluate_matches_fraction_formula(dim):
    rng = random.Random(7100 + dim)
    for _ in range(60):
        pieces = [(rpoint(rng, dim), rq(rng)) for _ in range(rng.randint(1, 7))]
        # Duplicate slopes with different offsets, and a duplicated piece.
        a, b = pieces[0]
        pieces += [(a, b + rq(rng)), (a, b)]
        f = MaxAffineFn(dim, pieces)
        for _ in range(8):
            x = rpoint(rng, dim, 9, 7)
            got = f.evaluate(x)
            assert type(got) is Q
            assert got == eval_all_pieces(pieces, x)
            assert got == max(sum(ak * xk for ak, xk in zip(a, x)) + b for a, b in f.pieces)


def test_evaluate_integer_inputs_strings_and_ties():
    f = MaxAffineFn(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), "1/2"), ((0, 1), "-3")])
    for x, want in [((0, 0), Q(1, 2)), ((1, 0), Q(1)), (("-5/2", "1/3"), Q(5, 2)), ((0, "1/2"), Q(1))]:
        got = f(x)
        assert type(got) is Q and got == want
    big = MaxAffineFn(1, [((Q(10**30, 7),), Q(-1, 10**20))])
    x = (Q(7, 3),)
    assert big(x) == Q(10**30, 7) * x[0] - Q(1, 10**20)


def test_evaluate_cache_is_not_part_of_the_value():
    f = MaxAffineFn(2, [((Q(1, 2), 0), Q(1, 3)), ((0, -1), 0)])
    g = MaxAffineFn(2, [((0, -1), 0), ((Q(1, 2), 0), Q(1, 3))])
    f((1, 1))
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)


# -- Polytope.support ---------------------------------------------------


def support_cases(dim, rng):
    yield Polytope(dim, [rpoint(rng, dim)])  # a single point
    line = [rpoint(rng, dim), rpoint(rng, dim)]
    yield Polytope(dim, line + [tuple((p + q) / 2 for p, q in zip(*line))])
    if dim >= 3:
        # Lower rank: points on a plane through three random points.
        base = [rpoint(rng, dim) for _ in range(3)]
        pts = []
        for _ in range(6):
            s, t = rq(rng), rq(rng)
            pts.append(tuple(a + s * (b - a) + t * (c - a) for a, b, c in zip(*base)))
        yield Polytope(dim, base + pts)
    for _ in range(6):
        yield Polytope(dim, [rpoint(rng, dim) for _ in range(dim + 1 + rng.randint(0, 6))])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_support_matches_fraction_formula(dim):
    rng = random.Random(7200 + dim)
    for K in support_cases(dim, rng):
        for _ in range(10):
            u = rpoint(rng, dim, 9, 7)
            got = K.support(u)
            assert type(got) is Q
            assert got == max(dot(u, v) for v in K.vertices)
        assert K.support((0,) * dim) == 0


def test_support_of_a_tied_face():
    cube = Polytope(3, list(itertools.product((0, Q(1, 3)), repeat=3)))
    assert cube.support((1, 0, 0)) == Q(1, 3)
    assert cube.support(("-1/2", "1/2", 2)) == Q(5, 6)


# -- the extreme-point filter ---------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_filter_matches_rational_filter_and_caratheodory(dim, monkeypatch):
    rng = random.Random(7300 + dim)
    checked = 0
    for _ in range(12):
        pts = sorted({rpoint(rng, dim) for _ in range(dim + 2 + rng.randint(0, 4))})
        got = assert_same_filter(pts, False, monkeypatch)
        for i, p in enumerate(pts):
            others = pts[:i] + pts[i + 1 :]
            if affinely_spans(others, dim):
                assert (i in got) == (not in_hull_caratheodory(p, others, dim))
                checked += 1
    assert checked > 40


def test_filter_with_every_certificate_tied(monkeypatch):
    # A 3x3 grid: every axis direction has three maximizers, so the edge
    # midpoints and the centre can only be settled by LPs.
    pts = sorted({(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)})
    pts = [tuple(Q(v) for v in p) for p in pts]
    calls = []
    with monkeypatch.context() as mp:
        mp.setattr(_simplex, "feasible_eq", logged(calls))
        kept = extreme_indices(pts)
    assert [pts[i] for i in kept] == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    settled = {tuple(Q(v, rhs[-1]) for v in rhs[:-1]) for _, rhs, _ in calls}
    assert {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)} <= settled
    assert_same_filter(pts, False, monkeypatch)


def test_filter_lower_rank_and_single_point(monkeypatch):
    assert extreme_indices([(Q(1, 3), Q(2))]) == [0]
    assert extreme_indices([(Q(1, 3), Q(2), Q(0))], ray=True) == [0]
    rng = random.Random(7400)
    for dim in (2, 3, 4):
        for _ in range(6):
            a, b, c = rpoint(rng, dim), rpoint(rng, dim), rpoint(rng, dim)
            # Collinear points: sorted, so the segment's ends come first and last.
            line = sorted({tuple(p + s * (q - p) for p, q in zip(a, b)) for s in [rq(rng, 3, 3) for _ in range(5)]})
            got = assert_same_filter(line, False, monkeypatch)
            assert got == sorted({0, len(line) - 1})
            # Coplanar points.
            plane = {tuple(p + s * (q - p) + t * (r - p) for p, q, r in zip(a, b, c))
                     for s, t in [(rq(rng, 3, 3), rq(rng, 3, 3)) for _ in range(7)]}
            assert_same_filter(sorted(plane), False, monkeypatch)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_lifted_filter_matches_rational_filter_and_caratheodory(dim, monkeypatch):
    rng = random.Random(7500 + dim)
    checked = 0
    for _ in range(10):
        pts = {rpoint(rng, dim + 1) for _ in range(dim + 1 + rng.randint(0, 2))}
        # Duplicate slopes: equal a-parts at different heights.
        a = min(pts)[:dim]
        pts |= {a + (rq(rng),), a + (rq(rng),)}
        pts = sorted(pts)
        got = assert_same_filter(pts, True, monkeypatch)
        # A lower-hull vertex is outside the hull of the others and of
        # itself raised: p = q + s e with s >= 0 iff p is in that hull.
        for i, p in enumerate(pts):
            others = pts[:i] + pts[i + 1 :] + [p[:dim] + (p[dim] + 1,)]
            if affinely_spans(others, dim + 1):
                assert (i in got) == (not in_hull_caratheodory(p, others, dim + 1))
                checked += 1
        for i in got:
            assert pts[i][-1] == min(q[-1] for q in pts if q[:dim] == pts[i][:dim])
    assert checked > 40


def test_lifted_filter_keeps_the_lowest_of_equal_slopes(monkeypatch):
    pts = sorted((Q(a), Q(t)) for a, t in [(0, 0), (0, 1), (0, -2), (1, 5), (1, 3), (-1, 4)])
    got = assert_same_filter(pts, True, monkeypatch)
    assert [pts[i] for i in got] == [(-1, 4), (0, -2), (1, 3)]
