"""Integer fast paths against the plain Fraction formulas they replace.

`MaxAffineFn.evaluate`, `Polytope.support`, the difference-body support and
`projection_body_support` work on integer images of the coefficients;
`extreme_indices` runs its certificates and LP rows on points scaled to
integers.  Here each is compared with the rational formula (and with the
conftest oracles) over seeded inputs: dimensions 1-4, non-integer points,
tied certificate maxima, duplicate slopes, lower-rank sets and single
points.  The Monte Carlo shadow estimate is compared with the plain loop it
replaced, which must count the same hits from the same stream.

For the filter there are two references.  The rational filter tests every
uncertified point against all the others; its integer form, the filter the
package used before it became output-sensitive, is kept as
`hull_reference.all_others_filter`, and the two are checked against each
other LP by LP, row for row up to the common scale.  `extreme_indices`,
which tests each point against the extreme points found so far, must keep
exactly the indices they keep, and its LPs must stay output-sized.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from convval import MaxAffineFn, Polytope, Q, difference_body_support, projection_body_support
from convval import _simplex
from convval._geometry import affine_rank
from convval.generators import rand_polytope, rng_for
from convval.linalg import dot, int_scaled, nullspace, unit_vector, vadd, vneg, vsub
from convval.maxaffine import _certify_directions, _int_directions, extreme_indices
from convval.polytopes import _flat_area_vector, difference_body, facet_area_vectors
from convval.suites import _polygon_halfplanes, mc_projection_area

from conftest import affinely_spans, eval_all_pieces, in_hull_caratheodory, shoelace_area
from hull_reference import all_others_filter, polytope_vertices

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
        if not lp(rows, rhs)[0]:
            kept.append(i)
    return kept


def logged(calls):
    """feasible_eq, recording (rows, rhs, verdict) for every call."""

    def lp(rows, rhs):
        result = _FEASIBLE_EQ(rows, rhs)
        calls.append((rows, rhs, result[0]))
        return result

    return lp


def assert_same_filter(points, ray, monkeypatch):
    """extreme_indices keeps what both all-others filters keep.

    The integer all-others filter must issue the rational filter's LPs one
    for one, each row the rational row times one common d.
    """
    ref_calls, calls = [], []
    expected = reference_filter(points, ray, logged(ref_calls))
    with monkeypatch.context() as mp:
        mp.setattr(_simplex, "feasible_eq", logged(calls))
        assert all_others_filter(points, ray=ray) == expected
    assert len(calls) == len(ref_calls)
    for (rows, rhs, verdict), (ref_rows, ref_rhs, ref_verdict) in zip(calls, ref_calls):
        assert verdict == ref_verdict
        # Every row, the ones row included, is the rational row times one d.
        d = rhs[-2] if ray else rhs[-1]
        assert all(type(v) is int for row in rows for v in row + rhs)
        assert rows == [[v * d for v in row] for row in ref_rows]
        assert rhs == [v * d for v in ref_rhs]
    got = extreme_indices(points, ray=ray)
    assert got == expected
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


def probe_faced(dim, ray):
    """Points on which no certificate direction has a unique maximizer.

    All subset sums of a few generators (a zonotope with its inner points),
    each generator orthogonal to dim + ray - 1 of the certificate
    directions: every direction is maximized on a face that holds a segment
    along some generator, so on at least two of the sums.
    """
    n = dim + ray
    probes = [list(map(Q, y)) for y in _int_directions(n, ray)]
    gens = {nullspace(probes[k : k + n - 1], n)[0] for k in range(0, len(probes), n - 1)}
    pts = {(Q(0),) * n}
    for g in gens:
        pts |= {vadd(p, g) for p in pts}
    return pts


def filter_case(k):
    """The k-th seeded point set: dims 1-4 in turn, every other pair with the ray."""
    rng = rng_for(7900, "filter", k)
    dim = 1 + k % 4
    ray = k // 4 % 2 == 1
    n = dim + ray
    shape = rng.choice(("random", "random", "grid", "flat", "single"))
    if k < 8 and n > 1:
        pts = probe_faced(dim, ray)
    elif shape == "single":
        pts = {rpoint(rng, n)}
    elif shape == "grid":
        pts = {tuple(Q(rng.randint(-1, 1)) for _ in range(n)) for _ in range(rng.randint(3, 12))}
    elif shape == "flat":
        a, b, c = rpoint(rng, n), rpoint(rng, n), rpoint(rng, n)
        if rng.random() < 0.5:
            c = a
        pts = {tuple(p + s * (q - p) + t * (r - p) for p, q, r in zip(a, b, c))
               for s, t in [(rq(rng, 3, 3), rq(rng, 3, 3)) for _ in range(rng.randint(2, 8))]}
    else:
        pts = {rpoint(rng, n) for _ in range(rng.randint(2, 10))}
    if ray and rng.random() < 0.3:
        # Equal slopes: one point again at other heights.
        p = rng.choice(sorted(pts))
        pts |= {p[:-1] + (p[-1] + rq(rng),) for _ in range(2)}
    return sorted(pts), ray


def certified_indices(ints, ray):
    """The points some certificate direction maximizes uniquely."""
    certified = set()
    for y in _int_directions(len(ints[0]), ray):
        vals = [dot(y, p) for p in ints]
        if vals.count(max(vals)) == 1:
            certified.add(vals.index(max(vals)))
    return certified


def filter_kinds(pts, ray, kept):
    """Which of the filter's special cases the point set exercises."""
    if len(pts) == 1:
        return {"single-point"}
    kinds = set()
    certified = certified_indices(int_scaled(pts)[0], ray)
    if not certified:
        kinds.add("all-tied")
    if set(kept) - certified:
        kinds.add("no-certificate")
    if affine_rank(pts) < len(pts[0]):
        kinds.add("lower-rank")
    if ray and len({p[:-1] for p in pts}) < len(pts):
        kinds.add("equal-slopes")
    return kinds


def test_filter_matches_all_others_filter_on_seeded_sets():
    kinds = Counter()
    for k in range(3000):
        pts, ray = filter_case(k)
        kept = extreme_indices(pts, ray=ray)
        assert kept == all_others_filter(pts, ray=ray), (pts, ray)
        kinds.update(filter_kinds(pts, ray, kept))
        kinds[f"dim-{len(pts[0]) - ray}-ray-{ray}"] += 1
    assert kinds["all-tied"] >= 7, kinds
    for key in ("no-certificate", "lower-rank", "single-point", "equal-slopes"):
        assert kinds[key] >= 300, (key, kinds)
    assert min(kinds[f"dim-{d}-ray-{r}"] for d in range(1, 5) for r in (False, True)) >= 350, kinds


def output_sensitive_cases(dim, rng):
    """Seeded n^2 candidate sets: difference bodies, and lifted sums with the ray."""
    for _ in range(3):
        K = Polytope(dim, [rpoint(rng, dim, 30, 4) for _ in range(12)])
        yield sorted({vsub(u, v) for u in K.vertices for v in K.vertices}), False
    for _ in range(2):
        f, h = [[rpoint(rng, dim, 12, 3) for _ in range(8)] for _ in range(2)]
        yield sorted({vadd(p, q) for p in f for q in h}), True


@pytest.mark.parametrize("dim", [3, 4])
def test_filter_lps_are_output_sized(dim, monkeypatch):
    rng = rng_for(7950, "output-sensitive", dim)
    for pts, ray in output_sensitive_cases(dim, rng):
        calls = []
        with monkeypatch.context() as mp:
            mp.setattr(_simplex, "feasible_eq", logged(calls))
            kept = extreme_indices(pts, ray=ray)
        ints, d = int_scaled(pts)
        free = len(pts[0]) - ray
        vertices = {ints[i][:free] + (d,) + ints[i][free:] for i in kept}
        uncertified = len(pts) - len(certified_indices(ints, ray))
        assert len(kept) < uncertified
        # One LP per uncertified point, not one per point and vertex found:
        # a vertex that an LP's certificate finds is spared its own.
        assert len(calls) == uncertified
        for rows, rhs, _ in calls:
            # Every column but the slack is a vertex found so far.
            columns = list(zip(*rows))
            if ray:
                assert columns.pop() == (0,) * free + (0, d)
            assert len(columns) <= len(kept)
            assert set(columns) <= vertices


def test_difference_body_vertices_match_all_others_filter():
    rng = rng_for(7960, "difference-body")
    K = Polytope(3, [rpoint(rng, 3, 30, 4) for _ in range(20)])
    sums = [vadd(u, vneg(v)) for u in K.vertices for v in K.vertices]
    body = difference_body(K)
    assert body.vertices == polytope_vertices(3, sums)
    assert len(body.vertices) > len(K.vertices)


# -- projection and difference bodies -----------------------------------


def body_cases(dim, rng):
    """Bodies of every affine rank in dim, from non-integer points."""
    yield Polytope(dim, [rpoint(rng, dim)])
    a, b = rpoint(rng, dim), rpoint(rng, dim)
    while a == b:
        b = rpoint(rng, dim)
    yield Polytope(dim, [a, b, tuple((p + 2 * q) / 3 for p, q in zip(a, b))])
    if dim == 3:
        for _ in range(4):
            base = [rpoint(rng, 3) for _ in range(3)]
            if not affinely_spans(base, 2):
                continue
            pts = [tuple(p + s * (q - p) + t * (r - p) for p, q, r in zip(*base))
                   for s, t in [(rq(rng, 3, 3), rq(rng, 3, 3)) for _ in range(5)]]
            yield Polytope(3, base + pts)
    for _ in range(8):
        pts = [rpoint(rng, dim) for _ in range(dim + 1 + rng.randint(0, 6))]
        if affinely_spans(pts, dim):
            yield Polytope(dim, pts)


def projection_formula(K, u):
    """Cauchy's formula over the rational area vectors."""
    rank = K.affine_dim()
    if rank == K.dim:
        return sum((abs(dot(u, w)) for w in facet_area_vectors(K)), Q(0)) / 2
    if rank == K.dim - 1:
        return abs(dot(u, _flat_area_vector(K)))
    return Q(0)


def axis_shadow(K, axis):
    """(dim-1)-volume of K's shadow beside one axis, from its vertices."""
    pts = [v[:axis] + v[axis + 1 :] for v in K.vertices]
    if K.dim == 2:
        return max(pts)[0] - min(pts)[0]
    return shoelace_area(list(Polytope(2, pts).vertices))


@pytest.mark.parametrize("dim", [2, 3])
def test_projection_body_support_matches_fraction_formula(dim):
    rng = random.Random(7600 + dim)
    ranks = set()
    for K in body_cases(dim, rng):
        ranks.add(K.affine_dim())
        for _ in range(10):
            u = rpoint(rng, dim, 9, 7)
            got = projection_body_support(K, u)
            assert type(got) is Q
            assert got == projection_formula(K, u)
        for axis in range(dim):
            got = projection_body_support(K, unit_vector(dim, axis))
            assert type(got) is Q
            assert got == axis_shadow(K, axis)
        assert projection_body_support(K, (0,) * dim) == 0
    assert ranks == set(range(dim + 1))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_difference_support_matches_two_supports(dim):
    rng = random.Random(7700 + dim)
    for K in support_cases(dim, rng):
        for _ in range(10):
            u = rpoint(rng, dim, 9, 7)
            got = difference_body_support(K, u)
            assert type(got) is Q
            assert got == max(dot(u, v) for v in K.vertices) + max(-dot(u, v) for v in K.vertices)
            assert got == K.support(u) + K.support(tuple(-x for x in u))


# -- the Monte Carlo shadow oracle --------------------------------------


def reference_mc(P, axis, samples, rng, pad=0.125):
    """The loop mc_projection_area replaced: all() over the planes per sample."""
    pts = [tuple(v[j] for j in range(P.dim) if j != axis) for v in P.vertices]
    shadow = Polytope(2, pts)
    planes = [(float(n[0]), float(n[1]), float(off)) for n, off in _polygon_halfplanes(shadow)]
    xs = [float(p[0]) for p in pts]
    ys = [float(p[1]) for p in pts]
    lo_x, hi_x = min(xs) - pad, max(xs) + pad
    lo_y, hi_y = min(ys) - pad, max(ys) + pad
    hits = 0
    for _ in range(samples):
        px = lo_x + rng.random() * (hi_x - lo_x)
        py = lo_y + rng.random() * (hi_y - lo_y)
        if all(a * px + b * py <= off + 1e-12 for a, b, off in planes):
            hits += 1
    return hits / samples * (hi_x - lo_x) * (hi_y - lo_y)


def test_mc_projection_area_matches_reference_loop():
    rng = rng_for(7800, "mc-bodies")
    for k in range(6):
        P = rand_polytope(rng, 3)
        for axis in range(3):
            path = f"mc/{k}/{axis}"
            got = mc_projection_area(P, axis, 3000, random.Random(path))
            assert got == reference_mc(P, axis, 3000, random.Random(path))
            assert got > 0


class Replay:
    """A stream of chosen values in [0, 1) in place of random.Random."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def draw_past(edge, lo, width, step):
    """The draw r nearest the edge with lo + r * width strictly past it."""
    r = (edge - lo) / width
    while (lo + r * width - edge) * step <= 0:
        r = math.nextafter(r, step)
    assert abs(lo + r * width - edge) < 1e-15
    return r


def test_mc_projection_area_keeps_the_boundary_tolerance():
    # Samples one float step outside each side of the unit square shadow,
    # well inside the 1e-12 tolerance: the old loop counts all of them.
    cube = Polytope(3, list(itertools.product((0, 1), repeat=3)))
    lo, width = -0.125, 1.25
    draws = []
    for edge, step in [(0.0, -1.0), (1.0, 1.0)]:
        outside = draw_past(edge, lo, width, step)
        draws += [outside, 0.5, 0.5, outside]
    draws += [0.99, 0.5]  # well outside: a miss
    samples = len(draws) // 2
    got = mc_projection_area(cube, 0, samples, Replay(draws))
    assert got == reference_mc(cube, 0, samples, Replay(draws))
    assert got == 4 / samples * width * width
