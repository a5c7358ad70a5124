"""Reference hull code, independent of convval._geometry._supporting_hyperplanes.

These are the routines the package used before facets and lifted
H-representations shared one supporting-hyperplane search, and before
Polytope took its extreme points through one filter at every affine rank:
facet enumeration with its own one-dimensional case, the lifted
H-representation with its two candidate loops (floor facets, then vertical
walls) and its one-dimensional chart case, and the chart detour for sets of
deficient affine rank.  `all_others_filter` is the extreme-point filter from
before it became output-sensitive: it tests every uncertified point against
all the other points, one LP each.  The bodies are kept as they were, apart
from reading the verdict out of feasible_eq's (verdict, certificate) pair;
`polytope_vertices` is the old canonicalization of Polytope.__init__, around
them.  `cyclic_order` and `_area_vector` are the angular sort and shoelace
sum that gave facet and flat area vectors before every such measure came
from _geometry.volume; `facet_area_vectors` and `flat_area_vector` are the
old polytopes functions around them, sign fix included.  `triangulate`
and `volume` are the simplex triangulation and determinant sum that gave
every volume before the facet recursion _geometry._lattice_volume, here
over this module's facet_enum and elim_reference.int_det;
`shadow_area_vector` is the old polytopes._area_vector around them.  The
differential tests in test_hull.py and test_integer_paths.py compare the
package with them.
"""

import math

from itertools import combinations
from operator import mul

from convval import _simplex
from convval._geometry import Chart, _cross_normal, _primitive, affine_rank, primitive_row
from convval.errors import CapabilityLimit
from convval.linalg import dot, int_scaled, nullspace, vneg, vsub
from convval.maxaffine import _int_directions
from convval.rational import Q, rat_vector
from elim_reference import int_det

_ZERO = Q(0)
_ONE = Q(1)

MAX_FACET_CANDIDATES = 100_000


def facet_enum(points, d):
    """Facets of the convex hull of a full-dimensional point set.

    Returns a list of (normal, support) pairs where normal is a primitive
    integer outward normal and support is the frozenset of indices of input
    points lying on the facet.  Exhaustive supporting-hyperplane search over
    d-subsets; exact, and quadratic work per candidate hyperplane.  Raises
    CapabilityLimit when there are more than MAX_FACET_CANDIDATES subsets
    to try.
    """
    count = math.comb(len(points), d)
    if count > MAX_FACET_CANDIDATES:
        raise CapabilityLimit(
            f"facet enumeration would try {count} point subsets, "
            f"more than the supported {MAX_FACET_CANDIDATES}"
        )
    ints, _ = int_scaled(points)
    m = len(ints)
    if d == 1:
        vals = [p[0] for p in ints]
        lo, hi = min(vals), max(vals)
        if lo == hi:
            raise ValueError("facet enumeration requires a full-dimensional set")
        return [
            ((1,), frozenset(i for i, v in enumerate(vals) if v == hi)),
            ((-1,), frozenset(i for i, v in enumerate(vals) if v == lo)),
        ]
    found = {}
    for comb in combinations(range(m), d):
        base = ints[comb[0]]
        vectors = [tuple(ints[i][j] - base[j] for j in range(d)) for i in comb[1:]]
        normal = _cross_normal(vectors, d)
        if normal is None:
            continue
        offset = sum(n * v for n, v in zip(normal, base))
        pos = neg = False
        for p in ints:
            s = sum(n * v for n, v in zip(normal, p)) - offset
            if s > 0:
                pos = True
            elif s < 0:
                neg = True
            if pos and neg:
                break
        if pos and neg:
            continue
        if pos:
            normal = tuple(-n for n in normal)
            offset = -offset
        normal = _primitive(normal)
        offset = sum(n * v for n, v in zip(normal, base))
        key = (normal, offset)
        if key in found:
            continue
        support = frozenset(
            i for i, p in enumerate(ints) if sum(n * v for n, v in zip(normal, p)) == offset
        )
        found[key] = support
    return [(normal, support) for (normal, _), support in found.items()]


def hrep_with_vertical_ray(points):
    """H-representation of conv(points) + the upward ray in the last coordinate.

    Returns (inequalities, equalities), each a list of (coeffs, rhs) meaning
    <coeffs, x> <= rhs (== for equalities), in ambient coordinates.  Works for
    point sets of any affine dimension via an exact chart.
    """
    d = len(points[0])
    ray = tuple([_ZERO] * (d - 1) + [_ONE])
    chart = Chart(points, rays=[ray])
    eqs = chart.equalities()
    k = chart.dim
    chart_pts = [chart.coords_of_point(p) for p in points]
    chart_ray = chart.coords_of_direction(ray)
    ineqs = []
    seen = set()

    def emit(coeffs, rhs):
        key = primitive_row(coeffs, rhs)
        if key in seen:
            return
        seen.add(key)
        amb, amb_rhs = chart.lift_inequality(coeffs, rhs)
        ineqs.append((amb, amb_rhs))

    if k == 1:
        # A single lifted point plus the ray: one floor inequality.
        vals = [p[0] for p in chart_pts]
        r = chart_ray[0]
        if r > 0:
            emit((-_ONE,), -min(vals))
        else:
            emit((_ONE,), max(vals))
        return ineqs, eqs

    scaled_pts, _ = int_scaled(chart_pts)
    iray = int_scaled([chart_ray])[0][0]
    m = len(scaled_pts)

    # Candidate facets spanned by k points (floor facets, must respect the
    # ray) and by k-1 points plus the ray (vertical walls).
    for comb in combinations(range(m), k):
        base = scaled_pts[comb[0]]
        vectors = [tuple(scaled_pts[i][j] - base[j] for j in range(k)) for i in comb[1:]]
        normal = _cross_normal(vectors, k)
        if normal is None:
            continue
        vals = [sum(n * v for n, v in zip(normal, p)) for p in scaled_pts]
        ref = sum(n * v for n, v in zip(normal, base))
        if any(v > ref for v in vals) and any(v < ref for v in vals):
            continue
        if any(v > ref for v in vals):
            normal = tuple(-n for n in normal)
        ray_side = sum(n * v for n, v in zip(normal, iray))
        if ray_side > 0:
            if any(v != ref for v in vals):
                continue
            # All points on the plane; the other orientation is the valid one.
            normal = tuple(-n for n in normal)
        qnormal = tuple(Q(n) for n in normal)
        emit(qnormal, max(dot(qnormal, p) for p in chart_pts))
    for comb in combinations(range(m), k - 1):
        if not comb:
            continue
        base = scaled_pts[comb[0]]
        vectors = [tuple(scaled_pts[i][j] - base[j] for j in range(k)) for i in comb[1:]]
        vectors.append(iray)
        normal = _cross_normal(vectors, k)
        if normal is None:
            continue
        vals = [sum(n * v for n, v in zip(normal, p)) for p in scaled_pts]
        ref = sum(n * v for n, v in zip(normal, base))
        if any(v > ref for v in vals) and any(v < ref for v in vals):
            continue
        if all(v == ref for v in vals):
            continue
        if any(v > ref for v in vals):
            normal = tuple(-n for n in normal)
        qnormal = tuple(Q(n) for n in normal)
        emit(qnormal, max(dot(qnormal, p) for p in chart_pts))
    return ineqs, eqs


def all_others_filter(points, ray=False):
    """Indices of the extreme points of a deduplicated point list in R^n.

    A point is extreme iff it is not a convex combination of the others,
    plus nonnegative upward slack in the last coordinate when ray is set
    (then the extreme points are the lower-hull vertices).  Cheap
    certificates first (the unique maximizer of a fixed direction is
    extreme), then one exact feasibility problem per remaining point.  Both
    run on the points scaled to integers by their common denominator d.
    Every LP row, the ones row and the slack entry included, is the rational
    row times d, so each LP takes the rational LP's pivot path.
    """
    m = len(points)
    if m == 1:
        return [0]
    n = len(points[0])
    ints, d = int_scaled(points)
    certified = set()
    for y in _int_directions(n, ray):
        best = None
        best_i = -1
        tie = False
        for i, p in enumerate(ints):
            val = sum(map(mul, y, p))
            if best is None or val > best:
                best, best_i, tie = val, i, False
            elif val == best:
                tie = True
        if not tie:
            certified.add(best_i)
    free = n - 1 if ray else n
    slack = [0] if ray else []
    kept = []
    for i in range(m):
        if i in certified:
            kept.append(i)
            continue
        others = ints[:i] + ints[i + 1 :]
        rows = [[p[k] for p in others] + slack for k in range(free)]
        rows.append([d] * (m - 1) + slack)
        rhs = list(ints[i][:free]) + [d]
        if ray:
            rows.append([p[-1] for p in others] + [d])
            rhs.append(ints[i][-1])
        if not _simplex.feasible_eq(rows, rhs)[0]:
            kept.append(i)
    return kept


def _lower_rank_extremes(pts, rank):
    """Extreme points of a set whose affine hull has deficient dimension."""
    chart = Chart(pts)
    coords = [chart.coords_of_point(p) for p in pts]
    kept = all_others_filter(coords)
    return [pts[i] for i in kept]


def polytope_vertices(dim, vertices):
    """The sorted extreme points Polytope(dim, vertices) kept before."""
    pts = sorted(set(tuple(Q(v) for v in p) for p in vertices))
    if len(pts) > 1:
        rank = affine_rank(pts)
        if rank == 0:
            pts = pts[:1]
        elif rank == dim:
            pts = [pts[i] for i in all_others_filter(pts)]
        else:
            pts = _lower_rank_extremes(pts, rank)
    return tuple(sorted(pts))


def cyclic_order(points2d):
    """Indices of planar points in counterclockwise order around their mean.

    The points are assumed to lie on the boundary of a convex polygon whose
    mean is interior, which makes the angular order strict and exact.
    """
    m = len(points2d)
    cx = sum((p[0] for p in points2d), _ZERO) / m
    cy = sum((p[1] for p in points2d), _ZERO) / m

    def half(i):
        dx = points2d[i][0] - cx
        dy = points2d[i][1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cross(i, j):
        dxi = points2d[i][0] - cx
        dyi = points2d[i][1] - cy
        dxj = points2d[j][0] - cx
        dyj = points2d[j][1] - cy
        return dxi * dyj - dyi * dxj

    import functools

    def cmp(i, j):
        hi, hj = half(i), half(j)
        if hi != hj:
            return -1 if hi < hj else 1
        c = cross(i, j)
        if c > 0:
            return -1
        if c < 0:
            return 1
        return 0

    return sorted(range(m), key=functools.cmp_to_key(cmp))


def _area_vector(pts, normal):
    """Normal scaled by the (dim-1)-volume of a flat convex piece (sign arbitrary).

    In dimension 2 the piece is the segment between pts[0] and pts[-1]; in
    dimension 3 it is the polygon on pts, in a plane with the given normal,
    and the vector is its shoelace sum, taken in the cyclic order of the
    points projected along a nonzero coordinate of the normal.
    """
    if len(pts[0]) == 2:
        d = vsub(pts[-1], pts[0])
        return (d[1], -d[0])
    k = next(j for j, v in enumerate(normal) if v != 0)
    ring = [pts[i] for i in cyclic_order([p[:k] + p[k + 1 :] for p in pts])]
    sx = sy = sz = _ZERO
    for i in range(len(ring)):
        a = ring[i]
        b = ring[(i + 1) % len(ring)]
        sx += a[1] * b[2] - a[2] * b[1]
        sy += a[2] * b[0] - a[0] * b[2]
        sz += a[0] * b[1] - a[1] * b[0]
    return (sx / 2, sy / 2, sz / 2)


def facet_area_vectors(K):
    """Outward facet area vectors of a full-dimensional body, in facet order."""
    out = []
    verts = K.vertices
    for normal, support in K.facets():
        vec = _area_vector([verts[i] for i in sorted(support)], normal)
        side = dot(vec, rat_vector(normal))
        if side < 0:
            vec = vneg(vec)
        elif side == 0:
            raise AssertionError("degenerate facet area vector")
        out.append(vec)
    return out


def flat_area_vector(K):
    """Area vector of a body of affine dimension dim-1 (sign arbitrary)."""
    verts = list(K.vertices)
    normal = None
    if K.dim == 3:
        normal = nullspace([vsub(p, verts[0]) for p in verts[1:]], 3)[0]
    return _area_vector(verts, normal)


def _drop_coordinate(p, k):
    return p[:k] + p[k + 1 :]


def triangulate(points, d):
    """Index simplices covering the hull of a full-dimensional point set.

    Pyramids from the lexicographically smallest point over a recursive
    triangulation of every facet not containing it.
    """
    if d == 1:
        lo = min(range(len(points)), key=lambda i: points[i][0])
        hi = max(range(len(points)), key=lambda i: points[i][0])
        return [(lo, hi)]
    apex = min(range(len(points)), key=lambda i: points[i])
    simplices = []
    for normal, support in facet_enum(points, d):
        if apex in support:
            continue
        k = next(j for j, v in enumerate(normal) if v != 0)
        sub_idx = sorted(support)
        sub_pts = [_drop_coordinate(points[i], k) for i in sub_idx]
        for simplex in triangulate(sub_pts, d - 1):
            simplices.append((apex,) + tuple(sub_idx[j] for j in simplex))
    return simplices


def volume(points, d):
    """Exact d-volume of the convex hull; zero when lower-dimensional.

    In dimension one the hull is an interval and its length is max - min.
    """
    if d == 1:
        return max(p[0] for p in points) - min(p[0] for p in points)
    if len(points) <= d or affine_rank(points) < d:
        return _ZERO
    ints, denom = int_scaled(points)
    total = 0
    for simplex in triangulate(points, d):
        base = ints[simplex[0]]
        rows = [tuple(ints[i][j] - base[j] for j in range(d)) for i in simplex[1:]]
        total += abs(int_det(rows))
    return Q(total, math.factorial(d) * denom**d)


def shadow_area_vector(pts, normal):
    """Normal scaled by the (dim-1)-volume of a flat convex piece with that normal.

    Take a coordinate k with normal[k] != 0.  The piece's shadow with
    coordinate k dropped has |normal[k]| / |normal| times the piece's
    volume, so the area vector is normal times the shadow's volume over
    |normal[k]|: the normal's length cancels and the value stays rational.
    """
    k = next(j for j, v in enumerate(normal) if v != 0)
    shadow = volume([p[:k] + p[k + 1 :] for p in pts], len(normal) - 1)
    ratio = shadow / abs(normal[k])
    return tuple(ratio * v for v in normal)
