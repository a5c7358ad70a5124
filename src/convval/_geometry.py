"""Exact polyhedral geometry helpers.

Everything operates on tuples of rationals.  Predicates (hyperplane sides,
determinant signs) run on integer-rescaled copies of the input so the inner
loops stay in machine-friendly integer arithmetic; measured quantities
(volumes, area vectors) are returned in the original coordinates.  Every
elimination (determinants, the chart's basis and coordinate rows, candidate
vertex systems) is the one fraction-free kernel, linalg.int_rref.  Vertex
enumeration is fraction-free from start to finish: each row is scaled once
to a primitive integer row, every candidate system is solved by int_solve,
and only the accepted vertices are turned into rationals.

The algorithms are exhaustive rather than incremental: supporting-hyperplane
search over point subsets for facets, recursive facet pyramids for volume,
active-set enumeration for the vertices of an H-polyhedron.  Inputs in this
package stay small (dimension at most four plus one lifted coordinate, a few
dozen points), where exhaustive exact search is both simple and fast enough.
"""

import math

from itertools import combinations
from operator import mul

from .errors import CapabilityLimit
from .linalg import (dot, int_rref, int_scaled, matrix_rank, nullspace, pivot_columns,
                     solve_square, vsub)
from .rational import Q

_ZERO = Q(0)
_ONE = Q(1)


def int_det(rows):
    """Determinant of a small square integer matrix."""
    n = len(rows)
    pivots, _, den, sign = int_rref(rows, n)
    return sign * den if len(pivots) == n else 0


def _cross_normal(vectors, d):
    """Integer normal orthogonal to d-1 integer vectors in Z^d, or None.

    The cofactor vector (entry k is (-1)^k times the minor without column k)
    from one reduction.  With the vectors independent there is one free
    column fc; the minor without it is sign * den, and the cofactor vector
    is that multiple of the nullspace vector the reduced rows give.
    """
    pivots, rows, den, sign = int_rref(vectors, d)
    if len(pivots) < d - 1:
        return None
    fc = next(c for c in range(d) if c not in pivots)
    s = -sign if fc % 2 else sign
    normal = [0] * d
    normal[fc] = s * den
    for row, pc in zip(rows, pivots):
        normal[pc] = -s * row[fc]
    return tuple(normal)


def _primitive(coeffs):
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(int(c)))
    if g in (0, 1):
        return tuple(int(c) for c in coeffs)
    return tuple(int(c) // g for c in coeffs)


def affine_rank(points):
    """Dimension of the affine hull of a point set."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return matrix_rank([vsub(p, base) for p in points[1:]])


# Most point subsets facet_enum will try (35-40 us each for 40 points in
# 3-D or 24 in 4-D, so a few seconds).  The tests reach at most 2,024 (24
# points in 3-D), the classical workload 286 and query 120; thm-a and
# transform make no call.
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
    """Exact d-volume of the convex hull; zero when lower-dimensional."""
    if len(points) <= d or affine_rank(points) < d:
        return _ZERO
    ints, denom = int_scaled(points)
    total = 0
    for simplex in triangulate(points, d):
        base = ints[simplex[0]]
        rows = [tuple(ints[i][j] - base[j] for j in range(d)) for i in simplex[1:]]
        total += abs(int_det(rows))
    return Q(total, math.factorial(d) * denom**d)


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


class Chart:
    """Exact affine chart onto the affine hull of a point set (plus rays).

    Maps between ambient coordinates and coordinates with respect to a basis
    of hull directions, and lifts chart inequalities back to ambient ones.
    """

    def __init__(self, points, rays=()):
        self.origin = points[0]
        d = len(self.origin)
        dirs = [vsub(p, self.origin) for p in points[1:]] + [tuple(r) for r in rays]
        # Independent directions, then coordinate rows of the basis matrix
        # (an exact left inverse for consistent systems): pivot columns.
        self.basis = [dirs[c] for c in pivot_columns(list(zip(*dirs)), len(dirs))]
        self.dim = len(self.basis)
        self.ambient_dim = d
        self.rows_used = pivot_columns(self.basis, d)
        self._square = [[vec[j] for vec in self.basis] for j in self.rows_used]

    def coords_of_direction(self, vec):
        rhs = [vec[j] for j in self.rows_used]
        sol = solve_square(self._square, rhs)
        if sol is None:
            raise ValueError("direction outside the chart span")
        return sol

    def coords_of_point(self, p):
        return self.coords_of_direction(vsub(p, self.origin))

    def equalities(self):
        """Ambient equalities cutting out the affine hull."""
        if self.dim == self.ambient_dim:
            return []
        comp = nullspace(self.basis, self.ambient_dim)
        return [(c, dot(c, self.origin)) for c in comp]

    def lift_inequality(self, coeffs, rhs):
        """Chart-space <coeffs, xi> <= rhs to an ambient inequality."""
        # Solve square^T y = coeffs, then scatter y onto the used rows.
        square_t = [[self._square[r][c] for r in range(self.dim)] for c in range(self.dim)]
        y = solve_square(square_t, list(coeffs))
        amb = [_ZERO] * self.ambient_dim
        for pos, j in enumerate(self.rows_used):
            amb[j] = y[pos]
        return tuple(amb), rhs + dot(tuple(amb), self.origin)


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


def primitive_row(coeffs, rhs):
    """The pair (coeffs, rhs) as one primitive integer row coeffs + (rhs,).

    The scale factor is positive, so an inequality keeps its direction.
    """
    (row,), _ = int_scaled([tuple(coeffs) + (rhs,)])
    return _primitive(row)


def int_solve(rows, d):
    """Unique solution of the integer system [a | b] (a.x = b) in d unknowns.

    The reduced right-hand sides over the last pivot (int_rref) are the
    solution.  Returns (nums, den) in lowest terms with den > 0, the point
    nums / den, or None when the rows have rank below d or the system is
    inconsistent.
    """
    pivots, work, den, _ = int_rref(rows, d)
    if len(pivots) < d or any(row[d] for row in work[d:]):
        return None
    nums = [row[d] for row in work[:d]]
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [v // g for v in nums]
    return tuple(nums), den // g


# Most active sets vertices_of_hrep will enumerate (a few seconds of work).
# The tests and the benchmark workloads reach at most 560; a 25-piece by
# 9-piece planar min-convex pair reaches 17,296.
MAX_HREP_CANDIDATES = 200_000


def vertices_of_hrep(ineqs, eqs, d):
    """Vertices of {x : ineqs hold as <=, eqs hold as ==}.

    Active-set enumeration: every vertex is the unique solution of the
    equalities plus some choice of tight inequalities.  Exhaustive and exact;
    intended for small systems.  Every row is scaled once to a primitive
    integer row; each candidate system is solved fraction-free and tested
    as row . nums <= rhs * den, and only the vertices become rationals.
    Raises CapabilityLimit when there are more than MAX_HREP_CANDIDATES
    active sets to try.
    """
    eq_rank = matrix_rank([list(c) for c, _ in eqs]) if eqs else 0
    need = d - eq_rank
    if need < 0:
        return []
    count = math.comb(len(ineqs), need)
    if count > MAX_HREP_CANDIDATES:
        raise CapabilityLimit(
            f"vertex enumeration would try {count} active sets, "
            f"more than the supported {MAX_HREP_CANDIDATES}"
        )
    eq_rows = [primitive_row(c, b) for c, b in eqs]
    rows = [primitive_row(c, b) for c, b in ineqs]
    found = set()
    for subset in combinations(rows, need):
        sol = int_solve(eq_rows + list(subset), d)
        if sol is None or sol in found:
            continue
        nums, den = sol
        for row in rows:
            if sum(map(mul, row, nums)) > row[d] * den:
                break
        else:
            found.add(sol)
    return sorted(tuple(Q(x, den) for x in nums) for nums, den in found)
