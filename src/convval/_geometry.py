"""Exact polyhedral geometry helpers.

Everything operates on tuples of rationals.  Predicates (hyperplane sides)
and measures run on integer-rescaled copies of the input so the inner loops
stay in machine-friendly integer arithmetic; volumes are returned in the
original coordinates.  Every elimination (facet normals, the chart's basis
and coordinate rows, candidate vertex systems) is the one fraction-free
kernel, linalg.int_rref.  Vertex enumeration is fraction-free from start to
finish: each row is scaled once to a primitive integer row, every candidate
system is solved by int_solve, and only the accepted vertices are turned
into rationals.

The algorithms are exhaustive rather than incremental: one
supporting-hyperplane search over generator subsets (_supporting_hyperplanes)
for both the facets of a hull and the lifted H-representation of a hull plus
a vertical ray, the facet recursion (_lattice_volume: one lattice pyramid
per facet, no triangulation) for every volume and area vector, active-set
enumeration for the vertices of an H-polyhedron.  Both enumerations raise
CapabilityLimit past a candidate budget (MAX_FACET_CANDIDATES hyperplanes,
MAX_HREP_CANDIDATES active sets).  Inputs in this package stay small
(dimension at most four plus one lifted coordinate, a few dozen points),
where exhaustive exact search is both simple and fast enough.
"""

import math

from itertools import combinations
from operator import mul, sub

from .errors import CapabilityLimit
from .linalg import (dot, int_rref, int_scaled, matrix_rank, nullspace, pivot_columns,
                     solve_square, unit_vector, vsub)
from .rational import Q

_ZERO = Q(0)
_ONE = Q(1)


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


# Most candidate hyperplanes _supporting_hyperplanes will try (35-40 us each
# for 40 points in 3-D or 24 in 4-D, so a few seconds).  The tests reach at
# most 2,600 (25 lifted points and the ray in 3-D), the classical workload
# 364, query 120 and transform 35; thm-a makes no call.
MAX_FACET_CANDIDATES = 100_000


def _supporting_hyperplanes(points, d, ray=None):
    """Supporting hyperplanes of conv(points) + the ray, spanned by generators.

    Each candidate is d generators, at least one a point, scaled to integers
    by one common denominator; it is kept when every point lies on one
    closed side and the ray points into that side.  Returns (ints, den,
    planes): the scaled points, the denominator, and the distinct (primitive
    outward normal, offset) pairs in the order found, <normal, p> <= offset
    for every scaled point p.  Raises CapabilityLimit past
    MAX_FACET_CANDIDATES candidates, and ValueError when a candidate holds
    every generator (they are not full-dimensional).
    """
    gens = list(points) if ray is None else [*points, ray]
    count = math.comb(len(gens), d)
    if count > MAX_FACET_CANDIDATES:
        raise CapabilityLimit(
            f"supporting-hyperplane search would try {count} candidates, "
            f"more than the supported {MAX_FACET_CANDIDATES}"
        )
    gens, den = int_scaled(gens)
    m = len(points)
    ints = gens[:m]
    found = {}
    for comb in combinations(range(len(gens)), d):
        if comb[0] == m:
            continue
        base = gens[comb[0]]
        vectors = [gens[i] if i == m else tuple(map(sub, gens[i], base)) for i in comb[1:]]
        normal = _cross_normal(vectors, d)
        if normal is None:
            continue
        offset = sum(map(mul, normal, base))
        pos = neg = False
        for p in ints:
            s = sum(map(mul, normal, p)) - offset
            if s > 0:
                pos = True
            elif s < 0:
                neg = True
            if pos and neg:
                break
        if pos and neg:
            continue
        ray_side = sum(map(mul, normal, gens[m])) if ray is not None else 0
        if not (pos or neg):
            if not ray_side:
                raise ValueError("the points are not full-dimensional")
            pos = ray_side > 0
        elif ray_side and (ray_side > 0) != pos:
            continue
        if pos:
            normal = tuple(-n for n in normal)
        normal = _primitive(normal)
        found.setdefault((normal, sum(map(mul, normal, base))), None)
    return ints, den, list(found)


def facet_enum(points, d):
    """Facets of the convex hull of a full-dimensional point set.

    Returns a list of (normal, support) pairs where normal is a primitive
    integer outward normal and support is the frozenset of indices of input
    points lying on the facet.  The facets are the hyperplanes
    _supporting_hyperplanes finds over d-subsets of the points.  Raises
    CapabilityLimit past MAX_FACET_CANDIDATES subsets, and ValueError when
    the points are not full-dimensional.
    """
    ints, _, planes = _supporting_hyperplanes(points, d)
    if not planes:
        raise ValueError("the points are not full-dimensional")
    return [
        (normal, frozenset(i for i, p in enumerate(ints) if sum(map(mul, normal, p)) == offset))
        for normal, offset in planes
    ]


def _lattice_volume(points, d):
    """d! times the d-volume of the hull of full-dimensional integer points.

    For d = 1 the hull is an interval and this is max - min.  For d > 1 it
    is the facet recursion (Lasserre; Büeler, Enge & Fukuda 2000): one
    pyramid from the lexicographically smallest point p0, a vertex, over
    every facet F not containing it.  With n the facet's primitive outward
    normal, v any point of F and k a coordinate with n[k] != 0, the
    pyramid's term is <n, v - p0> * _lattice_volume(shadow_k(F), d - 1)
    // |n[k]|, where shadow_k drops coordinate k.  The shadow has
    |n[k]| / |n| times the facet's (d-1)-volume and the pyramid's height is
    <n, v - p0> / |n|, so the term is d! times the pyramid's volume.  The
    pyramid has integer vertices, so d! times its volume is an integer and
    the // is exact.
    """
    if d == 1:
        return max(p[0] for p in points) - min(p[0] for p in points)
    p0 = min(points)
    total = 0
    for normal, support in facet_enum(points, d):
        face = [points[i] for i in support]
        height = sum(map(mul, normal, face[0])) - sum(map(mul, normal, p0))
        if height:
            k = next(j for j, v in enumerate(normal) if v != 0)
            shadow = [p[:k] + p[k + 1 :] for p in face]
            total += height * _lattice_volume(shadow, d - 1) // abs(normal[k])
    return total


def volume(points, d):
    """Exact d-volume of the convex hull; zero when lower-dimensional."""
    if len(points) <= d or affine_rank(points) < d:
        return _ZERO
    ints, den = int_scaled(points)
    return Q(_lattice_volume(ints, d), math.factorial(d) * den**d)


def area_vector(points, normal):
    """Normal scaled by the (d-1)-volume of a flat convex piece with that normal.

    Take a coordinate k with normal[k] != 0.  The piece's shadow with
    coordinate k dropped has |normal[k]| / |normal| times the piece's
    volume, so the area vector is normal times the shadow's volume over
    |normal[k]|: the normal's length cancels and the value stays rational.
    The shadow of a piece spanning a hyperplane is full-dimensional, so no
    rank test is needed.
    """
    d = len(normal)
    k = next(j for j, v in enumerate(normal) if v != 0)
    ints, den = int_scaled([p[:k] + p[k + 1 :] for p in points])
    scale = Q(_lattice_volume(ints, d - 1), math.factorial(d - 1) * den ** (d - 1)) / abs(normal[k])
    return tuple(scale * v for v in normal)


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
        # The basis on the used rows is square and invertible.  Its inverse,
        # solved once column by column and kept as integer rows over one
        # denominator, serves every coordinate and every lift.
        square = [[vec[j] for vec in self.basis] for j in self.rows_used]
        cols = [solve_square(square, unit_vector(self.dim, k)) for k in range(self.dim)]
        self._inv, self._den = int_scaled(list(zip(*cols)))

    def coords_of_direction(self, vec):
        (v,), dv = int_scaled([[vec[j] for j in self.rows_used]])
        den = self._den * dv
        return tuple(Q(sum(map(mul, row, v)), den) for row in self._inv)

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
        # y = inverse^T coeffs, scattered onto the used rows.
        (c,), dc = int_scaled([coeffs])
        den = self._den * dc
        amb = [_ZERO] * self.ambient_dim
        for pos, j in enumerate(self.rows_used):
            amb[j] = Q(sum(row[pos] * ci for row, ci in zip(self._inv, c)), den)
        return tuple(amb), rhs + dot(tuple(amb), self.origin)


def hrep_with_vertical_ray(points):
    """H-representation of conv(points) + the upward ray in the last coordinate.

    Returns (inequalities, equalities), each a list of (coeffs, rhs) meaning
    <coeffs, x> <= rhs (== for equalities), in ambient coordinates.  Works for
    point sets of any affine dimension via an exact chart: the inequalities
    are the chart's supporting hyperplanes (_supporting_hyperplanes over the
    chart points and the chart ray), lifted back.  Raises CapabilityLimit
    when there are more than MAX_FACET_CANDIDATES candidates.
    """
    d = len(points[0])
    ray = tuple([_ZERO] * (d - 1) + [_ONE])
    chart = Chart(points, rays=[ray])
    chart_pts = [chart.coords_of_point(p) for p in points]
    _, den, planes = _supporting_hyperplanes(chart_pts, chart.dim, chart.coords_of_direction(ray))
    ineqs = [chart.lift_inequality(normal, Q(offset, den)) for normal, offset in planes]
    return ineqs, chart.equalities()


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
