"""Shared helpers for the test suite.

Exact-arithmetic oracles live here so the tests that use them stay short:
a brute-force grid evaluator for max-affine functions, a shoelace area
oracle, and a Caratheodory-style extremality oracle that decides hull
membership with determinants instead of the production LP route.  Rank and
solving come from the reference eliminations in elim_reference.py, not from
convval.linalg.
"""

import itertools

from convval import MaxAffineFn, Q
from convval.linalg import dot
from elim_reference import matrix_rank, solve_square


def grid_points(dim, radius=3, den=1):
    """All rational grid points with coordinates k/den, |k| <= radius*den."""
    rng = [Q(k, den) for k in range(-radius * den, radius * den + 1)]
    return [tuple(p) for p in itertools.product(rng, repeat=dim)]


def eval_all_pieces(pieces, x):
    """Direct evaluation of max over affine pieces, independent of MaxAffineFn."""
    return max(dot(a, x) + b for a, b in pieces)


def same_function_on_grid(f, pieces, radius=3, den=2):
    """Compare a MaxAffineFn against raw pieces on a rational grid."""
    for x in grid_points(f.dim, radius, den):
        if f(x) != eval_all_pieces(pieces, x):
            return False
    return True


def affinely_spans(points, dim):
    """True when the points affinely span dimension dim (rank check)."""
    if not points:
        return dim == 0
    base = points[0]
    rows = [[p[k] - base[k] for k in range(len(base))] for p in points[1:]]
    return matrix_rank(rows) == dim


def in_hull_caratheodory(point, generators, dim):
    """Decide point in conv(generators) by enumerating simplices.

    Caratheodory: a point of the hull lies in a simplex spanned by at most
    dim+1 of the generators.  For each affinely independent subset, solve the
    barycentric system exactly and accept when all coordinates are
    nonnegative.  Exponential, so only for small inputs; this is the
    independent oracle for the LP-based extreme-point filter.
    """
    pts = list(generators)
    for subset in itertools.combinations(pts, min(dim + 1, len(pts))):
        cols = list(subset)
        rows = [[Q(1)] * len(cols)]
        for k in range(dim):
            rows.append([v[k] for v in cols])
        rhs = [Q(1)] + [point[k] for k in range(dim)]
        if len(cols) < dim + 1:
            continue
        sol = solve_square([row[:] for row in rows], rhs[:])
        if sol is not None and all(c >= 0 for c in sol):
            return True
    # Degenerate inputs (fewer than dim+1 generators or flat sets) fall back
    # to a direct membership LP-free test: exact equality with a generator.
    return tuple(point) in {tuple(p) for p in pts}


def shoelace_area(vertices):
    """Exact area of a 2D convex polygon given in arbitrary vertex order."""
    if len(vertices) < 3:
        return Q(0)
    cx = sum(v[0] for v in vertices) / len(vertices)
    cy = sum(v[1] for v in vertices) / len(vertices)
    ordered = sorted(vertices, key=lambda v: _angular_rank(v, cx, cy))
    total = Q(0)
    m = len(ordered)
    for i in range(m):
        x1, y1 = ordered[i]
        x2, y2 = ordered[(i + 1) % m]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def _angular_rank(v, cx, cy):
    dx, dy = v[0] - cx, v[1] - cy
    if dx > 0 and dy >= 0:
        quad = 0
    elif dx <= 0 and dy > 0:
        quad = 1
    elif dx < 0 and dy <= 0:
        quad = 2
    else:
        quad = 3
    # Within a quadrant the slope dy/dx increases with the angle; the
    # vertical direction (dx = 0) opens quadrants 1 and 3, so it sorts first.
    slope = dy / dx if dx != 0 else -Q(10**9)
    return (quad, slope)


def hinge(dim, axis=0, shift=0):
    """max(x_axis - shift, 0) as a MaxAffineFn, a convenient test function."""
    a = [Q(0)] * dim
    a[axis] = Q(1)
    zero = tuple([Q(0)] * dim)
    return MaxAffineFn(dim, [(tuple(a), Q(-shift)), (zero, Q(0))])
