"""Lifted polytopes, Legendre-Fenchel conjugation, and the floor map.

A max-affine f corresponds to the polytope spanned by its lifted coefficient
points (a_i, -b_i) in one more dimension: the conjugate f* is the function
whose graph is the lower envelope of that polytope, finite exactly on the
convex hull of the slopes.  Conjugation is therefore a relabeling between
pruned piece lists and canonical lifted vertex sets, which is what makes the
involution hold with exact piece-list equality.

Evaluation of a floor map at a point is a small exact feasibility/optimum
problem over convex combinations of the lifted vertices; +infinity (outside
the shadow of the polytope) is reported by a sentinel object, never as an
arithmetic value.
"""

from itertools import combinations

from . import _simplex
from ._geometry import hrep_with_vertical_ray, vertices_of_hrep
from .errors import CapabilityLimit, DimensionMismatch
from .linalg import dot, solve_square
from .maxaffine import MAX_HULL_DIM, MaxAffineFn, extreme_indices, prune
from .rational import Q, rat_vector

_ZERO = Q(0)
_ONE = Q(1)


class _PositiveInfinity:
    """Sentinel for evaluation outside the effective domain."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+inf"

    def __bool__(self):
        return True


POS_INF = _PositiveInfinity()


class LiftedPolytope:
    """Canonical lower-envelope vertex set of a polytope in R^(n+1).

    dim is the dimension n of the floor map's domain; vertices are the
    (n+1)-tuples that are vertices of the lower convex envelope, in sorted
    order.  Two lifted polytopes with the same floor map compare equal.
    """

    __slots__ = ("dim", "vertices")

    def __init__(self, dim, vertices, _canonical=False):
        if dim < 1:
            raise DimensionMismatch(f"domain dimension must be positive, got {dim}")
        if dim > MAX_HULL_DIM:
            raise CapabilityLimit(
                f"lifted hulls are supported through domain dimension {MAX_HULL_DIM}, got {dim}"
            )
        pts = [rat_vector(v) for v in vertices]
        if not pts:
            raise ValueError("a lifted polytope needs at least one vertex")
        for p in pts:
            if len(p) != dim + 1:
                raise DimensionMismatch(
                    f"lifted vertex has length {len(p)}, expected {dim + 1}"
                )
        if not _canonical:
            pts = sorted(set(pts))
            pts = [pts[i] for i in extreme_indices(pts, ray=True)]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertices", tuple(sorted(pts)))

    def __setattr__(self, name, value):
        raise AttributeError("LiftedPolytope is immutable")

    def __reduce__(self):
        return (LiftedPolytope, (self.dim, self.vertices, True))

    def evaluate(self, x):
        """Floor map: least height of the polytope above x, or POS_INF."""
        x = rat_vector(x)
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has length {len(x)}, expected {self.dim}")
        verts = self.vertices
        rows = [[v[k] for v in verts] for k in range(self.dim)]
        rows.append([_ONE] * len(verts))
        rhs = list(x) + [_ONE]
        cost = [v[self.dim] for v in verts]
        status, value, _ = _simplex.solve_eq(rows, rhs, cost)
        if status == _simplex.INFEASIBLE:
            return POS_INF
        return value

    __call__ = evaluate

    def __eq__(self, other):
        return (
            isinstance(other, LiftedPolytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        return f"LiftedPolytope(dim={self.dim}, vertices={[tuple(map(str, v)) for v in self.vertices]})"


def floor_map(dim, vertices):
    """Canonicalize a raw vertex list to its lower-envelope representative."""
    return LiftedPolytope(dim, vertices)


def conjugate(f):
    """Legendre-Fenchel transform of a max-affine function.

    The conjugate of max_i <a_i, x> + b_i is the floor map of the polytope
    spanned by the points (a_i, -b_i): finite on conv{a_i}, +inf outside.
    """
    f = prune(f)
    return LiftedPolytope(
        f.dim, [a + (-b,) for a, b in f.pieces], _canonical=True
    )


def conjugate_cd(g):
    """Conjugate of a floor map, landing back in max-affine form.

    Each canonical lifted vertex (v, t) contributes the piece <v, x> - t.
    For g = conjugate(f) this returns prune(f) with exact piece equality.
    """
    return MaxAffineFn(g.dim, [(v[: g.dim], -v[g.dim]) for v in g.vertices])


def _epigraph_hrep(f):
    """H-representation of the epigraph of f* in R^(n+1)."""
    pts = [a + (-b,) for a, b in prune(f).pieces]
    return hrep_with_vertical_ray(pts)


def min_convex_hull(f, h):
    """Largest convex minorant of min{f, h} as a max-affine function.

    Computed on the conjugate side: the epigraph of max{f*, h*} is the
    intersection of two lifted epigraphs, and its vertices are the pieces of
    the hull.  Returns None when min{f, h} has no affine minorant at all
    (the conjugate domains do not meet).
    """
    if f.dim != h.dim:
        raise DimensionMismatch(f"dimensions {f.dim} and {h.dim} differ")
    n = f.dim
    ineq_f, eq_f = _epigraph_hrep(f)
    ineq_h, eq_h = _epigraph_hrep(h)
    verts = vertices_of_hrep(ineq_f + ineq_h, eq_f + eq_h, n + 1)
    if not verts:
        return None
    return prune(MaxAffineFn(n, [(v[:n], -v[n]) for v in verts]))


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
                inv = _ONE / lead
                walls.add((tuple(c * inv for c in coeffs), rhs * inv))

    add_pairs(f.pieces, f.pieces)
    add_pairs(h.pieces, h.pieces)
    add_pairs(f.pieces, h.pieces)
    return sorted(walls)


def _arrangement_vertices(walls, n):
    points = set()
    for comb in combinations(walls, n):
        rows = [c for c, _ in comb]
        rhs = [r for _, r in comb]
        sol = solve_square(rows, rhs)
        if sol is not None:
            points.add(sol)
    return sorted(points)


def is_min_convex(f, h):
    """Decide exactly whether min{f, h} is convex.

    Three stages, each exact: the convex minorant's pieces must come from the
    union of the operands' pieces; the minorant must agree with min{f, h} at
    every vertex of the common wall arrangement; and a final certificate pass
    confirms no point has both operands strictly above the minorant, which
    also covers arrangements whose cells have no vertices.
    """
    if f.dim != h.dim:
        raise DimensionMismatch(f"dimensions {f.dim} and {h.dim} differ")
    hull = min_convex_hull(f, h)
    if hull is None:
        return False
    fp = prune(f)
    hp = prune(h)
    union = set(fp.pieces) | set(hp.pieces)
    if any(piece not in union for piece in hull.pieces):
        return False
    n = f.dim
    for x in _arrangement_vertices(_wall_hyperplanes(fp, hp), n):
        if min(fp(x), hp(x)) != hull(x):
            return False
    # Certificate: sup over x of min over hull pieces of
    # min(f_q - hull_p, h_r - hull_p) must be <= 0 for every (q, r).
    for aq, bq in fp.pieces:
        for ar, br in hp.pieces:
            if _gap_above_hull(aq, bq, ar, br, hull, n) > 0:
                return False
    return True


def _gap_above_hull(aq, bq, ar, br, hull, n):
    """max delta s.t. some x has f_q, h_r both >= hull + delta (capped at 1).

    Linear program in x (free, split into x+ - x-) and delta (free, split),
    with one slack per hull piece and a cap row keeping the value finite.
    """
    pieces = hull.pieces
    m = len(pieces)
    # Columns: x+ (n), x- (n), d+, d-, slacks for f-rows (m), slacks for
    # h-rows (m), slack for the cap row.
    ncols = 2 * n + 2 + 2 * m + 1
    rows = []
    rhs = []
    for ap, bp in pieces:
        row = [_ZERO] * ncols
        for k in range(n):
            row[k] = aq[k] - ap[k]
            row[n + k] = -(aq[k] - ap[k])
        row[2 * n] = -_ONE
        row[2 * n + 1] = _ONE
        rows.append(row)
        rhs.append(bp - bq)
    for ap, bp in pieces:
        row = [_ZERO] * ncols
        for k in range(n):
            row[k] = ar[k] - ap[k]
            row[n + k] = -(ar[k] - ap[k])
        row[2 * n] = -_ONE
        row[2 * n + 1] = _ONE
        rows.append(row)
        rhs.append(bp - br)
    for i in range(2 * m):
        rows[i][2 * n + 2 + i] = -_ONE
    cap = [_ZERO] * ncols
    cap[2 * n] = _ONE
    cap[2 * n + 1] = -_ONE
    cap[-1] = _ONE
    rows.append(cap)
    rhs.append(_ONE)
    cost = [_ZERO] * ncols
    cost[2 * n] = -_ONE
    cost[2 * n + 1] = _ONE
    status, value, _ = _simplex.solve_eq(rows, rhs, cost)
    if status != _simplex.OPTIMAL:
        raise AssertionError(f"gap program unexpectedly {status}")
    return -value
