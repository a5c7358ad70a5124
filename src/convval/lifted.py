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

Min-convexity of a pair is decided in two exact stages against the largest
convex minorant of min{f, h}: a fast reject when a minorant piece is no
piece of f or h, then one gap program per piece pair that asks whether both
pieces rise strictly above the minorant somewhere.
"""

from . import _simplex
from ._geometry import hrep_with_vertical_ray, vertices_of_hrep
from .errors import CapabilityLimit, DimensionMismatch
from .maxaffine import MAX_HULL_DIM, MaxAffineFn, extreme_indices, prune
from .rational import Q, rat_vector

_ZERO = Q(0)
_ONE = Q(1)

# The gap pass solves up to one program per pair of non-hull pieces of f and h.
MAX_GAP_PAIRS = 500


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
    """H-representation of the epigraph of f* in R^(n+1), for a pruned f."""
    return hrep_with_vertical_ray([a + (-b,) for a, b in f.pieces])


def min_convex_hull(f, h):
    """Largest convex minorant of min{f, h} as a max-affine function.

    Computed on the conjugate side: the epigraph of max{f*, h*} is the
    intersection of two lifted epigraphs, and its vertices are the pieces of
    the hull.  Returns None when min{f, h} has no affine minorant at all
    (the conjugate domains do not meet).
    """
    if f.dim != h.dim:
        raise DimensionMismatch(f"dimensions {f.dim} and {h.dim} differ")
    return _hull_of_pruned(prune(f), prune(h))


def _hull_of_pruned(fp, hp):
    """min_convex_hull of two pruned operands of the same dimension."""
    n = fp.dim
    ineq_f, eq_f = _epigraph_hrep(fp)
    ineq_h, eq_h = _epigraph_hrep(hp)
    verts = vertices_of_hrep(ineq_f + ineq_h, eq_f + eq_h, n + 1)
    if not verts:
        return None
    return prune(MaxAffineFn(n, [(v[:n], -v[n]) for v in verts]))


def is_min_convex(f, h):
    """Decide exactly whether min{f, h} is convex.

    min{f, h} is convex exactly when it equals its largest convex minorant,
    the hull.  Two stages, each exact: the hull's pieces must come from the
    union of the operands' pieces; and no piece pair (q, r) of f and h may
    have a positive gap, a point where f_q and h_r both lie strictly above
    the hull.  The hull is below min{f, h} everywhere, and min{f, h} exceeds
    it at x exactly when the pieces active at x have such a gap, so the gap
    pass alone decides.  A pair in which q or r is a hull piece has no gap
    and needs no program.  Raises CapabilityLimit, before any gap program,
    when more than MAX_GAP_PAIRS pairs would need one.
    """
    if f.dim != h.dim:
        raise DimensionMismatch(f"dimensions {f.dim} and {h.dim} differ")
    fp = prune(f)
    hp = prune(h)
    return _is_min_convex_pruned(fp, hp, _hull_of_pruned(fp, hp))


def _is_min_convex_pruned(fp, hp, hull):
    """is_min_convex for pruned operands, given their _hull_of_pruned."""
    if hull is None:
        return False
    on_hull = set(hull.pieces)
    if not on_hull <= set(fp.pieces) | set(hp.pieces):
        return False
    # For a hull piece q the row p = q of the gap program forces delta <= 0.
    f_off = [q for q in fp.pieces if q not in on_hull]
    h_off = [r for r in hp.pieces if r not in on_hull]
    pairs = len(f_off) * len(h_off)
    if pairs > MAX_GAP_PAIRS:
        raise CapabilityLimit(
            f"the min-convexity gap pass would solve up to {pairs} programs, "
            f"more than the supported {MAX_GAP_PAIRS}"
        )
    for aq, bq in f_off:
        for ar, br in h_off:
            if _gap_above_hull(aq, bq, ar, br, hull, fp.dim) > 0:
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
    for a, b in ((aq, bq), (ar, br)):
        for ap, bp in pieces:
            row = [_ZERO] * ncols
            for k in range(n):
                row[k] = a[k] - ap[k]
                row[n + k] = -(a[k] - ap[k])
            row[2 * n] = -_ONE
            row[2 * n + 1] = _ONE
            row[2 * n + 2 + len(rows)] = -_ONE
            rows.append(row)
            rhs.append(bp - b)
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
