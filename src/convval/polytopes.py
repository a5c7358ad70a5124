"""Exact convex polytopes: hulls, Minkowski bodies, volumes, projections.

A Polytope stores the canonical V-representation (extreme points, sorted),
so structural equality is set equality of vertices.  Dimensions run up to
four for hull/volume work and up to three where facet area vectors are
involved, matching what the rest of the package needs; larger inputs are
refused loudly.

Support functions are first-class here: Minkowski sums, difference bodies
and projection bodies all evaluate exactly through supports, which keeps
identity checks cheap and independent of hull enumeration.
"""

from itertools import combinations
from operator import mul

from ._geometry import affine_rank, area_vector, facet_enum, volume as _hull_volume
from .errors import CapabilityLimit, DimensionMismatch
from .linalg import dot, int_scaled, nullspace, vadd, vneg, vsub
from .maxaffine import extreme_indices
from .rational import Q, rat, rat_vector

MAX_DIM = 4
AREA_VECTOR_DIMS = (2, 3)


class Polytope:
    """Convex polytope in canonical V-representation.

    `_cache` keeps derived data, such as the vertices scaled to integers by
    one common denominator; it takes no part in equality, hashing, printing
    or pickling.
    """

    __slots__ = ("dim", "vertices", "_cache")

    def __init__(self, dim, vertices, _canonical=False):
        if dim < 1:
            raise DimensionMismatch(f"dimension must be positive, got {dim}")
        if dim > MAX_DIM:
            raise CapabilityLimit(f"polytopes are supported through dimension {MAX_DIM}, got {dim}")
        pts = [rat_vector(v) for v in vertices]
        if not pts:
            raise ValueError("a polytope needs at least one point")
        for p in pts:
            if len(p) != dim:
                raise DimensionMismatch(f"point has length {len(p)}, expected {dim}")
        if not _canonical:
            pts = sorted(set(pts))
            pts = [pts[i] for i in extreme_indices(pts)]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vertices", tuple(sorted(pts)))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Polytope is immutable")

    def __reduce__(self):
        return (Polytope, (self.dim, self.vertices, True))

    @classmethod
    def hull(cls, points, dim=None):
        points = list(points)
        if not points:
            raise ValueError("hull of an empty point set")
        if dim is None:
            dim = len(points[0])
        return cls(dim, points)

    def support(self, u):
        """Support function value max_{v in K} <u, v>."""
        dots, den = self._int_dots(u)
        return Q(max(dots), den)

    def _int_dots(self, u):
        """(<u, v> * den for every vertex v, as integers; den)."""
        u = rat_vector(u)
        if len(u) != self.dim:
            raise DimensionMismatch(f"direction has length {len(u)}, expected {self.dim}")
        if "ints" not in self._cache:
            self._cache["ints"] = int_scaled(self.vertices)
        verts, den = self._cache["ints"]
        (ui,), du = int_scaled([u])
        return [sum(map(mul, ui, v)) for v in verts], den * du

    def translate(self, z):
        z = rat_vector(z)
        return Polytope(self.dim, [vadd(v, z) for v in self.vertices], _canonical=True)

    def reflect(self):
        """The reflection -K; extreme points map to extreme points."""
        return Polytope(self.dim, [vneg(v) for v in self.vertices], _canonical=True)

    def affine_dim(self):
        if "rank" not in self._cache:
            self._cache["rank"] = affine_rank(list(self.vertices))
        return self._cache["rank"]

    def facets(self):
        """(outward primitive integer normal, vertex index frozenset) pairs."""
        if "facets" not in self._cache:
            if self.affine_dim() != self.dim:
                raise ValueError("facet enumeration needs a full-dimensional polytope")
            self._cache["facets"] = facet_enum(list(self.vertices), self.dim)
        return self._cache["facets"]

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={[tuple(map(str, v)) for v in self.vertices]})"


def minkowski_sum(K, L):
    """K + L as the hull of pairwise vertex sums."""
    if K.dim != L.dim:
        raise DimensionMismatch(f"dimensions {K.dim} and {L.dim} differ")
    sums = [vadd(u, v) for u in K.vertices for v in L.vertices]
    return Polytope(K.dim, sums)


def difference_body(K):
    """D K = K + (-K), always origin-symmetric."""
    return minkowski_sum(K, K.reflect())


def volume(K):
    """Exact dim-volume; zero for lower-dimensional bodies."""
    if "volume" not in K._cache:
        K._cache["volume"] = _hull_volume(list(K.vertices), K.dim)
    return K._cache["volume"]


def facet_area_vectors(K):
    """Outward facet normals scaled by facet (dim-1)-volume, in facet order.

    Supported in dimensions 2 and 3 for full-dimensional bodies.  Each
    vector is area_vector of the facet's vertices and outward normal, so a
    positive multiple of that normal.  The vectors sum to zero (closedness
    of the boundary), which tests rely on.
    """
    if K.dim not in AREA_VECTOR_DIMS:
        raise CapabilityLimit(f"facet area vectors are supported in dimensions {AREA_VECTOR_DIMS}")
    if K.affine_dim() != K.dim:
        raise ValueError("facet area vectors need a full-dimensional body")
    if "area_vectors" not in K._cache:
        verts = K.vertices
        K._cache["area_vectors"] = [area_vector([verts[i] for i in support], normal)
                                    for normal, support in K.facets()]
    return K._cache["area_vectors"]


def _flat_area_vector(K):
    """Area vector of a body of affine dimension dim-1 (sign arbitrary)."""
    if "flat_area_vector" not in K._cache:
        verts = list(K.vertices)
        normal = nullspace([vsub(p, verts[0]) for p in verts[1:]], K.dim)[0]
        K._cache["flat_area_vector"] = area_vector(verts, normal)
    return K._cache["flat_area_vector"]


def difference_body_support(K, u):
    """Support function of the difference body: h_K(u) + h_K(-u).

    The width of K in direction u, max - min of <u, v> over the vertices,
    evaluated without building D K.
    """
    dots, den = K._int_dots(u)
    return Q(max(dots) - min(dots), den)


def projection_body_support(K, u):
    """Support function of the projection body: shadow area in direction u.

    For a unit u this is the (dim-1)-volume of the orthogonal projection of K
    onto the hyperplane u-perp (Cauchy's projection formula, exact through
    facet area vectors); it extends to all u by positive homogeneity.  Bodies
    of affine dimension dim-1 contribute twice one flat face; anything flatter
    casts a null shadow in almost every direction and yields the zero body.
    The area vectors are cached as integers over one common denominator, so
    a value costs integer dot products and one rational.
    """
    if K.dim not in AREA_VECTOR_DIMS:
        raise CapabilityLimit(f"projection bodies are supported in dimensions {AREA_VECTOR_DIMS}")
    u = rat_vector(u)
    if len(u) != K.dim:
        raise DimensionMismatch(f"direction has length {len(u)}, expected {K.dim}")
    if "area_ints" not in K._cache:
        rank = K.affine_dim()
        if rank == K.dim:
            K._cache["area_ints"] = int_scaled(facet_area_vectors(K))
        elif rank == K.dim - 1:
            flat = _flat_area_vector(K)
            K._cache["area_ints"] = int_scaled([flat, vneg(flat)])
        else:
            K._cache["area_ints"] = ([], 1)
    vectors, den = K._cache["area_ints"]
    (ui,), du = int_scaled([u])
    total = sum(abs(sum(map(mul, ui, w))) for w in vectors)
    return Q(total, 2 * den * du)


def cut_pair(P, w, t):
    """Split P by the hyperplane <w, x> = t into (K, L, M).

    K and L are the two closed sides, M their common section.  The hyperplane
    must meet the interior: vertices strictly on both sides.
    """
    w = rat_vector(w)
    if len(w) != P.dim:
        raise DimensionMismatch(f"direction has length {len(w)}, expected {P.dim}")
    if all(v == 0 for v in w):
        raise ValueError("cut direction must be nonzero")
    t = rat(t)
    vals = [dot(w, v) - t for v in P.vertices]
    if not (any(s > 0 for s in vals) and any(s < 0 for s in vals)):
        raise ValueError("cut hyperplane must meet the interior of the polytope")
    below = [v for v, s in zip(P.vertices, vals) if s <= 0]
    above = [v for v, s in zip(P.vertices, vals) if s >= 0]
    section = [v for v, s in zip(P.vertices, vals) if s == 0]
    for (vi, si), (vj, sj) in combinations(zip(P.vertices, vals), 2):
        if (si < 0 < sj) or (sj < 0 < si):
            lam = -si / (sj - si)
            point = tuple(a + lam * (b - a) for a, b in zip(vi, vj))
            below.append(point)
            above.append(point)
            section.append(point)
    K = Polytope(P.dim, below)
    L = Polytope(P.dim, above)
    M = Polytope(P.dim, section)
    return K, L, M
