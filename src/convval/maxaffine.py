"""Max-affine convex functions with exact rational coefficients.

A function is a finite nonempty set of affine pieces (a, b) representing
x -> max_i <a_i, x> + b_i.  Piece lists are kept in a canonical order
(lexicographic by slope, then offset) so that structural equality is piece
equality.  The canonical minimal representation drops every piece that never
strictly wins; `prune` computes it exactly.

Pruning decides, per piece, whether its lifted point (a_i, -b_i) is a vertex
of the lower convex hull of all lifted points.  In one dimension this is a
monotone-chain walk; in higher dimensions it is one small exact feasibility
problem per uncertified piece: is the lifted point a convex combination of
the lower-hull vertices found so far, allowing slack upward?  When it is
not, the problem's Farkas certificate names a vertex not yet found, so each
problem has only vertices for columns and the work follows the output size.
Dimensions above MAX_HULL_DIM are refused rather than silently approximated.
"""

from functools import lru_cache
from operator import mul

from . import _simplex
from .errors import CapabilityLimit, DimensionMismatch
from .linalg import RationalMatrix, int_scaled
from .rational import Q, rat, rat_vector

MAX_HULL_DIM = 4

_ZERO = Q(0)
_ONE = Q(1)


class MaxAffineFn:
    """x -> max over pieces (a, b) of <a, x> + b, with exact coefficients.

    The integer image of the pieces, each a + (b,) scaled by one common
    denominator, is built on first evaluation and kept; it takes no part in
    equality, hashing, printing or pickling.
    """

    __slots__ = ("dim", "pieces", "_ints")

    def __init__(self, dim, pieces):
        if dim < 1:
            raise DimensionMismatch(f"dimension must be positive, got {dim}")
        norm = []
        for a, b in pieces:
            a = rat_vector(a)
            if len(a) != dim:
                raise DimensionMismatch(f"piece slope has length {len(a)}, expected {dim}")
            norm.append((a, rat(b)))
        if not norm:
            raise ValueError("a max-affine function needs at least one piece")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pieces", tuple(sorted(set(norm))))
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):
        raise AttributeError("MaxAffineFn is immutable")

    def __reduce__(self):
        return (MaxAffineFn, (self.dim, self.pieces))

    @classmethod
    def affine(cls, a, b):
        a = rat_vector(a)
        return cls(len(a), [(a, b)])

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, [((0,) * dim, value)])

    @classmethod
    def zero(cls, dim):
        return cls.constant(dim, 0)

    def evaluate(self, x):
        x = rat_vector(x)
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has length {len(x)}, expected {self.dim}")
        (xi,), dx = int_scaled([x])
        den, (top,) = self._maxima_at(xi, dx, ((1, 1),))
        return Q(top, den * dx)

    __call__ = evaluate

    def _maxima_at(self, xi, dx, scales):
        """f at the point s * xi / dx for each scale s = p / q, as integers.

        xi is an integer vector, dx > 0 and each scale a pair (p, q) with
        q > 0.  With the pieces' integer image (A_r, b_r) / den, one dot
        d_r = A_r . xi per piece serves every scale: f(s xi / dx) is
        max_r (p d_r + q dx b_r) / (q dx den).  Returns (den, the maxima).
        """
        if self._ints is None:
            object.__setattr__(self, "_ints", int_scaled([a + (b,) for a, b in self.pieces]))
        rows, den = self._ints
        # map stops at the shorter xi, so the dot skips the offset column.
        pairs = [(sum(map(mul, r, xi)), dx * r[-1]) for r in rows]
        return den, [max([p * d + q * b for d, b in pairs]) for p, q in scales]

    def offset(self, delta):
        """Pointwise addition of a constant; never changes which pieces win."""
        delta = rat(delta)
        return MaxAffineFn(self.dim, [(a, b + delta) for a, b in self.pieces])

    def __eq__(self, other):
        return (
            isinstance(other, MaxAffineFn)
            and self.dim == other.dim
            and self.pieces == other.pieces
        )

    def __hash__(self):
        return hash((self.dim, self.pieces))

    def __repr__(self):
        inner = ", ".join(f"({'(' + ', '.join(map(str, a)) + ')'}, {b})" for a, b in self.pieces)
        return f"MaxAffineFn(dim={self.dim}, pieces=[{inner}])"


def add(f, h, do_prune=True):
    """Pointwise sum: pieces are the pairwise piece sums.

    With do_prune=False the result is still pointwise correct (max of the
    pairwise sums), just not in minimal form; callers that only evaluate can
    skip the hull work.
    """
    if f.dim != h.dim:
        raise DimensionMismatch(f"dimensions {f.dim} and {h.dim} differ")
    pieces = [
        (tuple(af[i] + ah[i] for i in range(f.dim)), bf + bh)
        for af, bf in f.pieces
        for ah, bh in h.pieces
    ]
    out = MaxAffineFn(f.dim, pieces)
    return prune(out) if do_prune else out


def scale(f, lam):
    """Pointwise nonnegative scaling lam * f."""
    lam = rat(lam)
    if lam < 0:
        raise ValueError("scaling a max of affine pieces by a negative factor breaks convexity")
    if lam == 0:
        return MaxAffineFn.zero(f.dim)
    return MaxAffineFn(f.dim, [(tuple(lam * ai for ai in a), lam * b) for a, b in f.pieces])


def max_of(f, h, do_prune=True):
    """Pointwise maximum: the union of the piece sets."""
    if f.dim != h.dim:
        raise DimensionMismatch(f"dimensions {f.dim} and {h.dim} differ")
    out = MaxAffineFn(f.dim, f.pieces + h.pieces)
    return prune(out) if do_prune else out


def compose_linear(f, g):
    """f after the linear map g, i.e. x -> f(g x); pieces map to (g^T a, b).

    Composition with an invertible map sends winning regions to winning
    regions, so a pruned input stays pruned; a singular map can create
    dominated pieces, so those get re-pruned.
    """
    if not isinstance(g, RationalMatrix):
        raise TypeError("compose_linear expects a RationalMatrix")
    if g.dim != f.dim:
        raise DimensionMismatch(f"matrix dim {g.dim}, function dim {f.dim}")
    gt = g.transpose()
    out = MaxAffineFn(f.dim, [(gt.matvec(a), b) for a, b in f.pieces])
    if g.det() == 0:
        out = prune(out)
    return out


def _prune_1d(pieces):
    # Upper envelope of lines = lower hull of lifted points (a, -b).
    pts = sorted((a[0], -b) for a, b in pieces)
    # Equal slopes: only the lowest lifted point (largest b) can win.
    dedup = []
    for x, y in pts:
        if dedup and dedup[-1][0] == x:
            if y < dedup[-1][1]:
                dedup[-1] = (x, y)
        else:
            dedup.append((x, y))
    hull = []
    for p in dedup:
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            cross = (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return [((x,), -y) for x, y in hull]


_CERTIFY_SEEDS = (2, 3, 5, 7, 11, 13)


def _certify_directions(dim):
    # Fixed probe directions: cheap uniqueness certificates that spare most
    # pieces their feasibility solve.  Deterministic by construction.
    dirs = []
    for k in range(dim):
        e = [_ZERO] * dim
        e[k] = _ONE
        dirs.append(tuple(e))
        e2 = list(e)
        e2[k] = -_ONE
        dirs.append(tuple(e2))
    dirs.append((_ONE,) * dim)
    dirs.append((-_ONE,) * dim)
    for s in _CERTIFY_SEEDS[:4]:
        dirs.append(tuple(Q(((s * (k + 3) ** 3) % 17) - 8, 3) for k in range(dim)))
    return dirs


@lru_cache(maxsize=None)
def _int_directions(n, ray):
    # The certificate directions for points in R^n, each scaled to integers.
    # With an upward ray in the last coordinate a direction is (y, -1): its
    # unique maximizer is the unique minimizer of t - <y, a> over points (a, t).
    tail = (-_ONE,) if ray else ()
    return tuple(int_scaled([y + tail])[0][0] for y in _certify_directions(n - 1 if ray else n))


def _lowest_lex_max(ints, idx):
    """Among the indexed points, the lex-max of those lowest in the last coordinate.

    When the indexed points are all the maximizers of a direction that does
    not rise along the upward ray, the result is an extreme point, with or
    without the ray: the lowest points of a face form a face, and the
    lex-max point of a finite set is a vertex of its hull.
    """
    low = min(ints[i][-1] for i in idx)
    return max((i for i in idx if ints[i][-1] == low), key=ints.__getitem__)


def extreme_indices(points, ray=False):
    """Indices of the extreme points of a deduplicated point list in R^n.

    A point is extreme iff it is not a convex combination of the others,
    plus nonnegative upward slack in the last coordinate when ray is set
    (then the extreme points are the lower-hull vertices).  Cheap
    certificates first (the unique maximizer of a fixed direction is
    extreme); with none, the lowest-then-lex-max point starts the known set.
    Each remaining point is then tested against the known extreme points
    only (Clarkson 1994, output-sensitive): a feasible LP rejects it; an
    infeasible one hands back a Farkas vector, a direction in which the
    point beats every known extreme point, and the lowest-then-lex-max
    maximizer of that direction over all points is a new extreme point.
    It joins the known set, and the point is retested until it is rejected
    or is itself that maximizer.  A point found that way needs no LP of its
    own, so there are at most as many LPs as uncertified points, and every
    LP column is an extreme point.  Everything runs on the points scaled to
    integers by their common denominator d; every LP row, the ones row and
    the slack entry included, is the rational row times d.
    """
    m = len(points)
    if m == 1:
        return [0]
    n = len(points[0])
    ints, d = int_scaled(points)
    known = {}  # the extreme points found so far, in order: the LP columns
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
            known[best_i] = None
    if not known:
        known[_lowest_lex_max(ints, range(m))] = None
    free = n - 1 if ray else n
    slack = [0] if ray else []
    for i in range(m):
        while i not in known:
            rows = [[ints[j][k] for j in known] + slack for k in range(free)]
            rows.append([d] * len(known) + slack)
            rhs = list(ints[i][:free]) + [d]
            if ray:
                rows.append([ints[j][-1] for j in known] + [d])
                rhs.append(ints[i][-1])
            feasible, y = _simplex.feasible_eq(rows, rhs)
            if feasible:
                break
            c = y[:free] + y[free + 1 :]
            vals = [sum(map(mul, c, p)) for p in ints]
            top = max(vals)
            known[_lowest_lex_max(ints, [k for k, v in enumerate(vals) if v == top])] = None
    return sorted(known)


def prune(f):
    """Minimal canonical representation: drop every never-winning piece."""
    if f.dim > MAX_HULL_DIM:
        raise CapabilityLimit(
            f"pruning works through dimension {MAX_HULL_DIM}, got {f.dim}"
        )
    pieces = list(f.pieces)
    if len(pieces) == 1:
        return f
    if f.dim == 1:
        return MaxAffineFn(1, _prune_1d(pieces))
    kept = extreme_indices([a + (-b,) for a, b in pieces], ray=True)
    return MaxAffineFn(f.dim, [pieces[i] for i in kept])
