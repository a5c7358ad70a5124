"""Exact reference answers computed without convval.

Each oracle works on the raw generated inputs with `fractions.Fraction`
arithmetic and shares no code with the package, so a request's answer is
checked against an independent computation rather than against itself.
"""

from fractions import Fraction
from itertools import combinations


def frac(text):
    """Decode a "p/q" string as emitted by convval."""
    return Fraction(text)


def frac_vec(items):
    return tuple(Fraction(v) for v in items)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def eval_max(pieces, x):
    """max over raw pieces (a, b) of <a, x> + b."""
    return max(dot(a, x) + b for a, b in pieces)


def psi(variant, c, atoms, pieces, x):
    """The valuation's defining sum, evaluated directly on raw pieces."""
    n = len(x)
    f0 = eval_max(pieces, (Fraction(0),) * n)
    total = c * f0 if variant == "gl-endomorphism" else c
    for s, w in atoms:
        if w == 0:
            continue
        if variant == "contravariant-2d":
            y = (s * -x[1], s * x[0])
        else:
            y = tuple(s * v for v in x)
        total += w * (eval_max(pieces, y) - f0) / (s * s)
    return total


def solve_unique(rows, rhs, ncols):
    """The unique solution of a consistent system of full column rank, else None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / Fraction(aug[rank][col])
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                k = aug[r][col]
                aug[r] = [v - k * w for v, w in zip(aug[r], aug[rank])]
        rank += 1
    if any(aug[r][-1] != 0 for r in range(rank, len(aug))):
        return None
    return [aug[i][-1] for i in range(ncols)]


def lower_envelope(points, y):
    """Least height over y of conv(points) in R^(n+1), or None outside the shadow.

    Caratheodory: an optimal convex combination uses affinely independent
    points, at most n+1 of them, so enumerating those simplices is exact.
    """
    n = len(y)
    best = None
    for k in range(1, n + 2):
        for subset in combinations(points, k):
            rows = [[p[j] for p in subset] for j in range(n)] + [[1] * k]
            lam = solve_unique(rows, list(y) + [1], k)
            if lam is None or any(v < 0 for v in lam):
                continue
            val = sum(v * p[n] for v, p in zip(lam, subset))
            if best is None or val < best:
                best = val
    return best


def support(points, u):
    """Support value of conv(points): the max is attained at an input point."""
    return max(dot(u, p) for p in points)


def _hull_area(pts):
    """Area of the convex hull of planar points (monotone chain, shoelace)."""
    pts = sorted(set(pts))
    if len(pts) < 3:
        return Fraction(0)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]
    twice = sum(
        (ring[i][0] * ring[(i + 1) % len(ring)][1] - ring[(i + 1) % len(ring)][0] * ring[i][1]
         for i in range(len(ring))),
        Fraction(0),
    )
    return abs(twice) / 2


def projection_support(points, u):
    """Support of the projection body of conv(points) in direction u (dim 2 or 3).

    It equals |u| times the shadow volume on u-perp.  In the plane that is
    the width along the quarter-turned u.  In space, project obliquely along
    u onto the coordinate plane x_k = 0 for some u_k != 0: the shadow area
    scales by |u_k| / |u|, so the value is |u_k| times the oblique area.
    """
    if len(u) == 2:
        r = (-u[1], u[0])
        return support(points, r) + support(points, (-r[0], -r[1]))
    k = next(j for j, v in enumerate(u) if v != 0)
    flat = []
    for p in points:
        t = p[k] / u[k]
        q = tuple(p[j] - t * u[j] for j in range(3) if j != k)
        flat.append(q)
    return abs(u[k]) * _hull_area(flat)


def matvec(rows, x):
    return tuple(dot(r, x) for r in rows)


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def inverse_transpose(rows):
    """(g^-1)^T for an invertible square matrix, column by column."""
    n = len(rows)
    cols = []
    for j in range(n):
        e = [Fraction(int(i == j)) for i in range(n)]
        cols.append(solve_unique(rows, e, n))
    # cols[j] is column j of g^-1, so it is row j of (g^-1)^T.
    return cols
