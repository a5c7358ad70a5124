"""Deterministic random generation of test objects.

All randomness flows through `random.Random` instances seeded from a string
path, so any case can be regenerated from (seed, path) alone, on any
platform.  Coefficient ranges are deliberately small (numerators within
[-8, 8], denominators up to 4, at most eight pieces, dimensions up to four):
large enough to exercise every code path, small enough that exact hull work
stays quick and witnesses stay readable.
"""

import random

from .linalg import RationalMatrix
from .maxaffine import MaxAffineFn, prune
from .polytopes import Polytope
from .rational import Q
from .valuations import DiscreteMeasure

MAX_PIECES = 8
NUM_RANGE = (-8, 8)
DEN_RANGE = (1, 4)

_ZERO = Q(0)
_ONE = Q(1)


def rng_for(seed, *path):
    """Independent deterministic stream for a seed and a case path."""
    return random.Random(f"{seed}/" + "/".join(str(p) for p in path))


def rand_rational(rng, lo=NUM_RANGE[0], hi=NUM_RANGE[1], max_den=DEN_RANGE[1]):
    return Q(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_nonzero_rational(rng, lo=NUM_RANGE[0], hi=NUM_RANGE[1], max_den=DEN_RANGE[1]):
    while True:
        q = rand_rational(rng, lo, hi, max_den)
        if q != 0:
            return q


def rand_point(rng, dim):
    return tuple(rand_rational(rng) for _ in range(dim))


def rand_nonzero_point(rng, dim):
    while True:
        x = rand_point(rng, dim)
        if any(v != 0 for v in x):
            return x


def rand_maxaffine(rng, dim, max_pieces=MAX_PIECES):
    """A pruned random max-affine function with 1..max_pieces pieces."""
    count = rng.randint(1, max_pieces)
    pieces = [(rand_point(rng, dim), rand_rational(rng)) for _ in range(count)]
    return prune(MaxAffineFn(dim, pieces))


def rand_affine(rng, dim):
    return MaxAffineFn.affine(rand_point(rng, dim), rand_rational(rng))


def rand_sl_matrix(rng, dim, max_word=4):
    """Product of up to max_word elementary shears; determinant one."""
    g = RationalMatrix.identity(dim)
    if dim == 1:
        return g
    for _ in range(rng.randint(1, max_word)):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        while j == i:
            j = rng.randrange(dim)
        t = Q(rng.randint(-3, 3), rng.randint(1, 2))
        g = g @ RationalMatrix.shear(dim, i, j, t)
    return g


def rand_gl_matrix(rng, dim, max_word=4):
    """Shear word times a nonzero diagonal; any nonzero determinant."""
    diag = [rand_nonzero_rational(rng, -3, 3, 2) for _ in range(dim)]
    return rand_sl_matrix(rng, dim, max_word) @ RationalMatrix.diagonal(diag)


def rand_polytope(rng, dim, extra_points=4):
    """Full-dimensional polytope: a scaled simplex plus noise points."""
    pts = [(_ZERO,) * dim]
    for k in range(dim):
        v = [_ZERO] * dim
        v[k] = Q(rng.randint(1, 3), rng.randint(1, 2))
        pts.append(tuple(v))
    for _ in range(rng.randint(0, extra_points)):
        pts.append(tuple(Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(dim)))
    return Polytope(dim, pts)


def rand_direction(rng, dim):
    while True:
        u = tuple(Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(dim))
        if any(v != 0 for v in u):
            return u


def rand_valid_measure(rng, max_positive=2):
    """Atoms with vanishing signed reciprocal moment: sum w/s = 0."""
    npos = rng.randint(1, max_positive)
    seen = set()
    atoms = []
    budget = _ZERO
    for _ in range(npos):
        while True:
            s = Q(rng.randint(1, 6), rng.randint(1, 2))
            if s not in seen:
                seen.add(s)
                break
        w = Q(rng.randint(1, 6), rng.randint(1, 2))
        atoms.append((s, w))
        budget += w / s
    s_neg = -Q(rng.randint(1, 6), rng.randint(1, 2))
    atoms.append((s_neg, budget * abs(s_neg)))
    return DiscreteMeasure(atoms)


def rand_invalid_measure(rng, max_atoms=3):
    """Nonempty atoms whose signed reciprocal moment is nonzero."""
    while True:
        count = rng.randint(1, max_atoms)
        seen = set()
        atoms = []
        for _ in range(count):
            while True:
                s = Q(rng.randint(-6, 6), rng.randint(1, 2))
                if s != 0 and s not in seen:
                    seen.add(s)
                    break
            atoms.append((s, Q(rng.randint(1, 6), rng.randint(1, 2))))
        nu = DiscreteMeasure(atoms)
        if nu.signed_reciprocal_moment() != 0:
            return nu


def rand_hinge_pair(rng, dim, base_pieces=6):
    from .analysis import hinge_pair

    base = rand_maxaffine(rng, dim, base_pieces)
    u = tuple(rng.randint(-3, 3) for _ in range(dim))
    if all(v == 0 for v in u):
        u = (1,) + (0,) * (dim - 1)
    t = rand_rational(rng, -4, 4, 2)
    cw = Q(rng.randint(1, 4), rng.randint(1, 2))
    return hinge_pair(base, u, t, cw)


def paraboloid_tangents(dim=2, grid=2, spacing=1):
    """Max of tangent planes to |x|^2 on an integer grid: strictly convex feel.

    Every tangent plane <2p, x> - |p|^2 touches the paraboloid at p, so all
    pieces survive pruning and the function has no flat facets wider than the
    grid spacing.
    """
    pts = []
    rng_vals = range(-grid, grid + 1)
    import itertools

    for p in itertools.product(rng_vals, repeat=dim):
        p = tuple(Q(v) * spacing for v in p)
        slope = tuple(2 * v for v in p)
        offset = -sum((v * v for v in p), _ZERO)
        pts.append((slope, offset))
    return MaxAffineFn(dim, pts)
