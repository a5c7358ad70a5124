"""The one supporting-hyperplane search and the one extreme-point path.

facet_enum and hrep_with_vertical_ray share _geometry._supporting_hyperplanes,
and Polytope filters extreme points with maxaffine.extreme_indices at every
affine rank.  Each is compared with the code it replaced, kept unchanged in
hull_reference.py, on seeded point sets in dimensions 1-4 of every affine
rank: equal facet lists, equal H-representations up to positive row scaling,
equal canonical vertices (cut_pair's pieces and sections included).  Area
vectors, now one volume-of-shadow formula, are compared with the old angular
sort and shoelace sum on bodies of affine rank d and d - 1 in 2-D and 3-D.
Volumes and area vectors, now one facet recursion, are compared with the old
triangulation and determinant sum in dimensions 1-4.
"""

from collections import Counter
from operator import mul

from convval import polytopes
from convval._geometry import (Chart, affine_rank, area_vector, facet_enum, hrep_with_vertical_ray,
                               primitive_row, volume)
from convval.generators import rng_for
from convval.linalg import dot, int_scaled, nullspace, vneg, vsub
from convval.maxaffine import _int_directions
from convval.polytopes import (Polytope, _flat_area_vector, cut_pair, facet_area_vectors,
                               projection_body_support)
from convval.rational import Q

import hull_reference as ref

# Points per set by dimension: keeps every search far below its budget.
MAX_POINTS = {1: 6, 2: 9, 3: 9, 4: 8}


def _entry(rng):
    return Q(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))


def _point_set(rng, d):
    """A point set in R^d of random affine rank, with repeats and grid ties."""
    rank = d if rng.random() < 0.5 else rng.randint(0, d)
    origin = tuple(_entry(rng) for _ in range(d))
    dirs = [tuple(_entry(rng) for _ in range(d)) for _ in range(rank)]
    if rng.random() < 0.3:
        # Coordinate directions: boxes tie in the certificate directions.
        dirs = [tuple(Q(int(j == k)) for j in range(d)) for k in rng.sample(range(d), rank)]
    pts = []
    for _ in range(rng.randint(1 if rank == 0 else rank + 1, MAX_POINTS[d])):
        coeffs = [Q(rng.randint(-2, 2), rng.choice((1, 2))) for _ in dirs]
        pts.append(tuple(o + sum((c * v[j] for c, v in zip(coeffs, dirs)), Q(0))
                         for j, o in enumerate(origin)))
    if rng.random() < 0.2:
        pts.append(pts[0])
    return pts


def _has_certificate_tie(pts, d):
    ints, _ = int_scaled(sorted(set(pts)))
    for y in _int_directions(d, False):
        vals = [sum(map(mul, y, p)) for p in ints]
        if vals.count(max(vals)) > 1:
            return True
    return False


def _rows(pairs):
    return [primitive_row(c, b) for c, b in pairs]


def test_facet_enum_matches_reference():
    tags = Counter()
    for i in range(1000):
        rng = rng_for(23, "facets", i)
        d = 1 + i % 4
        pts = _point_set(rng, d)
        if affine_rank(pts) < d:
            try:
                facet_enum(pts, d)
            except ValueError:
                tags["lower-rank refused"] += 1
                continue
            raise AssertionError(f"facets of a lower-dimensional set {pts}")
        got = facet_enum(pts, d)
        want = ref.facet_enum(pts, d)
        if d == 1:
            assert set(got) == set(want)
        else:
            assert got == want
        tags[f"dim-{d}"] += 1
        tags["shared support"] += any(len(s) > d for _, s in got)
    for key in ("dim-1", "dim-2", "dim-3", "dim-4", "lower-rank refused", "shared support"):
        assert tags[key] >= 10, (key, tags)


def test_lifted_hrep_matches_reference():
    tags = Counter()
    for i in range(1000):
        rng = rng_for(23, "hrep", i)
        d = 1 + i % 4
        pts = sorted(set(_point_set(rng, d)))
        ineqs, eqs = hrep_with_vertical_ray(pts)
        want_ineqs, want_eqs = ref.hrep_with_vertical_ray(pts)
        assert len(ineqs) == len(want_ineqs)
        assert set(_rows(ineqs)) == set(_rows(want_ineqs))
        assert set(_rows(eqs)) == set(_rows(want_eqs))
        ray = (Q(0),) * (d - 1) + (Q(1),)
        tags[f"chart-{Chart(pts, rays=[ray]).dim}"] += 1
        tags[f"dim-{d}"] += 1
    for key in ("dim-1", "dim-2", "dim-3", "dim-4", "chart-1", "chart-2", "chart-3", "chart-4"):
        assert tags[key] >= 10, (key, tags)


def test_polytope_vertices_match_reference(monkeypatch):
    # Every Polytope cut_pair builds is checked too, from the points it is given.
    built = []

    def recording(dim, vertices, _canonical=False):
        body = Polytope(dim, vertices, _canonical)
        built.append((dim, list(vertices), body))
        return body

    monkeypatch.setattr(polytopes, "Polytope", recording)
    tags = Counter()
    for i in range(1000):
        rng = rng_for(23, "vertices", i)
        d = 1 + i % 4
        pts = _point_set(rng, d)
        P = Polytope(d, pts)
        assert P.vertices == ref.polytope_vertices(d, pts)
        rank = affine_rank(sorted(set(pts)))
        tags[f"dim-{d}-rank-{rank}"] += 1
        tags["single point"] += len(P.vertices) == 1
        tags["certificate tie"] += _has_certificate_tie(pts, d)
        w = tuple(Q(rng.randint(-2, 2)) for _ in range(d))
        vals = sorted({sum(a * b for a, b in zip(w, v)) for v in P.vertices})
        if len(vals) < 2:
            continue
        t = rng.choice([(vals[0] + vals[-1]) / 2] + vals[1:-1])
        built.clear()
        cut_pair(P, w, t)
        for dim, raw, body in built:
            assert body.vertices == ref.polytope_vertices(dim, raw)
            tags[f"cut-rank-{affine_rank(list(body.vertices))}"] += 1
    for d in range(1, 5):
        for rank in range(d + 1):
            assert tags[f"dim-{d}-rank-{rank}"] >= 10, (d, rank, tags)
    for key in ("single point", "certificate tie", "cut-rank-0", "cut-rank-1", "cut-rank-2",
                "cut-rank-3"):
        assert tags[key] >= 10, (key, tags)


def test_area_vectors_match_shoelace_reference():
    tags = Counter()
    for i in range(400):
        rng = rng_for(23, "area-vectors", i)
        d = 2 + i % 2
        pts = _point_set(rng, d)
        rank = affine_rank(pts)
        if rank < d - 1:
            continue
        K = Polytope(d, pts)
        if rank == d:
            want = ref.facet_area_vectors(K)
            assert facet_area_vectors(K) == want
        else:
            flat = ref.flat_area_vector(K)
            assert _flat_area_vector(K) in (flat, vneg(flat))
            want = [flat, vneg(flat)]
        for _ in range(5):
            u = tuple(_entry(rng) for _ in range(d))
            cauchy = sum((abs(dot(u, w)) for w in want), Q(0)) / 2
            assert projection_body_support(K, u) == cauchy
        tags[f"dim-{d}-rank-{rank}"] += 1
    for key in ("dim-2-rank-1", "dim-2-rank-2", "dim-3-rank-2", "dim-3-rank-3"):
        assert tags[key] >= 20, (key, tags)


def test_volume_and_area_vector_match_triangulation_reference():
    q = type(Q(0))
    tags = Counter()
    for i in range(600):
        rng = rng_for(23, "volume", i)
        d = 1 + i % 4
        pts = _point_set(rng, d)
        got = volume(pts, d)
        assert got == ref.volume(pts, d) and type(got) is q
        rank = affine_rank(pts)
        tags[f"dim-{d}"] += 1
        tags["lower rank"] += rank < d
        tags["repeated point"] += len(set(pts)) < len(pts)
        tags["non-integer"] += any(v.denominator != 1 for p in pts for v in p)
        if d == 1 or rank < d - 1:
            continue
        if rank == d:
            pieces = [(normal, [pts[j] for j in support]) for normal, support in facet_enum(pts, d)]
        else:
            pieces = [(nullspace([vsub(p, pts[0]) for p in pts[1:]], d)[0], pts)]
        for normal, face in pieces:
            got = area_vector(face, normal)
            assert got == ref.shadow_area_vector(face, normal) and all(type(v) is q for v in got)
            k = next(j for j, v in enumerate(normal) if v != 0)
            tags["|n[k]| > 1"] += abs(normal[k]) > 1
            tags[f"area-dim-{d}-rank-{rank}"] += 1
    for key in ("dim-1", "dim-2", "dim-3", "dim-4", "lower rank", "repeated point", "non-integer",
                "|n[k]| > 1", "area-dim-2-rank-1", "area-dim-2-rank-2", "area-dim-3-rank-2",
                "area-dim-3-rank-3", "area-dim-4-rank-3", "area-dim-4-rank-4"):
        assert tags[key] >= 10, (key, tags)
