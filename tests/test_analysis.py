"""Scalar valuations: hinge pairs, decomposition, polarization, locality,
and the deterministic counterexample search for inverse-transpose covariance.
"""

import random

from collections import Counter

import pytest

from convval import (
    DiscreteMeasure,
    MaxAffineFn,
    Q,
    ScalarValuation,
    ValuationSpec,
    convergence_probe,
    falsify_contravariance,
    find_strict_majorant,
    hinge_pair,
    homogeneous_decompose,
    locality_check,
    max_of,
    polarize,
    psi_eval,
    scale,
    valuation_identity_check,
)
from convval import _simplex, analysis
from convval.generators import rand_point, rand_rational, rng_for
from convval.linalg import RationalMatrix
from convval.maxaffine import prune
from convval.suites import CHECKS

import hinge_reference as ref
from conftest import grid_points, hinge


def mf(dim, *pieces):
    return MaxAffineFn(dim, [(tuple(Q(v) for v in a), Q(b)) for a, b in pieces])


def diff_spec(dim):
    return ValuationSpec("equivariant", dim, Q(0), DiscreteMeasure([(1, 1), (-1, 1)]))


def test_hinge_pair_canonical_example():
    pair = hinge_pair(MaxAffineFn.zero(2), (Q(1), Q(0)), Q(1), Q(1))
    grid = grid_points(2, 2, 2)
    for x in grid:
        assert pair.f(x) == max(x[0] - 1, Q(0))
        assert pair.h(x) == max(1 - x[0], Q(0))
        assert pair.fmax(x) == abs(x[0] - 1)
        assert pair.fmin(x) == Q(0)
        assert max(pair.f(x), pair.h(x)) == pair.fmax(x)
        assert min(pair.f(x), pair.h(x)) == pair.fmin(x)


def test_hinge_pair_over_nontrivial_base():
    base = mf(2, ((1, 1), 0), ((-1, 0), 1))
    pair = hinge_pair(base, (Q(2), Q(-1)), Q(3, 2), Q(1, 2))
    for x in grid_points(2, 2, 1):
        g = 2 * x[0] - x[1] - Q(3, 2)
        assert pair.f(x) == base(x) + Q(1, 2) * max(g, Q(0))
        assert pair.h(x) == base(x) + Q(1, 2) * max(-g, Q(0))
        assert pair.fmax(x) == base(x) + Q(1, 2) * abs(g)
        assert pair.fmin(x) == base(x)


def test_hinge_pair_far_threshold_stays_exact():
    # A threshold far outside any sampling box still validates exactly.
    pair = hinge_pair(MaxAffineFn.zero(1), (Q(1),), Q(10**9), Q(1))
    assert pair.fmin((Q(0),)) == Q(0)
    assert pair.f((Q(10**9 + 1),)) == Q(1)


def test_hinge_pair_input_validation():
    with pytest.raises(ValueError):
        hinge_pair(MaxAffineFn.zero(2), (Q(0), Q(0)), Q(1), Q(1))
    with pytest.raises(ValueError):
        hinge_pair(MaxAffineFn.zero(2), (Q(1), Q(0)), Q(1), Q(0))
    with pytest.raises(Exception):
        hinge_pair(MaxAffineFn.zero(2), (Q(1),), Q(1), Q(1))


def _hinge_inputs(k):
    """Seeded (base, u, t, cw) in dimension 1 + k % 4, cycling through five
    base shapes: unpruned with a parallel and a dominated piece, one piece,
    a piece p together with p + g, a far threshold, plain random."""
    rng = rng_for(1, "hinge-diff", k)
    dim = 1 + k % 4
    kind = k // 4 % 5
    u = rand_point(rng, dim)
    if all(v == 0 for v in u):
        u = (Q(1),) + (Q(0),) * (dim - 1)
    t = rand_rational(rng, -4, 4, 2)
    cw = Q(rng.randint(1, 4), rng.randint(1, 2))

    def piece():
        return rand_point(rng, dim), rand_rational(rng)

    if kind == 0:
        pieces = [piece() for _ in range(rng.randint(2, 4))]
        (a, b), (c, d) = pieces[:2]
        pieces.append((a, b - rng.randint(1, 3)))
        pieces.append((tuple((x + y) / 2 for x, y in zip(a, c)), (b + d) / 2 - 1))
    elif kind == 1:
        pieces = [piece()]
    elif kind == 2:
        a, b = piece()
        pieces = [(a, b), (tuple(x + cw * y for x, y in zip(a, u)), b - cw * t)]
        pieces += [piece() for _ in range(rng.randint(0, 3))]
    elif kind == 3:
        t = Q(rng.choice((-1, 1)) * rng.randint(10**3, 10**6))
        if dim == 1 or k % 8 < 4:
            # Slopes that differ along u only: every cell is a slab across u.
            a0 = rand_point(rng, dim)
            pieces = []
            for _ in range(rng.randint(2, 4)):
                c = rand_rational(rng, -3, 3, 2)
                pieces.append((tuple(x + c * y for x, y in zip(a0, u)), rand_rational(rng)))
        else:
            pieces = [piece() for _ in range(rng.randint(2, 4))]
    else:
        pieces = [piece() for _ in range(rng.randint(1, 5))]
    return MaxAffineFn(dim, pieces), u, t, cw


def test_hinge_pair_matches_five_prune_reference():
    # The sign-bit construction against the old one, which prunes f, h and
    # max{f, h} separately and checks max{f, h} by a further prune.
    tags = Counter()
    for k in range(3000):
        base, u, t, cw = _hinge_inputs(k)
        want = ref.hinge_pair(base, u, t, cw)
        pair = hinge_pair(base, u, t, cw)
        assert (pair.f, pair.h, pair.fmax, pair.fmin) == want, k
        lows = pair.fmin.pieces
        g = (tuple(cw * v for v in u), -cw * t)
        ups = [(tuple(x + y for x, y in zip(a, g[0])), b + g[1]) for a, b in lows]
        downs = [(tuple(x - y for x, y in zip(a, g[0])), b - g[1]) for a, b in lows]
        slopes = [a for a, _ in base.pieces]
        tags["parallel-and-dominated"] += len(set(slopes)) < len(slopes) and len(lows) < len(slopes) - 1
        tags["single-piece"] += len(lows) == 1
        tags["coincident"] += any(q in lows for q in ups)
        # A far hinge hyperplane meeting exactly one cell of a base of 2+ pieces.
        split = sum(q in want[2].pieces and r in want[2].pieces for q, r in zip(ups, downs))
        tags["far-one-cell"] += abs(t) >= 1000 and len(lows) > 1 and split == 1
        tags[f"dim-{base.dim}"] += 1
    for tag in ("parallel-and-dominated", "single-piece", "coincident", "far-one-cell"):
        assert tags[tag] >= 100, tags
    assert min(tags[f"dim-{d}"] for d in range(1, 5)) == 750, tags


@pytest.mark.parametrize("k", [k for k in range(20) if k % 4])
def test_hinge_pair_issues_only_the_two_prunes(monkeypatch, k):
    # Dimensions 2-4 (dimension 1 prunes without LPs), every base shape: the
    # LPs of prune(base) and of the prune of its 2m candidates, in order.
    base, u, t, cw = _hinge_inputs(k)
    base = prune(base)
    m = len(base.pieces)
    g = (tuple(cw * v for v in u), -cw * t)
    both = MaxAffineFn(base.dim, base.pieces + tuple(
        (tuple(x + y for x, y in zip(a, g[0])), b + g[1]) for a, b in base.pieces))
    assert m < len(both.pieces) <= 2 * m
    programs = []
    real = _simplex.feasible_eq

    def recording(A, b):
        programs.append((A, b))
        return real(A, b)

    monkeypatch.setattr(_simplex, "feasible_eq", recording)
    prune(base)
    f = prune(both)
    # Two candidate slopes are both certified by the coordinate probes; with
    # more, prune must reach feasible_eq, or the comparison below is vacuous.
    assert programs or len(both.pieces) <= 2
    expected = list(programs)
    programs.clear()
    pair = hinge_pair(base, u, t, cw)
    assert pair.f == f
    assert programs == expected
    assert len(programs) <= 3 * m


def test_hinge_piece_check_catches_a_dropped_piece():
    # Tampering with f: dropping any piece of f that max{f, h} needs breaks
    # the piece-set check, with no LP involved.
    dropped = 0
    for k in range(40):
        pair = hinge_pair(*_hinge_inputs(k))
        analysis._check_hinge_pieces(pair.fmin, pair.f, pair.h, pair.fmax)
        for q in set(pair.f.pieces) & set(pair.fmax.pieces):
            rest = [p for p in pair.f.pieces if p != q]
            if not rest:
                continue
            tampered = MaxAffineFn(pair.f.dim, rest)
            with pytest.raises(AssertionError, match=r"max\{f, h\}"):
                analysis._check_hinge_pieces(pair.fmin, tampered, pair.h, pair.fmax)
            dropped += 1
    assert dropped >= 40


def test_identity_hand_computed_values():
    # Difference map at x = (2, 0) on the canonical hinge pair: the four
    # values are 2, 0, 1, 1 and the identity reads 2 + 0 = 1 + 1.
    spec = diff_spec(2)
    x = (Q(2), Q(0))
    mu = ScalarValuation.from_valuation_spec(spec, x)
    pair = hinge_pair(MaxAffineFn.zero(2), (Q(1), Q(0)), Q(1), Q(1))
    ok, lhs, rhs, parts = valuation_identity_check(mu, pair)
    assert ok
    assert (parts["max"], parts["min"], parts["f"], parts["h"]) == (Q(2), Q(0), Q(1), Q(1))
    assert lhs == rhs == Q(2)


def test_identity_holds_for_point_square_valuation():
    x0 = (Q(1), Q(-1))
    mu = ScalarValuation(lambda f: f(x0) ** 2, degree_bound=2, label="point-square")
    rng = random.Random(77)
    for _ in range(10):
        base = mf(
            2,
            *[
                (
                    (Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))),
                    Q(rng.randint(-2, 2)),
                )
                for _ in range(rng.randint(1, 3))
            ],
        )
        u = (Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2)))
        if u == (0, 0):
            u = (Q(1), Q(0))
        pair = hinge_pair(base, u, Q(rng.randint(-2, 2)), Q(rng.randint(1, 3)))
        ok, lhs, rhs, _ = valuation_identity_check(mu, pair)
        assert ok
        # Oracle recomputation from raw evaluations.
        assert lhs == pair.fmax(x0) ** 2 + pair.fmin(x0) ** 2
        assert rhs == pair.f(x0) ** 2 + pair.h(x0) ** 2


def test_identity_fails_for_range_over_two_points():
    # Spread over two probe points is not a valuation; some hinge pair
    # breaks the identity.
    p1, p2 = (Q(0), Q(0)), (Q(2), Q(0))

    def spread(f):
        return max(f(p1), f(p2)) - min(f(p1), f(p2))

    mu = ScalarValuation(spread, degree_bound=2, label="spread")
    broken = None
    for t in (Q(1), Q(1, 2), Q(-1)):
        pair = hinge_pair(MaxAffineFn.zero(2), (Q(1), Q(0)), t, Q(1))
        ok, lhs, rhs, _ = valuation_identity_check(mu, pair)
        if not ok:
            broken = (pair, lhs, rhs)
            break
    assert broken is not None
    _, lhs, rhs = broken
    assert lhs != rhs


def test_identity_check_accepts_raw_pair_when_min_convex():
    spec = diff_spec(2)
    mu = ScalarValuation.from_valuation_spec(spec, (Q(1), Q(1)))
    f = mf(2, ((1, 0), -1), ((0, 0), 0))
    h = mf(2, ((-1, 0), 1), ((0, 0), 0))
    ok, lhs, rhs, _ = valuation_identity_check(mu, f, h)
    assert ok


def test_identity_check_builds_the_hull_once(monkeypatch):
    from convval import analysis, lifted

    calls = {"hull": 0, "prune": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(lifted, "vertices_of_hrep", counted("hull", lifted.vertices_of_hrep))
    monkeypatch.setattr(lifted, "prune", counted("prune", lifted.prune))
    monkeypatch.setattr(analysis, "prune", counted("prune", analysis.prune))
    mu = ScalarValuation.from_valuation_spec(diff_spec(2), (Q(1), Q(1)))
    f = mf(2, ((1, 0), -1), ((0, 0), 0))
    h = mf(2, ((-1, 0), 1), ((0, 0), 0))
    ok, _, _, parts = valuation_identity_check(mu, f, h)
    # Each operand is pruned once, and the hull is built and pruned once.
    assert calls == {"hull": 1, "prune": 3}
    assert ok
    assert parts["min"] == mu(lifted.min_convex_hull(f, h))


def test_identity_check_calls_mu_once_per_function():
    seen = []

    def at_origin(f):
        seen.append(f)
        return f((Q(0), Q(0)))

    mu = ScalarValuation(at_origin, degree_bound=1, label="counted")
    pair = hinge_pair(MaxAffineFn.zero(2), (Q(1), Q(0)), Q(1), Q(1))
    ok, lhs, rhs, parts = valuation_identity_check(mu, pair)
    assert seen == [pair.fmax, pair.fmin, pair.f, pair.h]
    assert ok
    assert lhs == parts["max"] + parts["min"] and rhs == parts["f"] + parts["h"]
    assert parts == {"max": pair.fmax((Q(0), Q(0))), "min": pair.fmin((Q(0), Q(0))),
                     "f": pair.f((Q(0), Q(0))), "h": pair.h((Q(0), Q(0)))}


def test_identity_check_rejects_nonconvex_min():
    mu = ScalarValuation(lambda f: f((Q(0),)), degree_bound=1)
    f = mf(1, ((1,), 0), ((-1,), 0))
    h = mf(1, ((1,), -2), ((-1,), 2))
    with pytest.raises(ValueError):
        valuation_identity_check(mu, f, h)


def test_homogeneous_decompose_affine_plus_constant():
    spec = ValuationSpec("equivariant", 2, Q(5), DiscreteMeasure([(1, 1), (-1, 1)]))
    x = (Q(1), Q(2))
    mu = ScalarValuation.from_valuation_spec(spec, x)
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    coeffs = homogeneous_decompose(mu, f)
    assert coeffs[0] == Q(5)
    assert coeffs[1] == mu(f) - Q(5)
    assert all(c == 0 for c in coeffs[2:])


def test_homogeneous_decompose_quadratic_component():
    x0 = (Q(2), Q(0))

    def quad(f):
        return (f(x0) - f((Q(0), Q(0)))) ** 2 + 2

    mu = ScalarValuation(quad, degree_bound=2, label="square-plus-two")
    f = hinge(2)  # f(x0) - f(0) = 2, so the square is 4
    coeffs = homogeneous_decompose(mu, f)
    assert coeffs[0] == Q(2)
    assert coeffs[1] == Q(0)
    assert coeffs[2] == Q(4)


def test_homogeneous_decompose_constant_map():
    mu = ScalarValuation(lambda f: Q(7), degree_bound=3)
    coeffs = homogeneous_decompose(mu, hinge(2))
    assert coeffs[0] == Q(7)
    assert all(c == 0 for c in coeffs[1:])


def test_homogeneous_decompose_detects_non_polynomial():
    # Absolute value of the evaluation is not polynomial in the scaling.
    mu = ScalarValuation(lambda f: abs(f((Q(1), Q(0))) - 1), degree_bound=1)
    f = mf(2, ((1, 0), 0), ((0, 0), -3))
    with pytest.raises(ValueError):
        homogeneous_decompose(mu, f)


def test_decomposition_recombines_to_mu_under_scaling():
    spec = diff_spec(2)
    mu = ScalarValuation.from_valuation_spec(spec, (Q(3), Q(-1)))
    f = mf(2, ((1, 1), 0), ((0, -1), 2))
    coeffs = homogeneous_decompose(mu, f)
    for lam in (Q(0), Q(1, 2), Q(1), Q(3)):
        total = sum(c * lam**k for k, c in enumerate(coeffs))
        assert mu(scale(f, lam)) == total


def test_polarize_degree_one_is_identity():
    spec = diff_spec(2)
    mu = ScalarValuation.from_valuation_spec(spec, (Q(1), Q(1)))
    f = mf(2, ((1, 0), 1), ((0, 1), 0))
    # Subtract the constant part so mu is genuinely 1-homogeneous.
    one = ScalarValuation(lambda g: mu(g) - spec.c, degree_bound=1)
    assert polarize(one, 1, (f,)) == one(f)


def test_polarize_product_of_two_linear_maps():
    xa, xb = (Q(1), Q(0)), (Q(0), Q(1))
    zero2 = (Q(0), Q(0))

    def A(f):
        return f(xa) - f(zero2)

    def B(f):
        return f(xb) - f(zero2)

    mu = ScalarValuation(lambda f: A(f) * B(f), degree_bound=2, label="product")
    f1 = mf(2, ((1, 0), 0), ((0, 0), 0))
    f2 = mf(2, ((0, 1), 0), ((1, 1), -2))
    got = polarize(mu, 2, (f1, f2))
    expected = (A(f1) * B(f2) + A(f2) * B(f1)) / 2
    assert got == expected
    # Symmetry and the diagonal.
    assert polarize(mu, 2, (f2, f1)) == got
    assert polarize(mu, 2, (f1, f1)) == mu(f1)


def test_polarize_symmetry_check_catches_order_dependence():
    # A map that is not a restriction of a symmetric multilinear form must
    # be rejected by the built-in cross check.
    x0 = (Q(1), Q(0))

    def skew(f):
        v = f(x0)
        return v * v * v

    mu = ScalarValuation(skew, degree_bound=2, label="cubic-in-disguise")
    f1 = hinge(2)
    f2 = mf(2, ((0, 1), 0), ((0, 0), 0))
    with pytest.raises(ValueError):
        polarize(mu, 2, (f1, f2))


def test_locality_hand_example():
    spec = diff_spec(2)
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    x = (Q(1), Q(0))
    ell = MaxAffineFn.affine((Q(0), Q(2)), Q(-1))
    res = locality_check(spec, f, x, ell=ell)
    lhs, rhs = CHECKS["locality"].sides(spec=spec, f=f, modified=res["modified"])(x=x)
    assert lhs == rhs == Q(1)
    far = (Q(0), Q(10))
    assert res["modified"](far) == Q(19)
    assert f(far) == Q(10)


def test_locality_rejects_modification_touching_probes():
    spec = diff_spec(2)
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    x = (Q(1), Q(0))
    # ell equals f at the probe x itself, violating strictness.
    ell = MaxAffineFn.affine((Q(0), Q(0)), Q(2))
    with pytest.raises(ValueError):
        locality_check(spec, f, x, ell=ell)


def test_locality_negative_control_probe_perturbation_changes_value():
    spec = diff_spec(2)
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    x = (Q(1), Q(0))
    # Raise f above its value at the probe -x: psi at x must move.
    bump = MaxAffineFn.constant(2, f((Q(-1), Q(0))) + Q(1, 2))
    h = max_of(f, bump)
    assert psi_eval(spec, h, x) != psi_eval(spec, f, x)


def test_locality_with_generated_majorant():
    spec = diff_spec(2)
    f = mf(2, ((1, 1), 0), ((-1, 0), 2), ((0, -1), -1))
    x = (Q(1), Q(2))
    res = locality_check(spec, f, x)
    lhs, rhs = CHECKS["locality"].sides(spec=spec, f=f, modified=res["modified"])(x=x)
    assert lhs == rhs
    assert res["changed_at"] is not None
    assert res["modified"](res["changed_at"]) != f(res["changed_at"])


def test_find_strict_majorant_contract():
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    probes = [(Q(0), Q(0)), (Q(1), Q(0)), (Q(-1), Q(0))]
    ell, z = find_strict_majorant(f, probes)
    for p in probes:
        assert ell(p) < f(p)
    assert ell(z) > f(z)


def test_falsify_contravariance_finds_exact_gap_one():
    spec = ValuationSpec("equivariant", 3, Q(0), DiscreteMeasure([(1, 1), (-1, 1)]))
    res = falsify_contravariance(spec, budget=1000)
    assert res["found"]
    assert res["gap"] == Q(1)
    assert res["tried"] <= 10
    # Re-derive both sides from the stored witness.
    g, f, x = res["g"], res["f"], res["x"]
    from convval import compose_linear

    lhs = psi_eval(spec, compose_linear(f, g), x)
    rhs = psi_eval(spec, f, g.inverse_transpose().matvec(x))
    assert lhs == res["lhs"] and rhs == res["rhs"]
    assert lhs - rhs == Q(1)


def test_falsify_hand_witness_shear_and_hinge():
    # The first discovered witness: f = max(x1, 0), the unit shear feeding
    # x2 into x1, probed at the second basis vector.
    spec = ValuationSpec("equivariant", 3, Q(0), DiscreteMeasure([(1, 1), (-1, 1)]))
    f = hinge(3)
    g = RationalMatrix.shear(3, 0, 1, Q(1))
    x = (Q(0), Q(1), Q(0))
    from convval import compose_linear

    lhs = psi_eval(spec, compose_linear(f, g), x)
    rhs = psi_eval(spec, f, g.inverse_transpose().matvec(x))
    assert lhs == Q(1)
    assert rhs == Q(0)


def test_falsify_rejects_unsuitable_specs():
    nu = DiscreteMeasure([(1, 1), (-1, 1)])
    with pytest.raises(ValueError):
        falsify_contravariance(ValuationSpec("equivariant", 2, Q(0), nu))
    with pytest.raises(ValueError):
        falsify_contravariance(
            ValuationSpec("equivariant", 3, Q(0), DiscreteMeasure.empty())
        )
    with pytest.raises(ValueError):
        falsify_contravariance(
            ValuationSpec("contravariant-2d", 2, Q(0), nu)
        )


def test_falsify_respects_budget():
    spec = ValuationSpec("equivariant", 3, Q(0), DiscreteMeasure([(1, 1), (-1, 1)]))
    res = falsify_contravariance(spec, budget=2)
    assert res == {"found": False, "tried": 2}


def test_homogeneity_of_output_minus_constant():
    spec = ValuationSpec("equivariant", 2, Q(4), DiscreteMeasure([(1, 1), (-1, 1)]))
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    x = (Q(1), Q(-2))
    base = psi_eval(spec, f, x) - spec.c
    for lam in (Q(0), Q(1, 2), Q(2), Q(5)):
        assert psi_eval(spec, scale(f, lam), x) - spec.c == lam * base


def test_convergence_probe_first_order_exact():
    spec = diff_spec(2)
    f = mf(2, ((1, 0), 1), ((-1, 0), 0), ((0, 1), 0))
    h = hinge(2)
    res = convergence_probe(spec, f, h, (Q(1), Q(1)), steps=6)
    assert res["ok"]


def test_scalar_valuation_wrapper_casts_results():
    mu = ScalarValuation(lambda f: 3, degree_bound=0)
    assert mu(hinge(1)) == Q(3)
    with pytest.raises(TypeError):
        ScalarValuation(lambda f: 0.5, degree_bound=0)(hinge(1))
