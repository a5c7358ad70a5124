"""Named property suites: deterministic, parallel, replayable.

Each suite expands into an indexed list of independent cases.  A case draws
everything it needs from its own seeded stream `rng_for(seed, suite, ...)`,
so cases can run on any schedule (a thread pool here) and the assembled
report depends only on (suite, seed, trials).  Machine reports carry no
timing, which keeps equal runs byte-identical; wall time is shown in the
human format only.

A case that is *expected* to fail (an invalid measure, a counterexample
search) passes exactly when the failure materializes, and files the exact
witness under `exhibits` rather than `witnesses`.
"""

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

from .analysis import (
    ScalarValuation,
    falsify_contravariance,
    homogeneous_decompose,
    locality_check,
    polarize,
    valuation_identity_check,
)
from .generators import (
    paraboloid_tangents,
    rand_affine,
    rand_direction,
    rand_gl_matrix,
    rand_hinge_pair,
    rand_maxaffine,
    rand_nonzero_point,
    rand_point,
    rand_polytope,
    rand_rational,
    rand_sl_matrix,
    rng_for,
)
from .io import dump_json, value_from_doc, value_to_doc, witness_doc
from .linalg import dot, unit_vector
from .maxaffine import MaxAffineFn, add, compose_linear, scale
from .polytopes import (
    Polytope,
    SupportEvaluator,
    cut_pair,
    difference_body,
    projection_body_support,
    volume,
)
from .rational import Q, format_rational, rat_vector
from .valuations import (
    DiscreteMeasure,
    ValuationSpec,
    check_dual_epi_invariance,
    lift_vector_map,
    psi_eval,
    psi_expand,
    validate_measure,
)

SUITES = ("thm-a", "thm-b", "thm-2-1", "classical", "cor-e")

DEFAULT_TRIALS = {
    "thm-a": 100,
    "thm-b": 100,
    "thm-2-1": 50,
    "classical": 50,
    "cor-e": 30,
}

_ZERO = Q(0)
_ONE = Q(1)

# Five measures with vanishing signed reciprocal moment (sum w/s = 0) and
# five without; fixed so suite content is stable across seeds.
VALID_MEASURES = (
    DiscreteMeasure([(1, 1), (-1, 1)]),
    DiscreteMeasure([(2, 1), (-2, 1)]),
    DiscreteMeasure([(1, 2), (-2, 4)]),
    DiscreteMeasure([(Q(1, 2), 1), (Q(-1, 2), 1)]),
    DiscreteMeasure([(1, 1), (3, 1), (-1, Q(4, 3))]),
)
INVALID_MEASURES = (
    DiscreteMeasure([(2, 1)]),
    DiscreteMeasure([(1, 1)]),
    DiscreteMeasure([(1, 1), (-1, 2)]),
    DiscreteMeasure([(1, 2), (2, 1)]),
    DiscreteMeasure([(-3, 1)]),
)

CANONICAL_MEASURE = VALID_MEASURES[0]

CUT_DIRECTIONS = 50
MC_SAMPLES = 100_000
MC_TOLERANCE = 0.01


@dataclass
class CaseResult:
    index: int
    name: str
    ok: bool
    witness: dict = None
    exhibit: dict = None


@dataclass
class SuiteReport:
    """One suite run; passes + failures = cases, witnesses iff failures."""

    suite: str
    seed: object
    trials: int
    cases: int
    passes: int
    failures: int
    witnesses: list = field(default_factory=list)
    exhibits: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self):
        return self.failures == 0


def _fail(check, inputs, lhs, rhs, note=""):
    return False, witness_doc(check, inputs, lhs, rhs, note), None


def _midpoint(x, y):
    return tuple((a + b) / 2 for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# thm-a: the equivariant family on hinge pairs


def _thm_a_pair_case(seed, mi, nu, k):
    def run():
        rng = rng_for(seed, "thm-a", mi, k)
        dim = 1 + k % 3
        spec = ValuationSpec("equivariant", dim, rand_rational(rng, -4, 4, 2), nu)
        pair = rand_hinge_pair(rng, dim)
        f = pair.f

        for _ in range(3):
            x = rand_point(rng, dim)
            mu = ScalarValuation.from_valuation_spec(spec, x)
            ok, lhs, rhs, _ = valuation_identity_check(mu, pair)
            if not ok:
                return _fail(
                    "valuation-identity",
                    {"spec": spec, "x": x, "f": f, "h": pair.h,
                     "fmax": pair.fmax, "fmin": pair.fmin},
                    lhs, rhs,
                    "psi(max)+psi(min) vs psi(f)+psi(h) at the probe point",
                )

        ell = rand_affine(rng, dim)
        x = rand_point(rng, dim)
        lhs = psi_eval(spec, add(f, ell, do_prune=False), x)
        rhs = psi_eval(spec, f, x)
        if lhs != rhs:
            return _fail("dual-epi-invariance", {"spec": spec, "f": f, "ell": ell, "x": x},
                         lhs, rhs, "psi(f + affine) vs psi(f)")

        g = rand_gl_matrix(rng, dim)
        x = rand_point(rng, dim)
        lhs = psi_eval(spec, compose_linear(f, g), x)
        rhs = psi_eval(spec, f, g.matvec(x))
        if lhs != rhs:
            return _fail("equivariance", {"spec": spec, "f": f, "g": g, "x": x},
                         lhs, rhs, "psi(f o g)(x) vs psi(f)(g x)")

        x = rand_point(rng, dim)
        base = psi_eval(spec, f, x) - spec.c
        for lam in (_ZERO, Q(1, 2), Q(2)):
            lhs = psi_eval(spec, scale(f, lam), x) - spec.c
            rhs = lam * base
            if lhs != rhs:
                return _fail("homogeneity", {"spec": spec, "f": f, "lam": lam, "x": x},
                             lhs, rhs, "psi(lam f) - c vs lam (psi(f) - c)")

        x = rand_point(rng, dim)
        y = rand_point(rng, dim)
        lhs = 2 * psi_eval(spec, f, _midpoint(x, y))
        rhs = psi_eval(spec, f, x) + psi_eval(spec, f, y)
        if lhs > rhs:
            return _fail("convexity-midpoint", {"spec": spec, "f": f, "x": x, "y": y},
                         lhs, rhs, "2 psi(f)(midpoint) vs psi(f)(x) + psi(f)(y)")

        x = rand_nonzero_point(rng, dim)
        res = locality_check(spec, f, x, rng=rng)
        if not res["ok"]:
            return _fail("locality", {"spec": spec, "f": f, "modified": res["modified"], "x": x},
                         res["lhs"], res["rhs"],
                         "modification below f off the probe set changed the output")
        return True, None, None

    return run


def _thm_a_expand_case(seed, mi, nu):
    def run():
        rng = rng_for(seed, "thm-a", mi, "expand")
        dim = 2
        spec = ValuationSpec("equivariant", dim, rand_rational(rng, -4, 4, 2), nu)
        f = rand_maxaffine(rng, dim, 4)
        expanded = psi_expand(spec, f)
        for _ in range(5):
            x = rand_point(rng, dim)
            lhs = expanded.evaluate(x)
            rhs = psi_eval(spec, f, x)
            if lhs != rhs:
                return _fail("expand-consistency", {"spec": spec, "f": f, "x": x},
                             lhs, rhs, "materialized psi(f) vs pointwise psi(f)")
        return True, None, None

    return run


def _thm_a_invalid_case(seed, bi, nu):
    def run():
        rng = rng_for(seed, "thm-a", "invalid", bi)
        if validate_measure(nu, require_dual_invariance=True).ok:
            return _fail("dual-epi-invariance", {"measure": nu},
                         nu.signed_reciprocal_moment(), _ZERO,
                         "measure listed as invalid has vanishing moment")
        spec = ValuationSpec("equivariant", 2, rand_rational(rng, -4, 4, 2), nu)
        report = check_dual_epi_invariance(spec, trials=8, rng=rng)
        if report.passed:
            return _fail("dual-epi-invariance", {"spec": spec},
                         "no counterexample in 8 trials", "expected a violation",
                         "nonzero moment must break translation invariance")
        return True, None, report.witnesses[0]

    return run


def _thm_a_builders(seed, trials):
    builders = []
    for mi, nu in enumerate(VALID_MEASURES):
        for k in range(trials):
            builders.append((f"thm-a/measure{mi}/pair{k}", _thm_a_pair_case(seed, mi, nu, k)))
        if trials > 0:
            builders.append((f"thm-a/measure{mi}/expand", _thm_a_expand_case(seed, mi, nu)))
    if trials > 0:
        for bi, nu in enumerate(INVALID_MEASURES):
            builders.append((f"thm-a/invalid{bi}/dual-epi-breaks", _thm_a_invalid_case(seed, bi, nu)))
    return builders


# ---------------------------------------------------------------------------
# thm-b: planar contravariance, higher-dimensional falsification


def _thm_b_word_case(seed, k):
    def run():
        rng = rng_for(seed, "thm-b", "word", k)
        nu = VALID_MEASURES[k % len(VALID_MEASURES)]
        spec = ValuationSpec("contravariant-2d", 2, rand_rational(rng, -4, 4, 2), nu)
        f = rand_maxaffine(rng, 2)
        g = rand_sl_matrix(rng, 2)
        ginvt = g.inverse_transpose()
        fg = compose_linear(f, g)
        for _ in range(3):
            x = rand_point(rng, 2)
            lhs = psi_eval(spec, fg, x)
            rhs = psi_eval(spec, f, ginvt.matvec(x))
            if lhs != rhs:
                return _fail("contravariance", {"spec": spec, "f": f, "g": g, "x": x},
                             lhs, rhs, "psi(f o g)(x) vs psi(f)(g^-T x)")
        return True, None, None

    return run


def _thm_b_falsify_case(seed):
    def run():
        spec = ValuationSpec("equivariant", 3, _ZERO, CANONICAL_MEASURE)
        res = falsify_contravariance(spec, budget=1000)
        if not res["found"]:
            return _fail("contravariance-gap", {"spec": spec},
                         f"no counterexample in {res['tried']} candidates",
                         "expected gap 1",
                         "the shear/hinge search must succeed in dimension 3")
        exhibit = witness_doc(
            "contravariance-gap",
            {"spec": spec, "f": res["f"], "g": res["g"], "x": res["x"]},
            res["lhs"], res["rhs"],
            f"counterexample after {res['tried']} candidates; gap {format_rational(res['gap'])}",
        )
        if res["gap"] != 1:
            return False, exhibit, None
        return True, None, exhibit

    return run


def _thm_b_empty_case(seed):
    def run():
        rng = rng_for(seed, "thm-b", "empty")
        for dim in (2, 3):
            spec = ValuationSpec("equivariant", dim, Q(7, 2), DiscreteMeasure.empty())
            for _ in range(5):
                f = rand_maxaffine(rng, dim)
                g = rand_sl_matrix(rng, dim)
                x = rand_point(rng, dim)
                lhs = psi_eval(spec, compose_linear(f, g), x)
                rhs = psi_eval(spec, f, g.inverse_transpose().matvec(x))
                if lhs != rhs:
                    return _fail("contravariance", {"spec": spec, "f": f, "g": g, "x": x},
                                 lhs, rhs, "a constant map must be vacuously contravariant")
        return True, None, None

    return run


def _thm_b_builders(seed, trials):
    builders = []
    for k in range(trials):
        builders.append((f"thm-b/sl2-word{k}", _thm_b_word_case(seed, k)))
    if trials > 0:
        builders.append(("thm-b/falsify-n3", _thm_b_falsify_case(seed)))
        builders.append(("thm-b/empty-measure-vacuous", _thm_b_empty_case(seed)))
    return builders


# ---------------------------------------------------------------------------
# thm-2-1: homogeneous decomposition and polarization


def _decompose_case(seed, k):
    def run():
        rng = rng_for(seed, "thm-2-1", "decompose", k)
        dim = 2 + k % 2
        nu = VALID_MEASURES[k % len(VALID_MEASURES)]
        spec = ValuationSpec("equivariant", dim, rand_rational(rng, -4, 4, 2), nu)
        x = rand_point(rng, dim)
        mu = ScalarValuation.from_valuation_spec(spec, x)
        f = rand_maxaffine(rng, dim)
        coeffs = homogeneous_decompose(mu, f)
        expected = [spec.c, mu(f) - spec.c] + [_ZERO] * (dim - 1)
        if coeffs != expected:
            return _fail("decomposition", {"spec": spec, "x": x, "f": f},
                         tuple(coeffs), tuple(expected),
                         "degree coefficients vs (c, mu(f)-c, 0, ...)")
        return True, None, None

    return run


def _polarize_case(seed, k):
    def run():
        rng = rng_for(seed, "thm-2-1", "polarize", k)
        dim = 2
        nu = VALID_MEASURES[k % len(VALID_MEASURES)]
        c = rand_rational(rng, -4, 4, 2)
        spec = ValuationSpec("equivariant", dim, c, nu)
        x = rand_point(rng, dim)
        y = rand_point(rng, dim)
        f1 = rand_maxaffine(rng, dim, 5)
        f2 = rand_maxaffine(rng, dim, 5)

        def a_part(fn):
            return psi_eval(spec, fn, x) - c

        def b_part(fn):
            return psi_eval(spec, fn, y) - c

        if k % 2:
            mu = ScalarValuation(a_part, 1, label="probe-minus-c")
            val = polarize(mu, 1, (f1,))
            oracle = a_part(f1)
            if val != oracle:
                return _fail("polarization-diagonal", {"spec": spec, "x": x, "y": y, "f1": f1},
                             val, oracle, "degree-1 polarization must be the map itself")
            return True, None, None

        mu = ScalarValuation(lambda fn: a_part(fn) * b_part(fn), 2, label="probe-product")
        val = polarize(mu, 2, (f1, f2))
        oracle = (a_part(f1) * b_part(f2) + a_part(f2) * b_part(f1)) / 2
        if val != oracle:
            return _fail("polarization-oracle", {"spec": spec, "x": x, "y": y, "f1": f1, "f2": f2},
                         val, oracle, "mixed differences vs the closed product form")
        swapped = polarize(mu, 2, (f2, f1), check=False)
        if swapped != val:
            return _fail("polarization-symmetry", {"spec": spec, "x": x, "y": y, "f1": f1, "f2": f2},
                         val, swapped, "polarization must be symmetric in its arguments")
        diag = polarize(mu, 2, (f1, f1), check=False)
        if diag != mu(f1):
            return _fail("polarization-diagonal", {"spec": spec, "x": x, "y": y, "f1": f1},
                         diag, mu(f1), "diagonal restriction must recover the valuation")
        return True, None, None

    return run


def _thm_2_1_builders(seed, trials):
    builders = []
    for k in range(trials):
        builders.append((f"thm-2-1/decompose{k}", _decompose_case(seed, k)))
    for k in range(trials):
        builders.append((f"thm-2-1/polarize{k}", _polarize_case(seed, k)))
    return builders


# ---------------------------------------------------------------------------
# classical: difference and projection bodies


def _cube(dim, lo=0, hi=1):
    return Polytope(dim, list(product((Q(lo), Q(hi)), repeat=dim)))


def _polygon_halfplanes(poly):
    """Exact (normal, offset) pairs with <n, x> <= offset describing a polygon."""
    out = []
    for normal, _ in poly.facets():
        n = rat_vector(normal)
        out.append((n, poly.support(n)))
    return out


def mc_projection_area(P, axis, samples, rng, pad=0.125):
    """Monte Carlo shadow area: drop `axis`, sample a padded bounding box.

    Floats only; the exact half-plane description of the shadow is converted
    once.  Used as an independent oracle against the exact support value.
    """
    pts = [tuple(v[j] for j in range(P.dim) if j != axis) for v in P.vertices]
    shadow = Polytope(2, pts)
    planes = [(float(n[0]), float(n[1]), float(off)) for n, off in _polygon_halfplanes(shadow)]
    xs = [float(p[0]) for p in pts]
    ys = [float(p[1]) for p in pts]
    lo_x, hi_x = min(xs) - pad, max(xs) + pad
    lo_y, hi_y = min(ys) - pad, max(ys) + pad
    hits = 0
    for _ in range(samples):
        px = lo_x + rng.random() * (hi_x - lo_x)
        py = lo_y + rng.random() * (hi_y - lo_y)
        if all(a * px + b * py <= off + 1e-12 for a, b, off in planes):
            hits += 1
    return hits / samples * (hi_x - lo_x) * (hi_y - lo_y)


def _classical_diff_cube_case(seed, dim):
    def run():
        cube = _cube(dim)
        expected = _cube(dim, -1, 1)
        got = difference_body(cube)
        if got != expected:
            return _fail("difference-exact", {"P": cube, "expected": expected},
                         got, expected, "difference body of the unit cube")
        return True, None, None

    return run


def _classical_simplex_ratio_case(seed):
    def run():
        tri = Polytope(2, [(0, 0), (1, 0), (0, 1)])
        dbody = difference_body(tri)
        lhs = volume(dbody)
        rhs = 6 * volume(tri)
        if lhs != rhs:
            return _fail("volume-ratio", {"P": tri, "factor": 6}, lhs, rhs,
                         "vol(D T) vs 6 vol(T) for the 2-simplex")
        if len(dbody.vertices) != 6:
            return _fail("volume-ratio", {"P": tri, "factor": 6},
                         len(dbody.vertices), 6, "D T must be a hexagon")
        return True, None, None

    return run


def _classical_proj_cube_case(seed, axis):
    def run():
        cube = _cube(3)
        u = unit_vector(3, axis)
        exact = projection_body_support(cube, u)
        if exact != 1:
            return _fail("projection-exact", {"P": cube, "u": u, "expected": _ONE},
                         exact, _ONE, "unit cube shadow area along an axis")
        path = f"{seed}/classical/mc/{axis}"
        mc = mc_projection_area(cube, axis, MC_SAMPLES, random.Random(path))
        if abs(mc - float(exact)) > MC_TOLERANCE * float(exact):
            return _fail(
                "projection-mc",
                {"P": cube, "axis": axis, "samples": MC_SAMPLES, "path": path},
                exact, f"{mc:.6f}",
                "Monte Carlo shadow area strayed beyond one percent",
            )
        return True, None, None

    return run


def _classical_proj_simplex_case(seed):
    def run():
        simplex = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        for axis in range(3):
            u = unit_vector(3, axis)
            got = projection_body_support(simplex, u)
            if got != Q(1, 2):
                return _fail("projection-exact", {"P": simplex, "u": u, "expected": Q(1, 2)},
                             got, Q(1, 2), "standard simplex shadow area along an axis")
        return True, None, None

    return run


def _classical_cut_case(seed, k, kind):
    def run():
        rng = rng_for(seed, "classical", "cut", k)
        dim = 3 if k % 10 < 3 else 2
        P = rand_polytope(rng, dim)
        w = rand_direction(rng, dim)
        vals = [dot(w, v) for v in P.vertices]
        lo, hi = min(vals), max(vals)
        t = lo + (hi - lo) * Q(rng.randint(1, 3), 4)
        below, above, section = cut_pair(P, w, t)
        if kind == "difference":
            make = SupportEvaluator.of_difference
        else:
            make = SupportEvaluator.of_projection
        e_parts = (make(below), make(above), make(P), make(section))
        dirs = rng_for(seed, "classical", "cut", k, kind)
        for _ in range(CUT_DIRECTIONS):
            u = rand_direction(dirs, dim)
            lhs = e_parts[0].value(u) + e_parts[1].value(u)
            rhs = e_parts[2].value(u) + e_parts[3].value(u)
            if lhs != rhs:
                return _fail("cut-identity",
                             {"kind": kind, "P": P, "w": w, "t": t, "u": u},
                             lhs, rhs,
                             "support of the two halves vs body plus section")
        return True, None, None

    return run


def _classical_builders(seed, trials):
    builders = []
    if trials > 0:
        builders.append(("classical/diff-square", _classical_diff_cube_case(seed, 2)))
        builders.append(("classical/diff-cube", _classical_diff_cube_case(seed, 3)))
        builders.append(("classical/diff-simplex-ratio", _classical_simplex_ratio_case(seed)))
        for axis in range(3):
            builders.append((f"classical/proj-cube-axis{axis}", _classical_proj_cube_case(seed, axis)))
        builders.append(("classical/proj-simplex", _classical_proj_simplex_case(seed)))
    for k in range(trials):
        for kind in ("difference", "projection"):
            builders.append((f"classical/cut{k}/{kind}", _classical_cut_case(seed, k, kind)))
    return builders


# ---------------------------------------------------------------------------
# cor-e: no nonzero map pairs linearly with the argument point


_MIDPOINT_PROBES = ((2, 2), (1, 1), (4, 4), (2, -2), (6, 6))
_PAIRING_PROBES = ((0, 0), (2, 0), (0, 2), (2, 2), (4, 0), (-2, 2), (1, 1))


def _cor_e_violation_case(seed, mi, nu):
    def run():
        spec = ValuationSpec("contravariant-2d", 2, _ZERO, nu)
        f = paraboloid_tangents(2, grid=2)
        rng = rng_for(seed, "cor-e", "midpoint", mi)
        pairs = [(rat_vector(p), rat_vector(tuple(-v for v in p))) for p in _MIDPOINT_PROBES]
        for _ in range(5):
            pairs.append((rand_point(rng, 2), rand_point(rng, 2)))
        for x, y in pairs:
            lhs = 2 * psi_eval(spec, f, _midpoint(x, y))
            rhs = psi_eval(spec, f, x) + psi_eval(spec, f, y)
            if lhs != rhs:
                exhibit = witness_doc(
                    "lifted-linearity", {"spec": spec, "f": f, "x": x, "y": y},
                    lhs, rhs,
                    "midpoint linearity fails: the output is genuinely convex in x",
                )
                return True, None, exhibit
        return _fail("lifted-linearity", {"spec": spec, "f": f},
                     "no violation found", "expected a midpoint gap",
                     "a nonzero measure on a strictly convex profile must bend")

    return run


def _cor_e_pairing_case(seed, mi, nu):
    def run():
        spec = ValuationSpec("contravariant-2d", 2, _ZERO, nu)
        f = paraboloid_tangents(2, grid=2)
        basis_values = tuple(psi_eval(spec, f, unit_vector(2, j)) for j in range(2))
        for p in _PAIRING_PROBES:
            x = rat_vector(p)
            lhs = lift_vector_map(lambda _fn: basis_values, f, x)
            rhs = psi_eval(spec, f, x)
            if lhs != rhs:
                exhibit = witness_doc(
                    "lifted-pairing", {"spec": spec, "f": f, "x": x},
                    lhs, rhs,
                    "<x, v(f)> with v read off the basis vs the map itself",
                )
                return True, None, exhibit
        return _fail("lifted-pairing", {"spec": spec, "f": f},
                     "pairing matched everywhere", "expected an inconsistency",
                     "only the zero map factors through a fixed vector")

    return run


def _cor_e_zero_case(seed, trials):
    def run():
        spec = ValuationSpec("contravariant-2d", 2, _ZERO, DiscreteMeasure.empty())
        f = paraboloid_tangents(2, grid=2)
        rng = rng_for(seed, "cor-e", "zero")
        basis_values = tuple(psi_eval(spec, f, unit_vector(2, j)) for j in range(2))
        for _ in range(max(trials, 1)):
            x = rand_point(rng, 2)
            y = rand_point(rng, 2)
            lhs = 2 * psi_eval(spec, f, _midpoint(x, y))
            rhs = psi_eval(spec, f, x) + psi_eval(spec, f, y)
            if lhs != rhs:
                return _fail("lifted-linearity", {"spec": spec, "f": f, "x": x, "y": y},
                             lhs, rhs, "the zero map must be exactly linear")
            paired = lift_vector_map(lambda _fn: basis_values, f, x)
            direct = psi_eval(spec, f, x)
            if paired != direct:
                return _fail("lifted-pairing", {"spec": spec, "f": f, "x": x},
                             paired, direct, "the zero map must pair consistently")
        return True, None, None

    return run


def _cor_e_builders(seed, trials):
    builders = []
    if trials > 0:
        for mi, nu in enumerate(VALID_MEASURES):
            builders.append((f"cor-e/measure{mi}/midpoint", _cor_e_violation_case(seed, mi, nu)))
            builders.append((f"cor-e/measure{mi}/pairing", _cor_e_pairing_case(seed, mi, nu)))
        builders.append(("cor-e/zero-map", _cor_e_zero_case(seed, trials)))
    return builders


# ---------------------------------------------------------------------------
# runner and reports


_BUILDERS = {
    "thm-a": _thm_a_builders,
    "thm-b": _thm_b_builders,
    "thm-2-1": _thm_2_1_builders,
    "classical": _classical_builders,
    "cor-e": _cor_e_builders,
}


def _run_case(index, name, thunk):
    try:
        ok, witness, exhibit = thunk()
    except Exception as exc:  # surfaced as an honest failure, never swallowed
        ok = False
        witness = witness_doc("case-error", {"case": name},
                              type(exc).__name__, repr(exc),
                              "unexpected exception while running the case")
        exhibit = None
    if not ok and witness is None:
        witness = witness_doc("case-error", {"case": name}, "failed", "no witness", "")
    return CaseResult(index, name, ok, witness if not ok else None, exhibit)


def run_suite(name, seed, trials=None):
    """Run one named suite; deterministic in (name, seed, trials)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if trials is None:
        trials = DEFAULT_TRIALS[name]
    trials = int(trials)
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    start = time.perf_counter()
    builders = _BUILDERS[name](seed, trials)
    results = [None] * len(builders)
    if builders:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_run_case, i, nm, th) for i, (nm, th) in enumerate(builders)]
            for fut in futures:
                res = fut.result()
                results[res.index] = res
    wall = time.perf_counter() - start
    passes = sum(1 for r in results if r.ok)
    witnesses = []
    exhibits = []
    for r in results:
        if not r.ok:
            witnesses.append(dict(r.witness, case=r.name, index=r.index))
        if r.exhibit is not None:
            exhibits.append(dict(r.exhibit, case=r.name, index=r.index))
    return SuiteReport(
        suite=name,
        seed=seed,
        trials=trials,
        cases=len(results),
        passes=passes,
        failures=len(results) - passes,
        witnesses=witnesses,
        exhibits=exhibits,
        wall_time=wall,
    )


def report_doc(report):
    """Machine form of a report; no timing, byte-stable for equal runs."""
    return {
        "suite": report.suite,
        "seed": report.seed,
        "trials": report.trials,
        "cases": report.cases,
        "passes": report.passes,
        "failures": report.failures,
        "witnesses": report.witnesses,
        "exhibits": report.exhibits,
    }


def _value_brief(doc):
    if isinstance(doc, dict):
        if "value" in doc:
            return str(doc["value"])
        return doc.get("kind", "?")
    return str(doc)


def emit_report(report, format="human"):
    if format == "machine":
        return dump_json(report_doc(report))
    if format != "human":
        raise ValueError(f"unknown format {format!r}")
    lines = [
        f"suite {report.suite}  seed {report.seed}  trials {report.trials}",
        f"cases {report.cases}  passes {report.passes}  failures {report.failures}"
        f"  exhibits {len(report.exhibits)}",
        f"wall time {report.wall_time:.3f}s",
    ]
    for w in report.witnesses:
        lines.append(
            f"FAIL case {w.get('case')} [{w.get('index')}] check {w.get('check')}: "
            f"lhs {_value_brief(w.get('lhs'))} vs rhs {_value_brief(w.get('rhs'))}"
        )
    for e in report.exhibits:
        lines.append(
            f"exhibit case {e.get('case')} [{e.get('index')}] check {e.get('check')}: "
            f"lhs {_value_brief(e.get('lhs'))} vs rhs {_value_brief(e.get('rhs'))}"
        )
    lines.append("PASS" if report.failures == 0 else "FAIL")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# witness replay


def _replay_dual_epi(i):
    lhs = psi_eval(i["spec"], add(i["f"], i["ell"], do_prune=False), i["x"])
    return lhs, psi_eval(i["spec"], i["f"], i["x"])


def _replay_equivariance(i):
    lhs = psi_eval(i["spec"], compose_linear(i["f"], i["g"]), i["x"])
    return lhs, psi_eval(i["spec"], i["f"], i["g"].matvec(i["x"]))


def _replay_contravariance(i):
    lhs = psi_eval(i["spec"], compose_linear(i["f"], i["g"]), i["x"])
    return lhs, psi_eval(i["spec"], i["f"], i["g"].inverse_transpose().matvec(i["x"]))


def _replay_valuation_identity(i):
    spec, x = i["spec"], i["x"]
    lhs = psi_eval(spec, i["fmax"], x) + psi_eval(spec, i["fmin"], x)
    return lhs, psi_eval(spec, i["f"], x) + psi_eval(spec, i["h"], x)


def _replay_homogeneity(i):
    spec = i["spec"]
    lhs = psi_eval(spec, scale(i["f"], i["lam"]), i["x"]) - spec.c
    return lhs, i["lam"] * (psi_eval(spec, i["f"], i["x"]) - spec.c)


def _replay_midpoint(i):
    spec, f, x, y = i["spec"], i["f"], i["x"], i["y"]
    lhs = 2 * psi_eval(spec, f, _midpoint(x, y))
    return lhs, psi_eval(spec, f, x) + psi_eval(spec, f, y)


def _replay_locality(i):
    lhs = psi_eval(i["spec"], i["modified"], i["x"])
    return lhs, psi_eval(i["spec"], i["f"], i["x"])


def _replay_expand(i):
    lhs = psi_expand(i["spec"], i["f"]).evaluate(i["x"])
    return lhs, psi_eval(i["spec"], i["f"], i["x"])


def _replay_decomposition(i):
    spec, x, f = i["spec"], i["x"], i["f"]
    mu = ScalarValuation.from_valuation_spec(spec, x)
    coeffs = homogeneous_decompose(mu, f)
    expected = [spec.c, mu(f) - spec.c] + [_ZERO] * (spec.dim - 1)
    return tuple(coeffs), tuple(expected)


def _polarize_parts(i):
    spec, x, y = i["spec"], i["x"], i["y"]

    def a_part(fn):
        return psi_eval(spec, fn, x) - spec.c

    def b_part(fn):
        return psi_eval(spec, fn, y) - spec.c

    mu = ScalarValuation(lambda fn: a_part(fn) * b_part(fn), 2, label="probe-product")
    return mu, a_part, b_part


def _replay_polarization_oracle(i):
    mu, a_part, b_part = _polarize_parts(i)
    f1, f2 = i["f1"], i["f2"]
    lhs = polarize(mu, 2, (f1, f2), check=False)
    return lhs, (a_part(f1) * b_part(f2) + a_part(f2) * b_part(f1)) / 2


def _replay_polarization_symmetry(i):
    mu, _, _ = _polarize_parts(i)
    lhs = polarize(mu, 2, (i["f1"], i["f2"]), check=False)
    return lhs, polarize(mu, 2, (i["f2"], i["f1"]), check=False)


def _replay_polarization_diagonal(i):
    if "f2" in i:
        mu, _, _ = _polarize_parts(i)
        lhs = polarize(mu, 2, (i["f1"], i["f1"]), check=False)
        return lhs, mu(i["f1"])
    spec, x = i["spec"], i["x"]
    mu = ScalarValuation(lambda fn: psi_eval(spec, fn, x) - spec.c, 1, label="probe-minus-c")
    lhs = polarize(mu, 1, (i["f1"],), check=False)
    return lhs, mu(i["f1"])


def _replay_lifted_pairing(i):
    spec, f, x = i["spec"], i["f"], i["x"]
    basis_values = tuple(psi_eval(spec, f, unit_vector(spec.dim, j)) for j in range(spec.dim))
    lhs = lift_vector_map(lambda _fn: basis_values, f, x)
    return lhs, psi_eval(spec, f, x)


def _replay_cut_identity(i):
    below, above, section = cut_pair(i["P"], i["w"], i["t"])
    if i["kind"] == "difference":
        make = SupportEvaluator.of_difference
    else:
        make = SupportEvaluator.of_projection
    u = i["u"]
    lhs = make(below).value(u) + make(above).value(u)
    return lhs, make(i["P"]).value(u) + make(section).value(u)


def _replay_difference_exact(i):
    return difference_body(i["P"]), i["expected"]


def _replay_volume_ratio(i):
    return volume(difference_body(i["P"])), i["factor"] * volume(i["P"])


def _replay_projection_exact(i):
    return projection_body_support(i["P"], i["u"]), i["expected"]


def _replay_projection_mc(i):
    exact = projection_body_support(i["P"], unit_vector(i["P"].dim, i["axis"]))
    mc = mc_projection_area(i["P"], i["axis"], i["samples"], random.Random(i["path"]))
    return exact, f"{mc:.6f}"


def _replay_contravariance_gap(i):
    return _replay_contravariance(i)


_REPLAY = {
    "dual-epi-invariance": _replay_dual_epi,
    "equivariance": _replay_equivariance,
    "contravariance": _replay_contravariance,
    "contravariance-gap": _replay_contravariance_gap,
    "valuation-identity": _replay_valuation_identity,
    "homogeneity": _replay_homogeneity,
    "convexity-midpoint": _replay_midpoint,
    "lifted-linearity": _replay_midpoint,
    "locality": _replay_locality,
    "expand-consistency": _replay_expand,
    "decomposition": _replay_decomposition,
    "polarization-oracle": _replay_polarization_oracle,
    "polarization-symmetry": _replay_polarization_symmetry,
    "polarization-diagonal": _replay_polarization_diagonal,
    "lifted-pairing": _replay_lifted_pairing,
    "cut-identity": _replay_cut_identity,
    "difference-exact": _replay_difference_exact,
    "volume-ratio": _replay_volume_ratio,
    "projection-exact": _replay_projection_exact,
    "projection-mc": _replay_projection_mc,
}


def replay_witness(doc):
    """Recompute a witness document's comparison from its recorded inputs.

    Returns a dict with the recomputed sides and whether they match the
    recorded ones exactly (after identical serialization).
    """
    check = doc.get("check")
    rule = _REPLAY.get(check)
    if rule is None:
        raise ValueError(f"no replay rule for check {check!r}")
    inputs = {k: value_from_doc(v, where=f"inputs.{k}") for k, v in doc.get("inputs", {}).items()}
    lhs, rhs = rule(inputs)
    lhs_doc = value_to_doc(lhs)
    rhs_doc = value_to_doc(rhs)
    return {
        "check": check,
        "match": lhs_doc == doc.get("lhs") and rhs_doc == doc.get("rhs"),
        "lhs": lhs_doc,
        "rhs": rhs_doc,
        "recorded_lhs": doc.get("lhs"),
        "recorded_rhs": doc.get("rhs"),
    }
