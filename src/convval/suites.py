"""Named property suites: deterministic, replayable.

Each suite expands into an indexed list of independent cases, each a
module-level function and its arguments.  A case draws everything it needs
from its own seeded stream `rng_for(seed, suite, ...)`, so cases can run on
any schedule (here one after another) and the assembled report depends
only on (suite, seed, trials).  Machine reports carry no timing, which keeps
equal runs byte-identical; wall time is shown in the human format only.

Every property is written once, in the registry `CHECKS`: a function from a
witness's named inputs to the two sides of one exact comparison, and the
comparator that decides failure.  Cases run their comparisons through it and
`replay_witness` recomputes a witness through it, so every witness a case
files replays by construction.  A case that is *expected* to fail (an
invalid measure, a counterexample search) passes exactly when the failure
materializes, and files the exact witness under `exhibits` rather than
`witnesses`.
"""

import inspect
import operator
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .analysis import (
    ScalarValuation,
    falsify_contravariance,
    homogeneous_decompose,
    locality_check,
    polarize,
    require_homogeneous,
    valuation_identity_check,
)
from .errors import ParseError
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
from .maxaffine import add, compose_linear, scale
from .polytopes import (
    Polytope,
    cut_pair,
    difference_body,
    difference_body_support,
    projection_body_support,
    volume,
)
from .rational import Q, format_rational, rat_vector
from .valuations import (
    DiscreteMeasure,
    ValuationSpec,
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
MC_PAD = 0.125


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


# ---------------------------------------------------------------------------
# the check registry


@dataclass(frozen=True)
class Check:
    """One property, written once for cases and replay alike.

    `sides(**shared)` does the work a case shares across its probes and
    returns a function of the remaining inputs giving (lhs, rhs);
    `fails(lhs, rhs)` is true when the property is broken.  `kinds` maps the
    witness inputs, in recorded order, to their document kinds; `shared`
    names the parameters of `sides`, and `optional` those of them a witness
    may omit.
    """

    kinds: dict
    sides: object
    fails: object
    shared: tuple
    optional: tuple


CHECKS = {}

# Witness kinds that record something other than a comparison.
_NOT_COMPARISONS = {
    "case-error": "an exception",
    "expected-absent": "an expected phenomenon that did not appear",
}


def _check(name, fails=operator.ne, **kinds):
    def register(sides):
        params = inspect.signature(sides).parameters.values()
        CHECKS[name] = Check(kinds, sides, fails,
                             tuple(p.name for p in params),
                             tuple(p.name for p in params if p.default is not p.empty))
        return sides

    return register


class CaseFailed(Exception):
    """Ends a case; its one argument is the witness the report files."""


class _Bound:
    """A registered check with the inputs it shares across probes bound."""

    def __init__(self, name, note, **inputs):
        self.name, self.note, self.check = name, note, CHECKS[name]
        self.inputs = inputs
        shared = self.check.shared
        self.sides = self.check.sides(**{k: v for k, v in inputs.items() if k in shared})
        self.fixed = {k: v for k, v in inputs.items() if k not in shared}

    def compare(self, **probe):
        return self.sides(**self.fixed, **probe)

    def failure(self, **probe):
        """The witness if the check fails at this probe, else None."""
        lhs, rhs = self.compare(**probe)
        if not self.check.fails(lhs, rhs):
            return None
        inputs = {**self.inputs, **probe}
        return witness_doc(self.name, {k: inputs[k] for k in self.check.kinds if k in inputs},
                           lhs, rhs, self.note)

    def require(self, **probe):
        witness = self.failure(**probe)
        if witness is not None:
            raise CaseFailed(witness)


def _absent(inputs, observed, expected, note):
    return CaseFailed(witness_doc("expected-absent", inputs, observed, expected, note))


@lru_cache(maxsize=1)
def _memo(fn, *args):
    """fn(*args) for a pure fn of immutable arguments, kept for an immediate
    repeat: two checks of one case share one difference body, shadow area or
    polarization."""
    return fn(*args)


class _Estimate(str):
    """A float recorded to six places; `value` keeps it unrounded."""

    def __new__(cls, value):
        text = super().__new__(cls, f"{value:.6f}")
        text.value = value
        return text


def _product_valuation(spec, x, y):
    """(psi(.)(x) - c) (psi(.)(y) - c), 2-homogeneous, and its two factors."""

    def a_part(fn):
        return psi_eval(spec, fn, x) - spec.c

    def b_part(fn):
        return psi_eval(spec, fn, y) - spec.c

    return ScalarValuation(lambda fn: a_part(fn) * b_part(fn), 2, label="probe-product"), a_part, b_part


@_check("valuation-identity", spec="valuation", x="vector", f="function", h="function",
        fmax="function", fmin="function")
def _valuation_identity(spec, f, h, fmax, fmin):
    return lambda x: valuation_identity_check(ScalarValuation.from_valuation_spec(spec, x),
                                              f, h, fmax, fmin)[1:3]


@_check("dual-epi-invariance", spec="valuation", f="function", ell="function", x="vector")
def _dual_epi_invariance(spec, f, ell):
    shifted = add(f, ell, do_prune=False)
    return lambda x: (psi_eval(spec, shifted, x), psi_eval(spec, f, x))


@_check("equivariance", spec="valuation", f="function", g="matrix", x="vector")
def _equivariance(spec, f, g):
    fg = compose_linear(f, g)
    return lambda x: (psi_eval(spec, fg, x), psi_eval(spec, f, g.matvec(x)))


@_check("contravariance", spec="valuation", f="function", g="matrix", x="vector")
@_check("contravariance-gap", spec="valuation", f="function", g="matrix", x="vector")
def _contravariance(spec, f, g):
    fg = compose_linear(f, g)
    ginvt = g.inverse_transpose()
    return lambda x: (psi_eval(spec, fg, x), psi_eval(spec, f, ginvt.matvec(x)))


@_check("homogeneity", spec="valuation", f="function", lam="rational", x="vector")
def _homogeneity(spec, f, x):
    base = psi_eval(spec, f, x) - spec.c
    return lambda lam: (psi_eval(spec, scale(f, lam), x) - spec.c, lam * base)


@_check("convexity-midpoint", fails=operator.gt, spec="valuation", f="function", x="vector",
        y="vector")
@_check("lifted-linearity", spec="valuation", f="function", x="vector", y="vector")
def _midpoint_sides(spec, f):
    return lambda x, y: (2 * psi_eval(spec, f, tuple((a + b) / 2 for a, b in zip(x, y))),
                         psi_eval(spec, f, x) + psi_eval(spec, f, y))


@_check("locality", spec="valuation", f="function", modified="function", x="vector")
def _locality(spec, f, modified):
    return lambda x: (psi_eval(spec, modified, x), psi_eval(spec, f, x))


@_check("expand-consistency", spec="valuation", f="function", x="vector")
def _expand_consistency(spec, f):
    expanded = psi_expand(spec, f)
    return lambda x: (expanded.evaluate(x), psi_eval(spec, f, x))


@_check("decomposition", spec="valuation", x="vector", f="function")
def _decomposition(spec, x):
    mu = ScalarValuation.from_valuation_spec(spec, x)
    return lambda f: (tuple(homogeneous_decompose(mu, f)),
                      (spec.c, mu(f) - spec.c) + (_ZERO,) * (spec.dim - 1))


def _polarized_product(spec, x, y, f1, f2):
    """The probe product polarized at (f1, f2), unchecked.  Pure in its
    arguments, so the oracle and symmetry checks of one case share it
    through _memo."""
    mu, _, _ = _product_valuation(spec, x, y)
    return polarize(mu, 2, (f1, f2), check=False)


@_check("polarization-oracle", spec="valuation", x="vector", y="vector", f1="function",
        f2="function")
def _polarization_oracle(spec, x, y):
    mu, a, b = _product_valuation(spec, x, y)

    def sides(f1, f2):
        value = _memo(_polarized_product, spec, x, y, f1, f2)
        require_homogeneous(mu, 2, (f1, f2))
        return value, (a(f1) * b(f2) + a(f2) * b(f1)) / 2

    return sides


@_check("polarization-symmetry", spec="valuation", x="vector", y="vector", f1="function",
        f2="function")
def _polarization_symmetry(spec, x, y):
    mu, _, _ = _product_valuation(spec, x, y)
    return lambda f1, f2: (_memo(_polarized_product, spec, x, y, f1, f2),
                           polarize(mu, 2, (f2, f1), check=False))


@_check("polarization-diagonal", spec="valuation", x="vector", y="vector", f1="function",
        f2="function")
def _polarization_diagonal(spec, x, y, f2=None):
    # Degree 2 records its case's f2, which the diagonal does not read;
    # degree 1 (no f2) polarizes psi(.)(x) - c, which must return the map.
    if f2 is None:
        mu = ScalarValuation(lambda fn: psi_eval(spec, fn, x) - spec.c, 1, label="probe-minus-c")
        return lambda f1: (polarize(mu, 1, (f1,)), mu(f1))
    mu, _, _ = _product_valuation(spec, x, y)
    return lambda f1: (polarize(mu, 2, (f1, f1), check=False), mu(f1))


@_check("lifted-pairing", spec="valuation", f="function", x="vector")
def _lifted_pairing(spec, f):
    basis_values = tuple(psi_eval(spec, f, unit_vector(spec.dim, j)) for j in range(spec.dim))
    return lambda x: (lift_vector_map(lambda _fn: basis_values, f, x), psi_eval(spec, f, x))


@_check("cut-identity", kind="str", P="polytope", w="vector", t="rational", u="vector")
def _cut_identity(kind, P, w, t):
    support = difference_body_support if kind == "difference" else projection_body_support
    below, above, section = cut_pair(P, w, t)
    return lambda u: (support(below, u) + support(above, u), support(P, u) + support(section, u))


@_check("difference-exact", P="polytope", expected="polytope")
def _difference_exact(P, expected):
    return lambda: (difference_body(P), expected)


@_check("volume-ratio", P="polytope", factor="int")
def _volume_ratio(P, factor):
    return lambda: (volume(_memo(difference_body, P)), factor * volume(P))


@_check("projection-exact", P="polytope", u="vector", expected="rational")
def _projection_exact(P):
    return lambda u, expected: (_memo(projection_body_support, P, u), expected)


def _mc_strays(exact, estimate):
    return abs(estimate.value - float(exact)) > MC_TOLERANCE * float(exact)


@_check("projection-mc", fails=_mc_strays, P="polytope", axis="int", samples="int", path="str")
def _projection_mc(P, axis, samples, path):
    exact = _memo(projection_body_support, P, unit_vector(P.dim, axis))
    return lambda: (exact, _Estimate(mc_projection_area(P, axis, samples, random.Random(path))))


def contravariance_gap_witness(spec, found):
    """The witness of a `falsify_contravariance` result, or None if it found none."""
    if not found["found"]:
        return None
    note = f"counterexample after {found['tried']} candidates; gap {format_rational(found['gap'])}"
    return _Bound("contravariance-gap", note, spec=spec, f=found["f"], g=found["g"],
                  x=found["x"]).failure()


# ---------------------------------------------------------------------------
# thm-a: the equivariant family on hinge pairs


def _thm_a_pair_case(seed, mi, nu, k):
    rng = rng_for(seed, "thm-a", mi, k)
    dim = 1 + k % 3
    spec = ValuationSpec("equivariant", dim, rand_rational(rng, -4, 4, 2), nu)
    pair = rand_hinge_pair(rng, dim)
    f = pair.f
    identity = _Bound("valuation-identity", "psi(max)+psi(min) vs psi(f)+psi(h) at the probe point",
                      spec=spec, f=f, h=pair.h, fmax=pair.fmax, fmin=pair.fmin)
    for _ in range(3):
        identity.require(x=rand_point(rng, dim))
    _Bound("dual-epi-invariance", "psi(f + affine) vs psi(f)",
           spec=spec, f=f, ell=rand_affine(rng, dim)).require(x=rand_point(rng, dim))
    _Bound("equivariance", "psi(f o g)(x) vs psi(f)(g x)",
           spec=spec, f=f, g=rand_gl_matrix(rng, dim)).require(x=rand_point(rng, dim))
    homogeneity = _Bound("homogeneity", "psi(lam f) - c vs lam (psi(f) - c)",
                         spec=spec, f=f, x=rand_point(rng, dim))
    for lam in (_ZERO, Q(1, 2), Q(2)):
        homogeneity.require(lam=lam)
    _Bound("convexity-midpoint", "2 psi(f)(midpoint) vs psi(f)(x) + psi(f)(y)",
           spec=spec, f=f).require(x=rand_point(rng, dim), y=rand_point(rng, dim))
    x = rand_nonzero_point(rng, dim)
    _Bound("locality", "modification below f off the probe set changed the output",
           spec=spec, f=f, modified=locality_check(spec, f, x, rng=rng)["modified"]).require(x=x)


def _thm_a_expand_case(seed, mi, nu):
    rng = rng_for(seed, "thm-a", mi, "expand")
    spec = ValuationSpec("equivariant", 2, rand_rational(rng, -4, 4, 2), nu)
    expand = _Bound("expand-consistency", "materialized psi(f) vs pointwise psi(f)",
                    spec=spec, f=rand_maxaffine(rng, 2, 4))
    for _ in range(5):
        expand.require(x=rand_point(rng, 2))


def _thm_a_invalid_case(seed, bi, nu):
    rng = rng_for(seed, "thm-a", "invalid", bi)
    if validate_measure(nu, require_dual_invariance=True).ok:
        raise _absent({"measure": nu}, nu.signed_reciprocal_moment(), _ZERO,
                      "measure listed as invalid has vanishing moment")
    spec = ValuationSpec("equivariant", 2, rand_rational(rng, -4, 4, 2), nu)
    for _ in range(8):
        shift = _Bound("dual-epi-invariance", "psi(f + affine) vs psi(f)",
                       spec=spec, f=rand_maxaffine(rng, 2), ell=rand_affine(rng, 2))
        exhibit = shift.failure(x=rand_point(rng, 2))
        if exhibit is not None:
            return exhibit
    raise _absent({"spec": spec}, "no counterexample in 8 trials", "expected a violation",
                  "nonzero moment must break translation invariance")


def _thm_a_cases(seed, trials):
    cases = []
    for mi, nu in enumerate(VALID_MEASURES):
        cases += [(f"thm-a/measure{mi}/pair{k}", _thm_a_pair_case, (seed, mi, nu, k))
                  for k in range(trials)]
        cases.append((f"thm-a/measure{mi}/expand", _thm_a_expand_case, (seed, mi, nu)))
    return cases + [(f"thm-a/invalid{bi}/dual-epi-breaks", _thm_a_invalid_case, (seed, bi, nu))
                    for bi, nu in enumerate(INVALID_MEASURES)]


# ---------------------------------------------------------------------------
# thm-b: planar contravariance, higher-dimensional falsification


def _thm_b_word_case(seed, k):
    rng = rng_for(seed, "thm-b", "word", k)
    nu = VALID_MEASURES[k % len(VALID_MEASURES)]
    spec = ValuationSpec("contravariant-2d", 2, rand_rational(rng, -4, 4, 2), nu)
    word = _Bound("contravariance", "psi(f o g)(x) vs psi(f)(g^-T x)",
                  spec=spec, f=rand_maxaffine(rng, 2), g=rand_sl_matrix(rng, 2))
    for _ in range(3):
        word.require(x=rand_point(rng, 2))


def _thm_b_falsify_case(seed):
    spec = ValuationSpec("equivariant", 3, _ZERO, CANONICAL_MEASURE)
    res = falsify_contravariance(spec, budget=1000)
    exhibit = contravariance_gap_witness(spec, res)
    if exhibit is None:
        raise _absent({"spec": spec}, f"no counterexample in {res['tried']} candidates",
                      "expected gap 1", "the shear/hinge search must succeed in dimension 3")
    if res["gap"] != 1:
        raise CaseFailed(exhibit)
    return exhibit


def _thm_b_empty_case(seed):
    rng = rng_for(seed, "thm-b", "empty")
    for dim in (2, 3):
        spec = ValuationSpec("equivariant", dim, Q(7, 2), DiscreteMeasure.empty())
        for _ in range(5):
            _Bound("contravariance", "a constant map must be vacuously contravariant",
                   spec=spec, f=rand_maxaffine(rng, dim),
                   g=rand_sl_matrix(rng, dim)).require(x=rand_point(rng, dim))


def _thm_b_cases(seed, trials):
    return ([(f"thm-b/sl2-word{k}", _thm_b_word_case, (seed, k)) for k in range(trials)]
            + [("thm-b/falsify-n3", _thm_b_falsify_case, (seed,)),
               ("thm-b/empty-measure-vacuous", _thm_b_empty_case, (seed,))])


# ---------------------------------------------------------------------------
# thm-2-1: homogeneous decomposition and polarization


def _decompose_case(seed, k):
    rng = rng_for(seed, "thm-2-1", "decompose", k)
    dim = 2 + k % 2
    nu = VALID_MEASURES[k % len(VALID_MEASURES)]
    spec = ValuationSpec("equivariant", dim, rand_rational(rng, -4, 4, 2), nu)
    _Bound("decomposition", "degree coefficients vs (c, mu(f)-c, 0, ...)",
           spec=spec, x=rand_point(rng, dim)).require(f=rand_maxaffine(rng, dim))


def _polarize_case(seed, k):
    rng = rng_for(seed, "thm-2-1", "polarize", k)
    nu = VALID_MEASURES[k % len(VALID_MEASURES)]
    spec = ValuationSpec("equivariant", 2, rand_rational(rng, -4, 4, 2), nu)
    x = rand_point(rng, 2)
    y = rand_point(rng, 2)
    f1 = rand_maxaffine(rng, 2, 5)
    f2 = rand_maxaffine(rng, 2, 5)
    if k % 2:
        _Bound("polarization-diagonal", "degree-1 polarization must be the map itself",
               spec=spec, x=x, y=y, f1=f1).require()
        return
    for check, note in (("polarization-oracle", "mixed differences vs the closed product form"),
                        ("polarization-symmetry", "polarization must be symmetric in its arguments"),
                        ("polarization-diagonal", "diagonal restriction must recover the valuation")):
        _Bound(check, note, spec=spec, x=x, y=y, f1=f1, f2=f2).require()


def _thm_2_1_cases(seed, trials):
    return ([(f"thm-2-1/decompose{k}", _decompose_case, (seed, k)) for k in range(trials)]
            + [(f"thm-2-1/polarize{k}", _polarize_case, (seed, k)) for k in range(trials)])


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


def mc_projection_area(P, axis, samples, rng):
    """Monte Carlo shadow area: drop `axis`, sample a padded bounding box.

    Floats only; the exact half-plane description of the shadow is converted
    once.  Used as an independent oracle against the exact support value.
    """
    pts = [tuple(v[j] for j in range(P.dim) if j != axis) for v in P.vertices]
    shadow = Polytope(2, pts)
    planes = [(float(n[0]), float(n[1]), float(off) + 1e-12)
              for n, off in _polygon_halfplanes(shadow)]
    xs = [float(p[0]) for p in pts]
    ys = [float(p[1]) for p in pts]
    lo_x, hi_x = min(xs) - MC_PAD, max(xs) + MC_PAD
    lo_y, hi_y = min(ys) - MC_PAD, max(ys) + MC_PAD
    width = hi_x - lo_x
    height = hi_y - lo_y
    draw = rng.random
    hits = 0
    for _ in range(samples):
        px = lo_x + draw() * width
        py = lo_y + draw() * height
        for a, b, limit in planes:
            if a * px + b * py > limit:
                break
        else:
            hits += 1
    return hits / samples * width * height


def _classical_diff_cube_case(seed, dim):
    _Bound("difference-exact", "difference body of the unit cube",
           P=_cube(dim), expected=_cube(dim, -1, 1)).require()


def _classical_simplex_ratio_case(seed):
    tri = Polytope(2, [(0, 0), (1, 0), (0, 1)])
    _Bound("volume-ratio", "vol(D T) vs 6 vol(T) for the 2-simplex", P=tri, factor=6).require()
    corners = len(_memo(difference_body, tri).vertices)
    if corners != 6:
        raise _absent({"P": tri}, corners, 6, "D T must be a hexagon")


def _classical_proj_cube_case(seed, axis):
    cube = _cube(3)
    _Bound("projection-exact", "unit cube shadow area along an axis",
           P=cube, u=unit_vector(3, axis), expected=_ONE).require()
    _Bound("projection-mc", "Monte Carlo shadow area strayed beyond one percent",
           P=cube, axis=axis, samples=MC_SAMPLES, path=f"{seed}/classical/mc/{axis}").require()


def _classical_proj_simplex_case(seed):
    simplex = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    shadow = _Bound("projection-exact", "standard simplex shadow area along an axis", P=simplex)
    for axis in range(3):
        shadow.require(u=unit_vector(3, axis), expected=Q(1, 2))


def _classical_cut_case(seed, k, kind):
    rng = rng_for(seed, "classical", "cut", k)
    dim = 3 if k % 10 < 3 else 2
    P = rand_polytope(rng, dim)
    w = rand_direction(rng, dim)
    vals = [dot(w, v) for v in P.vertices]
    lo, hi = min(vals), max(vals)
    t = lo + (hi - lo) * Q(rng.randint(1, 3), 4)
    cut = _Bound("cut-identity", "support of the two halves vs body plus section",
                 kind=kind, P=P, w=w, t=t)
    dirs = rng_for(seed, "classical", "cut", k, kind)
    for _ in range(CUT_DIRECTIONS):
        cut.require(u=rand_direction(dirs, dim))


def _classical_cases(seed, trials):
    return ([("classical/diff-square", _classical_diff_cube_case, (seed, 2)),
             ("classical/diff-cube", _classical_diff_cube_case, (seed, 3)),
             ("classical/diff-simplex-ratio", _classical_simplex_ratio_case, (seed,))]
            + [(f"classical/proj-cube-axis{axis}", _classical_proj_cube_case, (seed, axis))
               for axis in range(3)]
            + [("classical/proj-simplex", _classical_proj_simplex_case, (seed,))]
            + [(f"classical/cut{k}/{kind}", _classical_cut_case, (seed, k, kind))
               for k in range(trials) for kind in ("difference", "projection")])


# ---------------------------------------------------------------------------
# cor-e: no nonzero map pairs linearly with the argument point


_MIDPOINT_PROBES = ((2, 2), (1, 1), (4, 4), (2, -2), (6, 6))
_PAIRING_PROBES = ((0, 0), (2, 0), (0, 2), (2, 2), (4, 0), (-2, 2), (1, 1))


def _cor_e_violation_case(seed, mi, nu):
    spec = ValuationSpec("contravariant-2d", 2, _ZERO, nu)
    f = paraboloid_tangents(2, grid=2)
    rng = rng_for(seed, "cor-e", "midpoint", mi)
    pairs = [(rat_vector(p), rat_vector(tuple(-v for v in p))) for p in _MIDPOINT_PROBES]
    for _ in range(5):
        pairs.append((rand_point(rng, 2), rand_point(rng, 2)))
    linear = _Bound("lifted-linearity", "midpoint linearity fails: the output is genuinely convex in x",
                    spec=spec, f=f)
    for x, y in pairs:
        exhibit = linear.failure(x=x, y=y)
        if exhibit is not None:
            return exhibit
    raise _absent({"spec": spec, "f": f}, "no violation found", "expected a midpoint gap",
                  "a nonzero measure on a strictly convex profile must bend")


def _cor_e_pairing_case(seed, mi, nu):
    spec = ValuationSpec("contravariant-2d", 2, _ZERO, nu)
    f = paraboloid_tangents(2, grid=2)
    pairing = _Bound("lifted-pairing", "<x, v(f)> with v read off the basis vs the map itself",
                     spec=spec, f=f)
    for p in _PAIRING_PROBES:
        exhibit = pairing.failure(x=rat_vector(p))
        if exhibit is not None:
            return exhibit
    raise _absent({"spec": spec, "f": f}, "pairing matched everywhere", "expected an inconsistency",
                  "only the zero map factors through a fixed vector")


def _cor_e_zero_case(seed, trials):
    spec = ValuationSpec("contravariant-2d", 2, _ZERO, DiscreteMeasure.empty())
    f = paraboloid_tangents(2, grid=2)
    rng = rng_for(seed, "cor-e", "zero")
    linear = _Bound("lifted-linearity", "the zero map must be exactly linear", spec=spec, f=f)
    pairing = _Bound("lifted-pairing", "the zero map must pair consistently", spec=spec, f=f)
    for _ in range(max(trials, 1)):
        x = rand_point(rng, 2)
        linear.require(x=x, y=rand_point(rng, 2))
        pairing.require(x=x)


def _cor_e_cases(seed, trials):
    cases = []
    for mi, nu in enumerate(VALID_MEASURES):
        cases.append((f"cor-e/measure{mi}/midpoint", _cor_e_violation_case, (seed, mi, nu)))
        cases.append((f"cor-e/measure{mi}/pairing", _cor_e_pairing_case, (seed, mi, nu)))
    return cases + [("cor-e/zero-map", _cor_e_zero_case, (seed, trials))]


# ---------------------------------------------------------------------------
# runner and reports


_CASES = {
    "thm-a": _thm_a_cases,
    "thm-b": _thm_b_cases,
    "thm-2-1": _thm_2_1_cases,
    "classical": _classical_cases,
    "cor-e": _cor_e_cases,
}


def _run_case(name, case, args):
    """Run one case; (its witness if it failed, the exhibit it filed)."""
    try:
        return None, case(*args)
    except CaseFailed as failed:
        return failed.args[0], None
    except Exception as exc:  # surfaced as an honest failure, never swallowed
        return witness_doc("case-error", {"case": name}, type(exc).__name__, repr(exc),
                           "unexpected exception while running the case"), None


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
    cases = _CASES[name](seed, trials) if trials else []
    witnesses = []
    exhibits = []
    for index, (case_name, case, args) in enumerate(cases):
        witness, exhibit = _run_case(case_name, case, args)
        if witness is not None:
            witnesses.append(dict(witness, case=case_name, index=index))
        if exhibit is not None:
            exhibits.append(dict(exhibit, case=case_name, index=index))
    return SuiteReport(
        suite=name,
        seed=seed,
        trials=trials,
        cases=len(cases),
        passes=len(cases) - len(witnesses),
        failures=len(witnesses),
        witnesses=witnesses,
        exhibits=exhibits,
        wall_time=time.perf_counter() - start,
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
    for label, docs in (("FAIL", report.witnesses), ("exhibit", report.exhibits)):
        for w in docs:
            lines.append(
                f"{label} case {w.get('case')} [{w.get('index')}] check {w.get('check')}: "
                f"lhs {_value_brief(w.get('lhs'))} vs rhs {_value_brief(w.get('rhs'))}"
            )
    lines.append("PASS" if report.failures == 0 else "FAIL")
    return "\n".join(lines) + "\n"


def replay_witness(doc):
    """Recompute a witness document's comparison from its recorded inputs.

    Returns a dict with the recomputed sides and whether they match the
    recorded ones exactly (after identical serialization).
    """
    check = doc.get("check")
    if check in _NOT_COMPARISONS:
        raise ParseError(f"a {check} witness records {_NOT_COMPARISONS[check]}, not a comparison; "
                         "it is not replayable", "check")
    rule = CHECKS.get(check)
    if rule is None:
        raise ParseError(f"no replay rule for check {check!r}", "check")
    raw = doc.get("inputs", {})
    if not isinstance(raw, dict):
        raise ParseError("expected an object of named inputs", "inputs")
    for key, value in raw.items():
        kind = rule.kinds.get(key)
        if kind is None:
            raise ParseError(f"check {check!r} takes no such input", f"inputs.{key}")
        if isinstance(value, dict) and value.get("kind") != kind:
            raise ParseError(f"check {check!r} takes a {kind} here, not {value.get('kind')!r}",
                             f"inputs.{key}")
    for key in rule.kinds:
        if key not in raw and key not in rule.optional:
            raise ParseError(f"check {check!r} needs this input", f"inputs.{key}")
    inputs = {k: value_from_doc(v, where=f"inputs.{k}") for k, v in raw.items()}
    lhs, rhs = _Bound(check, "", **inputs).compare()
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
