"""Analysis tools over scalar valuations on max-affine functions.

Includes the exact homogeneous decomposition (values along scalings of the
argument interpolate a polynomial whose coefficients are the homogeneous
parts), polarization of a homogeneous valuation by mixed differences, hinge
pairs (the canonical max/min test pairs for the valuation identity) and the
identity itself for a general scalar valuation, the modification a locality
check compares against (the comparison lives in `suites.CHECKS`), and the
deterministic search for contravariance counterexamples in dimensions three
and up.
"""

import math

from dataclasses import dataclass
from itertools import combinations

from .errors import DimensionMismatch
from .linalg import RationalMatrix, dot, solve_square, unit_vector
from .lifted import _hull_of_pruned, _is_min_convex_pruned
from .maxaffine import MaxAffineFn, add, compose_linear, max_of, prune, scale
from .rational import Q, rat, rat_vector
from .valuations import ValuationSpec, _argument_point, psi_eval

_ZERO = Q(0)
_ONE = Q(1)


class ScalarValuation:
    """A scalar map on max-affine functions with a declared degree bound.

    The evaluator is an arbitrary callable; nothing here assumes it is a
    valuation beyond what the individual checks verify.
    """

    __slots__ = ("evaluator", "degree_bound", "label")

    def __init__(self, evaluator, degree_bound, label="scalar-valuation"):
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        object.__setattr__(self, "evaluator", evaluator)
        object.__setattr__(self, "degree_bound", int(degree_bound))
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarValuation is immutable")

    def __call__(self, f):
        return rat(self.evaluator(f))

    @classmethod
    def from_valuation_spec(cls, spec, x, degree_bound=None):
        """mu(f) = psi(f)(x) for a fixed probe point x."""
        x = rat_vector(x)
        bound = spec.dim if degree_bound is None else degree_bound
        return cls(lambda f: psi_eval(spec, f, x), bound, label="psi-probe")


def homogeneous_decompose(mu, f):
    """Coefficients (mu_0(f), ..., mu_N(f)) of lambda -> mu(lambda f).

    Exact Vandermonde interpolation at lambda = 0..N with a consistency probe
    at N+1: if mu(lambda f) is not a polynomial of degree at most N in
    lambda, this raises ValueError instead of returning garbage.
    """
    n = mu.degree_bound
    values = [mu(scale(f, k)) for k in range(n + 2)]
    rows = [[Q(k) ** j for j in range(n + 1)] for k in range(n + 1)]
    coeffs = solve_square(rows, values[: n + 1])
    probe = sum((coeffs[j] * Q(n + 1) ** j for j in range(n + 1)), _ZERO)
    if probe != values[n + 1]:
        raise ValueError(
            f"values along scalings are not polynomial of degree <= {n}; "
            f"decomposition is undefined"
        )
    return list(coeffs)


def require_homogeneous(mu, degree, funcs):
    """Raise ValueError unless mu sees only degree-k behavior along each f.

    Each function's scalings go through `homogeneous_decompose`; a nonzero
    coefficient of any other degree fails.
    """
    for f in funcs:
        coeffs = homogeneous_decompose(mu, f)
        for j, cj in enumerate(coeffs):
            if j != degree and cj != 0:
                raise ValueError(
                    f"valuation is not {degree}-homogeneous: degree {j} coefficient {cj}"
                )


def polarize(mu, degree, funcs, check=True):
    """Symmetric multilinear polarization of a degree-homogeneous valuation.

    polarize(mu, k, (f_1, ..., f_k)) is the mixed difference
    (1/k!) sum over subsets S of [k] of (-1)^(k-|S|) mu(sum of f_j, j in S),
    which recovers mu on the diagonal and is symmetric in its arguments.
    With check=True each argument is first verified to see only degree-k
    behavior (`require_homogeneous`).
    """
    funcs = list(funcs)
    k = int(degree)
    if k < 1:
        raise ValueError("polarization needs degree at least one")
    if len(funcs) != k:
        raise ValueError(f"expected {k} arguments, got {len(funcs)}")
    dim = funcs[0].dim
    if any(f.dim != dim for f in funcs):
        raise DimensionMismatch("polarization arguments live in different dimensions")
    if mu.degree_bound < k:
        raise ValueError("declared degree bound is below the polarization degree")
    if check:
        require_homogeneous(mu, k, funcs)
    total = _ZERO
    zero = MaxAffineFn.zero(dim)
    for r in range(k + 1):
        for subset in combinations(range(k), r):
            acc = zero
            for j in subset:
                acc = add(acc, funcs[j], do_prune=False)
            total += (-1) ** (k - r) * mu(acc)
    return total / math.factorial(k)


@dataclass(frozen=True)
class HingePair:
    """The canonical valuation-identity test pair.

    From a base F and an affine hinge g = cw * (<u, x> - t) with cw > 0:
    f = F + max(g, 0) and h = F + max(-g, 0).  Then pointwise
    min{f, h} = F exactly (the two hinge parts never win together) and
    max{f, h} = F + |g|, both max-affine, so the valuation identity has
    all four values available in closed form.

    All four functions are pruned.  With B = prune(F), each piece p of B
    wins on a nonempty open cell C_p, and the pieces of the others follow
    from two sign bits per p: pos_p says C_p meets {g > 0}, neg_p says C_p
    meets {g < 0}.  Then, as piece sets,
    f = {p + g : pos_p} | {p : neg_p}, h = {p : pos_p} | {p - g : neg_p}
    and fmax = {p + g : pos_p} | {p - g : neg_p}.
    """

    f: MaxAffineFn
    h: MaxAffineFn
    fmax: MaxAffineFn
    fmin: MaxAffineFn
    u: tuple
    t: object
    cw: object


def hinge_pair(base, u, t, cw):
    """Build and exactly validate a HingePair from two prunes.

    B = prune(base) is fmin, and f is the prune of the 2m pieces of B and
    B + g together (m = len(B.pieces)); h and fmax are read off f's pieces
    by the sign bits of the class docstring: pos_p = (p + g in f) and
    neg_p = (p in f).  These are exact.  A piece p + g of f wins where
    g > 0 on C_p, unless it is a piece q of B winning where g < 0 on C_q;
    a piece p of f wins where g < 0 on C_p, unless p = q + g for a piece q
    of B winning where g > 0 on C_q.  Neither exception can occur: if
    q = p + g for pieces p, q of B, then p > q on C_p puts all of C_p in
    {g < 0}, and q > p on C_q puts all of C_q in {g > 0}.

    The result is checked without a further prune: every piece of fmax is a
    piece of f or h, and every other piece of f or h is a piece of B, which
    lies below fmax, so max{f, h} = fmax; a 2n+1-point spot check compares
    max{f, h} with fmax and min{f, h} with fmin.
    """
    u = rat_vector(u)
    if len(u) != base.dim:
        raise DimensionMismatch(f"hinge direction has length {len(u)}, expected {base.dim}")
    if all(v == 0 for v in u):
        raise ValueError("hinge direction must be nonzero")
    t = rat(t)
    cw = rat(cw)
    if cw <= 0:
        raise ValueError("hinge weight must be positive")
    n = base.dim
    gu = tuple(cw * v for v in u)
    gt = cw * t
    fmin = prune(base)
    lows = fmin.pieces
    ups = tuple((tuple(x + y for x, y in zip(a, gu)), b - gt) for a, b in lows)
    f = prune(MaxAffineFn(n, lows + ups))
    in_f = set(f.pieces)
    h_pieces = []
    max_pieces = []
    for (a, b), up in zip(lows, ups):
        if up in in_f:
            h_pieces.append((a, b))
            max_pieces.append(up)
        if (a, b) in in_f:
            down = (tuple(x - y for x, y in zip(a, gu)), b + gt)
            h_pieces.append(down)
            max_pieces.append(down)
    h = MaxAffineFn(n, h_pieces)
    fmax = MaxAffineFn(n, max_pieces)
    _check_hinge_pieces(fmin, f, h, fmax)
    # Both identities hold everywhere; spot check a deterministic sample.
    for k in range(2 * n + 1):
        x = tuple(Q(((k + 1) * (j + 2)) % 7 - 3, 2) for j in range(n))
        fx = f(x)
        hx = h(x)
        if max(fx, hx) != fmax(x):
            raise AssertionError("hinge construction broke max{f, h} = base + cw|g|")
        if min(fx, hx) != fmin(x):
            raise AssertionError("hinge construction broke min{f, h} = base")
    return HingePair(f=f, h=h, fmax=fmax, fmin=fmin, u=u, t=t, cw=cw)


def _check_hinge_pieces(fmin, f, h, fmax):
    # max{f, h} = fmax as piece sets: fmax's pieces all occur in f or h, and
    # what else occurs is a piece of fmin, which fmax dominates.
    either = set(f.pieces) | set(h.pieces)
    top = set(fmax.pieces)
    if not top <= either or not either - top <= set(fmin.pieces):
        raise AssertionError("hinge construction broke max{f, h} = base + cw|g|")


def valuation_identity_check(mu, f, h=None, fmax=None, fmin=None):
    """mu(max{f,h}) + mu(min{f,h}) == mu(f) + mu(h), exactly.

    Accepts a HingePair (all four functions precomputed and certified) or a
    raw pair f, h; in the raw case min{f, h} must be convex, which is decided
    exactly, and the convex minorant serves as the min.
    Returns (ok, lhs, rhs, parts).  The registry check
    `suites.CHECKS["valuation-identity"]` is this with mu = psi(.)(x).
    """
    if isinstance(f, HingePair):
        pair = f
        f, h, fmax, fmin = pair.f, pair.h, pair.fmax, pair.fmin
    elif h is None:
        raise ValueError("pass a HingePair or both f and h")
    if fmax is None:
        fmax = max_of(f, h)
    if fmin is None:
        if f.dim != h.dim:
            raise DimensionMismatch(f"dimensions {f.dim} and {h.dim} differ")
        fp = prune(f)
        hp = prune(h)
        fmin = _hull_of_pruned(fp, hp)
        if not _is_min_convex_pruned(fp, hp, fmin):
            raise ValueError("min{f, h} is not convex; the identity is not applicable")
    parts = {"max": mu(fmax), "min": mu(fmin), "f": mu(f), "h": mu(h)}
    lhs = parts["max"] + parts["min"]
    rhs = parts["f"] + parts["h"]
    return lhs == rhs, lhs, rhs, parts


def find_strict_majorant(f, probes, rng=None):
    """An affine ell strictly below f on the probe set but above f somewhere.

    Deterministic construction: take the coordinatewise maximum of the piece
    slopes plus a positive bump, so ell eventually outgrows f along the
    all-ones direction; the offset pins ell strictly under f on the probes.
    Returns (ell, z) with ell the affine function and z a point where
    ell(z) > f(z).
    """
    n = f.dim
    bump = _ONE
    if rng is not None:
        bump = Q(rng.randint(1, 3), rng.randint(1, 2))
    slope = tuple(max(a[k] for a, _ in f.pieces) + bump for k in range(n))
    beta = min(f(p) - dot(slope, p) for p in probes) - _ONE
    ell = MaxAffineFn.affine(slope, beta)
    step = 1
    ones = (_ONE,) * n
    while step <= 2**40:
        z = tuple(Q(step) * v for v in ones)
        if ell(z) > f(z):
            return ell, z
        step *= 2
    raise AssertionError("majorant search failed; slopes should dominate eventually")


def locality_check(spec, f, x, ell=None, rng=None):
    """A modification of f that psi(.)(x) must not see.

    The probe set is {s_j x} over atoms plus the origin.  The modification
    h = max{f, ell} agrees with f on the probe set (ell strictly below f
    there, else ValueError), so psi(h)(x) must equal psi(f)(x); the registry
    check `suites.CHECKS["locality"]` makes that comparison.  Returns
    `modified` (h), `ell`, and `changed_at`, a point where h differs from f,
    certifying the modification is not trivial.
    """
    x = rat_vector(x)
    probes = [(_ZERO,) * spec.dim]
    for s, _ in spec.nu.atoms:
        probes.append(_argument_point(spec, s, x))
    if ell is None:
        ell, changed_at = find_strict_majorant(f, probes, rng=rng)
    else:
        changed_at = None
    for p in probes:
        if ell(p) >= f(p):
            raise ValueError("modification must stay strictly below f on the probe set")
    h = max_of(f, ell)
    if changed_at is None:
        changed_at = next((z for z in probes if h(z) != f(z)), None)
    return {"modified": h, "ell": ell, "changed_at": changed_at}


def _hinge_function(n, axis):
    return MaxAffineFn(n, [(unit_vector(n, axis), _ZERO), ((_ZERO,) * n, _ZERO)])


def falsify_contravariance(spec, budget=1000):
    """Deterministic counterexample search for g^-T covariance, n >= 3.

    Candidates are enumerated in a fixed order: shear magnitudes 1, -1, 2,
    -2, ...; shear coordinate pairs (i, j); hinge functions max(x_a, 0);
    probe points +-e_b.  Returns a dict with found/tried and, when found,
    the exact witness (g, f, x, both side values).
    """
    if spec.variant != "equivariant":
        raise ValueError("the counterexample search targets the equivariant family")
    if spec.dim < 3:
        raise ValueError("contravariance only breaks in dimension three and up")
    if spec.nu.is_empty():
        raise ValueError("an empty measure gives a constant map; nothing to falsify")
    n = spec.dim
    tried = 0
    for mag in range(1, 10**6):
        for tval in (Q(mag), Q(-mag)):
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    g = RationalMatrix.shear(n, i, j, tval)
                    ginvt = g.inverse_transpose()
                    for axis in range(n):
                        f = _hinge_function(n, axis)
                        fg = compose_linear(f, g)
                        for b in range(n):
                            for sign in (_ONE, -_ONE):
                                if tried >= budget:
                                    return {"found": False, "tried": tried}
                                tried += 1
                                x = tuple(sign if k == b else _ZERO for k in range(n))
                                lhs = psi_eval(spec, fg, x)
                                rhs = psi_eval(spec, f, ginvt.matvec(x))
                                if lhs != rhs:
                                    return {
                                        "found": True,
                                        "tried": tried,
                                        "g": g,
                                        "f": f,
                                        "x": x,
                                        "lhs": lhs,
                                        "rhs": rhs,
                                        "gap": lhs - rhs,
                                    }
    return {"found": False, "tried": tried}


def convergence_probe(spec, f, h, x, steps=8):
    """Exact first-order behavior along f + h/j for j = 1..steps.

    For the families with a plain constant, psi(f + h/j)(x) - psi(f)(x)
    equals (1/j) times the c = 0 valuation applied to h; the gl-endomorphism
    family keeps its c f(0) sensitivity, handled by evaluating its own
    formula on h.  Failure returns the first exact mismatch.
    """
    x = rat_vector(x)
    if spec.variant == "gl-endomorphism":
        hspec = spec
    else:
        hspec = ValuationSpec(spec.variant, spec.dim, 0, spec.nu)
    base = psi_eval(spec, f, x)
    target = psi_eval(hspec, h, x)
    for j in range(1, steps + 1):
        fj = add(f, scale(h, Q(1, j)), do_prune=False)
        lhs = psi_eval(spec, fj, x) - base
        rhs = target / j
        if lhs != rhs:
            return {"ok": False, "j": j, "lhs": lhs, "rhs": rhs}
    return {"ok": True, "steps": steps}
