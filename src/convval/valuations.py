"""Valuation families on max-affine convex functions.

Each family is a measure-weighted combination of rescaled evaluations:

  equivariant        x -> c + sum_j w_j (f(s_j x) - f(0)) / s_j^2
  contravariant-2d   x -> c + sum_j w_j (f(s_j T x) - f(0)) / s_j^2,
                     with T the quarter turn (rows (0,-1), (1,0)); plane only
  gl-endomorphism    x -> c f(0) + sum_j w_j (f(s_j x) - f(0)) / s_j^2

The measure is a finite list of weighted atoms (s_j, w_j) with s_j nonzero
and w_j >= 0.  Outputs are convex in x by construction; `psi_eval` computes
single values, `psi_expand` materializes the output as a max-affine function.

`psi_eval` works on f's cached integer image: x is scaled to integers once,
one integer dot per piece gives f(0) and every f(s_j x) as integer maxima,
and the weighted sum is taken over one integer common denominator, so a
value is a single rational built at the end, never a sum of rationals.

Invariance under adding affine functions ("dual epi-translation invariance")
holds exactly when sum_j w_j / s_j = 0 (for the third family also c = 0,
since c f(0) feels constant shifts).  The sampled checks of this and the
other defining properties (equivariance, planar contravariance) are written
once, in the registry `suites.CHECKS`, which files their exact witnesses.
"""

import math
from dataclasses import dataclass

from .errors import DimensionMismatch, PieceBudgetExceeded
from .linalg import RationalMatrix, int_scaled
from .maxaffine import MaxAffineFn, add, compose_linear, scale
from .rational import Q, rat, rat_vector

VARIANTS = ("equivariant", "contravariant-2d", "gl-endomorphism")

_ZERO = Q(0)

DEFAULT_PIECE_CAP = 100_000


class DiscreteMeasure:
    """Finite weighted atom list (s, w): s nonzero and distinct, w >= 0."""

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        norm = []
        for s, w in atoms:
            s = rat(s)
            w = rat(w)
            if s == 0:
                raise ValueError("measure atoms must sit at nonzero scale points")
            if w < 0:
                raise ValueError("measure weights must be nonnegative")
            norm.append((s, w))
        norm.sort()
        for (s1, _), (s2, _) in zip(norm, norm[1:]):
            if s1 == s2:
                raise ValueError(f"duplicate atom at s={s1}")
        object.__setattr__(self, "atoms", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    @classmethod
    def empty(cls):
        return cls([])

    def is_empty(self):
        return not self.atoms

    def total_mass(self):
        return sum((w for _, w in self.atoms), _ZERO)

    def abs_reciprocal_moment(self):
        """sum w / |s|; finiteness is automatic for finite atom lists."""
        return sum((w / abs(s) for s, w in self.atoms), _ZERO)

    def signed_reciprocal_moment(self):
        """sum w / s; zero iff the family ignores added linear functions."""
        return sum((w / s for s, w in self.atoms), _ZERO)

    def __eq__(self, other):
        return isinstance(other, DiscreteMeasure) and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    def __repr__(self):
        return f"DiscreteMeasure({[(str(s), str(w)) for s, w in self.atoms]})"


@dataclass(frozen=True)
class MeasureReport:
    """Moment summary used by validation and by the property suites."""

    abs_moment: object
    signed_moment: object
    dual_translation_invariant: bool
    ok: bool


def validate_measure(nu, require_dual_invariance=False):
    """Moment report for a measure; atoms are already structurally valid."""
    abs_m = nu.abs_reciprocal_moment()
    signed = nu.signed_reciprocal_moment()
    invariant = signed == 0
    ok = invariant or not require_dual_invariance
    return MeasureReport(abs_m, signed, invariant, ok)


class ValuationSpec:
    """A chosen family variant with its constant and measure."""

    __slots__ = ("variant", "dim", "c", "nu")

    def __init__(self, variant, dim, c, nu):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if variant == "contravariant-2d" and dim != 2:
            raise DimensionMismatch("the contravariant family is specific to the plane")
        if dim < 1:
            raise DimensionMismatch(f"dimension must be positive, got {dim}")
        if not isinstance(nu, DiscreteMeasure):
            nu = DiscreteMeasure(nu)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "c", rat(c))
        object.__setattr__(self, "nu", nu)

    def __setattr__(self, name, value):
        raise AttributeError("ValuationSpec is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ValuationSpec)
            and (self.variant, self.dim, self.c, self.nu)
            == (other.variant, other.dim, other.c, other.nu)
        )

    def __hash__(self):
        return hash((self.variant, self.dim, self.c, self.nu))

    def __repr__(self):
        return (
            f"ValuationSpec(variant={self.variant!r}, dim={self.dim}, "
            f"c={self.c}, nu={self.nu!r})"
        )


def _argument_point(spec, s, x):
    if spec.variant == "contravariant-2d":
        # s * (T x) with T the quarter turn.
        return (s * (-x[1]), s * x[0])
    return tuple(s * xi for xi in x)


def psi_eval(spec, f, x):
    """Value of the valuation's output function at x.

    One integer pass over f's pieces: x is scaled to integers xi / dx once
    (and quarter-turned for the contravariant family), and f at 0 and at
    every s_j x comes from one dot per piece (`MaxAffineFn._maxima_at`).
    With s_j = p_j / q_j, M_0 = dx den f(0) and M_j = q_j dx den f(s_j x),
    the sum over atoms is sum_j w_j q_j (M_j - q_j M_0) / (p_j^2 dx den);
    it is taken over one integer common denominator, and the value, c or
    c f(0) included, is a single rational built at the end.
    """
    if f.dim != spec.dim:
        raise DimensionMismatch(f"function dim {f.dim}, valuation dim {spec.dim}")
    x = rat_vector(x)
    if len(x) != spec.dim:
        raise DimensionMismatch(f"point has length {len(x)}, expected {spec.dim}")
    (xi,), dx = int_scaled([x])
    if spec.variant == "contravariant-2d":
        xi = (-xi[1], xi[0])
    atoms = [(s.numerator, s.denominator, w) for s, w in spec.nu.atoms if w != 0]
    den, (m0, *maxima) = f._maxima_at(xi, dx, [(0, 1)] + [(p, q) for p, q, _ in atoms])
    # Each atom's term is num_j / den_j over dx den; lcm the den_j once.
    terms = [(w.numerator * q * (m - q * m0), w.denominator * p * p)
             for (p, q, w), m in zip(atoms, maxima)]
    common = math.lcm(*(d for _, d in terms))
    total = sum(n * (common // d) for n, d in terms)
    scale_den = common * dx * den
    c = spec.c
    head = c.numerator * (m0 * common if spec.variant == "gl-endomorphism" else scale_den)
    return Q(head + c.denominator * total, c.denominator * scale_den)


def psi_expand(spec, f, piece_cap=DEFAULT_PIECE_CAP):
    """The output function itself, as a pruned max-affine function.

    Exact rewrite of the defining sum: each atom contributes a rescaled
    composition of f, combined by pointwise addition with pruning after each
    stage.  A stage whose pairwise piece count would exceed piece_cap raises
    PieceBudgetExceeded; psi_eval stays available regardless.
    """
    if f.dim != spec.dim:
        raise DimensionMismatch(f"function dim {f.dim}, valuation dim {spec.dim}")
    n = spec.dim
    f0 = f((_ZERO,) * n)
    moment = sum((w / (s * s) for s, w in spec.nu.atoms), _ZERO)
    if spec.variant == "gl-endomorphism":
        const = spec.c * f0 - f0 * moment
    else:
        const = spec.c - f0 * moment
    out = MaxAffineFn.constant(n, const)
    turn = RationalMatrix.quarter_turn() if spec.variant == "contravariant-2d" else None
    for s, w in spec.nu.atoms:
        if w == 0:
            continue
        g = RationalMatrix.diagonal([s] * n)
        if turn is not None:
            g = g @ turn
        term = scale(compose_linear(f, g), w / (s * s))
        if len(out.pieces) * len(term.pieces) > piece_cap:
            raise PieceBudgetExceeded(
                f"expansion stage would build {len(out.pieces) * len(term.pieces)} pieces "
                f"(cap {piece_cap})"
            )
        out = add(out, term)
    return out


def lift_vector_map(vector_map, f, x):
    """Evaluate x -> <x, v(f)> for a vector-valued map v; linear in x.

    Linearity in x holds by construction of the scalar product.
    """
    x = rat_vector(x)
    v = rat_vector(vector_map(f))
    if len(v) != len(x):
        raise DimensionMismatch(f"vector map returned length {len(v)}, expected {len(x)}")
    return sum((a * b for a, b in zip(x, v)), _ZERO)
