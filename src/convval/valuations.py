"""Valuation families on max-affine convex functions.

Each family is a measure-weighted combination of rescaled evaluations:

  equivariant        x -> c + sum_j w_j (f(s_j x) - f(0)) / s_j^2
  contravariant-2d   x -> c + sum_j w_j (f(s_j T x) - f(0)) / s_j^2,
                     with T the quarter turn (rows (0,-1), (1,0)); plane only
  gl-endomorphism    x -> c f(0) + sum_j w_j (f(s_j x) - f(0)) / s_j^2

The measure is a finite list of weighted atoms (s_j, w_j) with s_j nonzero
and w_j >= 0.  Outputs are convex in x by construction; `psi_eval` computes
single values, `psi_expand` materializes the output as a max-affine function.

Invariance under adding affine functions ("dual epi-translation invariance")
holds exactly when sum_j w_j / s_j = 0 (for the third family also c = 0,
since c f(0) feels constant shifts); the checks in this module verify either
side with exact witnesses.
"""

from dataclasses import dataclass, field

from .errors import DimensionMismatch, PieceBudgetExceeded
from .linalg import RationalMatrix
from .maxaffine import MaxAffineFn, add, compose_linear, prune, scale
from .rational import Q, rat, rat_vector

VARIANTS = ("equivariant", "contravariant-2d", "gl-endomorphism")

_ZERO = Q(0)
_ONE = Q(1)

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


def quarter_turn():
    return RationalMatrix.quarter_turn()


def _argument_point(spec, s, x):
    if spec.variant == "contravariant-2d":
        # s * (T x) with T the quarter turn.
        return (s * (-x[1]), s * x[0])
    return tuple(s * xi for xi in x)


def psi_eval(spec, f, x):
    """Value of the valuation's output function at x."""
    if f.dim != spec.dim:
        raise DimensionMismatch(f"function dim {f.dim}, valuation dim {spec.dim}")
    x = rat_vector(x)
    if len(x) != spec.dim:
        raise DimensionMismatch(f"point has length {len(x)}, expected {spec.dim}")
    f0 = f((_ZERO,) * spec.dim)
    if spec.variant == "gl-endomorphism":
        total = spec.c * f0
    else:
        total = spec.c
    for s, w in spec.nu.atoms:
        if w == 0:
            continue
        total += w * (f(_argument_point(spec, s, x)) - f0) / (s * s)
    return total


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
    turn = quarter_turn() if spec.variant == "contravariant-2d" else None
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


@dataclass
class CheckReport:
    """Outcome of a sampled exact check: witnesses carry full inputs."""

    name: str
    trials: int
    passes: int
    witnesses: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.witnesses


def _witness(check, inputs, lhs, rhs, note=""):
    from .io import witness_doc

    return witness_doc(check, inputs, lhs, rhs, note)


def check_dual_epi_invariance(spec, trials, rng):
    """Does adding an affine function leave outputs unchanged?

    Samples affine ell and probe points; compares psi(f + ell) with psi(f)
    exactly.  Passes iff the signed reciprocal moment vanishes (and, for the
    gl-endomorphism family, c = 0, since c f(0) reacts to constant shifts).
    """
    from .generators import rand_affine, rand_maxaffine, rand_point

    report = CheckReport("dual-epi-invariance", trials, 0)
    for _ in range(trials):
        f = rand_maxaffine(rng, spec.dim)
        ell = rand_affine(rng, spec.dim)
        x = rand_point(rng, spec.dim)
        lhs = psi_eval(spec, add(f, ell, do_prune=False), x)
        rhs = psi_eval(spec, f, x)
        if lhs == rhs:
            report.passes += 1
        else:
            report.witnesses.append(
                _witness(
                    "dual-epi-invariance",
                    {"spec": spec, "f": f, "ell": ell, "x": x},
                    lhs,
                    rhs,
                    "psi(f + affine) vs psi(f)",
                )
            )
    return report


def check_equivariance(spec, mode, group, trials, rng):
    """Exact transformation behavior under sampled group elements.

    mode "equivariant" compares psi(f o g)(x) with psi(f)(g x); mode
    "contravariant" compares against psi(f)(g^-T x).  group is "SL" (shear
    words) or "GL" (shear words times a diagonal).
    """
    from .generators import rand_gl_matrix, rand_maxaffine, rand_point, rand_sl_matrix

    if mode not in ("equivariant", "contravariant"):
        raise ValueError(f"unknown mode {mode!r}")
    if group not in ("SL", "GL"):
        raise ValueError(f"unknown group {group!r}")
    report = CheckReport(f"{mode}-{group}", trials, 0)
    for _ in range(trials):
        f = rand_maxaffine(rng, spec.dim)
        g = rand_sl_matrix(rng, spec.dim) if group == "SL" else rand_gl_matrix(rng, spec.dim)
        x = rand_point(rng, spec.dim)
        lhs = psi_eval(spec, compose_linear(f, g), x)
        target = g.matvec(x) if mode == "equivariant" else g.inverse_transpose().matvec(x)
        rhs = psi_eval(spec, f, target)
        if lhs == rhs:
            report.passes += 1
        else:
            report.witnesses.append(
                _witness(
                    "equivariance" if mode == "equivariant" else "contravariance",
                    {"spec": spec, "f": f, "g": g, "x": x},
                    lhs,
                    rhs,
                    f"psi(f o g)(x) vs psi(f)({'g x' if mode == 'equivariant' else 'g^-T x'})",
                )
            )
    return report


def lift_vector_map(vector_map, f, x):
    """Evaluate x -> <x, v(f)> for a vector-valued map v; linear in x.

    Linearity in x holds by construction of the scalar product.
    """
    x = rat_vector(x)
    v = rat_vector(vector_map(f))
    if len(v) != len(x):
        raise DimensionMismatch(f"vector map returned length {len(v)}, expected {len(x)}")
    return sum((a * b for a, b in zip(x, v)), _ZERO)
