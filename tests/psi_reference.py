"""Reference psi_eval, computed in rationals one atom at a time.

This is the evaluation the package used before psi_eval became one integer
pass over f's pieces: f(0) and every f(s_j x) each a full `MaxAffineFn`
evaluation at a rational point, summed term by term.  The body is kept as
it was; the differential test in test_psi_eval.py compares the package
with it.
"""

from convval.errors import DimensionMismatch
from convval.rational import Q, rat_vector

_ZERO = Q(0)


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
