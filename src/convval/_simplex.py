"""Exact linear programming by the dense two-phase primal simplex method.

Problems here are tiny: a handful of equality rows (ambient dimension plus
one or two) against a moderate number of nonnegative columns.  A dense
tableau with Bland's anti-cycling rule is exact, always terminates, and is
fast at this scale; no sparse or floating-point machinery is wanted.

The tableau holds Python ints: integer-preserving pivoting, as in Bareiss
(1968) and Avis's lrs (2000).  Each row is a primitive integer vector u that
stands for the rational row u / u[basis[r]].  The basic entry of a rational
tableau row is 1, so u[basis[r]] is that row's positive denominator.  The
objective row is an integer vector over its own positive denominator.  Every
sign test, ratio comparison (by cross-multiplication) and Bland choice is the
rational tableau's, so the pivot path and every result are too.

Standard form: minimize c.x subject to A x = b, x >= 0.  `feasible_eq` runs
phase 1 alone and, on infeasibility, returns the integer Farkas certificate
that phase 1 already holds in its objective row (an optimal dual); the
extreme-point filter reads a new extreme point off it.
"""

from math import gcd, lcm

from .linalg import int_scaled
from .rational import Q

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Q(0)


def _content(v, g):
    """gcd of g and the entries of v, stopping as soon as it reaches 1."""
    for a in v:
        if a:
            g = gcd(g, a)
            if g == 1:
                break
    return g


def _primitive(v):
    """An integer row divided by the gcd of its entries (not all zero)."""
    g = _content(v, 0)
    return v if g == 1 else [a // g for a in v]


def _pivot(tableau, obj, row, col):
    """Make col basic in row.  obj is [numerators, denominator] or None."""
    w = tableau[row]
    wc = w[col]
    if wc < 0:
        w = [-a for a in w]
        wc = -wc
        tableau[row] = w
    for r, u in enumerate(tableau):
        uc = u[col]
        if uc and r != row:
            tableau[r] = _primitive([a * wc - uc * p for a, p in zip(u, w)])
    if obj is not None:
        o, d = obj
        oc = o[col]
        if oc:
            o = [a * wc - oc * p for a, p in zip(o, w)]
            d *= wc
            g = _content(o, d)
            if g > 1:
                o = [a // g for a in o]
                d //= g
            obj[0] = o
            obj[1] = d


def _run(tableau, obj, basis, ncols):
    """Bland-rule simplex loop over the first ncols columns. Returns status."""
    while True:
        o = obj[0]
        col = -1
        for j in range(ncols):
            if o[j] < 0:
                col = j
                break
        if col < 0:
            return OPTIMAL
        # Least ratio u[-1] / u[col] over rows with u[col] > 0; ties go to
        # the smaller basic column.
        row = -1
        for r, u in enumerate(tableau):
            a = u[col]
            if a > 0:
                if row >= 0:
                    lhs = u[-1] * den
                    rhs = num * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[row]):
                        continue
                row, num, den = r, u[-1], a
        if row < 0:
            return UNBOUNDED
        _pivot(tableau, obj, row, col)
        basis[row] = col


def _phase1(A, b, n):
    """Phase 1 on [A | I | b]: minimize the sum of the artificials.

    Rows with a negative right-hand side are negated first.  Returns
    (tableau, basis, obj, signs): obj is the optimal objective row
    [numerators, denominator], zero in its last entry iff {A x = b, x >= 0}
    is nonempty, and signs[i] is -1 where row i was negated, else 1.
    """
    m = len(A)
    tableau = []
    signs = []
    for i in range(m):
        (row,), den = int_scaled([list(A[i]) + [b[i]]])
        sign = -1 if row[-1] < 0 else 1
        signs.append(sign)
        art = [0] * m
        art[i] = den
        tableau.append([sign * a for a in row[:-1]] + art + [sign * row[-1]])
    # Objective: minus the column sums of the rational rows, over the lcm of
    # the row denominators; the artificial columns start at zero.
    den = 1
    for i, u in enumerate(tableau):
        den = lcm(den, u[n + i])
    o = [0] * (n + m + 1)
    for i, u in enumerate(tableau):
        s = den // u[n + i]
        for j in range(n):
            o[j] -= u[j] * s
        o[-1] -= u[-1] * s
    obj = [o, den]
    basis = list(range(n, n + m))
    _run(tableau, obj, basis, n + m)
    return tableau, basis, obj, signs


def solve_eq(A, b, c):
    """Minimize c.x over {A x = b, x >= 0}.

    Returns (status, value, x) where status is OPTIMAL, INFEASIBLE or
    UNBOUNDED; value and x are None unless OPTIMAL.
    """
    n = len(c)
    tableau, basis, obj, _ = _phase1(A, b, n)
    if obj[0][-1]:
        return INFEASIBLE, None, None

    # Drive leftover artificials out of the basis; drop redundant rows.  The
    # phase-1 objective is not needed any more.
    r = 0
    while r < len(tableau):
        if basis[r] >= n:
            u = tableau[r]
            col = -1
            for j in range(n):
                if u[j]:
                    col = j
                    break
            if col < 0:
                del tableau[r]
                del basis[r]
                continue
            _pivot(tableau, None, r, col)
            basis[r] = col
        r += 1

    # Phase 2 on the original columns only.  Reduced costs are
    # cost - sum_r cost[basis[r]] * u_r / u_r[basis[r]], over cden times the
    # lcm of the denominators of the rows with a nonzero basic cost.
    tableau = [_primitive(u[:n] + u[-1:]) for u in tableau]
    (cost,), cden = int_scaled([c])
    den = 1
    for r, u in enumerate(tableau):
        if cost[basis[r]]:
            den = lcm(den, u[basis[r]])
    o = [v * den for v in cost]
    o.append(0)
    for r, u in enumerate(tableau):
        cb = cost[basis[r]]
        if cb:
            s = cb * (den // u[basis[r]])
            for j in range(n + 1):
                o[j] -= u[j] * s
    obj = [o, cden * den]

    status = _run(tableau, obj, basis, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [_ZERO] * n
    for r, u in enumerate(tableau):
        x[basis[r]] = Q(u[-1], u[basis[r]])
    o, d = obj
    return OPTIMAL, Q(-o[-1], d), x


def feasible_eq(A, b):
    """Is {A x = b, x >= 0} nonempty?  Phase 1 only.

    Returns (True, None), or (False, y) with y an integer Farkas certificate:
    y.A_j <= 0 for every column j of A, and y.b > 0.  It is the optimal
    phase-1 dual pi scaled by the objective denominator D: the reduced cost
    of artificial column i is 1 - pi_i (over the negated rows, hence the
    sign), so y_i = sign_i * (D - o[n + i]).  Optimality gives the column
    inequalities, and y.b is D times the positive phase-1 optimum.
    """
    n = len(A[0]) if A else 0
    _, _, (o, den), signs = _phase1(A, b, n)
    if not o[-1]:
        return True, None
    return False, [s * (den - o[n + i]) for i, s in enumerate(signs)]
