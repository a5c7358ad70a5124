"""Exact rational vectors and small square matrices.

Vectors are plain tuples of rationals; matrices are immutable row-major
tuples.  Everything here is exact and sized for ambient dimensions up to
five (lifted coordinates included).  Every elimination in the package goes
through one fraction-free routine, int_rref: rational rows are scaled to
integers, reduced, and only the answers become rationals again.
"""

import math

from .errors import DimensionMismatch
from .rational import Q, rat, rat_vector

_ZERO = Q(0)
_ONE = Q(1)


def dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def vadd(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"sum of lengths {len(u)} and {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"difference of lengths {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def unit_vector(n, k):
    return tuple(_ONE if i == k else _ZERO for i in range(n))


def int_scaled(points):
    """Rescale rational points to integer tuples by the common denominator."""
    denom = 1
    for p in points:
        for v in p:
            d = int(v.denominator)
            if d != 1:
                denom = math.lcm(denom, d)
    scaled = [tuple([int(v.numerator) * (denom // int(v.denominator)) for v in p]) for p in points]
    return scaled, denom


def int_rref(rows, ncols):
    """Fraction-free reduced row echelon form of an integer matrix.

    Gauss-Jordan elimination with exact division by the previous pivot
    (Bareiss 1968): every entry stays a minor of the input, so no rational
    is ever formed.  Pivots are sought left to right in the first ncols
    columns, skipping a column with no nonzero entry left to pivot on;
    further columns (a right-hand side) are carried along.  Returns
    (pivots, rows, den, sign): the pivot columns; the reduced rows, of which
    the first len(pivots) divided by den are the reduced row echelon form
    and the rest are zero in the first ncols columns; den, the last pivot
    (1 if none); and sign, the parity of the row swaps.  For a square
    matrix of full rank, sign * den is the determinant.
    """
    work = list(rows)
    pivots = []
    den = 1
    sign = 1
    for col in range(ncols):
        k = len(pivots)
        for piv in range(k, len(work)):
            if work[piv][col]:
                break
        else:
            continue
        prow = work[piv]
        if piv != k:
            work[piv] = work[k]
            work[k] = prow
            sign = -sign
        p = prow[col]
        for r, row in enumerate(work):
            if r != k:
                f = row[col]
                work[r] = [(p * a - f * b) // den for a, b in zip(row, prow)]
        den = p
        pivots.append(col)
    return pivots, work, den, sign


def _int_rows(rows):
    """Each rational row times the lcm of its denominators, and those lcms."""
    scaled = [int_scaled([row]) for row in rows]
    return [ints for (ints,), _ in scaled], [s for _, s in scaled]


def pivot_columns(rows, ncols):
    """The pivot columns of a rational matrix: in order, each column that is
    independent of the columns before it."""
    return int_rref(_int_rows(rows)[0], ncols)[0]


def solve_square(rows, rhs):
    """Solve a square rational system; returns None when singular."""
    n = len(rows)
    aug, _ = _int_rows([*row, b] for row, b in zip(rows, rhs))
    pivots, work, den, _ = int_rref(aug, n)
    if len(pivots) < n:
        return None
    return tuple(Q(row[-1], den) for row in work)


def matrix_rank(rows):
    """Rank of a rational matrix given as an iterable of row tuples."""
    ints, _ = _int_rows(rows)
    return len(int_rref(ints, len(ints[0]))[0]) if ints else 0


def nullspace(rows, ncols):
    """Basis of {x : R x = 0} for the given rows, as a list of tuples."""
    pivots, work, den, _ = int_rref(_int_rows(rows)[0], ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [_ZERO] * ncols
        vec[fc] = _ONE
        for row, pc in zip(work, pivots):
            vec[pc] = Q(-row[fc], den)
        basis.append(tuple(vec))
    return basis


class RationalMatrix:
    """Immutable square matrix of exact rationals."""

    __slots__ = ("dim", "rows", "_det")

    def __init__(self, rows):
        rows = tuple(rat_vector(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square and nonempty")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_det", None)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __reduce__(self):
        return (RationalMatrix, (self.rows,))

    @classmethod
    def identity(cls, n):
        return cls(tuple(unit_vector(n, i) for i in range(n)))

    @classmethod
    def diagonal(cls, entries):
        entries = rat_vector(entries)
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else _ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def shear(cls, n, i, j, t):
        """Elementary shear x_i <- x_i + t x_j (i != j); determinant one."""
        if i == j:
            raise ValueError("shear requires distinct coordinates")
        t = rat(t)
        rows = [list(unit_vector(n, r)) for r in range(n)]
        rows[i][j] = rows[i][j] + t
        return cls(rows)

    @classmethod
    def quarter_turn(cls):
        """The 2x2 rotation by a quarter turn, rows (0, -1) and (1, 0)."""
        return cls(((0, -1), (1, 0)))

    def det(self):
        if self._det is None:
            ints, scales = _int_rows(self.rows)
            pivots, _, den, sign = int_rref(ints, self.dim)
            d = Q(sign * den, math.prod(scales)) if len(pivots) == self.dim else _ZERO
            object.__setattr__(self, "_det", d)
        return self._det

    def transpose(self):
        return RationalMatrix(tuple(zip(*self.rows)))

    def inverse(self):
        """Reduces [S A | S], with S the diagonal of the integer row scales."""
        n = self.dim
        ints, scales = _int_rows(self.rows)
        aug = [(*row, *(s if j == i else 0 for j in range(n)))
               for i, (row, s) in enumerate(zip(ints, scales))]
        pivots, work, den, _ = int_rref(aug, n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        return RationalMatrix(tuple(tuple(Q(v, den) for v in row[n:]) for row in work))

    def inverse_transpose(self):
        return self.inverse().transpose()

    def matvec(self, x):
        if len(x) != self.dim:
            raise DimensionMismatch(f"matrix dim {self.dim}, vector length {len(x)}")
        x = rat_vector(x)
        return tuple(dot(row, x) for row in self.rows)

    def __matmul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("matrix dimensions differ")
        cols = tuple(zip(*other.rows))
        return RationalMatrix(tuple(tuple(dot(row, col) for col in cols) for row in self.rows))

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"RationalMatrix({[[str(v) for v in row] for row in self.rows]})"
