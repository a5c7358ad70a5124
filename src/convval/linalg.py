"""Exact rational vectors and small square matrices.

Vectors are plain tuples of rationals; matrices are immutable row-major
tuples.  Everything here is exact and sized for ambient dimensions up to
five (lifted coordinates included), so plain Gaussian elimination is the
right tool throughout.
"""

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


def vscale(k, u):
    k = rat(k)
    return tuple(k * a for a in u)


def zero_vector(n):
    return (_ZERO,) * n


def unit_vector(n, k):
    return tuple(_ONE if i == k else _ZERO for i in range(n))


def solve_square(rows, rhs):
    """Solve a square rational system; returns None when singular."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = _ONE / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return tuple(aug[i][-1] for i in range(n))


def matrix_rank(rows):
    """Rank of a rational matrix given as an iterable of row tuples."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = _ONE / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def nullspace(rows, ncols):
    """Basis of {x : R x = 0} for the given rows, as a list of tuples."""
    work = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = _ONE / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [_ZERO] * ncols
        vec[fc] = _ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
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
            n = self.dim
            work = [list(r) for r in self.rows]
            d = _ONE
            for col in range(n):
                piv = None
                for r in range(col, n):
                    if work[r][col] != 0:
                        piv = r
                        break
                if piv is None:
                    d = _ZERO
                    break
                if piv != col:
                    work[col], work[piv] = work[piv], work[col]
                    d = -d
                d = d * work[col][col]
                inv = _ONE / work[col][col]
                for r in range(col + 1, n):
                    if work[r][col] != 0:
                        f = work[r][col] * inv
                        work[r] = [v - f * w for v, w in zip(work[r], work[col])]
            object.__setattr__(self, "_det", d)
        return self._det

    def is_invertible(self):
        return self.det() != 0

    def is_special(self):
        return self.det() == _ONE

    def transpose(self):
        return RationalMatrix(tuple(zip(*self.rows)))

    def inverse(self):
        n = self.dim
        aug = [list(self.rows[i]) + list(unit_vector(n, i)) for i in range(n)]
        for col in range(n):
            piv = None
            for r in range(col, n):
                if aug[r][col] != 0:
                    piv = r
                    break
            if piv is None:
                raise ValueError("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = _ONE / aug[col][col]
            aug[col] = [v * inv for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
        return RationalMatrix(tuple(tuple(aug[i][n:]) for i in range(n)))

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
