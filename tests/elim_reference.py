"""Reference eliminations, independent of convval.linalg.int_rref.

These are the loops the package used before every elimination became a
wrapper over the one fraction-free kernel: Gauss-Jordan on `Q` values for
solving, rank, nullspace, determinant and inverse, the chart's incremental
reduction and rank-by-rank row choice, and the integer Bareiss determinant
and solver.  The loops are kept as they were; they take plain rows, and
nullspace's loop is split out as rref so the kernel itself can be compared
with it.  The test oracles in conftest.py and the differential tests in
test_elimination.py share no code with what they check.
"""

import math

from convval import Q

_ZERO = Q(0)
_ONE = Q(1)


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


def rref(rows, ncols):
    """(pivot columns, reduced rows) of the rational reduced row echelon
    form, pivoting in the first ncols columns only; nullspace's loop."""
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
    return pivots, work


def nullspace(rows, ncols):
    """Basis of {x : R x = 0} for the given rows, as a list of tuples."""
    pivots, work = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [_ZERO] * ncols
        vec[fc] = _ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(tuple(vec))
    return basis


def det(rows):
    """Determinant of a square rational matrix."""
    n = len(rows)
    work = [list(r) for r in rows]
    d = _ONE
    for col in range(n):
        piv = None
        for r in range(col, n):
            if work[r][col] != 0:
                piv = r
                break
        if piv is None:
            return _ZERO
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            d = -d
        d = d * work[col][col]
        inv = _ONE / work[col][col]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] * inv
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return d


def inverse(rows):
    """Rows of the inverse of a square rational matrix; ValueError if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [_ONE if j == i else _ZERO for j in range(n)] for i in range(n)]
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
    return tuple(tuple(aug[i][n:]) for i in range(n))


def chart_selection(dirs, d):
    """(basis, rows_used) as the chart chose them: each direction kept when
    its reduction against the kept ones is nonzero, then each coordinate row
    of the basis matrix kept when it raises the rank."""
    basis = []
    reduced = []
    for vec in dirs:
        work = list(vec)
        for red in reduced:
            lead = next(j for j, v in enumerate(red) if v != 0)
            if work[lead] != 0:
                f = work[lead] / red[lead]
                work = [w - f * r for w, r in zip(work, red)]
        if any(v != 0 for v in work):
            basis.append(vec)
            reduced.append(tuple(work))
    rows = [[basis[b][j] for b in range(len(basis))] for j in range(d)]
    chosen = []
    seen = []
    for j in range(d):
        trial = seen + [rows[j]]
        if matrix_rank(trial) > len(seen):
            seen = trial
            chosen.append(j)
        if len(chosen) == len(basis):
            break
    return basis, chosen


def int_det(rows):
    """Determinant of a small integer matrix (fraction-free Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = None
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    swap = r
                    break
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def int_solve(rows, d):
    """Unique solution (nums, den) of the integer system [a | b] in d
    unknowns by fraction-free Gauss-Jordan, or None."""
    work = list(rows)
    prev = 1
    for col in range(d):
        for piv in range(col, len(work)):
            if work[piv][col]:
                break
        else:
            return None
        prow = work[piv]
        work[piv] = work[col]
        work[col] = prow
        p = prow[col]
        for r, row in enumerate(work):
            if r != col:
                f = row[col]
                work[r] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        prev = p
    for row in work[d:]:
        if row[d]:
            return None
    nums = [work[i][d] for i in range(d)]
    g = math.gcd(prev, *nums)
    if prev < 0:
        g = -g
    if g != 1:
        nums = [v // g for v in nums]
    return tuple(nums), prev // g
