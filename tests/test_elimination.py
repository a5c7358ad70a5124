"""The one fraction-free elimination kernel and every wrapper over it,
checked against the reference eliminations they replaced (elim_reference)
on a seeded corpus: dims 1-5, square, wide and tall matrices, full rank and
rank-deficient, zero and repeated rows, the empty row list, and int as well
as Q entries."""

import math

from collections import Counter

from convval import Q
from convval._geometry import Chart, _cross_normal, int_solve
from convval.generators import rng_for
from convval.linalg import (
    RationalMatrix,
    int_rref,
    matrix_rank,
    nullspace,
    pivot_columns,
    solve_square,
    vadd,
)

import elim_reference as ref


def _entry(rng, kind):
    if kind == "int":
        return rng.randint(-6, 6)
    return Q(rng.randint(-9, 9), rng.randint(1, 6))


def _matrix(rng, m, n, kind, tags):
    """An m x n matrix, sometimes of low rank, with a zero or repeated row."""
    zero = 0 if kind == "int" else Q(0)
    rank = min(m, n)
    if m and rng.random() < 0.35:
        rank = rng.randint(0, rank - 1) if rank else 0
    base = [[_entry(rng, kind) for _ in range(n)] for _ in range(rank)]
    rows = []
    for i in range(m):
        if i < rank:
            rows.append(list(base[i]))
        else:
            coeffs = [rng.randint(-2, 2) for _ in range(rank)]
            rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), zero) for j in range(n)])
    rng.shuffle(rows)
    if m and rng.random() < 0.15:
        rows[rng.randrange(m)] = [zero] * n
        tags["zero-row"] += 1
    if m > 1 and rng.random() < 0.15:
        rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
        tags["repeated-row"] += 1
    return [tuple(r) for r in rows]


def _scaled(rows):
    """Rows times the lcm of their denominators, as the wrappers scale them."""
    out = []
    for row in rows:
        s = math.lcm(*(Q(v).denominator for v in row))
        out.append([int(Q(v) * s) for v in row])
    return out


def _all_q(vectors):
    return all(type(v) is type(Q(0)) for vec in vectors for v in vec)


def _check(rows, m, n, tags):
    # The kernel itself: pivots and reduced rows against the rational RREF.
    pivots, work, den, sign = int_rref(_scaled(rows), n)
    want_pivots, want_rows = ref.rref(rows, n)
    assert pivots == want_pivots
    for i, row in enumerate(work):
        if i < len(pivots):
            assert [Q(v, den) for v in row] == want_rows[i]
        else:
            assert not any(row[:n])
    rank = len(pivots)
    tags["rank-deficient"] += rank < min(m, n)

    assert matrix_rank(rows) == ref.matrix_rank(rows) == rank
    assert pivot_columns(rows, n) == pivots
    got = nullspace(rows, n)
    assert got == ref.nullspace(rows, n) and _all_q(got)

    dirs = list(rows)
    origin = tuple(Q(v) for v in dirs[0]) if dirs else tuple(Q(1, k + 2) for k in range(n))
    chart = Chart([origin] + [vadd(origin, v) for v in dirs])
    basis, rows_used = ref.chart_selection([tuple(Q(v) for v in d) for d in dirs], n)
    assert (chart.basis, chart.rows_used) == (basis, rows_used)
    square = [[b[j] for b in basis] for j in rows_used]
    for v in dirs:
        coords = chart.coords_of_direction(v)
        assert tuple(sum(c * b[j] for c, b in zip(coords, basis)) for j in range(n)) == v
        assert coords == ref.solve_square(square, [v[j] for j in rows_used]) and _all_q([coords])
    # A lift solves the transposed square; the chart reuses its one inverse.
    coeffs = tuple(Q(k - 1, 2) if k % 2 else k - 1 for k in range(chart.dim))
    y = ref.solve_square([list(col) for col in zip(*square)], coeffs)
    want = [Q(0)] * n
    for pos, j in enumerate(rows_used):
        want[j] = y[pos]
    amb, rhs = chart.lift_inequality(coeffs, Q(1, 3))
    assert amb == tuple(want) and _all_q([amb])
    assert rhs == Q(1, 3) + sum((w * o for w, o in zip(want, origin)), Q(0))

    if m == n:
        rhs = tuple(Q(k - 2, 3) for k in range(n))
        got = solve_square(rows, rhs)
        assert got == ref.solve_square(rows, rhs)
        assert got is None or _all_q([got])
        g = RationalMatrix(rows)
        assert g.det() == ref.det(rows)
        assert type(g.det()) is type(Q(0))
        if rank == n:
            assert sign * den == ref.int_det(_scaled(rows))
            inv = g.inverse()
            assert inv.rows == ref.inverse(rows) and _all_q(inv.rows)
        else:
            tags["singular"] += 1
            for fn in (g.inverse, lambda: ref.inverse(rows)):
                try:
                    fn()
                except ValueError:
                    continue
                raise AssertionError("a singular matrix was inverted")

    if m >= n - 1:
        vectors = _scaled(rows[: n - 1])
        cofactors = tuple((-1) ** k * ref.int_det([v[:k] + v[k + 1:] for v in vectors])
                          for k in range(n))
        got = _cross_normal(vectors, n)
        assert got == (None if not any(cofactors) else cofactors)
        tags["no-normal"] += got is None

    if m and m >= n:
        aug = [tuple(r) + (k - 1,) for k, r in enumerate(_scaled(rows))]
        sol = int_solve(aug, n)
        assert sol == ref.int_solve(aug, n)
        tags["inconsistent"] += sol is None and rank == n


def test_every_elimination_matches_its_reference():
    tags = Counter()
    for i in range(1500):
        rng = rng_for(17, "elimination", i)
        n = 1 + i % 5
        shape = ("square", "square", "wide", "tall", "empty")[rng.randrange(5)]
        m = {"square": n, "wide": max(n - rng.randint(1, 2), 1),
             "tall": n + rng.randint(1, 3), "empty": 0}[shape]
        kind = "int" if rng.random() < 0.4 else "Q"
        rows = _matrix(rng, m, n, kind, tags)
        _check(rows, m, n, tags)
        tags[f"dim-{n}"] += 1
        tags["wide" if m < n and m else "tall" if m > n else "square" if m else "empty"] += 1
        tags[kind] += 1
    for key in ("dim-1", "dim-2", "dim-3", "dim-4", "dim-5", "square", "wide", "tall",
                "empty", "int", "Q", "rank-deficient", "singular", "zero-row",
                "repeated-row", "inconsistent", "no-normal"):
        assert tags[key] >= 20, (key, tags)


def test_kernel_on_hand_checked_matrices():
    # A skipped column: the second column has no pivot.
    pivots, rows, den, sign = int_rref([[2, 4, 1], [3, 6, 5]], 3)
    assert pivots == [0, 2]
    assert [[Q(v, den) for v in r] for r in rows] == [[1, 2, 0], [0, 0, 1]]
    # One swap flips the sign; the last pivot times the sign is the determinant.
    pivots, _, den, sign = int_rref([[0, 1], [1, 0]], 2)
    assert (pivots, sign * den) == ([0, 1], -1)
    # No rows, or no pivot columns: nothing to reduce.
    assert int_rref([], 3) == ([], [], 1, 1)
    assert int_rref([(0, 0)], 2)[0] == []
    assert nullspace([], 2) == [(Q(1), Q(0)), (Q(0), Q(1))]
