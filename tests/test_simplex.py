"""Exact two-phase simplex: solved against hand-checkable programs, and
against a rational-tableau oracle on a seeded corpus of programs."""

import itertools
from collections import Counter

from convval import Q
from convval import _simplex
from convval._simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, feasible_eq, solve_eq
from convval.generators import rand_hinge_pair, rng_for


def test_simple_bounded_minimum():
    # minimize x + y subject to x + y = 1, x,y >= 0: optimum 1.
    status, value, x = solve_eq([[Q(1), Q(1)]], [Q(1)], [Q(1), Q(1)])
    assert status == OPTIMAL
    assert value == Q(1)
    assert sum(x) == Q(1)
    assert all(v >= 0 for v in x)


def test_minimize_picks_cheapest_vertex():
    # minimize 2x + y subject to x + y = 1: put all mass on y.
    status, value, x = solve_eq([[Q(1), Q(1)]], [Q(1)], [Q(2), Q(1)])
    assert status == OPTIMAL
    assert value == Q(1)
    assert x == [Q(0), Q(1)]


def test_infeasible_detected():
    # x + y = -1 with x,y >= 0 has no solution.
    status, value, x = solve_eq([[Q(1), Q(1)]], [Q(-1)], [Q(1), Q(1)])
    assert status == INFEASIBLE
    assert value is None and x is None


def test_unbounded_detected():
    # minimize -x subject to x - y = 0: x can grow without bound.
    status, value, x = solve_eq([[Q(1), Q(-1)]], [Q(0)], [Q(-1), Q(0)])
    assert status == UNBOUNDED


def test_two_constraint_program_exact_rational_optimum():
    # minimize x1 + 2x2 + 3x3 s.t. x1+x2+x3 = 1, x1 - x2 = 1/3.
    A = [[Q(1), Q(1), Q(1)], [Q(1), Q(-1), Q(0)]]
    b = [Q(1), Q(1, 3)]
    c = [Q(1), Q(2), Q(3)]
    status, value, x = solve_eq(A, b, c)
    assert status == OPTIMAL
    # Brute-force oracle: vertices of this 1-parameter family occur where a
    # coordinate hits zero; enumerate basic solutions from column pairs/triples.
    best = None
    cols = list(range(3))
    for keep in itertools.combinations(cols, 2):
        from elim_reference import solve_square

        rows = [[A[r][j] for j in keep] for r in range(2)]
        sol = solve_square([row[:] for row in rows], b[:])
        if sol is None or any(v < 0 for v in sol):
            continue
        full = [Q(0)] * 3
        for j, v in zip(keep, sol):
            full[j] = v
        cost = sum(ci * vi for ci, vi in zip(c, full))
        if best is None or cost < best:
            best = cost
    assert best is not None
    assert value == best


def test_degenerate_rhs_zero():
    # Equality forcing both variables to zero; optimum is zero.
    status, value, x = solve_eq([[Q(1), Q(0)], [Q(0), Q(1)]], [Q(0), Q(0)], [Q(5), Q(7)])
    assert status == OPTIMAL
    assert value == Q(0)
    assert x == [Q(0), Q(0)]


def test_feasible_eq_wrapper():
    assert feasible_eq([[Q(1), Q(1)]], [Q(2)]) == (True, None)
    # x + y = -2 is refuted by y = -1: -1 * (1, 1) <= 0 and -1 * -2 > 0.
    assert feasible_eq([[Q(1), Q(1)]], [Q(-2)]) == (False, [-1])


def test_redundant_rows_are_handled():
    # Duplicated constraint row must not break phase one.
    A = [[Q(1), Q(1)], [Q(1), Q(1)]]
    status, value, x = solve_eq(A, [Q(1), Q(1)], [Q(1), Q(3)])
    assert status == OPTIMAL
    assert value == Q(1)
    assert x == [Q(1), Q(0)]


# ---------------------------------------------------------------------------
# Differential oracle: the dense rational (Fraction) tableau that the integer
# kernel replaced, kept verbatim apart from the event counts it records.


class _Oracle:
    """Rational-tableau two-phase simplex with Bland's rule."""

    def __init__(self):
        self.events = Counter()

    def _pivot(self, tableau, obj, row, col):
        piv = tableau[row][col]
        inv = Q(1) / piv
        tableau[row] = [v * inv for v in tableau[row]]
        prow = tableau[row]
        for r in range(len(tableau)):
            if r == row:
                continue
            factor = tableau[r][col]
            if factor != 0:
                tableau[r] = [v - factor * p for v, p in zip(tableau[r], prow)]
        factor = obj[col]
        if factor != 0:
            for j in range(len(obj)):
                obj[j] = obj[j] - factor * prow[j]

    def _run(self, tableau, obj, basis, ncols):
        m = len(tableau)
        while True:
            col = -1
            for j in range(ncols):
                if obj[j] < 0:
                    col = j
                    break
            if col < 0:
                return OPTIMAL
            row = -1
            best = None
            for r in range(m):
                a = tableau[r][col]
                if a > 0:
                    ratio = tableau[r][-1] / a
                    if best is not None and ratio == best:
                        self.events["ratio-tie"] += 1
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                        best = ratio
                        row = r
            if row < 0:
                return UNBOUNDED
            self._pivot(tableau, obj, row, col)
            basis[row] = col
            self.events["pivot"] += 1

    def _phase1(self, A, b, n):
        m = len(A)
        tableau = []
        for i in range(m):
            row = [Q(v) for v in A[i]]
            bi = Q(b[i])
            if bi < 0:
                row = [-v for v in row]
                bi = -bi
            art = [Q(0)] * m
            art[i] = Q(1)
            tableau.append(row + art + [bi])
        basis = list(range(n, n + m))
        obj = [Q(0)] * (n + m + 1)
        for j in range(n):
            obj[j] = -sum((tableau[i][j] for i in range(m)), Q(0))
        obj[-1] = -sum((tableau[i][-1] for i in range(m)), Q(0))
        self._run(tableau, obj, basis, n + m)
        return tableau, obj, basis, -obj[-1] == 0

    def solve_eq(self, A, b, c):
        n = len(c)
        tableau, obj, basis, feasible = self._phase1(A, b, n)
        if not feasible:
            return INFEASIBLE, None, None
        r = 0
        while r < len(tableau):
            if basis[r] >= n:
                col = -1
                for j in range(n):
                    if tableau[r][j] != 0:
                        col = j
                        break
                if col < 0:
                    del tableau[r]
                    del basis[r]
                    self.events["redundant-row"] += 1
                    continue
                if tableau[r][col] < 0:
                    self.events["negative-drive-out"] += 1
                self._pivot(tableau, obj, r, col)
                basis[r] = col
            r += 1
        tableau = [row[:n] + [row[-1]] for row in tableau]
        cost = [Q(v) for v in c]
        obj = [Q(0)] * (n + 1)
        for j in range(n + 1):
            acc = cost[j] if j < n else Q(0)
            for r in range(len(tableau)):
                cb = cost[basis[r]]
                if cb != 0:
                    acc -= cb * tableau[r][j]
            obj[j] = acc
        status = self._run(tableau, obj, basis, n)
        if status == UNBOUNDED:
            return UNBOUNDED, None, None
        x = [Q(0)] * n
        for r in range(len(tableau)):
            x[basis[r]] = tableau[r][-1]
        return OPTIMAL, -obj[-1], x

    def feasible_eq(self, A, b):
        n = len(A[0]) if A else 0
        return self._phase1(A, b, n)[3]


def _rand_entry(rng, zero_share):
    if rng.random() < zero_share:
        return Q(0)
    return Q(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))


def _rand_program(rng):
    """A small equality-form LP, biased towards degenerate and tied shapes."""
    m = rng.randint(1, 4)
    n = rng.randint(1, 7)
    zero_share = rng.choice((0.0, 0.3, 0.6))
    A = [[_rand_entry(rng, zero_share) for _ in range(n)] for _ in range(m)]
    b = [_rand_entry(rng, zero_share) for _ in range(m)]
    if rng.random() < 0.3:
        b = [Q(0)] * m
    if m > 1 and rng.random() < 0.3:
        # A redundant row: a rational multiple of another, or a sum of two.
        i, k = rng.randrange(m), rng.randrange(m)
        lam = Q(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
        A[k] = [lam * v for v in A[i]]
        b[k] = lam * b[i]
        if m > 2 and rng.random() < 0.5:
            j = rng.randrange(m)
            A[j] = [u + v for u, v in zip(A[i], A[k])]
            b[j] = b[i] + b[k]
    if rng.random() < 0.4:
        # A convexity row makes many programs bounded and feasible.
        A.append([Q(1)] * n)
        b.append(Q(rng.randint(0, 2)))
    c = [_rand_entry(rng, zero_share) for _ in range(n)]
    return A, b, c


def _assert_same_solution(got, want):
    status, value, x = got
    assert status == want[0]
    assert value == want[1]
    assert x == want[2]
    if status == OPTIMAL:
        assert type(value) is Q and all(type(v) is Q for v in x)


def _assert_same_verdict(A, b, want):
    """feasible_eq gives the oracle's verdict, and refutes with a Farkas vector."""
    feasible, y = feasible_eq(A, b)
    assert feasible == want
    if feasible:
        assert y is None
        return
    assert len(y) == len(A) and all(type(v) is int for v in y)
    for j in range(len(A[0])):
        assert sum(v * row[j] for v, row in zip(y, A)) <= 0
    assert sum(v * bi for v, bi in zip(y, b)) > 0


def test_integer_kernel_matches_rational_tableau_on_seeded_corpus():
    oracle = _Oracle()
    statuses = Counter()
    for k in range(5000):
        A, b, c = _rand_program(rng_for(1, "simplex-corpus", k))
        want = oracle.solve_eq(A, b, c)
        _assert_same_solution(solve_eq(A, b, c), want)
        _assert_same_verdict(A, b, oracle.feasible_eq(A, b))
        statuses[want[0]] += 1
    # The corpus reaches every branch the two kernels must agree on.
    assert min(statuses[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) >= 200, statuses
    for event in ("ratio-tie", "redundant-row", "negative-drive-out"):
        assert oracle.events[event] >= 50, oracle.events


def test_integer_kernel_matches_rational_tableau_on_prune_programs(monkeypatch):
    # The programs prune really solves: record every feasibility LP issued
    # while seeded hinge pairs are built and validated.
    programs = []
    real = _simplex.feasible_eq

    def recording(A, b):
        programs.append(([list(row) for row in A], list(b)))
        return real(A, b)

    monkeypatch.setattr(_simplex, "feasible_eq", recording)
    for k in range(60):
        rand_hinge_pair(rng_for(1, "simplex-prune", k), 1 + k % 3)
    monkeypatch.undo()
    assert len(programs) >= 150
    oracle = _Oracle()
    verdicts = Counter()
    for A, b in programs:
        want = oracle.feasible_eq(A, b)
        _assert_same_verdict(A, b, want)
        verdicts[want] += 1
        # The same polyhedra, minimizing the last column and then its negation.
        for sign in (1, -1):
            c = [Q(0)] * (len(A[0]) - 1) + [Q(sign)]
            _assert_same_solution(solve_eq(A, b, c), oracle.solve_eq(A, b, c))
    assert verdicts[True] and verdicts[False]
