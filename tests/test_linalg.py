"""Rational vectors and matrices: solving, rank, nullspace, group elements."""

import pytest

from convval import Q
from convval.linalg import (
    RationalMatrix,
    dot,
    matrix_rank,
    nullspace,
    solve_square,
    unit_vector,
    vadd,
    vneg,
    vsub,
)


def test_vector_helpers():
    u = (Q(1), Q(2))
    v = (Q(3), Q(-1))
    assert dot(u, v) == Q(1)
    assert vadd(u, v) == (Q(4), Q(1))
    assert vsub(u, v) == (Q(-2), Q(3))
    assert vneg(u) == (Q(-1), Q(-2))
    assert unit_vector(3, 1) == (Q(0), Q(1), Q(0))


def test_solve_square_exact():
    rows = [[Q(2), Q(1)], [Q(1), Q(3)]]
    rhs = [Q(5), Q(10)]
    sol = solve_square([r[:] for r in rows], rhs[:])
    assert tuple(sol) == (Q(1), Q(3))
    # Singular system returns None rather than raising.
    assert solve_square([[Q(1), Q(2)], [Q(2), Q(4)]], [Q(1), Q(1)]) is None


def test_matrix_rank():
    assert matrix_rank([[Q(1), Q(0)], [Q(0), Q(1)]]) == 2
    assert matrix_rank([[Q(1), Q(2)], [Q(2), Q(4)]]) == 1
    assert matrix_rank([]) == 0
    assert matrix_rank([[Q(0), Q(0)]]) == 0


def test_nullspace_orthogonal_to_rows():
    rows = [[Q(1), Q(1), Q(0)]]
    basis = nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert dot(rows[0], vec) == 0


def test_identity_and_determinant():
    eye = RationalMatrix.identity(3)
    assert eye.det() == Q(1)
    m = RationalMatrix([[Q(1), Q(2)], [Q(3), Q(4)]])
    assert m.det() == Q(-2)


def test_matrix_apply_and_multiply():
    m = RationalMatrix([[Q(0), Q(-1)], [Q(1), Q(0)]])
    assert m.matvec((Q(1), Q(0))) == (Q(0), Q(1))
    sq = m @ m
    assert sq.matvec((Q(1), Q(0))) == (Q(-1), Q(0))


def test_inverse_and_transpose():
    m = RationalMatrix([[Q(2), Q(1)], [Q(1), Q(1)]])
    inv = m.inverse()
    assert m @ inv == RationalMatrix.identity(2)
    asym = RationalMatrix([[Q(1), Q(2)], [Q(3), Q(4)]])
    assert asym.transpose() == RationalMatrix([[Q(1), Q(3)], [Q(2), Q(4)]])
    assert asym.inverse_transpose() == asym.inverse().transpose()
    singular = RationalMatrix([[Q(1), Q(1)], [Q(1), Q(1)]])
    with pytest.raises(ValueError):
        singular.inverse()


def test_shear_properties():
    s = RationalMatrix.shear(3, 0, 2, Q(5, 2))
    assert s.det() == Q(1)
    assert s.matvec((Q(0), Q(0), Q(1))) == (Q(5, 2), Q(0), Q(1))
    with pytest.raises(ValueError):
        RationalMatrix.shear(2, 1, 1, Q(1))


def test_quarter_turn_is_rotation_by_right_angle():
    r = RationalMatrix.quarter_turn()
    assert r.det() == Q(1)
    assert r.matvec((Q(1), Q(0))) == (Q(0), Q(1))
    assert r.matvec((Q(0), Q(1))) == (Q(-1), Q(0))
    # Fourth power is the identity.
    assert r @ r @ r @ r == RationalMatrix.identity(2)


def test_contragredient_identity_for_unimodular_2x2():
    # For det g = 1 in the plane: g followed by the quarter turn equals the
    # quarter turn followed by the inverse transpose of g.
    theta = RationalMatrix.quarter_turn()
    g = RationalMatrix([[Q(2), Q(3)], [Q(1), Q(2)]])
    assert g.det() == Q(1)
    lhs = theta @ g
    rhs = g.inverse().transpose() @ theta
    assert lhs == rhs
