"""The immutable value types survive pickle, copy and deepcopy.

Each round trip rebuilds the object from its defining data, so it compares
and hashes equal to the original and carries none of its lazily built
caches (integer images, facets, determinant).
"""

import copy
import pickle

import pytest

from convval import MaxAffineFn, Polytope, Q, conjugate
from convval.linalg import RationalMatrix
from convval.polytopes import volume


def values():
    f = MaxAffineFn(2, [((1, Q(-1, 2)), Q(1, 3)), ((0, 0), 0), ((-2, 1), 5)])
    f((1, 1))
    K = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, Q(1, 2), 0), (0, 0, 3), (Q(1, 5), Q(1, 5), Q(1, 5))])
    K.support((1, 2, 3))
    volume(K)
    g = conjugate(f)
    M = RationalMatrix([[1, Q(1, 2)], [3, 4]])
    M.det()
    return [f, MaxAffineFn(1, [((1,), 0)]), K, Polytope(1, [(Q(1, 7),)]), g, M]


def assert_fresh_copy(original, clone):
    assert type(clone) is type(original)
    assert clone == original and hash(clone) == hash(original)
    assert repr(clone) == repr(original)
    if isinstance(clone, MaxAffineFn):
        assert clone._ints is None
    elif isinstance(clone, Polytope):
        assert clone._cache == {}
    elif isinstance(clone, RationalMatrix):
        assert clone._det is None


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    for v in values():
        assert_fresh_copy(v, pickle.loads(pickle.dumps(v, protocol)))


def test_copy_and_deepcopy_round_trip():
    for v in values():
        assert_fresh_copy(v, copy.deepcopy(v))
        assert_fresh_copy(v, copy.copy(v))


def test_round_trip_values_still_evaluate():
    f, _, K, _, g, M = values()
    assert pickle.loads(pickle.dumps(f))((2, -1)) == f((2, -1))
    assert copy.deepcopy(K).support((-1, 1, 1)) == K.support((-1, 1, 1))
    assert pickle.loads(pickle.dumps(g))((0, 0)) == g((0, 0))
    assert copy.deepcopy(M).det() == M.det() == Q(5, 2)
