"""psi_eval as one integer pass, against the rational per-atom evaluation it
replaced (psi_reference.py) and against a direct sum over raw pieces
(conftest.eval_all_pieces) that never touches MaxAffineFn."""

import random

import pytest

from convval import DiscreteMeasure, MaxAffineFn, Q, ValuationSpec, psi_eval
from convval.errors import DimensionMismatch
from convval.valuations import VARIANTS

import psi_reference as ref
from conftest import eval_all_pieces

TRIPLES = 3000


def rational(rng, lo=-6, hi=6, max_den=3):
    return Q(rng.randint(lo, hi), rng.randint(1, max_den))


def draw_measure(rng):
    atoms = {}
    for _ in range(rng.randint(0, 4)):
        s = Q(rng.choice([k for k in range(-6, 7) if k]), rng.randint(1, 3))
        atoms[s] = Q(0) if rng.random() < 0.2 else abs(rational(rng)) + Q(1, 5)
    return DiscreteMeasure(atoms.items())


def draw_function(rng, dim):
    """Random pieces, left unpruned: a third get a parallel or a dominated extra piece."""
    pieces = [(tuple(rational(rng) for _ in range(dim)), rational(rng))
              for _ in range(rng.randint(1, 5))]
    extra = rng.random()
    if extra < 1 / 6:
        a, b = rng.choice(pieces)
        pieces.append((a, b - rng.randint(1, 3)))
    elif extra < 1 / 3:
        (a1, b1), (a2, b2) = rng.choice(pieces), rng.choice(pieces)
        pieces.append((tuple((u + v) / 2 for u, v in zip(a1, a2)), (b1 + b2) / 2 - 1))
    return MaxAffineFn(dim, pieces)


def draw_triple(rng):
    variant = rng.choice(VARIANTS)
    dim = 2 if variant == "contravariant-2d" else rng.randint(1, 4)
    c = Q(0) if rng.random() < 0.25 else rational(rng)
    spec = ValuationSpec(variant, dim, c, draw_measure(rng))
    x = tuple(rational(rng, max_den=4) for _ in range(dim))
    return spec, draw_function(rng, dim), x


def direct_psi(spec, f, x):
    """The defining sum, with f evaluated by eval_all_pieces on its raw pieces."""
    if spec.variant == "contravariant-2d":
        x = (-x[1], x[0])
    f0 = eval_all_pieces(f.pieces, (Q(0),) * spec.dim)
    total = spec.c * f0 if spec.variant == "gl-endomorphism" else spec.c
    for s, w in spec.nu.atoms:
        fs = eval_all_pieces(f.pieces, tuple(s * v for v in x))
        total += w * (fs - f0) / (s * s)
    return total


def test_psi_eval_matches_reference_on_seeded_triples():
    rng = random.Random(20261019)
    seen = dict.fromkeys(("zero-weight atom", "empty measure", "negative s", "non-integer s",
                          "unpruned f", "x denominator > 1", "gl-endomorphism c != 0"), 0)
    dims = set()
    variants = set()
    for k in range(TRIPLES):
        spec, f, x = draw_triple(rng)
        value = psi_eval(spec, f, x)
        assert type(value) is Q
        assert value == ref.psi_eval(spec, f, x), (spec, f, x)
        if k % 10 == 0:
            assert value == direct_psi(spec, f, x), (spec, f, x)
        atoms = spec.nu.atoms
        seen["zero-weight atom"] += any(w == 0 for _, w in atoms)
        seen["empty measure"] += not atoms
        seen["negative s"] += any(s < 0 for s, _ in atoms)
        seen["non-integer s"] += any(s.denominator > 1 for s, _ in atoms)
        seen["unpruned f"] += len({a for a, _ in f.pieces}) < len(f.pieces)
        seen["x denominator > 1"] += any(v.denominator > 1 for v in x)
        seen["gl-endomorphism c != 0"] += spec.variant == "gl-endomorphism" and spec.c != 0
        dims.add(spec.dim)
        variants.add(spec.variant)
    assert dims == {1, 2, 3, 4}
    assert variants == set(VARIANTS)
    assert min(seen.values()) >= 100, seen


def test_psi_eval_is_one_pass_without_evaluate(monkeypatch):
    calls = {"maxima": 0, "evaluate": 0}
    maxima_at = MaxAffineFn._maxima_at

    def counting_maxima(self, *args):
        calls["maxima"] += 1
        return maxima_at(self, *args)

    def counting_evaluate(self, x):
        calls["evaluate"] += 1
        raise AssertionError("psi_eval must not evaluate f point by point")

    monkeypatch.setattr(MaxAffineFn, "_maxima_at", counting_maxima)
    monkeypatch.setattr(MaxAffineFn, "evaluate", counting_evaluate)
    monkeypatch.setattr(MaxAffineFn, "__call__", counting_evaluate)
    spec = ValuationSpec("equivariant", 2, Q(1), DiscreteMeasure([(1, 1), (-2, 2), (Q(1, 3), 1)]))
    f = MaxAffineFn(2, [((Q(1), Q(0)), Q(1)), ((Q(-1), Q(2)), Q(0))])
    psi_eval(spec, f, (Q(1, 2), Q(-3)))
    assert calls == {"maxima": 1, "evaluate": 0}


def test_psi_eval_dimension_errors_match_reference():
    spec = ValuationSpec("equivariant", 2, Q(0), DiscreteMeasure([(1, 1)]))
    for f, x in ((MaxAffineFn.zero(3), (Q(0), Q(0))), (MaxAffineFn.zero(2), (Q(0),) * 3)):
        for fn in (psi_eval, ref.psi_eval):
            with pytest.raises(DimensionMismatch) as err:
                fn(spec, f, x)
            assert str(err.value) in ("function dim 3, valuation dim 2",
                                      "point has length 3, expected 2")
