"""Reference hinge-pair construction, independent of analysis.hinge_pair's
sign bits.

This is the construction the package used before h and max{f, h} were read
off f's pieces: f, h and max{f, h} each pruned from the unpruned base plus a
two-piece hinge, the base pruned on its own, and a self-check that prunes
f and h together a second time.  The body is kept as it was; the
differential test in test_analysis.py compares the package with it.
"""

from convval.maxaffine import MaxAffineFn, add, max_of, prune
from convval.rational import Q, rat, rat_vector

_ZERO = Q(0)


def hinge_pair(base, u, t, cw):
    """(f, h, fmax, fmin) of the hinge pair over base; inputs already valid."""
    u = rat_vector(u)
    t = rat(t)
    cw = rat(cw)
    n = base.dim
    zero = (_ZERO,) * n
    pos = MaxAffineFn(n, [(tuple(cw * v for v in u), -cw * t), (zero, _ZERO)])
    neg = MaxAffineFn(n, [(tuple(-cw * v for v in u), cw * t), (zero, _ZERO)])
    absg = MaxAffineFn(n, [(tuple(cw * v for v in u), -cw * t), (tuple(-cw * v for v in u), cw * t)])
    f = add(base, pos)
    h = add(base, neg)
    fmax = add(base, absg)
    fmin = prune(base)
    if max_of(f, h) != fmax:
        raise AssertionError("hinge construction broke max{f, h} = base + cw|g|")
    # min{f, h} = base holds identically; spot check a deterministic sample.
    for k in range(2 * n + 1):
        x = tuple(Q(((k + 1) * (j + 2)) % 7 - 3, 2) for j in range(n))
        if min(f(x), h(x)) != fmin(x):
            raise AssertionError("hinge construction broke min{f, h} = base")
    return f, h, fmax, fmin
