"""The four workloads: seeded inputs, the timed operation, exact checks.

A workload hands out one operation at a time (a closed loop with a single
caller).  `next_op` is untimed: it generates inputs lazily, in chunks drawn
from `rng_for(seed, "perfbench", workload, chunk)`.  `Op.run` is the timed
call into convval; it receives only the generated input (a JSON request
text, or a suite seed).  `finish` is untimed: it returns the op's output
bytes for the run digest, how many ops it completed, and the first check
that failed, if any (as `(output, ops, failed_ops, problem)`).

Every input is new within a run: suite calls use distinct suite seeds and
every request carries freshly generated documents.  A request reuses its
own document for all of its points, never another request's.
"""

import json
import time
from fractions import Fraction

from convval import analysis, io, lifted, maxaffine, polytopes, rational, suites, valuations
from convval.generators import rng_for

import oracles
from speed import thread_probe

# Points or directions per request, drawn uniformly from these: one parsed
# document answers k queries.  k = 1 is the shape of every CLI read verb
# (one --point or --direction per parsed document); the larger k are a
# caller reusing a document.  Parsing costs about as much as 3-5 point
# evaluations, so k <= 2 gives parse-bound requests and k >= 8
# evaluation-bound ones.
POINTS_PER_REQUEST = (1, 2, 4, 8, 16)

SUITE_PARAMS = {
    # suite, trials per call, cases per call, acceptance-gate exhibit count
    "thm-a": ("thm-a", 10, 5 * 10 + 10, 5),
    "classical": ("classical", 10, 7 + 2 * 10, 0),
}

QUERY_KINDS = ("eval", "lifted", "psi", "support", "projbody", "falsify")
TRANSFORM_KINDS = ("conjugate", "expand", "diffbody2", "diffbody3", "mincvx", "hinge", "replay")

# Transform inputs alternate between two sizes by round, so every run holds
# the same mix of small and large: base pieces of a hinge pair, pieces and
# measure atoms of an expansion, noise points of a difference body.
SIZE_CYCLE = (2, 3)

VARIANTS = ("equivariant", "contravariant-2d", "gl-endomorphism")


def fmt(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def vec_doc(v):
    return [fmt(x) for x in v]


def rand_q(rng, lo=-8, hi=8, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_vec(rng, dim, lo=-8, hi=8, den=4):
    return tuple(rand_q(rng, lo, hi, den) for _ in range(dim))


def rand_pieces(rng, dim, max_pieces, exact=False):
    """Raw (unpruned) pieces with distinct slopes, as a user might send them:
    2..max_pieces of them, or exactly max_pieces."""
    target = max_pieces if exact else rng.randint(2, max_pieces)
    pieces = {}
    while len(pieces) < target:
        pieces[rand_vec(rng, dim)] = rand_q(rng)
    return sorted(pieces.items())


def function_doc(dim, pieces):
    return {"dim": dim, "pieces": [{"a": vec_doc(a), "b": fmt(b)} for a, b in pieces]}


def rand_points_full(rng, dim, extra=6, exact=False):
    """A scaled simplex plus 1..extra noise points (exactly extra when
    asked): full-dimensional, some points interior."""
    pts = [(Fraction(0),) * dim]
    for k in range(dim):
        v = [Fraction(0)] * dim
        v[k] = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        pts.append(tuple(v))
    for _ in range(extra if exact else rng.randint(1, extra)):
        pts.append(rand_vec(rng, dim, -4, 4, 2))
    return sorted(set(pts))


def rand_hinge_args(rng, base_pieces):
    """Arguments of a planar hinge pair whose base has exactly base_pieces
    pieces, none redundant, with the ranges of `generators.rand_hinge_pair`.

    The base size is fixed rather than left to chance because the cost of
    `is_min_convex` grows steeply with it.  The base is max(a.x + b) with
    b = -s|a|^2 + l.a + c: every piece is the unique maximum at
    x = 2sa - l, so none is redundant and no convval call is needed here.
    """
    s, ell, c = Fraction(1, rng.randint(1, 4)), rand_vec(rng, 2, -2, 2, 1), rand_q(rng, -4, 4, 2)
    slopes = set()
    while len(slopes) < base_pieces:
        slopes.add(rand_vec(rng, 2, -3, 3, 2))
    base = [(a, -s * (a[0] ** 2 + a[1] ** 2) + ell[0] * a[0] + ell[1] * a[1] + c) for a in sorted(slopes)]
    u = (0, 0)
    while u == (0, 0):
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
    return base, u, rand_q(rng, -4, 4, 2), Fraction(rng.randint(1, 4), rng.randint(1, 2))


def rand_direction(rng, dim):
    while True:
        u = rand_vec(rng, dim, -4, 4, 2)
        if any(u):
            return u


def rand_measure(rng, npos=None):
    """Atoms (s, w) with sum w / s = 0, the balanced measures of the suites:
    npos positive atoms (1 or 2 when not given) and one negative."""
    npos = npos or rng.randint(1, 2)
    atoms, budget, seen = [], Fraction(0), set()
    while len(atoms) < npos:
        s = Fraction(rng.randint(1, 6), rng.randint(1, 2))
        if s in seen:
            continue
        seen.add(s)
        w = Fraction(rng.randint(1, 6), rng.randint(1, 2))
        atoms.append((s, w))
        budget += w / s
    s_neg = -Fraction(rng.randint(1, 6), rng.randint(1, 2))
    atoms.append((s_neg, budget * abs(s_neg)))
    return atoms


def spec_doc(variant, dim, c, atoms):
    return {
        "variant": variant,
        "dim": dim,
        "c": fmt(c),
        "nu": {"atoms": [{"s": fmt(s), "w": fmt(w)} for s, w in atoms]},
    }


def point_docs(points):
    return [{"kind": "vector", "value": vec_doc(p)} for p in points]


def parse_points(docs):
    return [io.value_from_doc(d, where=f"points[{i}]") for i, d in enumerate(docs)]


def emit(doc):
    return io.dump_json(doc).encode()


class Op:
    """One op: `run(text)` is the timed call, `expect` feeds the checks.

    `latencies` is None for a request, whose own time is its one latency
    sample; a suite call fills it with (CPU time, probe time) for each of
    its cases, the probe (see speed.py) run on the case's thread just before
    it.
    """

    __slots__ = ("kind", "text", "expect", "run", "latencies")

    def __init__(self, kind, text, expect, run, latencies=None):
        self.kind = kind
        self.text = text
        self.expect = expect
        self.run = run
        self.latencies = latencies


# ---------------------------------------------------------------------------
# Suite workloads: back-to-back run_suite calls on fresh suite seeds


class SuiteWorkload:
    def __init__(self, name, seed):
        self.name = name
        self.suite, self.trials, self.cases, self.exhibits = SUITE_PARAMS[name]
        self.seed = seed
        self.count = 0

    def round_done(self):
        return True

    def next_op(self):
        suite_seed = self.seed * 1_000_000 + self.count
        self.count += 1
        op = Op(self.suite, None, suite_seed, None, latencies=[])
        op.run = lambda _text: _run_timing_cases(op.latencies, self.suite, suite_seed, self.trials)
        return op

    def finish(self, op, report):
        out = io.dump_json(suites.report_doc(report)).encode()
        problem = None
        if report.failures:
            problem = f"{report.failures} failing cases, first {report.witnesses[0].get('case')}"
        elif report.cases != self.cases:
            problem = f"{report.cases} cases, expected {self.cases}"
        elif len(report.exhibits) != self.exhibits:
            problem = f"{len(report.exhibits)} exhibits, expected {self.exhibits}"
        elif len(op.latencies) != report.cases:
            problem = (f"timed {len(op.latencies)} of {report.cases} cases: "
                       "run_suite no longer runs its cases through suites._run_case")
        # A miss that concerns the whole call fails every case in it.
        failed = report.failures or (max(report.cases, 1) if problem else 0)
        return out, report.cases, failed, problem


def _run_timing_cases(latencies, suite, seed, trials):
    """run_suite, timing each case where the pool runs it.

    A suite op is a case, and cases run inside the suite's thread pool, so
    they are timed by wrapping the suite's case runner for the duration of
    the call.  A case's time is its thread CPU time: its wall time in the
    pool mostly measures the other cases it shares the GIL with, and would
    fall about fourfold without the pool while the call took as long.  The
    wrapper also runs the machine-speed probe
    before each case, so a call's speed is measured while it runs.  If
    run_suite stops calling that runner, the call fails (no runner) or its
    check does (too few cases timed): the metrics never fall back to
    whole-call times.
    """
    runner = suites._run_case

    def timed(*args):
        probe_s = thread_probe()
        c0 = time.thread_time()
        try:
            return runner(*args)
        finally:
            latencies.append((time.thread_time() - c0, probe_s))

    suites._run_case = timed
    try:
        return suites.run_suite(suite, seed, trials)
    finally:
        suites._run_case = runner


# ---------------------------------------------------------------------------
# Request workloads


class RequestWorkload:
    """Round-robin over request kinds; inputs generated one round at a time."""

    kinds = ()

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.round = 0
        self.pending = []
        self._refill()

    def _refill(self):
        rng = rng_for(self.seed, "perfbench", self.name, self.round)
        for kind in self.kinds:
            self.pending.append(self.make(kind, rng, self.round))
        self.round += 1

    def round_done(self):
        """A run stops only between rounds, so it holds every kind equally."""
        return not self.pending

    def next_op(self):
        if not self.pending:
            self._refill()
        return self.pending.pop(0)

    def finish(self, op, out):
        try:
            problem = self.check(op, json.loads(out))
        except Exception as exc:  # a malformed answer is a failed check
            problem = f"unreadable answer: {exc!r}"
        return out, 1, int(problem is not None), problem


def _scalar(vdoc):
    if vdoc.get("kind") == "posinf":
        return None
    return oracles.frac(vdoc["value"])


class QueryWorkload(RequestWorkload):
    """The read path: parse one document, answer K points, emit values."""

    kinds = QUERY_KINDS

    def make(self, kind, rng, r):
        k = rng.choice(POINTS_PER_REQUEST)
        if kind == "eval":
            dim = 1 + r % 3
            pieces = rand_pieces(rng, dim, 8)
            pts = [rand_vec(rng, dim) for _ in range(k)]
            req = {"kind": kind, "document": function_doc(dim, pieces), "points": point_docs(pts)}
            return Op(kind, json.dumps(req), (pieces, pts), _answer)
        if kind == "lifted":
            dim = 1 + r % 2
            count, verts = rng.randint(3, 6), set()
            while len(verts) < count:
                verts.add(rand_vec(rng, dim, -4, 4, 2) + (rand_q(rng, -4, 4, 2),))
            verts = sorted(verts)
            pts = []
            for j in range(k):
                if j % 4 == 3:
                    pts.append(rand_vec(rng, dim, -12, 12, 1))
                else:
                    p, q = rng.sample(verts, 2)
                    lam = Fraction(rng.randint(0, 4), 4)
                    pts.append(tuple(lam * p[i] + (1 - lam) * q[i] for i in range(dim)))
            req = {"kind": kind, "document": {"dim": dim, "lifted_vertices": [vec_doc(v) for v in verts]},
                   "points": point_docs(pts)}
            return Op(kind, json.dumps(req), (verts, pts), _answer)
        if kind == "psi":
            variant = VARIANTS[r % 3]
            dim = 2 if variant == "contravariant-2d" else 1 + (r // 3) % 3
            pieces = rand_pieces(rng, dim, 8)
            c = rand_q(rng, -4, 4, 2)
            atoms = rand_measure(rng)
            pts = [rand_vec(rng, dim) for _ in range(k)]
            req = {"kind": kind, "spec": spec_doc(variant, dim, c, atoms),
                   "document": function_doc(dim, pieces), "points": point_docs(pts)}
            return Op(kind, json.dumps(req), (variant, c, atoms, pieces, pts), _answer)
        if kind in ("support", "projbody"):
            dim = 2 + r % 2
            pts = rand_points_full(rng, dim)
            dirs = [rand_direction(rng, dim) for _ in range(k)]
            req = {"kind": kind, "document": {"dim": dim, "vertices": [vec_doc(p) for p in pts]},
                   "points": point_docs(dirs)}
            return Op(kind, json.dumps(req), (pts, dirs), _answer)
        if kind == "falsify":
            c = rand_q(rng, -4, 4, 2)
            atoms = rand_measure(rng)
            req = {"kind": kind, "spec": spec_doc("equivariant", 3, c, atoms), "budget": 1000}
            return Op(kind, json.dumps(req), (c, atoms), _answer)
        raise ValueError(kind)

    def check(self, op, doc):
        kind = op.kind
        if kind == "falsify":
            return _check_falsify(op.expect, doc)
        got = [_scalar(v) for v in doc["values"]]
        if kind == "eval":
            pieces, pts = op.expect
            want = [oracles.eval_max(pieces, x) for x in pts]
        elif kind == "lifted":
            # The Caratheodory oracle is exponential: check the first point
            # and, when k > 3, the fourth, a far point often outside the domain.
            verts, pts = op.expect
            idx = (0, 3)[:1 + (len(pts) > 3)]
            got = [got[i] for i in idx]
            want = [oracles.lower_envelope(verts, pts[i]) for i in idx]
        elif kind == "psi":
            variant, c, atoms, pieces, pts = op.expect
            want = [oracles.psi(variant, c, atoms, pieces, x) for x in pts]
        elif kind == "support":
            pts, dirs = op.expect
            want = [oracles.support(pts, u) for u in dirs]
        else:
            pts, dirs = op.expect
            want = [oracles.projection_support(pts, u) for u in dirs]
        if got != want:
            return f"{kind}: answers differ from the oracle"
        return None


def _answer(text):
    """Answer one read request: parse, evaluate every point, emit the values."""
    req = json.loads(text)
    kind = req["kind"]
    if kind == "falsify":
        spec = io.parse_document(req["spec"], "spec")
        res = analysis.falsify_contravariance(spec, budget=req["budget"])
        if not res["found"]:
            return emit({"found": False, "tried": res["tried"]})
        wit = io.witness_doc("contravariance-gap",
                             {"spec": spec, "g": res["g"], "f": res["f"], "x": res["x"]},
                             res["lhs"], res["rhs"])
        return emit({"found": True, "tried": res["tried"], "witness": wit})
    obj = io.parse_document(req["document"], "document")
    points = parse_points(req["points"])
    if kind == "eval":
        values = [obj.evaluate(x) for x in points]
    elif kind == "lifted":
        values = [obj.evaluate(x) for x in points]
    elif kind == "psi":
        spec = io.parse_document(req["spec"], "spec")
        values = [valuations.psi_eval(spec, obj, x) for x in points]
    elif kind == "support":
        values = [obj.support(u) for u in points]
    else:
        values = [polytopes.projection_body_support(obj, u) for u in points]
    return emit({"values": [io.value_to_doc(v) for v in values]})


def _check_falsify(expect, doc):
    c, atoms = expect
    if not doc.get("found"):
        return "falsify: no counterexample within the budget"
    wit = doc["witness"]["inputs"]
    g = [oracles.frac_vec(row) for row in wit["g"]["rows"]]
    pieces = [(oracles.frac_vec(p["a"]), oracles.frac(p["b"])) for p in wit["f"]["pieces"]]
    x = oracles.frac_vec(wit["x"]["value"])
    gt = oracles.transpose(g)
    composed = [(oracles.matvec(gt, a), b) for a, b in pieces]
    lhs = oracles.psi("equivariant", c, atoms, composed, x)
    rhs = oracles.psi("equivariant", c, atoms, pieces, oracles.matvec(oracles.inverse_transpose(g), x))
    rec = doc["witness"]
    if lhs == rhs or lhs != _scalar(rec["lhs"]) or rhs != _scalar(rec["rhs"]):
        return "falsify: witness is not a genuine gap"
    return None


class TransformWorkload(RequestWorkload):
    """The write path: build new objects and emit documents; replay witnesses."""

    kinds = TRANSFORM_KINDS

    def __init__(self, name, seed):
        self.witnesses = []
        super().__init__(name, seed)

    def make(self, kind, rng, r):
        if kind == "conjugate":
            dim = 1 + r % 3
            pieces = rand_pieces(rng, dim, 8)
            pts = [rand_vec(rng, dim) for _ in range(3)]
            req = {"kind": kind, "document": function_doc(dim, pieces)}
            return Op(kind, json.dumps(req), (dim, pieces, pts), _transform)
        if kind == "expand":
            variant = VARIANTS[r % 3]
            pieces = rand_pieces(rng, 2, SIZE_CYCLE[r % 2], exact=True)
            c = Fraction(0) if variant == "gl-endomorphism" else rand_q(rng, -4, 4, 2)
            atoms = rand_measure(rng, SIZE_CYCLE[r % 2] - 1)
            pts = [rand_vec(rng, 2) for _ in range(3)]
            req = {"kind": kind, "spec": spec_doc(variant, 2, c, atoms),
                   "document": function_doc(2, pieces), "points": point_docs(pts)}
            return Op(kind, json.dumps(req), (variant, c, atoms, pieces, pts), _transform)
        if kind in ("diffbody2", "diffbody3"):
            dim = int(kind[-1])
            pts = rand_points_full(rng, dim, extra=SIZE_CYCLE[r % 2], exact=True)
            dirs = [rand_direction(rng, dim) for _ in range(4)]
            req = {"kind": "diffbody", "document": {"dim": dim, "vertices": [vec_doc(p) for p in pts]}}
            return Op(kind, json.dumps(req), (pts, dirs), _transform)
        if kind == "mincvx":
            f = rand_pieces(rng, 2, 4)
            h = rand_pieces(rng, 2, 4)
            pts = [rand_vec(rng, 2) for _ in range(4)]
            req = {"kind": kind, "f": function_doc(2, f), "h": function_doc(2, h)}
            return Op(kind, json.dumps(req), (f, h, pts), _transform)
        if kind == "hinge":
            base, u, t, cw = rand_hinge_args(rng, SIZE_CYCLE[r % 2])
            pts = [rand_vec(rng, 2) for _ in range(4)]
            req = {"kind": kind, "base": function_doc(2, base), "u": vec_doc(u), "t": fmt(t), "cw": fmt(cw)}
            return Op(kind, json.dumps(req), (base, u, t, cw, pts), _transform)
        if kind == "replay":
            # Resolved when the op is handed out: the witness emitted most
            # recently by this run's own expand or diffbody requests.
            return Op(kind, None, r, _transform)
        raise ValueError(kind)

    def next_op(self):
        op = super().next_op()
        if op.kind == "replay":
            if self.witnesses:
                op.text = self.witnesses[op.expect % len(self.witnesses)]
            else:
                op.run = _no_witness
            self.witnesses.clear()
        return op

    def check(self, op, doc):
        kind = op.kind
        if kind == "conjugate":
            dim, pieces, pts = op.expect
            back = [(oracles.frac_vec(p["a"]), oracles.frac(p["b"])) for p in doc["function"]["pieces"]]
            pruned = maxaffine.prune(maxaffine.MaxAffineFn(dim, pieces))
            if sorted(back) != sorted(pruned.pieces):
                return "conjugate: conjugate_cd(conjugate(f)) != prune(f)"
            if len(doc["lifted"]["lifted_vertices"]) != len(back):
                return "conjugate: lifted vertex count differs from piece count"
            if any(oracles.eval_max(back, x) != oracles.eval_max(pieces, x) for x in pts):
                return "conjugate: round trip changed function values"
            return None
        if kind == "expand":
            variant, c, atoms, pieces, pts = op.expect
            want = [oracles.psi(variant, c, atoms, pieces, x) for x in pts]
            if [_scalar(v) for v in doc["values"]] != want:
                return "expand: expanded values differ from the oracle"
            if doc["witness"]["lhs"] != doc["witness"]["rhs"]:
                return "expand: witness sides differ"
            self.witnesses.append(json.dumps(doc["witness"]))
            return None
        if kind in ("diffbody2", "diffbody3"):
            pts, dirs = op.expect
            verts = [oracles.frac_vec(v) for v in doc["body"]["vertices"]]
            for u in dirs:
                neg = tuple(-x for x in u)
                if oracles.support(verts, u) != oracles.support(pts, u) + oracles.support(pts, neg):
                    return f"{kind}: support differs from h_K(u) + h_K(-u)"
            if sorted(tuple(-x for x in v) for v in verts) != sorted(verts):
                return f"{kind}: body is not origin-symmetric"
            self.witnesses.append(json.dumps(doc["witness"]))
            return None
        if kind == "mincvx":
            f, h, pts = op.expect
            if doc["hull"].get("kind") == "none":
                return "mincvx: pair has no common affine minorant" if doc["min_convex"] else None
            hull = [(oracles.frac_vec(p["a"]), oracles.frac(p["b"])) for p in doc["hull"]["pieces"]]
            for x in pts:
                low = min(oracles.eval_max(f, x), oracles.eval_max(h, x))
                got = oracles.eval_max(hull, x)
                if got > low or (doc["min_convex"] and got != low):
                    return "mincvx: hull is not the convex minorant of min{f, h}"
            return None
        if kind == "hinge":
            base, u, t, cw, pts = op.expect
            f, h, hull = ([(oracles.frac_vec(p["a"]), oracles.frac(p["b"])) for p in doc[key]["pieces"]]
                          for key in ("f", "h", "hull"))
            for x in pts:
                g = cw * (u[0] * x[0] + u[1] * x[1] - t)
                want = oracles.eval_max(base, x)
                if oracles.eval_max(f, x) != want + max(g, 0) or oracles.eval_max(h, x) != want + max(-g, 0):
                    return "hinge: f or h differs from base + cw * max(+-(u.x - t), 0)"
            if not doc["min_convex"]:
                return "hinge: min{f, h} of a hinge pair must be convex"
            if sorted(hull) != sorted(base):
                return "hinge: convex minorant differs from the pair's base"
            return None
        if not doc.get("match"):
            return "replay: recomputed witness does not match"
        return None


def _no_witness(_text):
    raise RuntimeError("replay: no witness was emitted earlier in this round")


def _transform(text):
    """Answer one write request: build the new objects and emit documents."""
    req = json.loads(text)
    if "check" in req:
        return emit(suites.replay_witness(req))
    kind = req["kind"]
    if kind == "conjugate":
        f = io.parse_document(req["document"], "document")
        g_text = io.dump_json(io.value_to_doc(lifted.conjugate(f)))
        g_doc = json.loads(g_text)
        back = lifted.conjugate_cd(io.parse_document(g_doc, "lifted"))
        return emit({"lifted": g_doc, "function": io.value_to_doc(back)})
    if kind == "expand":
        spec = io.parse_document(req["spec"], "spec")
        f = io.parse_document(req["document"], "document")
        points = parse_points(req["points"])
        expanded = valuations.psi_expand(spec, f)
        values = [expanded.evaluate(x) for x in points]
        wit = io.witness_doc("expand-consistency", {"spec": spec, "f": f, "x": points[0]},
                             values[0], valuations.psi_eval(spec, f, points[0]))
        return emit({"expanded": io.value_to_doc(expanded),
                     "values": [io.value_to_doc(v) for v in values], "witness": wit})
    if kind == "diffbody":
        P = io.parse_document(req["document"], "document")
        D = polytopes.difference_body(P)
        wit = io.witness_doc("difference-exact", {"P": P, "expected": D}, D, D)
        return emit({"body": io.value_to_doc(D), "witness": wit})
    if kind == "hinge":
        base = io.parse_document(req["base"], "base")
        u = [rational.parse_rational(v, "u") for v in req["u"]]
        pair = analysis.hinge_pair(base, u, rational.parse_rational(req["t"], "t"),
                                   rational.parse_rational(req["cw"], "cw"))
        return emit({"f": io.value_to_doc(pair.f), "h": io.value_to_doc(pair.h),
                     "hull": io.value_to_doc(lifted.min_convex_hull(pair.f, pair.h)),
                     "min_convex": lifted.is_min_convex(pair.f, pair.h)})
    f = io.parse_document(req["f"], "f")
    h = io.parse_document(req["h"], "h")
    hull = lifted.min_convex_hull(f, h)
    return emit({"hull": io.value_to_doc(hull), "min_convex": lifted.is_min_convex(f, h)})


WORKLOADS = {
    "thm-a": SuiteWorkload,
    "classical": SuiteWorkload,
    "query": QueryWorkload,
    "transform": TransformWorkload,
}


def make(name, seed):
    return WORKLOADS[name](name, seed)
