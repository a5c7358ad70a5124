"""Compare the two rational backends on the hull-heavy core workload.

Runs the same deterministic batch of prune/conjugate/valuation operations in
two subprocesses, one pinned to each backend via CONVVAL_RATIONAL, and prints
wall times plus the speedup.  The batch also emits a result digest so the run
doubles as a cross-backend agreement check: both backends must compute the
exact same rationals.

Usage: python3 benchmarks/backend_bench.py [--functions N] [--pieces N]

The workers import convval from this checkout's src directory, ahead of any
PYTHONPATH already set, so nothing needs installing.
"""

import argparse
import json
import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_WORKER = r"""
import hashlib
import json
import random
import sys
import time

from convval import MaxAffineFn, Q, add, conjugate, conjugate_cd, prune, psi_eval
from convval import DiscreteMeasure, ValuationSpec
from convval.rational import BACKEND, format_rational

n_funcs, max_pieces = int(sys.argv[1]), int(sys.argv[2])
rng = random.Random(97)
funcs = []
for k in range(n_funcs):
    dim = 1 + k % 3
    pieces = [
        (
            tuple(Q(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(dim)),
            Q(rng.randint(-8, 8), rng.randint(1, 4)),
        )
        for _ in range(rng.randint(2, max_pieces))
    ]
    funcs.append(MaxAffineFn(dim, pieces))

spec2 = ValuationSpec("equivariant", 2, Q(0), DiscreteMeasure([(1, 1), (-1, 1)]))
digest = hashlib.sha256()
start = time.perf_counter()
for f in funcs:
    p = prune(f)
    assert conjugate_cd(conjugate(f)) == p
    s = add(p, p)
    canon = sorted(
        (tuple(format_rational(c) for c in a), format_rational(b)) for a, b in s.pieces
    )
    digest.update(repr(canon).encode())
    if f.dim == 2:
        val = psi_eval(spec2, f, (Q(1), Q(-2)))
        digest.update(format_rational(val).encode())
elapsed = time.perf_counter() - start
print(json.dumps({"backend": BACKEND, "seconds": elapsed, "digest": digest.hexdigest()}))
"""


def run_backend(name, n_funcs, max_pieces):
    path = [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, CONVVAL_RATIONAL=name, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, str(n_funcs), str(max_pieces)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--functions", type=int, default=400)
    ap.add_argument("--pieces", type=int, default=8)
    args = ap.parse_args()

    results = []
    for backend in ("gmpy2", "fraction"):
        try:
            res = run_backend(backend, args.functions, args.pieces)
        except subprocess.CalledProcessError as exc:
            print(f"{backend:>9}: unavailable ({exc.stderr.strip().splitlines()[-1]})")
            continue
        results.append(res)
        print(f"{res['backend']:>9}: {res['seconds']:.3f}s  digest {res['digest'][:16]}")

    if len(results) == 2:
        if results[0]["digest"] != results[1]["digest"]:
            print("MISMATCH: backends disagree on exact results")
            return 1
        ratio = results[1]["seconds"] / results[0]["seconds"]
        print(f"agreement: identical digests; gmpy2 speedup x{ratio:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
