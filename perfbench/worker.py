"""One measured process: import convval, generate inputs, run the closed loop.

Started by run.py with the checkout's `src` on PYTHONPATH and the rational
backend pinned.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload query --seed 1 --seconds 10 \\
        --spawned-at <time.monotonic() of the parent at spawn>

`--setup-only` stops once the first inputs are ready; `--ops N` runs exactly
N ops instead of a time budget; `--trace 1` wraps convval's public functions
and adds per-layer metrics; `--spans PATH` also writes every span to PATH.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import PROBE_EVERY_S, PROBE_REF_S, probe


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import convval.cli  # noqa: F401  (every CLI process pays this import)
    from convval import rational

    import tracer
    import workloads

    wl = workloads.make(args.workload, args.seed)
    setup_s = (time.monotonic() - args.spawned_at) * PROBE_REF_S / probe()
    env = {
        "backend": rational.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, **env}))
        return 0

    tr = tracer.Tracer()
    if args.trace:
        tr.install()
    # The outputs of the first ref_ops ops form the reference digest; every
    # run makes at least that many.
    reference = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
    ref_ops = reference["ops"][args.workload]
    digest, ref_digest = hashlib.sha256(), hashlib.sha256()
    durations, cpus, samples, weights, probes, problems = [], [], [], [], [], []
    failed = attempted = 0
    timed = since_probe = 0.0
    last_probe = probe()
    n = 0
    try:
        while True:
            if args.ops:
                if n >= args.ops:
                    break
            elif timed >= args.seconds and n >= ref_ops and wl.round_done():
                break
            if since_probe >= PROBE_EVERY_S:
                last_probe, since_probe = probe(), 0.0
            probes.append(last_probe)
            op = wl.next_op()
            n += 1
            tr.op = n
            if args.trace and op.text is not None:
                tr.note("io.bytes_in", len(op.text.encode()))
            tr.enabled = bool(args.trace)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result, error = op.run(op.text), None
            except Exception as exc:  # counted as a failed op, the loop goes on
                result, error = None, exc
                traceback.print_exc()
            t1 = time.perf_counter()
            c1 = time.process_time()
            tr.enabled = False
            timed += t1 - t0
            since_probe += t1 - t0
            durations.append(t1 - t0)
            cpus.append(c1 - c0)
            samples.append(op.latencies)
            if error is None:
                out, weight, bad, problem = wl.finish(op, result)
            else:
                out, weight, bad, problem = b"", 1, 1, f"{op.kind}: {error!r}"
            weights.append(weight)
            attempted += weight
            failed += bad
            if problem and len(problems) < 5:
                problems.append(f"op {n}: {problem}")
            record = len(out).to_bytes(8, "big") + out
            digest.update(record)
            if n <= ref_ops:
                ref_digest.update(record)
    finally:
        tr.uninstall()

    # A request is scaled by the mean of the probes before and after it, and
    # is its own one latency sample.  A suite call of a few seconds is scaled
    # by the mean of the probes run inside it, next to each case; their time
    # is taken out of the call's time and CPU.  Its cases' CPU times are its
    # latency samples.
    after = probes[1:] + [probe()]
    scaled, scaled_cpu, latencies = [], [], []
    for t, c, before, later, cases in zip(durations, cpus, probes, after, samples):
        k = 2 * PROBE_REF_S / (before + later)
        if cases is None:
            latencies.append(t * k)
        elif cases:
            probe_s = [p for _, p in cases]
            t, c = t - sum(probe_s), c - sum(probe_s)
            k = PROBE_REF_S / statistics.mean(probe_s)
            latencies.extend(lat * k for lat, _ in cases)
        scaled.append(t * k)
        scaled_cpu.append(c * k)
    # Empty only when run_suite timed no case, which fails every call's check.
    latencies = sorted(latencies) or [0.0]
    cuts = statistics.quantiles(latencies, n=10, method="inclusive") if len(latencies) > 1 else latencies * 9
    # Interquartile mean: the mean latency of the middle half of the ops.
    quarter = len(latencies) // 4
    middle = latencies[quarter:len(latencies) - quarter]
    res = {
        "setup_s": setup_s,
        "ops": n,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "timed_s": timed,
        "scaled_s": sum(scaled),
        "raw_ops_per_s": attempted / timed,
        "machine_speed": PROBE_REF_S / statistics.median(probes + after),
        "ops_per_s": attempted / sum(scaled),
        "op_iqm_ms": statistics.mean(middle) * 1000,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": cuts[8] * 1000,
        "latency_samples": len(latencies),
        "cpu_ms_per_op": sum(scaled_cpu) / attempted * 1000,
        "raw_cpu_s": sum(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
        "reference_digest": ref_digest.hexdigest() if n >= ref_ops else None,
        **env,
    }
    if args.trace:
        res["layers"] = tr.metrics()
        if args.spans:
            tr.write_spans(args.spans)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
