"""convval benchmark: one seeded workload, every metric, every output checked.

    python3 perfbench/run.py --workload thm-a --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every process it starts gets the
checkout's `src` on PYTHONPATH and the Fraction rational backend pinned.

--trace 0 reports the end-to-end metrics.  `setup_s` is the median over
SETUP_SPAWNS fresh interpreters of the time from spawn, through
`import convval.cli`, to the first generated inputs; the last of them then
runs the closed loop for --seconds.

--trace 1 reports the per-layer metrics.  An untraced worker runs for half
of --seconds; a traced worker then runs exactly the same ops (same inputs,
fresh process) with every traced function wrapped.  Both must produce the
same output digest; `trace.overhead_ratio` is traced over untraced op time,
both at the reference machine speed (see worker.py).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  At the reference seed the output digest of the first
ops must equal the one recorded in reference.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

WORKLOADS = ("thm-a", "classical", "query", "transform")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_iqm_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["CONVVAL_RATIONAL"] = "fraction"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, deadline):
    """Run one worker to completion; its last stdout line is its result."""
    cmd = [sys.executable, str(WORKER), *args, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1), check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    """The checkout's commit when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="with --trace 1, write every span to this CSV file")
    args = ap.parse_args()
    if not (SRC / "convval" / "__init__.py").is_file():
        print(f"perfbench: no convval package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        plain = spawn(base + ["--seconds", str(args.seconds / 2)], deadline)
        traced_args = base + ["--ops", str(plain["ops"]), "--trace", "1"]
        if args.spans:
            traced_args += ["--spans", str(Path(args.spans).resolve())]
        run = spawn(traced_args, deadline)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run["layers"].items()}
        metrics["trace.overhead_ratio"] = {"value": run["scaled_s"] / plain["scaled_s"], "unit": "ratio"}
        problems = plain["problems"] + run["problems"]
        # Both workers ran the same ops, so their failures are not added up.
        failed = max(plain["failed"], run["failed"])
        if run["digest"] != plain["digest"]:
            problems.append("traced and untraced runs produced different outputs")
            failed += 1
    else:
        setups = [spawn(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SPAWNS - 1)]
        run = spawn(base + ["--seconds", str(args.seconds)], deadline)
        setups.append(run["setup_s"])
        run["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END.items()}
        problems, failed = run["problems"], run["failed"]

    reference = json.loads((HERE / "reference.json").read_text())
    if args.seed == reference["seed"] and run["reference_digest"] != reference["digests"][args.workload]:
        problems.append(f"reference digest {run['reference_digest']} differs from the recorded one")
        failed += 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": run["backend"],
        "python": run["python"],
        "nproc": run["nproc"],
        "commit": commit(),
        "ops": run["ops"],
        "latency_samples": run["latency_samples"],
        "op_p50_ms": run["op_p50_ms"],
        "machine_speed": run["machine_speed"],
        "raw_ops_per_s": run["raw_ops_per_s"],
        "reference_digest": run["reference_digest"],
        "problems": problems,
    }
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": min(failed, run["attempted"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
