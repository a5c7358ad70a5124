"""Record the reference-seed output digests into reference.json.

    python3 perfbench/record_reference.py

Only a change to the benchmark's own inputs may re-record them.  A change
to convval must reproduce the recorded digests exactly: they hash the bytes
of every output of the first `ops[workload]` ops at the reference seed.
"""

import json
import sys
import time

import run


def main():
    ref = json.loads((run.HERE / "reference.json").read_text())
    for name in run.WORKLOADS:
        args = ["--workload", name, "--seed", str(ref["seed"]),
                "--ops", str(ref["ops"][name])]
        res = run.spawn(args, time.monotonic() + run.CHILD_TIMEOUT_S)
        if res["failed"]:
            print(f"{name}: {res['problems']}", file=sys.stderr)
            return 1
        ref["digests"][name] = res["reference_digest"]
        print(name, res["reference_digest"])
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
