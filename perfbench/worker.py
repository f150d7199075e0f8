"""Fresh process that runs one workload's in-process jobs on command.

run.py starts it with ``--root CHECKOUT --workload NAME --seed N``.  It
prints ``ready`` once delentropy is imported and the job list is built (the
end of set-up; with ``--setup-only`` it exits there), answers each ``pass``
line on stdin with one JSON line of job timings, and answers ``finish`` with
its peak resident memory, taken before any check runs, and the checks'
result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import harness
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    de = harness.import_package(Path(args.root))
    jobs, _ = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    outcomes = {job.id: harness.Outcome(job) for job in jobs}
    caller = workloads.Direct()
    for line in sys.stdin:
        command = line.strip()
        if command == "pass":
            times = harness.run_pass(de, jobs, caller, outcomes)
            print(json.dumps({"sweep_s": sum(times.values()), "jobs": times}), flush=True)
        elif command == "finish":
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            start = time.perf_counter()
            problems = harness.verify(
                args.workload, outcomes, workloads.Memo(), harness.load_reference(args.seed)
            )
            attempted, failed, wrong = harness.tally(outcomes, problems)
            print(json.dumps({
                "peak_rss_kib": peak_kib,
                "verify_s": time.perf_counter() - start,
                "attempted": attempted, "failed": failed, "wrong": wrong,
                "problems": problems,
                "errors": {k: oc.errors for k, oc in outcomes.items() if oc.errors},
                "fingerprints": {k: oc.fingerprint for k, oc in outcomes.items()},
            }), flush=True)
            return 0
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
