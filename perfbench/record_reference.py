"""Record reference.json: each job's exit status and stdout sha256 for DEFAULT_SEED.

Run from the root of a recmac checkout, only when the program's output is
meant to change:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    workloads.write_table(run.ROOT, workloads.DEFAULT_SEED)
    env = run.child_env()
    doc = {}
    for workload in workloads.WORKLOADS:
        doc[workload] = {}
        for job in workloads.jobs_for(workload, workloads.DEFAULT_SEED):
            code, out, err, wall, _ = run.run_child(
                [sys.executable, "-m", "recmac", *job.argv], env)
            why = workloads.judge(job, code, out, err, None)
            if why is not None:
                print(f"{workload}: {job.name}: {why}", file=sys.stderr)
                return 1
            doc[workload][job.name] = {"exit": code, "sha256": workloads.digest(out)}
            print(f"{workload}: {job.name}: {wall:.2f} s")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
