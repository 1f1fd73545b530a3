"""Run one recmac benchmark workload and print its metrics.

Run from the root of a recmac checkout; recmac is imported from src/, nothing
is installed:

    python3 perfbench/run.py --workload search --seed 0 --seconds 30 --trace 0

--trace 0 runs the workload's job list again and again, as a closed loop of
one `python -m recmac ...` subprocess at a time, for the number of full
passes that comes closest to --seconds (at least one), and reports the
end-to-end metrics.
--trace 1 runs the same jobs in-process through recmac.cli.main, alternating
a plain pass and a pass with every layer's public functions wrapped, and
reports the per-layer metrics (see tracer.py).

Every line but the last is for people.  The last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from workloads import Judge

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

JOB_TIMEOUT_S = 120
SETUP_PER_PASS = 4

# A fresh interpreter's set-up: import the CLI and parse every family of the
# workload.  parse_family builds no tables; those are built lazily.
SETUP_SCRIPT = """\
import sys, time
t0 = time.perf_counter()
import recmac.cli
for desc in sys.argv[1:]:
    recmac.cli.parse_family(desc)
print(repr(time.perf_counter() - t0))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str], env: dict[str, str]) -> tuple[int, bytes, bytes, float, int]:
    """Run one child to completion: (exit status, stdout, stderr, wall s, max RSS KiB).

    The child is reaped with os.wait4 so its rusage is its own.  RUSAGE_CHILDREN
    would keep a running maximum over every child this process has waited for.
    """
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss


def measure_setup(families: list[str], env: dict[str, str]) -> list[float]:
    samples = []
    for _ in range(SETUP_PER_PASS):
        code, out, err, _, _ = run_child(
            [sys.executable, "-c", SETUP_SCRIPT, *families], env)
        if code != 0:
            raise RuntimeError(f"set-up child failed: {err.decode(errors='replace')}")
        samples.append(float(out))
    return samples


def host_loop() -> float:
    """Seconds for a fixed stdlib-only loop: a host-speed diagnostic only.

    It tells a slow phase of the machine from a slow program.  No metric is
    scaled by it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def past_window(start: float, pass_start: float, seconds: float) -> bool:
    """Whether to stop after this pass: one more pass as long as this one
    would end further past the window than stopping now falls short of it."""
    now = time.perf_counter()
    return now - start + (now - pass_start) / 2 >= seconds


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


TRACE_UNITS = {"self_s": "s", "wall_s": "s", "plain_wall_s": "s", "loop_s": "s",
               "repeat_ratio": "ratio", "overhead_ratio": "ratio"}


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[Judge, dict, list[str]]:
    jobs = workloads.jobs_for(workload, seed)
    judge = Judge(workloads.load_reference(REFERENCE, workload), seed)
    env = child_env()
    # Let the bytecode cache fill before anything is timed; an installed
    # package ships compiled, so users do not pay this on every run.
    run_child([sys.executable, "-c", "import recmac.cli"], env)
    families = workloads.families_of(jobs)
    setup: list[float] = []
    host = [host_loop()]
    walls: dict[str, list[float]] = {job.name: [] for job in jobs}
    peak_kib = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        # Set-up samples are spread over the run, so that they see the same
        # mix of fast and slow moments of the machine as the jobs do.
        setup += measure_setup(families, env)
        for job in jobs:
            code, out, err, wall, rss_kib = run_child(
                [sys.executable, "-m", "recmac", *job.argv], env)
            judge(job, code, out, err)
            walls[job.name].append(wall)
            peak_kib = max(peak_kib, rss_kib)
        host.append(host_loop())
        if past_window(start, pass_start, seconds):
            break
    # Each job's median over the passes damps a slow moment of the machine.
    job_medians = [statistics.median(walls[job.name]) for job in jobs]
    passes = len(walls[jobs[0].name])
    metrics = {
        "wall_s": metric(sum(job_medians), "s"),
        "job_p50_s": metric(statistics.median(job_medians), "s"),
        "peak_rss_mb": metric(peak_kib / 1024, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
        "pass_ratio": metric(judge.pass_ratio, "ratio"),
    }
    notes = [
        f"passes {passes} over {len(jobs)} jobs; each job's wall time is its median "
        f"over the {passes} passes",
        "wall_s: sum of the job medians; job_p50_s: median of the job medians",
        f"peak_rss_mb: largest of {passes * len(jobs)} children",
        f"setup_s: median of {len(setup)} fresh interpreters",
        f"host.loop_s {statistics.median(host):.4f} s "
        f"(median of {len(host)}; diagnostic, scales nothing)",
    ]
    return judge, metrics, notes


def run_traced(workload: str, seed: int, seconds: float) -> tuple[Judge, dict, list[str]]:
    """Alternate a plain and a traced in-process pass, for the number of pairs
    that comes closest to `seconds` (at least one); report the median of each
    per-layer number."""
    sys.path.insert(0, str(ROOT / "src"))
    import recmac.cli
    import tracer

    jobs = workloads.jobs_for(workload, seed)
    judge = Judge(workloads.load_reference(REFERENCE, workload), seed)
    per_pass: list[dict[str, float]] = []
    host = [host_loop()]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        plain_s = tracer.run_pass(jobs, judge, recmac.cli.main)
        values, last = tracer.traced_pass(jobs, judge, recmac.cli.main)
        values["trace.plain_wall_s"] = plain_s
        values["trace.overhead_ratio"] = values["trace.wall_s"] / plain_s
        per_pass.append(values)
        host.append(host_loop())
        if past_window(start, pass_start, seconds):
            break
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["host.loop_s"] = statistics.median(host)
    metrics = {name: metric(v, TRACE_UNITS.get(name.split(".", 1)[1], "count"))
               for name, v in values.items()}
    layer_sum = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
    notes = [
        f"traced passes {len(per_pass)}, jobs per pass {len(jobs)}; "
        "each number is the median over passes",
        f"trace.overhead_ratio = trace.wall_s / trace.plain_wall_s = "
        f"{values['trace.wall_s']:.3f} s / {values['trace.plain_wall_s']:.3f} s",
        f"measure.repeat_ratio = measure.calls / distinct (job, family, measure) = "
        f"{values['measure.calls']:.0f} / {len(last.measured)}",
        f"layer self times sum to {layer_sum:.3f} s of trace.wall_s",
    ]
    return judge, metrics, notes


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "recmac" / "cli.py").is_file():
        print(f"perfbench: no recmac sources under {ROOT / 'src'}; "
              "run from the root of a recmac checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    workloads.write_table(ROOT, args.seed)

    if args.trace:
        judge, metrics, notes = run_traced(args.workload, args.seed, args.seconds)
    else:
        judge, metrics, notes = run_untraced(args.workload, args.seed, args.seconds)

    for line in notes:
        print(line)
    for name, job_why in judge.failures:
        print(f"FAILED {name}: {job_why}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
