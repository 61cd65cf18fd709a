"""One workload process of the benchmark; run.py starts it.

Modes:
    cold   set up, run job --job once: one sample of setup_s and first_job_s
    main   set up, then run jobs 0..N-1 in a closed loop, one after the
           other, in segments: each line "K" on stdin runs the next K jobs
           and answers with one JSON line; an empty line or end of input
           ends the process.  Between segments the process waits, so the
           parent can run fresh processes through the whole run, one
           process at a time
    trace  set up, run job 0 to warm up, then each of jobs 0..N-1 untraced
           and again traced, for the per-layer metrics and the tracing
           overhead

Set-up time runs from --spawned, the parent's CLOCK_MONOTONIC reading
just before it started this process, so it covers interpreter start,
imports, input generation and the input files.  The process prints one
JSON object on its last stdout line, with its own peak RSS from
RUSAGE_SELF.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", ".work")
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_job(run, job, workdir, goldens) -> dict:
    start = now()
    try:
        result = run(job, workdir, goldens)
    except Exception as exc:    # a job that crashes counts as failed
        detail = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, workloads.CheckFailed):
            detail += "\n" + traceback.format_exc(limit=-3)
        return {"s": now() - start, "ok": False, "detail": detail, "stdout_bytes": 0}
    return {"s": now() - start, "ok": True, "stdout_bytes": result.stdout_bytes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("cold", "main", "trace"), required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--job", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.mode}-", dir=WORK)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        jobs = workloads.PREPARE[args.workload](rng, workdir, args.jobs)
        goldens = workloads.load_goldens()
        run = workloads.RUN[args.workload]
        out = {"setup_s": now() - args.spawned}
        if args.mode == "cold":
            out["jobs"] = [run_job(run, jobs[args.job], workdir, goldens)]
        elif args.mode == "main":
            out.update(serve(run, jobs, workdir, goldens, out["setup_s"]))
        else:
            out.update(trace(run, jobs, workdir, goldens, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


def serve(run, jobs, workdir, goldens, setup_s) -> dict:
    """Run the job list in the segments the parent asks for; wall_s sums the segments."""
    print(json.dumps({"setup_s": setup_s}), flush=True)
    records, wall_s = [], 0.0
    for line in sys.stdin:
        if not line.strip():
            break
        start = now()
        segment = [run_job(run, job, workdir, goldens)
                   for job in jobs[len(records):len(records) + int(line)]]
        wall_s += now() - start
        records += segment
        print(json.dumps({"jobs": segment}), flush=True)
    return {"jobs": records, "wall_s": wall_s}


def trace(run, jobs, workdir, goldens, args) -> dict:
    """Each job untraced, then traced, so both sides see the same machine load."""
    spans = tracer.Tracer()
    records = [run_job(run, jobs[0], workdir, goldens)]    # warm-up
    untraced, traced = [], []
    for job in jobs:
        untraced.append(run_job(run, job, workdir, goldens))
        spans.install()
        spans.start_job()
        traced.append(run_job(run, job, workdir, goldens))
        spans.uninstall()

    layers = spans.summary(sum(r["stdout_bytes"] for r in traced))
    layers["trace.overhead_ratio"] = sum(r["s"] for r in traced) / sum(r["s"] for r in untraced)
    spans_file = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
    spans.write_spans(spans_file)
    return {"jobs": records + untraced + traced, "layers": layers, "spans_file": spans_file}


if __name__ == "__main__":
    sys.exit(main())
