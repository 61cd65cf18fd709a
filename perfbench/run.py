"""The coxlab benchmark: one command for every workload.

    python3 perfbench/run.py [--workload paper|grid|cosets|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in its own child processes (child.py), one caller in a
closed loop: the next job starts only when the previous one has finished.
One process, one thread, no pool.  The job list is sized from --seconds
on the seed code, so later code runs the same jobs and its time shows in
wall_s.

With --trace 0 the run measures the end-to-end metrics: one process runs
the whole job list in segments (job_s_p50, job_s_p90, wall_s,
peak_rss_mb), and before each segment a fresh process sets up and runs
one job (setup_s, first_job_s), one process at a time.  With --trace 1
one process runs a fixed job list untraced and again traced (tracer.py)
and reports the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give every metric with its unit
and sample count, and the machine and run information.  Exit status 0
means the run completed, whatever its checks found; anything else means
the benchmark could not run, and no result is printed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracer  # the benchmark's own module; it imports nothing from coxlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORK = os.path.join(ROOT, "perfbench", ".work")
SOURCES = os.path.join(ROOT, "src", "coxlab")

# Deadline of one run, under the 180 s a run may take.
RUN_LIMIT_S = 170.0
# Interpreter start and imports of one child, on the seed code.
START_S = 0.3
# Share of --seconds the job lists fill on the seed code at its usual speed;
# the rest is headroom for the host's slow phases.
SIZING = 0.8


@dataclass(frozen=True)
class Workload:
    why: str
    loads: str
    bypasses: str
    job_s: float            # seconds per job on the seed code
    cold: int               # fresh processes timing set-up and a first job
    trace_slowdown: float   # traced over untraced job time on the seed code

    def main_jobs(self, seconds: float) -> int:
        """Jobs of the main process, so that a run takes about --seconds."""
        budget = SIZING * seconds - self.cold * (self.job_s + START_S) - START_S
        return max(3, round(budget / self.job_s))

    def trace_jobs(self, seconds: float) -> int:
        """Jobs of one traced run: a warm-up, then each job untraced and traced."""
        budget = (SIZING * seconds - START_S) / self.job_s - 1
        return max(2, math.floor(budget / (1 + self.trace_slowdown)))


WORKLOADS = {
    "paper": Workload(
        why="every claim of the paper on the published 3 x 3 complex (n = 18): "
            "fixed costs dominate, so a faster evaluator or a cache that costs small inputs shows here",
        loads="fixture loads, the reduced model (rho_hat), SNF, derive_bounded, small finite "
              "enumerations (24 and 720 cosets), verify --suite all",
        bypasses="large-n semidirect evaluation, capped enumeration",
        job_s=0.55, cold=14, trace_slowdown=1.2),
    "grid": Workload(
        why="a generated 48-plane torus end to end (shapes 3x8, 4x6, 6x4, 8x3): the O(n)-per-letter "
            "semidirect multiply and the quadratic rewrite inside words.clean dominate",
        loads="build, present, dense semidirect evaluation (perm.compose), verify --suite relators, "
              "words.clean and reduce_with_commutations",
        bypasses="fixtures, the reduced model, SNF, cosets, derive_bounded",
        job_s=1.55, cold=6, trace_slowdown=1.0),
    "cosets": Workload(
        why="capped coset enumeration of the infinite hexagon group: coset definition, coincidences "
            "and table memory; capacity-exceeded is the paper's evidence that the group is infinite",
        loads="cosets.enumerate_cosets up to 140k-160k cosets, cli enumerate",
        bypasses="complexes, fixtures at job time, the models, words, SNF, verify",
        job_s=1.45, cold=6, trace_slowdown=1.0),
}

END_TO_END = {
    "setup_s": "s", "first_job_s": "s", "job_s_p50": "s", "job_s_p90": "s",
    "wall_s": "s", "peak_rss_mb": "MB", "failed_ratio": "1",
}
# failed_ratio is 0 on correct code; the result's `failed` and `attempted`
# carry it to the caller, and only metrics that are never 0 go there.
REPORTED = [name for name in END_TO_END if name != "failed_ratio"]


class HarnessError(Exception):
    """The benchmark itself could not run."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("COXLAB_FIXTURES", None)
    return env


def spawn(workload: str, seed: int, mode: str, jobs: int, deadline: float, job: int = 0) -> dict:
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--jobs", str(jobs), "--job", str(job)]
    timeout = deadline - now()
    if timeout <= 0:
        raise HarnessError(f"{workload}: out of time before the {mode} process")
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(now())], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload}: {mode} process passed the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{workload}: {mode} process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> float:
    """Highest percentile, at most p90 and at least p50, with ten samples beyond it."""
    return max(0.5, min(0.9, math.floor(100 * (1 - 10 / n)) / 100)) if n else 0.5


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values without the fastest and the slowest one, when there are three or more."""
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1] if len(ordered) > 2 else ordered)


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all order statistics.

    The host runs in fast and slow stretches; the sample median of a run
    sits in the gap between the two and jumps from one side to the other
    with the share of each, and this estimate moves smoothly with it.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0 or x >= 1:
        return max(0.0, min(1.0, x))
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * beta_fraction(a, b, x) / a
    return 1 - front * beta_fraction(b, a, 1 - x) / b


def beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, by the modified Lentz method."""
    tiny = 1e-300
    c, d = 1.0, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + num * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-15:
            break
    return h


class MainProcess:
    """The warm child of a workload, which runs its job list in segments on request."""

    def __init__(self, workload: str, seed: int, jobs: int, deadline: float):
        self.workload, self.deadline, self.buffer = workload, deadline, b""
        os.makedirs(WORK, exist_ok=True)
        self.stderr = open(os.path.join(WORK, f"main-{workload}.stderr"), "w+b")
        cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--mode", "main",
               "--jobs", str(jobs), "--spawned", repr(now())]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr)
        self.read()    # set-up is done

    def read(self) -> dict:
        """The child's next stdout line, by the run's deadline."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            timeout = self.deadline - now()
            if timeout <= 0:
                raise HarnessError(f"{self.workload}: main process passed the {RUN_LIMIT_S:.0f} s limit")
            ready, _, _ = select.select([fd], [], [], timeout)
            chunk = os.read(fd, 1 << 16) if ready else b""
            if ready and not chunk:
                self.stderr.seek(0)
                raise HarnessError(f"{self.workload}: main process exited {self.proc.wait()}:\n"
                                   + self.stderr.read().decode(errors="replace").strip())
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def run(self, jobs: int) -> list[dict]:
        """Run the next `jobs` jobs and return their records."""
        try:
            self.proc.stdin.write(f"{jobs}\n".encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass    # the child has exited; read() reports how
        return self.read()["jobs"]

    def finish(self) -> dict:
        """End the job list; the child's last line, with wall_s and peak_rss_mb."""
        self.proc.stdin.close()
        return self.read()

    def close(self):
        """Stop the child, whatever state it is in, and wait for it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        self.stderr.close()


def segments(jobs: int, parts: int) -> list[int]:
    """`jobs` split into `parts` runs of consecutive jobs, as even as possible."""
    return [jobs // parts + (i < jobs % parts) for i in range(parts)]


def measure(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics of one workload: {metric: (value, samples, note)}, job records."""
    spec = WORKLOADS[name]
    njobs = spec.main_jobs(seconds)
    # The fresh processes run one at a time between segments of the main
    # process's job list, so that cold and warm samples see the same
    # stretches of the run and the host's slow phases fall on both alike.
    main = MainProcess(name, seed, njobs, deadline)
    colds = []
    try:
        for i, count in enumerate(segments(njobs, spec.cold)):
            colds.append(spawn(name, seed, "cold", njobs, deadline, job=i % njobs))
            main.run(count)
        final = main.finish()
    finally:
        main.close()
    children = colds + [final]
    records = [job for child in children for job in child["jobs"]]
    firsts = [child["jobs"][0]["s"] for child in children]
    warm = [job["s"] for job in final["jobs"][1:]]
    q = tail_percentile(len(warm))
    failed = sum(not job["ok"] for job in records)
    metrics = {
        "setup_s": (quantile([c["setup_s"] for c in children], 0.5), len(children),
                    "median over fresh processes"),
        # A few slow stretches of the host move a median of the cold
        # samples far more than their mean.
        "first_job_s": (trimmed_mean(firsts), len(firsts),
                        "mean over fresh processes, fastest and slowest dropped"),
        "job_s_p50": (quantile(warm, 0.5), len(warm), "warm jobs of one process"),
        "job_s_p90": (quantile(warm, q), len(warm), f"p{round(100 * q)} of the warm jobs, "
                      f"{len(warm) - math.ceil(q * len(warm))} samples beyond it"
                      + (" (too few samples for a higher percentile)" if q < 0.9 else "")),
        "wall_s": (final["wall_s"], 1, f"{njobs} jobs, closed loop"),
        "peak_rss_mb": (final["peak_rss_mb"], 1, "RUSAGE_SELF of the main process"),
        "failed_ratio": (failed / len(records), len(records), f"{failed} of {len(records)} jobs failed"),
    }
    return metrics, records


def trace(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    spec = WORKLOADS[name]
    njobs = spec.trace_jobs(seconds)
    child = spawn(name, seed, "trace", njobs, deadline)
    print(f"   per-layer values are means per job over {njobs} traced jobs, ratios over totals; "
          f"spans in {os.path.relpath(child['spans_file'], ROOT)}")
    metrics = {key: (child["layers"][key], njobs, "") for key in tracer.UNITS}
    return metrics, child["jobs"]


def machine_info(args) -> dict:
    cpu = mem = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "unknown")
        with open("/proc/meminfo", encoding="utf-8") as handle:
            mem = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("MemTotal")), "unknown")
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SOURCES, "**", "*.py"), recursive=True)):
        with open(path, "rb") as handle:
            sources.update(handle.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_total": mem,
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest()[:16],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, if it is a git repository."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def print_header(name: str):
    spec = WORKLOADS[name]
    print(f"== workload {name}")
    print(f"   why:      {spec.why}")
    print(f"   loads:    {spec.loads}")
    print(f"   bypasses: {spec.bypasses}")


def print_table(metrics: dict, units: dict):
    print(f"   {'metric':30} {'value':>14} {'unit':6} {'samples':>7}  note")
    for key, (value, samples, note) in metrics.items():
        print(f"   {key:30} {value:14.6g} {units[key]:6} {samples:7d}  {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coxlab benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SOURCES, "__init__.py")):
        print(f"error: coxlab sources not found in {SOURCES}", file=sys.stderr)
        return 2

    deadline = now() + RUN_LIMIT_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    info = machine_info(args)
    print("run " + json.dumps(info, sort_keys=True))
    results, records = {}, []
    try:
        for name in names:
            print_header(name)
            if args.trace:
                metrics, jobs = trace(name, args.seed, args.seconds, deadline)
                units = tracer.UNITS
            else:
                metrics, jobs = measure(name, args.seed, args.seconds, deadline)
                units = END_TO_END
            print_table(metrics, units)
            for job in jobs:
                if not job["ok"]:
                    print(f"   FAILED job: {job['detail']}")
            keys = units if args.trace else REPORTED
            results[name] = {key: {"value": metrics[key][0], "unit": units[key]} for key in keys}
            records += jobs
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(not job["ok"] for job in records)
    if len(names) == 1:
        metrics = results[names[0]]
    else:
        metrics = {f"{name}.{key}": value for name, per in results.items() for key, value in per.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
