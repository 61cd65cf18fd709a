"""One-shot scaling diagnostic of the grid job; not a gated workload.

    python3 perfbench/diagnose.py

Runs the grid job (build, present, verify --suite relators, words.clean)
once on each m x m torus, first untraced for the step times, then traced
for the per-layer times, and prints both against the plane count 2m^2.
The verify and clean columns at m = 3 and m = 6 are the 3x3 and 6x6
columns of the baseline table in ROADMAP.md.  Outputs are checked against
the goldens.  Takes about a minute on the seed code.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

STEPS = ("build", "present", "verify_relators", "clean")
LAYERS = ("complexes.self_s", "presentation.self_s", "model.self_s", "perm.self_s",
          "words.self_s", "verify.self_s", "cli.self_s")


def main() -> int:
    goldens = workloads.load_goldens()
    work = os.path.join(ROOT, "perfbench", ".work")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="diagnose-", dir=work)
    rows = []
    try:
        for m, _ in workloads.DIAGNOSTIC_SHAPES:
            job = workloads.GridJob(m, m)
            untraced = workloads.run_grid(job, workdir, goldens)
            spans = tracer.Tracer()
            spans.install()
            spans.start_job()
            traced = workloads.run_grid(job, workdir, goldens)
            layers = spans.summary(traced.stdout_bytes)
            rows.append((m, untraced.steps, layers))
            spans.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("untraced step times (s)")
    print(f"{'grid':>6} {'planes':>6} " + " ".join(f"{s:>15}" for s in STEPS) + f" {'total':>9}")
    for m, steps, _ in rows:
        print(f"{m}x{m:<4} {2 * m * m:6d} " + " ".join(f"{steps[s]:15.4f}" for s in STEPS)
              + f" {sum(steps.values()):9.4f}")
    print("traced per-layer self times (s)")
    print(f"{'grid':>6} {'planes':>6} " + " ".join(f"{name:>19}" for name in LAYERS))
    for m, _, layers in rows:
        print(f"{m}x{m:<4} {2 * m * m:6d} " + " ".join(f"{layers[name]:19.4f}" for name in LAYERS))
    print("traced work counts")
    counts = ("presentation.relators", "model.eval_letters", "perm.compose_calls",
              "words.reduce_calls", "words.clean_passes", "fixtures.loads")
    print(f"{'grid':>6} {'planes':>6} " + " ".join(f"{name:>21}" for name in counts))
    for m, _, layers in rows:
        print(f"{m}x{m:<4} {2 * m * m:6d} " + " ".join(f"{layers[name]:21.0f}" for name in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
