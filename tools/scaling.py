#!/usr/bin/env python3
"""Growth of one coxlab command over m x m grids, in fresh processes.

For each m the m x m torus is built once, with the first tree's `build`,
and the command runs on it in a new interpreter per run, with PYTHONPATH
set to the tree's src.  Each run records its wall time, the child's own
peak RSS (os.wait4) and the SHA-256 of its stdout.  With two trees the
runs alternate, first tree first.  Each tree's startup, the fastest time
and the smallest peak RSS of at least three runs of `coxlab --help`, is
recorded too.  The time exponent is the least-squares slope of
log(wall time - startup time) on log(m), and the RSS exponent that of
log(peak RSS - startup RSS), over each tree's largest three m; one entry
is appended to the output file (a JSON list).

    python tools/scaling.py --command "verify --complex {complex} --suite relators --json" \\
        --m 8 16 24 32 48 64 --tree parent=../parent --tree change=. \\
        --max-m parent=32 --note "..."

The command names the grid file as {complex}.  No timing is gated.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(tree: Path, args: list[str]) -> dict:
    """One fresh `python -m coxlab` process over the tree's source."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "coxlab", *args], stdout=subprocess.PIPE, env=env)
    digest = hashlib.sha256()
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": round(wall, 4), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "exit": proc.returncode, "stdout_sha256": digest.hexdigest()}


def exponent(runs: list[dict], startup: dict) -> dict | None:
    """Least-squares slopes on log(m) over the largest three m of
    log(wall_s - startup wall_s) and log(peak_rss_mb - startup peak_rss_mb),
    each m taken at its fastest run and at its smallest peak."""
    ms = sorted({r["m"] for r in runs})[-3:]
    if len(ms) < 2:
        return None
    xs = [math.log(m) for m in ms]
    mx = sum(xs) / len(xs)

    def slope(key: str) -> float:
        ys = [math.log(max(min(r[key] for r in runs if r["m"] == m) - startup[key], 1e-4)) for m in ms]
        my = sum(ys) / len(ys)
        return round(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs), 3)

    return {"m": ms, "time": slope("wall_s"), "rss": slope("peak_rss_mb")}


def pairs(values: list[str], what: str) -> dict[str, str]:
    out = {}
    for value in values:
        name, sep, rest = value.partition("=")
        if not sep or not name or not rest:
            raise SystemExit(f"{what} takes NAME=VALUE, got {value!r}")
        out[name] = rest
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--command", required=True, help="coxlab arguments naming {complex}")
    ap.add_argument("--m", type=int, nargs="+", required=True, help="grid sizes, each at least 3")
    ap.add_argument("--tree", action="append", required=True, help="NAME=PATH of a source tree; one or two")
    ap.add_argument("--max-m", action="append", default=[], help="NAME=M: run that tree only up to m = M")
    ap.add_argument("--repeat", type=int, default=1, help="runs per tree and m (the fit takes the fastest)")
    ap.add_argument("--note", default="", help="free text stored with the entry")
    ap.add_argument("--out", default=str(ROOT / "BENCH_scaling.json"))
    args = ap.parse_args(argv)
    trees = {name: Path(path).resolve() for name, path in pairs(args.tree, "--tree").items()}
    caps = {name: int(m) for name, m in pairs(args.max_m, "--max-m").items()}
    if not 1 <= len(trees) <= 2 or set(caps) - set(trees):
        raise SystemExit("give one or two --tree, and --max-m only for a named tree")
    first = next(iter(trees.values()))
    runs: dict[str, list[dict]] = {name: [] for name in trees}
    startup = {}
    for name, tree in trees.items():
        helps = [run(tree, ["--help"]) for _ in range(max(args.repeat, 3))]
        startup[name] = {key: min(r[key] for r in helps) for key in ("wall_s", "peak_rss_mb")}
    with tempfile.TemporaryDirectory() as work:
        for m in sorted(set(args.m)):
            complex_path = os.path.join(work, f"g{m}.json")
            built = subprocess.run([sys.executable, "-m", "coxlab", "build", "--rows", str(m), "--cols", str(m),
                                    "--out", complex_path], env=dict(os.environ, PYTHONPATH=str(first / "src")),
                                   stdout=subprocess.DEVNULL)
            if built.returncode:
                raise SystemExit(f"building the {m} x {m} grid exited {built.returncode}")
            cmd = shlex.split(args.command.format(complex=complex_path))
            for _ in range(args.repeat):
                for name, tree in trees.items():
                    if m <= caps.get(name, m):
                        record = run(tree, cmd)
                        runs[name].append({"m": m, **record})
                        print(name, m, record, file=sys.stderr)
    shared = [m for m in set(args.m) if all(any(r["m"] == m for r in rs) for rs in runs.values())]
    entry = {
        "command": "coxlab " + args.command,
        "note": args.note,
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "trees": {name: {"max_m": caps.get(name), "startup_s": startup[name]["wall_s"],
                         "startup_rss_mb": startup[name]["peak_rss_mb"], "runs": rs,
                         "exponent": exponent(rs, startup[name])}
                  for name, rs in runs.items()},
        # Every run at an m that all trees ran printed the same bytes.
        "outputs_agree": all(len({r["stdout_sha256"] for rs in runs.values() for r in rs if r["m"] == m}) == 1
                             for m in shared),
    }
    out = Path(args.out)
    history = json.loads(out.read_text(encoding="utf-8")) if out.exists() else []
    history.append(entry)
    out.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({name: tree["exponent"] for name, tree in entry["trees"].items()}))
    return 0 if all(r["exit"] == 0 for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
