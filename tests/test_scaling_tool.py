"""tools/scaling.py stays runnable: a tiny series, schema only, no timing."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scaling_tool_appends_one_entry(tmp_path):
    out = tmp_path / "BENCH_scaling.json"
    out.write_text("[]\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scaling.py"),
         "--command", "verify --complex {complex} --suite relators --json", "--m", "3", "4",
         "--tree", f"a={ROOT}", "--tree", f"b={ROOT}", "--max-m", "b=3", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (entry,) = json.loads(out.read_text())
    assert entry["command"] == "coxlab verify --complex {complex} --suite relators --json"
    assert set(entry) == {"command", "note", "host", "trees", "outputs_agree"}
    assert entry["outputs_agree"] is True
    a, b = entry["trees"]["a"], entry["trees"]["b"]
    assert set(a) == set(b) == {"max_m", "startup_s", "startup_rss_mb", "runs", "exponent"}
    assert (a["max_m"], b["max_m"]) == (None, 3)
    # One timed run per m, then one run under the tracemalloc wrapper.
    timed = [r for r in a["runs"] + b["runs"] if "wall_s" in r]
    traced = [r for r in a["runs"] + b["runs"] if "tracemalloc_peak_mb" in r]
    assert [r["m"] for r in a["runs"]] == [3, 3, 4, 4] and [r["m"] for r in b["runs"]] == [3, 3]
    assert len(timed) == len(traced) == 3
    for run in timed:
        assert set(run) == {"m", "wall_s", "peak_rss_mb", "exit", "stdout_sha256"}
        assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0
    for run in traced:
        assert set(run) == {"m", "tracemalloc_peak_mb", "exit", "stdout_sha256"}
        assert run["tracemalloc_peak_mb"] > 0
    for run in timed + traced:
        assert run["exit"] == 0 and len(run["stdout_sha256"]) == 64
    # The wrapper prints what the plain command prints.
    assert len({r["stdout_sha256"] for r in a["runs"] + b["runs"] if r["m"] == 3}) == 1
    assert a["startup_s"] > 0 and a["startup_rss_mb"] > 0 and a["exponent"]["m"] == [3, 4]
    assert set(a["exponent"]) == {"m", "time", "rss", "tracemalloc"} and b["exponent"] is None
    assert all(isinstance(a["exponent"][key], float) for key in ("time", "rss", "tracemalloc"))


# A tree whose `build` writes a file only its own `verify` reads.
STUB_MAIN = """import json, sys
args = sys.argv[1:]
if args[0] == "build":
    with open(args[args.index("--out") + 1], "w") as out:
        json.dump({"stub": int(args[args.index("--rows") + 1])}, out)
elif args[0] == "verify":
    with open(args[args.index("--complex") + 1]) as handle:
        data = json.load(handle)
    if set(data) != {"stub"}:
        sys.exit(2)
    print(data["stub"])
"""


def test_scaling_tool_builds_each_grid_with_each_trees_own_build(tmp_path):
    package = tmp_path / "stub" / "src" / "coxlab"
    package.mkdir(parents=True)
    for name, text in (("__init__.py", ""), ("cli.py", ""), ("__main__.py", STUB_MAIN)):
        (package / name).write_text(text)
    out = tmp_path / "BENCH_scaling.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scaling.py"),
         "--command", "verify --complex {complex} --suite relators --json", "--m", "3",
         "--tree", f"coxlab={ROOT}", "--tree", f"stub={tmp_path / 'stub'}", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (entry,) = json.loads(out.read_text())
    runs = {name: tree["runs"] for name, tree in entry["trees"].items()}
    assert [r["m"] for r in runs["coxlab"]] == [r["m"] for r in runs["stub"]] == [3, 3]
    assert all(r["exit"] == 0 for rs in runs.values() for r in rs)
    # Each tree printed its own report.
    assert entry["outputs_agree"] is False
