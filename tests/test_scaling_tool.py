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
    assert [r["m"] for r in a["runs"]] == [3, 4] and [r["m"] for r in b["runs"]] == [3]
    for run in a["runs"] + b["runs"]:
        assert set(run) == {"m", "wall_s", "peak_rss_mb", "exit", "stdout_sha256"}
        assert run["exit"] == 0 and run["wall_s"] > 0 and run["peak_rss_mb"] > 0
        assert len(run["stdout_sha256"]) == 64
    assert a["runs"][0]["stdout_sha256"] == b["runs"][0]["stdout_sha256"]
    assert a["startup_s"] > 0 and a["startup_rss_mb"] > 0 and a["exponent"]["m"] == [3, 4]
    assert set(a["exponent"]) == {"m", "time", "rss"} and b["exponent"] is None
    assert isinstance(a["exponent"]["time"], float) and isinstance(a["exponent"]["rss"], float)
