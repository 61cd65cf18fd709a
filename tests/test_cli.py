import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxlab.cli import main
from coxlab.fixtures import load_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_paper_fixture(capsys, tmp_path):
    out_file = tmp_path / "tt.json"
    code, out, _ = run(capsys, "build", "--paper-fixture", "--out", str(out_file))
    assert code == 0
    assert "9 points, 27 lines, 18 planes" in out
    data = json.loads(out_file.read_text())
    assert len(data["lines"]) == 27


def test_build_generated_same_counts(capsys):
    code, out, _ = run(capsys, "build", "--rows", "3", "--cols", "3", "--json")
    assert code == 0
    info = json.loads(out)
    assert (info["points"], info["lines"], info["planes"]) == (9, 27, 18)
    assert info["cycle_rank"] == 10 and info["tree_edges"] == 17


def test_build_rejects_small_grid(capsys):
    code, _, err = run(capsys, "build", "--rows", "2", "--cols", "3")
    assert code == 2
    assert "unsupported grid" in err


def test_build_flag_conflict(capsys):
    code, _, err = run(capsys, "build", "--paper-fixture", "--rows", "3", "--cols", "3")
    assert code == 2


def test_present_counts(capsys, tmp_path):
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    pres_file = tmp_path / "pres.json"
    code, out, _ = run(capsys, "present", "--complex", str(complex_file),
                       "--variant", "quotient", "--out", str(pres_file))
    assert code == 0
    assert "27 squares, 297 commutations, 54 braids, 54 forks, 9 cycles" in out
    data = json.loads(pres_file.read_text())
    assert data["generators"] == 27 and len(data["relators"]) == 441


def test_present_plain_has_no_forks_or_cycles(capsys, tmp_path):
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    code, out, _ = run(capsys, "present", "--complex", str(complex_file),
                       "--variant", "plain", "--json")
    info = json.loads(out)
    assert info["forks"] == 0 and info["cycles"] == 0


def test_present_fork_minus_plain_is_54(capsys, tmp_path):
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    _, out_fork, _ = run(capsys, "present", "--complex", str(complex_file),
                         "--variant", "fork", "--json")
    _, out_plain, _ = run(capsys, "present", "--complex", str(complex_file),
                          "--variant", "plain", "--json")
    assert json.loads(out_fork)["total"] - json.loads(out_plain)["total"] == 54


def test_present_unreadable_file(capsys, tmp_path):
    code, _, err = run(capsys, "present", "--complex", str(tmp_path / "nope.json"))
    assert code == 2


def test_present_exports_fixtures(capsys, tmp_path):
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    fx = tmp_path / "fx"
    code, _, _ = run(capsys, "present", "--complex", str(complex_file),
                     "--fixtures-out", str(fx))
    assert code == 0
    assert json.loads((fx / "ax_relations.json").read_text()) == {
        k: list(v) for k, v in load_json("ax_relations.json").items()}
    assert (fx / "nonrel_pairs.json").exists()


def test_verify_all_passes_on_fixture(capsys, tmp_path):
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    code, out, _ = run(capsys, "verify", "--complex", str(complex_file), "--suite", "all")
    assert code == 0
    assert "0 fail" in out and "FAIL" not in out


def test_verify_ax_suite_has_25_entries(capsys, tmp_path):
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    code, out, _ = run(capsys, "verify", "--complex", str(complex_file),
                       "--suite", "ax", "--json")
    report = json.loads(out)
    assert code == 0
    assert len(report["entries"]) == 25
    assert all(e["status"] == "pass" for e in report["entries"])


def test_verify_center_suite(capsys, tmp_path):
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    code, out, _ = run(capsys, "verify", "--complex", str(complex_file),
                       "--suite", "center", "--json")
    report = json.loads(out)
    assert code == 0
    by_name = {e["name"]: e for e in report["entries"]}
    assert by_name["center.tau_images"]["value"] == {
        "tau1": [2, 7], "tau2": [7, 10], "tau3": [1, 7], "tau4": [1, 3]}


def test_verify_structure_suite(capsys, tmp_path):
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    code, out, _ = run(capsys, "verify", "--complex", str(complex_file),
                       "--suite", "structure", "--json")
    report = json.loads(out)
    assert code == 0
    by_name = {e["name"]: e for e in report["entries"]}
    assert by_name["structure.abelianization_rank"]["value"] == 34
    assert by_name["structure.abelianization_torsion"]["value"] == []


def test_verify_reports_are_byte_stable(capsys, tmp_path):
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    _, first, _ = run(capsys, "verify", "--complex", str(complex_file),
                      "--suite", "tables", "--json")
    _, second, _ = run(capsys, "verify", "--complex", str(complex_file),
                       "--suite", "tables", "--json")
    assert first == second


def test_verify_paper_suite_rejected_on_generated_complex(capsys, tmp_path):
    complex_file = tmp_path / "gen.json"
    run(capsys, "build", "--rows", "3", "--cols", "3", "--out", str(complex_file))
    code, _, err = run(capsys, "verify", "--complex", str(complex_file), "--suite", "ax")
    assert code == 2
    assert "published" in err


def test_verify_relators_on_generated_complex(capsys, tmp_path):
    complex_file = tmp_path / "gen.json"
    run(capsys, "build", "--rows", "4", "--cols", "3", "--out", str(complex_file))
    code, out, _ = run(capsys, "verify", "--complex", str(complex_file), "--suite", "relators")
    assert code == 0 and "FAIL" not in out


def test_verify_corrupted_fixture_exits_nonzero(capsys, tmp_path):
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    data = json.loads(complex_file.read_text())
    lines = {l["id"]: l for l in data["lines"]}
    lines[1]["planes"], lines[3]["planes"] = lines[3]["planes"], lines[1]["planes"]
    complex_file.write_text(json.dumps(data))
    code, _, _ = run(capsys, "verify", "--complex", str(complex_file), "--suite", "all")
    assert code != 0


def test_enumerate_bundled_small_group(capsys, tmp_path):
    fx = tmp_path / "fx"
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    run(capsys, "present", "--complex", str(complex_file), "--fixtures-out", str(fx))
    code, out, _ = run(capsys, "enumerate", "--presentation", str(fx / "s4_remark.json"), "--json")
    info = json.loads(out)
    assert code == 0 and info["status"] == "finite" and info["index"] == 24


def test_enumerate_hexagons(capsys, tmp_path):
    fx = tmp_path / "fx"
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    run(capsys, "present", "--complex", str(complex_file), "--fixtures-out", str(fx))
    code, out, _ = run(capsys, "enumerate",
                       "--presentation", str(fx / "hexagon_quotient.json"), "--json")
    assert json.loads(out)["index"] == 720
    code, out, _ = run(capsys, "enumerate",
                       "--presentation", str(fx / "hexagon_affine.json"),
                       "--capacity", "100000", "--json")
    info = json.loads(out)
    assert code == 0
    assert info["status"] == "inconclusive" and info["index"] is None


def test_enumerate_with_subgroup(capsys, tmp_path):
    fx = tmp_path / "fx"
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    run(capsys, "present", "--complex", str(complex_file), "--fixtures-out", str(fx))
    code, out, _ = run(capsys, "enumerate", "--presentation", str(fx / "s4_remark.json"),
                       "--subgroup", "1 2", "--json")
    assert json.loads(out)["index"] == 4


def test_enumerate_subgroup_letter_out_of_range(capsys, tmp_path):
    fx = tmp_path / "fx"
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    run(capsys, "present", "--complex", str(complex_file), "--fixtures-out", str(fx))
    code, out, err = run(capsys, "enumerate", "--presentation", str(fx / "s4_remark.json"),
                         "--subgroup", "9")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_enumerate_table_out(capsys, tmp_path):
    fx = tmp_path / "fx"
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    run(capsys, "present", "--complex", str(complex_file), "--fixtures-out", str(fx))
    table_file = tmp_path / "table.json"
    run(capsys, "enumerate", "--presentation", str(fx / "s4_remark.json"),
        "--table-out", str(table_file))
    table = json.loads(table_file.read_text())
    assert table["index"] == 24 and len(table["table"]) == 24


def test_enumerate_bad_word(capsys, tmp_path):
    fx = tmp_path / "fx"
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    run(capsys, "present", "--complex", str(complex_file), "--fixtures-out", str(fx))
    code, _, err = run(capsys, "enumerate", "--presentation", str(fx / "s4_remark.json"),
                       "--subgroup", "1,x")
    assert code == 2


def test_python_dash_m_runs_the_command_line():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "coxlab", "build", "--paper-fixture", "--json"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout)
    assert info["command"] == "build" and (info["points"], info["lines"]) == (9, 27)
