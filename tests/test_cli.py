import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import relabel
from hypothesis import given
from hypothesis import strategies as st

from coxlab import cli, cosets, fixtures, presentation, verify
from coxlab.cli import ROWS_PER_CHUNK, main
from coxlab.complexes import (build_torus_triangulation, dual_graph, hexagon_links,
                              load_paper_labeling, spanning_data)
from coxlab.fixtures import BUNDLED, load_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def paper_files(tmp_path_factory, spanning_with_cycle):
    """The published complex as `build` writes it, the bundled fixtures as
    `present --fixtures-out` exports them, and a corrupt spanning fixture."""
    root = tmp_path_factory.mktemp("paper")
    files = SimpleNamespace(complex=root / "tt.json", fixtures=root / "fx",
                            spanning_with_cycle=spanning_with_cycle)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--paper-fixture", "--out", str(files.complex)]) == 0
        assert main(["present", "--complex", str(files.complex),
                     "--fixtures-out", str(files.fixtures)]) == 0
    return files


def test_build_paper_fixture(capsys, tmp_path):
    out_file = tmp_path / "tt.json"
    code, out, _ = run(capsys, "build", "--paper-fixture", "--out", str(out_file))
    assert code == 0
    assert "9 points, 27 lines, 18 planes" in out
    assert json.loads(out_file.read_text()) == load_json("tt33.json")


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
    for grid in (["--rows", "3", "--cols", "3"], ["--rows", "0"], ["--cols", "0"]):
        code, out, err = run(capsys, "build", "--paper-fixture", *grid)
        assert code == 2 and out == ""
        assert "--paper-fixture excludes --rows/--cols" in err


def test_present_counts(capsys, tmp_path, paper_files):
    pres_file = tmp_path / "pres.json"
    code, out, _ = run(capsys, "present", "--complex", str(paper_files.complex),
                       "--variant", "quotient", "--out", str(pres_file))
    assert code == 0
    assert "27 squares, 297 commutations, 54 braids, 54 forks, 9 cycles" in out
    data = json.loads(pres_file.read_text())
    assert data["generators"] == 27 and len(data["relators"]) == 441


def test_present_plain_has_no_forks_or_cycles(capsys, paper_files):
    code, out, _ = run(capsys, "present", "--complex", str(paper_files.complex),
                       "--variant", "plain", "--json")
    info = json.loads(out)
    assert info["forks"] == 0 and info["cycles"] == 0


def test_present_fork_minus_plain_is_54(capsys, paper_files):
    _, out_fork, _ = run(capsys, "present", "--complex", str(paper_files.complex),
                         "--variant", "fork", "--json")
    _, out_plain, _ = run(capsys, "present", "--complex", str(paper_files.complex),
                          "--variant", "plain", "--json")
    assert json.loads(out_fork)["total"] - json.loads(out_plain)["total"] == 54


def test_present_unreadable_file(capsys, tmp_path):
    code, _, err = run(capsys, "present", "--complex", str(tmp_path / "nope.json"))
    assert code == 2


def test_present_exports_fixtures(paper_files):
    assert sorted(os.listdir(paper_files.fixtures)) == sorted(BUNDLED)
    for name in BUNDLED:
        assert (paper_files.fixtures / name).read_text(encoding="utf-8") \
            == json.dumps(load_json(name), indent=1, sort_keys=True) + "\n"


def _written(value) -> str:
    return "".join(cli._json_text(value))


_int_lists = st.lists(st.integers(), max_size=4)
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.lists(_int_lists, max_size=5), st.lists(_int_lists.map(tuple), max_size=5).map(tuple),
    st.lists(st.lists(st.one_of(st.integers(), st.booleans(), st.none(), st.floats()),
                      min_size=1), max_size=4))
_json_trees = st.recursive(
    _json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4)),
    max_leaves=16)


@given(_json_trees)
def test_json_writer_matches_json_dumps(value):
    # Int rows, empty rows and containers, tuples, bools and None in rows,
    # floats with nan and inf, non-ASCII text and int keys.
    assert _written(value) == json.dumps(value, sort_keys=True, indent=1)


@pytest.mark.parametrize("count", [0, 1, ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK, ROWS_PER_CHUNK + 1,
                                   2 * ROWS_PER_CHUNK + 1])
def test_json_writer_at_the_row_chunk_boundary(count):
    rows = [[k + 1] * (1 + k % 3) for k in range(count)]
    for value in (rows, {"generators": 3, "relators": rows}, {"index": count, "t": [{"table": rows}]}):
        assert _written(value) == json.dumps(value, sort_keys=True, indent=1)
    # The rows as a one-shot iterator, the form Presentation.to_json passes
    # on, give the text of the list; an empty one gives [].
    assert _written(iter(rows)) == json.dumps(rows, indent=1)
    assert _written({"generators": 3, "relators": iter(rows)}) \
        == json.dumps({"generators": 3, "relators": rows}, sort_keys=True, indent=1)
    assert _written(iter([])) == "[]"


def test_json_writer_streams_a_large_presentation():
    x0 = build_torus_triangulation(10, 10)
    pres = presentation.generate(dual_graph(x0), hexagon_links(x0), "quotient")
    # to_json passes the relators on as a one-shot iterator: one call per pass.
    assert sum(map(len, cli._json_text(pres.to_json()))) > 1_700_000
    data = pres.to_json()
    tracemalloc.start()
    try:
        with open(os.devnull, "w", encoding="utf-8") as handle:
            cli._dump(data, handle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_present_holds_each_relator_once(capsys, tmp_path):
    # 10x10: 45,850 relators.  A command that copies each relator into a
    # list, or builds the list of all relators twice more to count it,
    # peaks near 8.8 MB here; one that passes on the relators as built,
    # near 4.7 MB.  16x16: 297,088 relators.  A command that holds the
    # commutation list peaks near 29.6 MB; one that streams the relators
    # to the file holds only the squares, braids, forks and cycles, near
    # 1.4 MB.
    for m, total, bound in ((10, 45850, 6_500_000), (16, 297088, 4_000_000)):
        complex_file = tmp_path / f"g{m}.json"
        assert main(["build", "--rows", str(m), "--cols", str(m), "--out", str(complex_file)]) == 0
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["present", "--complex", str(complex_file), "--out", str(tmp_path / f"q{m}.json")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert f"({total} relators)" in capsys.readouterr().out
        assert peak < bound, (m, peak)


def test_json_writer_streams_the_records_of_a_large_complex():
    # 1,728 records shaped like the lines of a 24 x 24 grid: a writer that
    # holds a record list whole peaks near 2.5 MB here, this one near 0.45 MB.
    data = {"lines": [{"id": k, "points": [k, k % 576 + 1], "planes": [2 * (k % 576) + 1, 2 * (k % 576) + 2],
                       "kind": "hvd"[(k - 1) // 576], "cell": [(k - 1) % 576 // 24, (k - 1) % 24]}
                      for k in range(1, 1729)]}
    tracemalloc.start()
    try:
        with open(os.devnull, "w", encoding="utf-8") as handle:
            cli._dump(data, handle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_verify_all_passes_on_fixture(capsys, paper_files):
    code, out, _ = run(capsys, "verify", "--complex", str(paper_files.complex), "--suite", "all")
    assert code == 0
    assert "0 fail" in out and "FAIL" not in out


def test_verify_ax_suite_has_25_entries(capsys, paper_files):
    code, out, _ = run(capsys, "verify", "--complex", str(paper_files.complex),
                       "--suite", "ax", "--json")
    report = json.loads(out)
    assert code == 0
    assert len(report["entries"]) == 25
    assert all(e["status"] == "pass" for e in report["entries"])


def test_verify_center_suite(capsys, paper_files):
    code, out, _ = run(capsys, "verify", "--complex", str(paper_files.complex),
                       "--suite", "center", "--json")
    report = json.loads(out)
    assert code == 0
    by_name = {e["name"]: e for e in report["entries"]}
    assert by_name["center.tau_images"]["value"] == {
        "tau1": [2, 7], "tau2": [7, 10], "tau3": [1, 7], "tau4": [1, 3]}


def test_verify_structure_suite(capsys, paper_files):
    code, out, _ = run(capsys, "verify", "--complex", str(paper_files.complex),
                       "--suite", "structure", "--json")
    report = json.loads(out)
    assert code == 0
    by_name = {e["name"]: e for e in report["entries"]}
    assert by_name["structure.abelianization_rank"]["value"] == 34
    assert by_name["structure.abelianization_torsion"]["value"] == []


def test_verify_reports_are_byte_stable(capsys, paper_files):
    _, first, _ = run(capsys, "verify", "--complex", str(paper_files.complex),
                      "--suite", "tables", "--json")
    _, second, _ = run(capsys, "verify", "--complex", str(paper_files.complex),
                       "--suite", "tables", "--json")
    assert first == second


def test_verify_paper_suite_rejected_on_generated_complex(capsys, tmp_path):
    complex_file = tmp_path / "gen.json"
    run(capsys, "build", "--rows", "3", "--cols", "3", "--out", str(complex_file))
    code, _, err = run(capsys, "verify", "--complex", str(complex_file), "--suite", "ax")
    assert code == 2
    assert "published" in err


@pytest.mark.parametrize("suite", [[], ["--suite", "all"]], ids=["default_suite", "suite_all"])
def test_verify_all_rejected_up_front_on_generated_complex(capsys, tmp_path, suite):
    complex_file = tmp_path / "g44.json"
    run(capsys, "build", "--rows", "4", "--cols", "4", "--out", str(complex_file))
    code, out, err = run(capsys, "verify", "--complex", str(complex_file), *suite)
    assert code == 2 and out == ""
    assert err == "error: suite 'all' is defined only for the published 3 x 3 labeling\n"


def test_verify_relators_on_generated_complex(capsys, tmp_path):
    complex_file = tmp_path / "gen.json"
    run(capsys, "build", "--rows", "4", "--cols", "3", "--out", str(complex_file))
    code, out, _ = run(capsys, "verify", "--complex", str(complex_file), "--suite", "relators")
    assert code == 0 and "FAIL" not in out


def test_verify_corrupted_fixture_exits_nonzero(capsys, tmp_path):
    complex_file = tmp_path / "tt.json"
    run(capsys, "build", "--paper-fixture", "--out", str(complex_file))
    # Lines 1 and 3 trade places; the anchors of the published labeling break.
    data = _swap_ids("lines", 1, 3)(json.loads(complex_file.read_text()))
    complex_file.write_text(json.dumps(data))
    code, _, _ = run(capsys, "verify", "--complex", str(complex_file), "--suite", "all")
    assert code != 0


def _shift_ids(kind, shift):
    """A mutation adding shift to every point, line or plane id."""
    return lambda data: relabel(data, kind, lambda x: x + shift)


def _swap_ids(kind, x, y):
    """An edit swapping the line or plane ids x and y."""
    return lambda data: relabel(data, kind, lambda v: {x: y, y: x}.get(v, v))


def _set(value, *path):
    """An edit that sets the entry at path to value and returns the document;
    with no path, value is the whole document."""
    def edit(data):
        if not path:
            return value
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return data
    return edit


def _assert_malformed_exits_2(capsys, complex_file, needle):
    code, out, err = run(capsys, "verify", "--complex", str(complex_file), "--suite", "relators")
    assert code == 2 and out == ""
    assert err == f"error: invalid complex file {complex_file}: {needle}\n"


# One case or more per rule of a complex file: its shape, rows and cols,
# tables of rows x cols integers, and each kind's ids exactly 1..count.
@pytest.mark.parametrize("mutate,needle", [
    pytest.param(_set("3", "rows"), "rows and cols must be integers of at least 3, got '3' and 3",
                 id="_rows_as_string-rows and cols"),
    pytest.param(lambda data: data.pop("rows"), "a complex file: missing key 'rows'", id="_rows_missing-missing key 'rows'"),
    pytest.param(_set(True, "cols"), "rows and cols must be integers of at least 3, got 3 and True",
                 id="cols_bool"),
    pytest.param(_set(2, "cols"), "rows and cols must be integers of at least 3, got 3 and 2", id="cols_two"),
    pytest.param(_set(3, "shift"), "a complex file: unexpected key 'shift'", id="extra_key"),
    pytest.param(_set(5, "lines", "points"), "lines: unexpected key 'points'", id="line_points_int"),
    pytest.param(_set(7, "lines"), "lines must be an object keyed d, h, v, got int", id="lines_int"),
    pytest.param(lambda data: data.update(lines=list(data["lines"].values())),
                 "lines must be an object keyed d, h, v, got list", id="line_as_list"),
    pytest.param(_set({"a": 1}, "planes"), "planes: missing key 'lower'", id="planes_dict"),
    # Tables of the wrong shape.
    pytest.param(_set([1], "points", 1), "points must be 3 rows of 3 ids", id="point_row_list"),
    pytest.param(_set(["h"], "lines", "h"), "lines h must be 3 rows of 3 ids", id="line_kind_list"),
    pytest.param(_set({"half": "upper"}, "planes", "upper"), "planes upper must be 3 rows of 3 ids",
                 id="plane_half_dict"),
    pytest.param(lambda data: data["lines"]["d"][2].append(28), "lines d must be 3 rows of 3 ids",
                 id="line_row_too_long"),
    # Ids that are not integers.
    pytest.param(_set([34, 12], "lines", "v", 1, 0), "lines v: ids must be integers, got [34, 12]",
                 id="line_id_list"),
    pytest.param(_set("ab", "lines", "h", 0, 1), "lines h: ids must be integers, got 'ab'",
                 id="line_cell_string"),
    pytest.param(_set({"id": 1}, "points", 0, 0), "points: ids must be integers, got {'id': 1}",
                 id="point_id_dict"),
    pytest.param(_set(True, "points", 0, 0), "points: ids must be integers, got True", id="point_col_bool"),
    pytest.param(_set(1.0, "points", 0, 0), "points: ids must be integers, got 1.0", id="point_id_float"),
    pytest.param(_set([3], "planes", "lower", 2, 2), "planes lower: ids must be integers, got [3]",
                 id="plane_id_list"),
    # Line and plane ids index the letters and the permutations downstream.
    pytest.param(_shift_ids("planes", 100), "plane ids must be exactly 1..18", id="plane_ids_from_101"),
    pytest.param(_shift_ids("planes", -1), "plane ids must be exactly 1..18", id="plane_ids_from_0"),
    pytest.param(_shift_ids("lines", 100), "line ids must be exactly 1..27", id="line_ids_from_101"),
    pytest.param(_set(2, "points", 0, 0), "point ids must be exactly 1..9", id="point_id_repeated"),
    pytest.param(_set(7, "lines", "h", 0, 0), "line ids must be exactly 1..27", id="line_id_repeated")])
def test_verify_malformed_complex_exits_2(capsys, tmp_path, mutate, needle):
    data = load_json("tt33.json")
    mutate(data)
    complex_file = tmp_path / "bad.json"
    complex_file.write_text(json.dumps(data))
    _assert_malformed_exits_2(capsys, complex_file, needle)


def test_present_rejects_shifted_line_ids(capsys, tmp_path):
    data = _shift_ids("lines", 100)(load_json("tt33.json"))
    complex_file = tmp_path / "bad.json"
    complex_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "present", "--complex", str(complex_file), "--out", str(tmp_path / "p.json"))
    assert code == 2 and out == "" and not (tmp_path / "p.json").exists()
    assert err == f"error: invalid complex file {complex_file}: line ids must be exactly 1..27\n"


def test_verify_complex_file_not_an_object_exits_2(capsys, tmp_path):
    complex_file = tmp_path / "bad.json"
    complex_file.write_text("[3, 3]")
    _assert_malformed_exits_2(capsys, complex_file, "a complex file holds one object, got list")


def test_verify_complex_file_of_records_exits_2(capsys, tmp_path):
    # A complex file lists no records: the points are one id table.
    complex_file = tmp_path / "records.json"
    complex_file.write_text(json.dumps({"rows": 3, "cols": 3, "points": [{"id": 1, "row": 0, "col": 0}],
                                        "lines": [], "planes": []}))
    _assert_malformed_exits_2(capsys, complex_file, "points must be 3 rows of 3 ids")


def test_enumerate_bundled_small_group(capsys, paper_files):
    fx = paper_files.fixtures
    code, out, _ = run(capsys, "enumerate", "--presentation", str(fx / "s4_remark.json"), "--json")
    assert code == 0 and json.loads(out) == {"capacity": 1000000, "command": "enumerate", "index": 24,
                                             "status": "finite", "table_size": 53}


def test_enumerate_hexagons(capsys, paper_files):
    fx = paper_files.fixtures
    code, out, _ = run(capsys, "enumerate",
                       "--presentation", str(fx / "hexagon_quotient.json"), "--json")
    assert json.loads(out)["index"] == 720
    code, out, _ = run(capsys, "enumerate",
                       "--presentation", str(fx / "hexagon_affine.json"),
                       "--capacity", "100000", "--json")
    info = json.loads(out)
    assert code == 0
    assert info["status"] == "inconclusive" and info["index"] is None


def test_enumerate_with_subgroup(capsys, paper_files):
    fx = paper_files.fixtures
    code, out, _ = run(capsys, "enumerate", "--presentation", str(fx / "s4_remark.json"),
                       "--subgroup", "1 2", "--json")
    assert json.loads(out)["index"] == 4


def test_enumerate_subgroup_letter_out_of_range(capsys, paper_files):
    fx = paper_files.fixtures
    code, out, err = run(capsys, "enumerate", "--presentation", str(fx / "s4_remark.json"),
                         "--subgroup", "9")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("subgroup", ["-1,2", "1,,2", "+1", "0", "1,2,"])
def test_enumerate_subgroup_signed_zero_or_empty_letter_exits_2(capsys, paper_files, subgroup):
    # Letters are plain decimals in 1..ngens, as in a presentation file:
    # "-1,2" and "1,,2" are not the word 1,2.
    fx = paper_files.fixtures
    code, out, err = run(capsys, "enumerate", "--presentation", str(fx / "s4_remark.json"),
                         f"--subgroup={subgroup}")
    assert code == 2 and out == ""
    assert err.startswith("error: subgroup word") and err.count("\n") == 1


def test_enumerate_table_out(capsys, tmp_path, paper_files):
    fx = paper_files.fixtures
    table_file = tmp_path / "table.json"
    run(capsys, "enumerate", "--presentation", str(fx / "s4_remark.json"),
        "--table-out", str(table_file))
    table = json.loads(table_file.read_text())
    assert table["index"] == 24 and len(table["table"]) == 24


def test_enumerate_table_failing_its_check_exits_1(capsys, tmp_path, monkeypatch, paper_files):
    enumerate_cosets = cosets.enumerate_cosets

    def with_a_broken_table(*args):
        result = enumerate_cosets(*args)
        result.table[0][0] = result.table[1][0]   # generator 1 no longer permutes the cosets
        return result

    monkeypatch.setattr(cosets, "enumerate_cosets", with_a_broken_table)
    argv = ["enumerate", "--presentation", str(paper_files.fixtures / "s4_remark.json"),
            "--table-out", str(tmp_path / "table.json")]
    code, out, err = run(capsys, *argv, "--json")
    assert code == 1 and err == "" and not (tmp_path / "table.json").exists()
    info = json.loads(out)
    assert (info["status"], info["index"]) == ("check-failed", 24) and "table_out" not in info
    code, out, err = run(capsys, *argv)
    assert code == 1 and err == ""
    assert out == "check-failed: the table of index 24 fails cosets.check_result\n"


def test_enumerate_bad_word(capsys, paper_files):
    fx = paper_files.fixtures
    code, _, err = run(capsys, "enumerate", "--presentation", str(fx / "s4_remark.json"),
                       "--subgroup", "1,x")
    assert code == 2


@pytest.mark.parametrize("doc,needle", [
    pytest.param({"generators": -3, "relators": []},
                 "generators must be an integer of at least 1, got -3", id="generators_negative"),
    pytest.param({"generators": 2.7, "relators": []},
                 "generators must be an integer of at least 1, got 2.7", id="generators_float"),
    pytest.param({"generators": "2", "relators": []},
                 "generators must be an integer of at least 1, got '2'", id="generators_string"),
    pytest.param({"generators": True, "relators": []},
                 "generators must be an integer of at least 1, got True", id="generators_bool"),
    pytest.param({"generators": 2, "relators": [["1", 2.9]]},
                 "relator ['1', 2.9] must be a list of integer letters", id="relator_letters"),
    pytest.param({"relators": []}, "missing key 'generators'", id="generators_missing"),
    pytest.param([2, []], "a presentation file holds one object, got list", id="top_level_list")])
def test_enumerate_malformed_presentation_exits_2(capsys, tmp_path, doc, needle):
    presentation_file = tmp_path / "bad.json"
    presentation_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "enumerate", "--presentation", str(presentation_file))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: invalid presentation file")
    assert needle in err


def test_enumerate_presentation_too_large_for_memory_exits_2(capsys, tmp_path):
    # A table row for 10^18 generators needs 8 * 10^18 bytes, more than any
    # 64-bit address space, so the allocation fails at once.
    presentation_file = tmp_path / "huge.json"
    presentation_file.write_text(json.dumps({"generators": 10 ** 18, "relators": []}))
    code, out, err = run(capsys, "enumerate", "--presentation", str(presentation_file))
    assert code == 2 and out == ""
    assert err == "error: out of memory for this input\n"


_HEAP_AFTER_EACH_ENUMERATION = """
import contextlib, ctypes, io, sys
from coxlab.cli import main

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]

libc = ctypes.CDLL(None)
if not hasattr(libc, "mallinfo2"):
    sys.exit(3)
libc.mallinfo2.restype = MallInfo2
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["enumerate", "--presentation", sys.argv[1], "--subgroup", "1,2",
                     "--capacity", "60000"]) == 0
    print(libc.mallinfo2().arena)
"""


def test_repeated_enumerations_keep_their_tables_off_the_heap(paper_files):
    # Each capped enumeration frees a table of about 1.4 MB.  Without a fixed
    # mmap threshold glibc would raise its threshold past that size, and the
    # second table would grow the heap by as much.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _HEAP_AFTER_EACH_ENUMERATION,
                           str(paper_files.fixtures / "hexagon_affine.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode == 3:
        pytest.skip("the C library has no mallinfo2")
    assert proc.returncode == 0, proc.stderr
    first, *later = map(int, proc.stdout.split())
    assert all(arena - first < 256 * 1024 for arena in later), proc.stdout


def test_mmap_threshold_is_left_alone_without_a_c_library(monkeypatch):
    import ctypes

    def no_library(name):
        raise OSError("no C library")

    cli._fix_mmap_threshold.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", no_library)
    try:
        assert cli._fix_mmap_threshold() is None
    finally:
        cli._fix_mmap_threshold.cache_clear()


def test_python_dash_m_runs_the_command_line():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "coxlab", "build", "--paper-fixture", "--json"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout)
    assert info["command"] == "build" and (info["points"], info["lines"]) == (9, 27)


def test_python_dash_m_cli_module_runs_the_command_line(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "tt.json"
    proc = subprocess.run([sys.executable, "-m", "coxlab.cli", "build", "--paper-fixture",
                           "--out", str(out), "--json"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["out"] == str(out)
    assert json.loads(out.read_text()) == load_json("tt33.json")


# Inputs that exit 2 through cli.main's one error boundary.  Each case takes
# a scratch directory and the paper files and returns the argv to run;
# COXLAB_FIXTURES points at the scratch directory's empty `override`
# subdirectory, which a case may fill.

def _unparsable_tt33(tmp, files):
    (tmp / "override" / "tt33.json").write_text('{"rows": 3,')
    return ["build", "--paper-fixture"]


def _spanning_with_a_cycle(tmp, files):
    (tmp / "override" / "t0_spanning.json").write_text(json.dumps(files.spanning_with_cycle))
    return ["verify", "--complex", str(files.complex), "--suite", "relators"]


_spanning_with_a_cycle.fixture = "t0_spanning.json"


def _nested_presentation(tmp, files):
    path = tmp / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return ["enumerate", "--presentation", str(path)]


def _override(name, edit, *argv):
    """A case that writes the bundled fixture `name`, changed by edit, as an
    override and runs argv, where {complex} is the published complex file."""
    def case(tmp, files):
        (tmp / "override" / name).write_text(json.dumps(edit(load_json(name))))
        return [arg.format(complex=files.complex) for arg in argv]
    case.fixture = name
    return case


def _chord_listed_twice(data):
    """The published span with its first chord listed again as chord t + 1."""
    data["chords"].append(dict(data["chords"][0], index=len(data["chords"]) + 1))
    return data


def _chord_moved_into_the_tree(data):
    """The published span with its first chord's line listed as a tree line
    instead, so every line is still listed once."""
    data["tree"].append(data["chords"].pop(0)["line"])
    return data


def _naming(needle, case):
    """case, whose one error line must hold needle."""
    case.needle = needle
    return case


_tt33_with_point_ids_11_to_19 = _override("tt33.json", _shift_ids("points", 10), "build", "--paper-fixture")

VERIFY_PAPER = ("verify", "--complex", "{complex}", "--suite")


def _a_file(tmp):
    path = tmp / "file"
    path.write_text("")
    return str(path)


BAD_INPUTS = [
    pytest.param(lambda tmp, files: ["verify", "--complex", str(tmp)], id="verify_complex_is_a_directory"),
    pytest.param(lambda tmp, files: ["present", "--complex", str(tmp)], id="present_complex_is_a_directory"),
    pytest.param(lambda tmp, files: ["enumerate", "--presentation", str(tmp)],
                 id="presentation_is_a_directory"),
    pytest.param(lambda tmp, files: ["build", "--paper-fixture", "--out", str(tmp / "no" / "tt.json")],
                 id="build_out_in_missing_directory"),
    pytest.param(lambda tmp, files: ["build", "--paper-fixture", "--out", _a_file(tmp) + "/tt.json"],
                 id="build_out_below_a_file"),
    pytest.param(lambda tmp, files: ["present", "--complex", str(files.complex),
                                     "--out", str(tmp / "no" / "pres.json")],
                 id="present_out_in_missing_directory"),
    pytest.param(lambda tmp, files: ["present", "--complex", str(files.complex),
                                     "--fixtures-out", _a_file(tmp)],
                 id="fixtures_out_is_a_file"),
    pytest.param(lambda tmp, files: ["enumerate", "--presentation", str(files.fixtures / "s4_remark.json"),
                                     "--table-out", str(tmp / "no" / "table.json")],
                 id="table_out_in_missing_directory"),
    pytest.param(lambda tmp, files: ["enumerate", "--presentation", str(files.fixtures / "s4_remark.json"),
                                     "--table-out", _a_file(tmp) + "/table.json"],
                 id="table_out_below_a_file"),
    pytest.param(_nested_presentation, id="presentation_nested_100k_deep"),
    pytest.param(_unparsable_tt33, id="override_tt33_unparsable"),
    pytest.param(_spanning_with_a_cycle, id="override_spanning_tree_with_a_cycle"),
    # Fixtures that parse but have the wrong shape are named, not tracebacks.
    pytest.param(_override("ax_relations.json", _set([1, 2]), *VERIFY_PAPER, "ax"),
                 id="override_ax_relations_a_list"),
    pytest.param(_override("ax_relations.json", _set({"AX1": 5}), *VERIFY_PAPER, "ax"),
                 id="override_ax_relations_int_word"),
    pytest.param(_override("ax_relations.json", _set("a", "AX1", 0), *VERIFY_PAPER, "ax"),
                 id="override_ax_relations_string_letter"),
    pytest.param(_override("ax_relations.json", _set(99, "AX1", 0), *VERIFY_PAPER, "ax"),
                 id="override_ax_relations_letter_99"),
    pytest.param(_override("t0_spanning.json", _set({"chords": []}), *VERIFY_PAPER, "relators"),
                 id="override_spanning_without_tree"),
    pytest.param(_override("t0_spanning.json", _set({"tree": [1], "chords": 5}), *VERIFY_PAPER,
                           "relators"),
                 id="override_spanning_chords_int"),
    pytest.param(_override("t0_spanning.json", _chord_listed_twice, *VERIFY_PAPER, "relators"),
                 id="override_spanning_chord_listed_twice"),
    pytest.param(_override("tt33.json", _set({"rows": 3}), "build", "--paper-fixture"),
                 id="override_tt33_without_cols"),
    pytest.param(_override("nonrel_pairs.json", _set([1, 99], 0), *VERIFY_PAPER, "tables"),
                 id="override_nonrel_pairs_letter_99"),
    # Fixtures that fail their consistency oracle are named too.
    pytest.param(_override("tt33.json", _set(build_torus_triangulation(3, 3).to_json()),
                           "build", "--paper-fixture"),
                 id="override_tt33_canonical_numbering"),
    pytest.param(_tt33_with_point_ids_11_to_19, id="override_tt33_point_ids_11_to_19"),
    # Planes 1 and 2 swapped keep every hexagon and role; tau1 then moves planes 1 and 7.
    pytest.param(_naming("witness image tau1 moves planes [1, 7], expected [2, 7]",
                         _override("tt33.json", _swap_ids("planes", 1, 2), "build", "--paper-fixture")),
                 id="override_tt33_planes_1_and_2_swapped"),
    # Lines 12 and 16 both lie around point 6 and around no other hexagon anchor.
    pytest.param(_naming("role a at point 6 is line 16, expected 12",
                         _override("tt33.json", _swap_ids("lines", 12, 16), "build", "--paper-fixture")),
                 id="override_tt33_lines_12_and_16_swapped"),
    pytest.param(_naming("spanning fixture has the wrong tree size",
                         _override("t0_spanning.json", _chord_moved_into_the_tree, *VERIFY_PAPER, "relators")),
                 id="override_spanning_chord_moved_into_the_tree"),
    pytest.param(_naming("a spanning fixture holds one object, got list",
                         _override("t0_spanning.json", _set([]), *VERIFY_PAPER, "relators")),
                 id="override_spanning_a_list"),
    pytest.param(_naming("the pair table holds one list, got dict",
                         _override("nonrel_pairs.json", _set({}), *VERIFY_PAPER, "tables")),
                 id="override_nonrel_pairs_an_object"),
    pytest.param(_naming("either --paper-fixture or both --rows and --cols are required",
                         lambda tmp, files: ["build", "--rows", "3"]),
                 id="build_rows_without_cols"),
    pytest.param(_naming("capacity must be positive",
                         lambda tmp, files: ["enumerate", "--presentation", str(files.fixtures / "s4_remark.json"),
                                             "--capacity", "0"]),
                 id="enumerate_capacity_0"),
]


@pytest.fixture
def bad_input_env(tmp_path, monkeypatch, paper_files):
    (tmp_path / "override").mkdir()
    monkeypatch.setenv("COXLAB_FIXTURES", str(tmp_path / "override"))
    return tmp_path, paper_files


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_2_with_one_error_line(capsys, bad_input_env, case):
    code, out, err = run(capsys, *case(*bad_input_env))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    if hasattr(case, "fixture"):
        assert f"invalid fixture file {bad_input_env[0] / 'override' / case.fixture}: " in err
    assert getattr(case, "needle", "") in err


@pytest.mark.parametrize("name,argv", [
    ("tt33.json", ["build", "--paper-fixture"]),
    ("hexagon_quotient.json", ["present", "--complex", "{complex}", "--fixtures-out", "{tmp}/fx"]),
    ("t0_spanning.json", ["verify", "--complex", "{complex}", "--suite", "relators"]),
], ids=["build_tt33", "present_hexagon_quotient", "verify_t0_spanning"])
def test_corrupt_bundled_fixture_exits_2_naming_the_file(capsys, monkeypatch, tmp_path, paper_files,
                                                         name, argv):
    """A bundled fixture is opened like an override, so a corrupt one exits
    2 with one line that names its path, not with a traceback."""
    bundled = tmp_path / "bundled"
    shutil.copytree(paper_files.fixtures, bundled)
    (bundled / name).write_text('{"rows": 3,')
    monkeypatch.setattr(fixtures, "DIRECTORY", str(bundled))
    monkeypatch.delenv("COXLAB_FIXTURES", raising=False)
    code, out, err = run(capsys, *(arg.format(complex=paper_files.complex, tmp=tmp_path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read fixture file {bundled / name}: ") and err.count("\n") == 1


# Fixtures that load but make a published claim fail.  The claim is judged by
# its report entry alone: the whole report goes to stdout, stderr stays empty
# and the exit code is 1.

def _canonical_span(data):
    """The canonical span of the published dual graph: a spanning tree with
    oriented chords, so its oracle passes, but not the published tree.  A
    fixture holds no weights; they are derived on loading."""
    span = spanning_data(dual_graph(load_paper_labeling()), "canonical")
    return {"tree": span.tree_edges,
            "chords": [{k: v for k, v in asdict(ch).items() if k != "weight"} for ch in span.chords.values()]}


# Each failing report is pinned by the sha256 of its stdout, so a failing
# value prints byte for byte as it did: the reduced model's a and b as dense
# lists over the 18 planes.
FAILED_CLAIMS = [
    # The weights are derived on any tree, so the reduced claims hold; only
    # the conjugating words pass through the published tree's chords.
    pytest.param(_override("t0_spanning.json", _canonical_span, *VERIFY_PAPER, "all"), 45,
                 {"center.tau_images"}, "f92bd420f6b19db293f6098d7804e3eaf5d17434527f7a505a90155b5e03b6af",
                 id="override_spanning_canonical_tree"),
    # Lines 1 and 6 meet at point 1 in roles c and d, a column the table lacks.
    pytest.param(_override("nonrel_pairs.json", _set([1, 6], 0), *VERIFY_PAPER, "tables"), 6,
                 {"tables.given_split", "tables.missing_split", "tables.no_diagonal_roles",
                  "tables.role_table"}, "18c4fa679bbf3b96fadf7c319a4068349cc6eb840cc9e337b9771ce461446cb9",
                 id="override_nonrel_pairs_diagonal_role"),
    # Lines 1 and 27 share no point, so the pair fills no cell of the table.
    pytest.param(_override("nonrel_pairs.json", _set([1, 27], 0), *VERIFY_PAPER, "tables"), 6,
                 {"tables.role_table"}, "b37b67dd8d3995e730c72e0f4329d556c594f050dee9008b407b2a3d8728547c",
                 id="override_nonrel_pairs_pair_without_a_point"),
    # Lines 1 and 13, chords of weights (1, 0) and (0, 1), twice: a 3-cycle of planes
    # 2, 7 and 15 with a and b nonzero at two planes each and zeta = -1.
    pytest.param(_override("ax_relations.json", _set([1, 13, 1, 13], "AX1"), *VERIFY_PAPER, "ax"), 25,
                 {"ax.AX1"}, "ab3bbe92d4247d596591f687f9ab2aaa34788279af9c0ff5b565ba9c8cc879fc",
                 id="override_ax_relations_ax1_off_the_kernel"),
]


@pytest.mark.parametrize("case,entries,failed,digest", FAILED_CLAIMS)
def test_fixture_failing_a_claim_exits_1_with_the_whole_report(capsys, bad_input_env, case,
                                                               entries, failed, digest):
    code, out, err = run(capsys, *case(*bad_input_env), "--json")
    assert code == 1 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    report = json.loads(out)
    assert len(report["entries"]) == entries
    assert {e["name"] for e in report["entries"] if e["status"] == "fail"} == failed
    for e in report["entries"]:
        if e["status"] == "fail" and (e["name"].startswith("ax.") or e["name"] == "center.witness_value"):
            assert set(e["value"]) == {"a", "b", "zeta"}, e["name"]


def test_relator_census_is_checked_against_the_graph(paper, monkeypatch):
    generate = presentation.generate

    def without_a_braid(*args):
        p = generate(*args)
        p.braids.pop()
        return p

    monkeypatch.setattr(presentation, "generate", without_a_braid)
    report = verify.run_suite(paper.x0, "relators")
    assert [e.name for e in report.entries if e.status == "fail"] == ["relators.counts"]


@pytest.mark.parametrize("suite,built", [
    ("structure", set()),
    ("ax", {"dual_graph", "spanning_data"}),
    ("relators", {"dual_graph", "hexagon_links", "spanning_data", "generate"}),
    ("tables", {"dual_graph", "hexagon_links", "generate"}),
    ("center", {"dual_graph", "spanning_data"}),
    ("all", {"dual_graph", "hexagon_links", "spanning_data", "generate"}),
])
def test_verify_builds_only_what_the_suite_reads(capsys, monkeypatch, paper_files, suite, built):
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("dual_graph", "hexagon_links", "spanning_data"):
        counted(verify, name)
    counted(presentation, "generate")
    code, _, _ = run(capsys, "verify", "--complex", str(paper_files.complex), "--suite", suite)
    assert code == 0
    assert calls == dict.fromkeys(built, 1)


def test_missing_anchor_point_is_named(capsys, bad_input_env):
    # Points 1, 4, 6 and 9 anchor the published hexagons; a file without them
    # is refused when it is read, before any anchor is looked up.
    code, _, err = run(capsys, *_tt33_with_point_ids_11_to_19(*bad_input_env))
    assert code == 2
    assert err.endswith("tt33.json: point ids must be exactly 1..9\n")


def test_bad_input_exits_2_through_python_dash_m(bad_input_env):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "coxlab", *_spanning_with_a_cycle(*bad_input_env)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    spanning = bad_input_env[0] / "override" / "t0_spanning.json"
    assert proc.stderr == f"error: invalid fixture file {spanning}: spanning fixture tree has a cycle\n"
