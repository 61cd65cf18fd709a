"""Byte-identity gate: the sha256 of every `verify --json` report is pinned.

The paper and 4 x 3 digests were taken before the exact and reduced
models were merged into one semidirect product; the 6 x 6 relators digest
and the 6 x 6 and paper CleanReport digests are the benchmark's goldens,
made from the seed code.
The `build --out` digests were taken before the torus builder was
rewritten over the grid-geometry tables, and the `present --variant
quotient --out` digests while hexagons had their own orientation code.
The plain and fork presentation files and the `enumerate --table-out`
files were pinned while every file was still written by `json.dump`.
A refactor that changes any byte of these reports or files fails here.
"""

import hashlib
import json

import pytest

from coxlab.cli import main
from coxlab.fixtures import load_json
from coxlab.presentation import ax_fixture
from coxlab.words import clean

PAPER_DIGESTS = {
    "relators": "14cd2a7869902672f19e5877e85237b7898c8096a2f67e5b41583784c39754a4",
    "ax": "789e0ec5548318094454193464110ece4ce7b8fe9f7bfbe32db1820495652c89",
    "tables": "b19066655a0030eba83bdfd9a26547412b94a063a889263c01d300ce9d98a1d4",
    "center": "a6108918f8470f03464c8eca00ef48775bd50867cea408261c3065c96cb53800",
    "structure": "f62713e89c2e078b29d9aca5c88e65efcea78223949d3ed870911531a34ced73",
    "all": "7c0fba5c5d8fb70d10a3cb5918528d369fbbb637fc26e3f9904f7f3397feb80e",
}

GRID_4X3_RELATORS_DIGEST = "d221dae180704c563194d303806ae6be3dddf32638cb7b4f39294a845ddfbe42"
GRID_6X6_RELATORS_DIGEST = "c69a10e4427762473eb9ee41c3a2dcbdd4a816a8e3875afa68e3a07adbdb3a66"
GRID_6X6_CLEAN_DIGEST = "07f3c92a660ece17dd68cda61bbb98b145340fddb3d25bc0d31e48a8e38fe9d3"
PAPER_CLEAN_DIGEST = "bdcf1d1bd9c1045eb3dd812ae6893d42ffa2a1b6cebbe61691552f3572c0e07c"

QUOTIENT_FILE_DIGESTS = {
    "qtt.json": "5ab909f118bca05a6041f1dfba623649ded47a9f6819a80923c078abd5cc842e",
    "q66.json": "3708515ec8558776eabaaf4ae5dbff8aff0a836f876cac781c0c804fccd5b683",
}

VARIANT_FILE_DIGESTS = {
    "plain": "a686ceffc7fd31f71976bb13de18445a4f3aa2af6e3794da48dd7290de2ee190",
    "fork": "fef087e0568e95a0491e8dfeeb29c32850ba6a7d8e93f6019571af91c4bf0c7b",
}

TABLE_FILE_DIGESTS = {
    "s4_remark.json": "f79cbd25fa3c026903c8f1fa9354669de3fb5b693adfd7b0f0d1ac6dd37313c6",
    "hexagon_quotient.json": "2a0c182138ed2a2c7ec1ff5de5def22601636bd84669c76538254bfb4fa2b509",
}

BUILD_DIGESTS = {
    (3, 3): "1d496f025dd4910100e59eac8faabffb29a0cab1b79e80bce21693473cf8b199",
    (4, 6): "debbcdc93acac1fbdb310c5ce7bb213458cc3a71a17a09db8edba5579f81f45d",
    (10, 10): "2a2c1ebbe851f4c21dbaaf6954ab0338ce390d93ae270dde97d4ed8f6e9640ab",
}


def _verify_digest(capsys, complex_file, suite):
    code = main(["verify", "--complex", str(complex_file), "--suite", suite, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.fixture(scope="module")
def complex_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["build", "--paper-fixture", "--out", str(root / "tt.json")]) == 0
    assert main(["present", "--complex", str(root / "tt.json"), "--variant", "quotient",
                 "--out", str(root / "qtt.json")]) == 0
    assert main(["build", "--rows", "4", "--cols", "3", "--out", str(root / "g43.json")]) == 0
    assert main(["build", "--rows", "6", "--cols", "6", "--out", str(root / "g66.json")]) == 0
    assert main(["present", "--complex", str(root / "g66.json"), "--variant", "quotient",
                 "--out", str(root / "q66.json")]) == 0
    for variant in VARIANT_FILE_DIGESTS:
        assert main(["present", "--complex", str(root / "tt.json"), "--variant", variant,
                     "--out", str(root / f"{variant}.json"), "--fixtures-out", str(root / "fx")]) == 0
    return root


@pytest.mark.parametrize("suite", sorted(PAPER_DIGESTS))
def test_paper_report_digest(capsys, complex_files, suite):
    capsys.readouterr()
    assert _verify_digest(capsys, complex_files / "tt.json", suite) == PAPER_DIGESTS[suite]


def test_relators_report_ignores_a_corrupt_pair_table(capsys, complex_files, tmp_path, monkeypatch):
    # The relators suite reads no pair table, so a corrupt one must not make
    # it drop the reduced-model entries of the published complex.
    pairs = load_json("nonrel_pairs.json")
    pairs[0] = [1, 99]
    (tmp_path / "nonrel_pairs.json").write_text(json.dumps(pairs))
    monkeypatch.setenv("COXLAB_FIXTURES", str(tmp_path))
    capsys.readouterr()
    assert _verify_digest(capsys, complex_files / "tt.json", "relators") == PAPER_DIGESTS["relators"]


def test_grid_4x3_relators_digest(capsys, complex_files):
    capsys.readouterr()
    assert _verify_digest(capsys, complex_files / "g43.json", "relators") == GRID_4X3_RELATORS_DIGEST


def test_grid_6x6_relators_digest(capsys, complex_files):
    capsys.readouterr()
    assert _verify_digest(capsys, complex_files / "g66.json", "relators") == GRID_6X6_RELATORS_DIGEST


def test_grid_6x6_clean_digest(complex_files):
    relators = [tuple(w) for w in json.loads((complex_files / "q66.json").read_text())["relators"]]
    text = json.dumps(clean(relators).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_6X6_CLEAN_DIGEST


def test_paper_clean_digest(complex_files):
    # The quotient relators plus the 25 fixed AX relators: 70 misc relators, 2 passes.
    relators = [tuple(w) for w in json.loads((complex_files / "qtt.json").read_text())["relators"]]
    text = json.dumps(clean(relators + list(ax_fixture().values())).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PAPER_CLEAN_DIGEST


@pytest.mark.parametrize("name", sorted(QUOTIENT_FILE_DIGESTS))
def test_quotient_presentation_file_digest(complex_files, name):
    # The CleanReport digests see neither relator order nor orientation; these do.
    data = (complex_files / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == QUOTIENT_FILE_DIGESTS[name]


@pytest.mark.parametrize("variant", sorted(VARIANT_FILE_DIGESTS))
def test_variant_presentation_file_digest(complex_files, variant):
    data = (complex_files / f"{variant}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == VARIANT_FILE_DIGESTS[variant]


@pytest.mark.parametrize("name", sorted(TABLE_FILE_DIGESTS))
def test_coset_table_file_digest(capsys, complex_files, tmp_path, name):
    out = tmp_path / "table.json"
    assert main(["enumerate", "--presentation", str(complex_files / "fx" / name),
                 "--table-out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_FILE_DIGESTS[name]


@pytest.mark.parametrize("rows,cols", sorted(BUILD_DIGESTS))
def test_build_file_digest(tmp_path, rows, cols):
    out = tmp_path / "grid.json"
    assert main(["build", "--rows", str(rows), "--cols", str(cols), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILD_DIGESTS[(rows, cols)]
