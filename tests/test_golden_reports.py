"""Byte-identity gate: the sha256 of every `verify --json` report is pinned.

The digests were taken before the exact and reduced models were merged
into one semidirect product; a refactor that changes any byte of these
reports fails here.  The 6 x 6 relators report is pinned by the
benchmark's own goldens.
"""

import hashlib

import pytest

from coxlab.cli import main

PAPER_DIGESTS = {
    "relators": "14cd2a7869902672f19e5877e85237b7898c8096a2f67e5b41583784c39754a4",
    "ax": "789e0ec5548318094454193464110ece4ce7b8fe9f7bfbe32db1820495652c89",
    "tables": "b19066655a0030eba83bdfd9a26547412b94a063a889263c01d300ce9d98a1d4",
    "center": "a6108918f8470f03464c8eca00ef48775bd50867cea408261c3065c96cb53800",
    "structure": "f62713e89c2e078b29d9aca5c88e65efcea78223949d3ed870911531a34ced73",
}

GRID_4X3_RELATORS_DIGEST = "d221dae180704c563194d303806ae6be3dddf32638cb7b4f39294a845ddfbe42"


def _verify_digest(capsys, complex_file, suite):
    code = main(["verify", "--complex", str(complex_file), "--suite", suite, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.fixture(scope="module")
def complex_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["build", "--paper-fixture", "--out", str(root / "tt.json")]) == 0
    assert main(["build", "--rows", "4", "--cols", "3", "--out", str(root / "g43.json")]) == 0
    return root


@pytest.mark.parametrize("suite", sorted(PAPER_DIGESTS))
def test_paper_report_digest(capsys, complex_files, suite):
    capsys.readouterr()
    assert _verify_digest(capsys, complex_files / "tt.json", suite) == PAPER_DIGESTS[suite]


def test_grid_4x3_relators_digest(capsys, complex_files):
    capsys.readouterr()
    assert _verify_digest(capsys, complex_files / "g43.json", "relators") == GRID_4X3_RELATORS_DIGEST
