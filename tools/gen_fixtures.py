#!/usr/bin/env python3
"""Regenerate the bundled JSON fixtures.

The published 3 x 3 labeling is recorded here as its numbering, the ids of
each kind by grid position, which is what a complex file holds; everything
else follows from it.  Run from the repository root:

    python tools/gen_fixtures.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from coxlab.cli import _write_json  # noqa: E402
from coxlab.complexes import load_paper_labeling  # noqa: E402
from coxlab.presentation import cycle_relator  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "coxlab", "fixtures")

# Published ids by grid position (row, col), rows downward, torus wrap.
POINT = [[1, 2, 3], [7, 8, 9], [4, 5, 6]]
HLINE = [[1, 3, 2], [21, 27, 26], [8, 12, 11]]
VLINE = [[13, 17, 23], [15, 20, 25], [4, 7, 10]]
DLINE = [[14, 18, 22], [19, 24, 16], [6, 9, 5]]
UPPER = [[7, 9, 13], [12, 18, 16], [3, 6, 5]]
LOWER = [[11, 17, 15], [10, 14, 8], [2, 4, 1]]

# Spanning tree of the dual graph and the ten directed chords.
T0_TREE = [5, 6, 8, 9, 11, 12, 14, 16, 18, 19, 20, 21, 22, 24, 25, 26, 27]
T0_CHORDS = [
    {"index": 1, "line": 1, "tail": 7, "head": 2},
    {"index": 2, "line": 3, "tail": 9, "head": 4},
    {"index": 3, "line": 2, "tail": 13, "head": 1},
    {"index": 4, "line": 17, "tail": 11, "head": 9},
    {"index": 5, "line": 23, "tail": 17, "head": 13},
    {"index": 6, "line": 13, "tail": 15, "head": 7},
    {"index": 7, "line": 15, "tail": 8, "head": 12},
    {"index": 8, "line": 4, "tail": 1, "head": 3},
    {"index": 9, "line": 7, "tail": 2, "head": 6},
    {"index": 10, "line": 10, "tail": 4, "head": 5},
]

AX_RELATIONS = {
    "AX1": [1, 13, 22, 6, 4, 2, 4, 6, 22, 13],
    "AX2": [24, 25, 26, 25, 24, 22, 23, 27, 23, 22],
    "AX3": [5, 4, 8, 4, 5, 19, 15, 11, 15, 19],
    "AX4": [9, 10, 11, 10, 9, 16, 25, 12, 25, 16],
    "AX5": [12, 24, 20, 24, 12, 24, 20, 24, 12, 24, 20, 24],
    "AX6": [15, 21, 15, 14, 13, 14, 16, 26, 16, 14, 13, 14],
    "AX7": [19, 20, 19, 21, 19, 20, 19, 21, 19, 20, 19, 21],
    "AX8": [20, 19, 21, 19, 20, 18, 17, 18, 27, 18, 17, 18],
    "AX10": [24, 25, 24, 22, 23, 22, 24, 25, 24, 22, 23, 22],
    "AX11": [3, 9, 7, 9, 3, 9, 7, 9, 3, 9, 7, 9],
    "AX12": [5, 2, 5, 18, 23, 18, 10, 3, 10, 18, 23, 18],
    "AX13": [5, 4, 5, 19, 15, 19, 5, 4, 5, 19, 15, 19],
    "AX14": [6, 4, 6, 22, 13, 22, 6, 4, 6, 22, 13, 22],
    "AX15": [6, 7, 6, 24, 20, 24, 6, 7, 6, 24, 20, 24],
    "AX16": [6, 7, 6, 8, 6, 7, 6, 8, 6, 7, 6, 8],
    "AX17": [9, 10, 9, 16, 25, 16, 9, 10, 9, 16, 25, 16],
    "AX18": [9, 7, 9, 14, 17, 14, 9, 7, 9, 14, 17, 14],
    "AX19": [1, 14, 17, 14, 9, 7, 9, 3, 9, 7, 9, 14, 17, 14],
    "AX20": [6, 7, 6, 8, 6, 7, 6, 24, 20, 24, 12, 24, 20, 24],
    "AX21": [10, 3, 10, 18, 23, 18] * 3,
    "AX22": [15, 14, 13, 14, 15, 21] * 3,
    "AX23": [19, 20, 18, 17, 18, 20, 19, 21] * 3,
    "AX24": [25, 24, 22, 23, 22, 24, 25, 26] * 3,
    "AX25": [6, 4, 2, 4, 6, 22, 13, 22] * 3,
    "AX26": [9, 7, 9, 3, 9, 7, 9, 14, 17, 14] * 3,
}

NONREL_PAIRS = [
    [1, 2], [1, 3], [1, 4], [1, 7], [1, 13],
    [1, 17], [2, 3], [2, 10], [2, 13], [2, 23],
    [3, 7], [3, 17], [3, 23], [4, 11], [4, 13],
    [4, 15], [7, 8], [7, 12], [7, 17], [7, 20],
    [8, 11], [8, 12], [8, 15], [8, 20], [10, 12],
    [10, 25], [11, 12], [11, 25], [12, 20], [13, 21],
    [13, 26], [15, 26], [17, 21], [17, 27], [20, 21],
    [20, 27], [21, 26], [21, 27], [23, 25], [23, 26],
    [23, 27], [25, 27], [26, 27],
]


def hexagon_presentation(with_cycle):
    # Six involutions around a 6-cycle: consecutive pairs braid, the rest
    # commute; optionally the relator of the cycle 1 .. 6 itself.
    relators = [[i, i] for i in range(1, 7)]
    adjacent = {(i, i % 6 + 1) for i in range(1, 7)}
    adjacent = {tuple(sorted(p)) for p in adjacent}
    for i in range(1, 7):
        for j in range(i + 1, 7):
            if (i, j) in adjacent:
                relators.append([i, j] * 3)
            else:
                relators.append([i, j] * 2)
    if with_cycle:
        relators.append(list(cycle_relator(range(1, 7))))
    return {"generators": 6, "relators": relators}


def dump(name, data):
    path = os.path.join(OUT, name)
    _write_json(path, data)
    print("wrote", path)


def main():
    dump("tt33.json", {"rows": 3, "cols": 3, "points": POINT, "lines": {"h": HLINE, "v": VLINE, "d": DLINE},
                       "planes": {"upper": UPPER, "lower": LOWER}})
    dump("t0_spanning.json", {"tree": T0_TREE, "chords": T0_CHORDS})
    dump("ax_relations.json", AX_RELATIONS)
    dump("nonrel_pairs.json", NONREL_PAIRS)
    dump("s4_remark.json", {
        "generators": 3,
        "relators": [[1, 1], [2, 2], [3, 3],
                     [1, 2, 1, 2, 1, 2], [2, 3, 2, 3, 2, 3], [1, 3, 1, 3]],
    })
    dump("hexagon_quotient.json", hexagon_presentation(with_cycle=True))
    dump("hexagon_affine.json", hexagon_presentation(with_cycle=False))

    load_paper_labeling()
    print("fixture oracle passed")


if __name__ == "__main__":
    main()
