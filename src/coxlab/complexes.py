"""Triangulated torus complexes and their dual graphs.

An m x n grid of squares on the torus, each square cut by one diagonal
(all diagonals parallel, running from a square's top-right corner to its
bottom-left), gives a complex with mn points, 3mn lines and 2mn triangular
planes.  The dual graph has a vertex per plane and an edge per line, is
3-regular and connected, and every point of the complex is surrounded by a
hexagon of six lines.

Around a point the six lines carry fixed positional roles:

    a west horizontal    b north vertical   c northeast diagonal
    d east horizontal    e south vertical   f southwest diagonal

Rows increase downward and wrap mod m; columns wrap mod n.  The instance
of record is the 3 x 3 complex with its published irregular numbering,
shipped as the fixture ``tt33.json`` and checked against a battery of
anchors on every load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fixtures
from .perm import Permutation, generates_full_symmetric, identity, transposition

ROLES = ("a", "b", "c", "d", "e", "f")


class CorruptFixtureError(RuntimeError):
    """A bundled fixture failed its consistency oracle."""


@dataclass(frozen=True)
class Point:
    id: int
    row: int
    col: int


@dataclass(frozen=True)
class Line:
    id: int
    points: tuple[int, int]
    planes: tuple[int, int]
    kind: str           # "h", "v" or "d"
    cell: tuple[int, int]


@dataclass(frozen=True)
class Plane:
    id: int
    lines: tuple[int, int, int]
    cell: tuple[int, int]
    half: str           # "upper" or "lower"


@dataclass
class DegenerationComplex:
    rows: int
    cols: int
    points: list[Point]
    lines: list[Line]
    planes: list[Plane]

    point_by_id: dict[int, Point] = field(init=False, repr=False)
    line_by_id: dict[int, Line] = field(init=False, repr=False)
    plane_by_id: dict[int, Plane] = field(init=False, repr=False)
    _line_at: dict[tuple[str, int, int], int] = field(init=False, repr=False)

    def __post_init__(self):
        self.point_by_id = {p.id: p for p in self.points}
        self.line_by_id = {l.id: l for l in self.lines}
        self.plane_by_id = {f.id: f for f in self.planes}
        self._line_at = {(l.kind, *l.cell): l.id for l in self.lines}
        self.validate()

    def line_at(self, kind: str, row: int, col: int) -> int:
        return self._line_at[(kind, row % self.rows, col % self.cols)]

    def lines_at_point(self, point_id: int) -> list[int]:
        return [l.id for l in self.lines if point_id in l.points]

    def validate(self):
        m, n = self.rows, self.cols
        if len(self.points) != m * n:
            raise ValueError(f"expected {m * n} points, got {len(self.points)}")
        if len(self.lines) != 3 * m * n:
            raise ValueError(f"expected {3 * m * n} lines, got {len(self.lines)}")
        if len(self.planes) != 2 * m * n:
            raise ValueError(f"expected {2 * m * n} planes, got {len(self.planes)}")
        if len(self.points) - len(self.lines) + len(self.planes) != 0:
            raise ValueError("Euler characteristic is not 0")
        for line in self.lines:
            f, g = line.planes
            if f == g:
                raise ValueError(f"line {line.id} borders plane {f} twice")
            for pid in line.planes:
                if line.id not in self.plane_by_id[pid].lines:
                    raise ValueError(f"incidence mismatch at line {line.id} / plane {pid}")
        for plane in self.planes:
            if len(set(plane.lines)) != 3:
                raise ValueError(f"plane {plane.id} does not have 3 distinct boundary lines")
        for point in self.points:
            if len(self.lines_at_point(point.id)) != 6:
                raise ValueError(f"point {point.id} is not 6-valent")

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "points": [{"id": p.id, "row": p.row, "col": p.col} for p in self.points],
            "lines": [
                {"id": l.id, "points": list(l.points), "planes": list(l.planes),
                 "kind": l.kind, "cell": list(l.cell)}
                for l in self.lines
            ],
            "planes": [
                {"id": f.id, "lines": list(f.lines), "cell": list(f.cell), "half": f.half}
                for f in self.planes
            ],
        }


def complex_from_json(data: dict) -> DegenerationComplex:
    return DegenerationComplex(
        rows=data["rows"],
        cols=data["cols"],
        points=[Point(p["id"], p["row"], p["col"]) for p in data["points"]],
        lines=[
            Line(l["id"], tuple(l["points"]), tuple(l["planes"]), l["kind"], tuple(l["cell"]))
            for l in data["lines"]
        ],
        planes=[
            Plane(f["id"], tuple(f["lines"]), tuple(f["cell"]), f["half"])
            for f in data["planes"]
        ],
    )


def build_torus_triangulation(m: int, n: int) -> DegenerationComplex:
    """The m x n torus triangulation with the canonical numbering.

    Grids below 3 x 3 would glue two triangles along two distinct lines,
    producing parallel edges in the dual graph, which the transposition
    constructions downstream do not model; they are rejected.
    """
    if m < 3 or n < 3:
        raise ValueError(f"unsupported grid {m} x {n}: both sides must be at least 3")

    def pid(r, c):
        return (r % m) * n + (c % n) + 1

    def hid(r, c):
        return (r % m) * n + (c % n) + 1

    def vid(r, c):
        return m * n + (r % m) * n + (c % n) + 1

    def did(r, c):
        return 2 * m * n + (r % m) * n + (c % n) + 1

    def lower(r, c):
        return 2 * ((r % m) * n + (c % n)) + 1

    def upper(r, c):
        return 2 * ((r % m) * n + (c % n)) + 2

    points = [Point(pid(r, c), r, c) for r in range(m) for c in range(n)]
    lines = []
    for r in range(m):
        for c in range(n):
            # h(r,c): top edge of upper(r,c), bottom edge of lower(r-1,c).
            lines.append(Line(hid(r, c), (pid(r, c), pid(r, c + 1)),
                              (upper(r, c), lower(r - 1, c)), "h", (r, c)))
    for r in range(m):
        for c in range(n):
            # v(r,c): left edge of upper(r,c), right edge of lower(r,c-1).
            lines.append(Line(vid(r, c), (pid(r, c), pid(r + 1, c)),
                              (upper(r, c), lower(r, c - 1)), "v", (r, c)))
    for r in range(m):
        for c in range(n):
            # d(r,c): the diagonal separating the two halves of cell (r,c).
            lines.append(Line(did(r, c), (pid(r, c + 1), pid(r + 1, c)),
                              (upper(r, c), lower(r, c)), "d", (r, c)))
    planes = []
    for r in range(m):
        for c in range(n):
            planes.append(Plane(lower(r, c), (hid(r + 1, c), vid(r, c + 1), did(r, c)),
                                (r, c), "lower"))
            planes.append(Plane(upper(r, c), (hid(r, c), vid(r, c), did(r, c)),
                                (r, c), "upper"))
    planes.sort(key=lambda f: f.id)
    return DegenerationComplex(rows=m, cols=n, points=points, lines=lines, planes=planes)


@dataclass
class DualGraph:
    """One vertex per plane, one edge per line."""

    vertices: list[int]
    edges: dict[int, tuple[int, int]]       # line id -> plane pair
    adjacency: dict[int, list[int]]         # plane id -> incident line ids, ascending

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for e in self.adjacency[v]:
                f, g = self.edges[e]
                w = g if f == v else f
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def cycle_rank(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    def other_end(self, line_id: int, v: int) -> int:
        f, g = self.edges[line_id]
        return g if f == v else f


def dual_graph(x0: DegenerationComplex) -> DualGraph:
    vertices = sorted(f.id for f in x0.planes)
    edges = {l.id: l.planes for l in x0.lines}
    adjacency = {v: [] for v in vertices}
    for line_id in sorted(edges):
        f, g = edges[line_id]
        adjacency[f].append(line_id)
        adjacency[g].append(line_id)
    return DualGraph(vertices=vertices, edges=edges, adjacency=adjacency)


@dataclass(frozen=True)
class HexagonLink:
    """The six lines around one point, in cyclic order, with their roles."""

    point: int
    cycle: tuple[int, int, int, int, int, int]      # order (d, e, f, a, b, c)
    roles: dict[str, int]

    def role_of(self, line_id: int) -> str:
        for role, lid in self.roles.items():
            if lid == line_id:
                return role
        raise KeyError(f"line {line_id} is not around point {self.point}")


def hexagon_links(x0: DegenerationComplex) -> list[HexagonLink]:
    """One link per point; roles come from the grid geometry."""
    links = []
    for p in sorted(x0.points, key=lambda p: p.id):
        r, c = p.row, p.col
        roles = {
            "a": x0.line_at("h", r, c - 1),
            "b": x0.line_at("v", r - 1, c),
            "c": x0.line_at("d", r - 1, c),
            "d": x0.line_at("h", r, c),
            "e": x0.line_at("v", r, c),
            "f": x0.line_at("d", r, c - 1),
        }
        cycle = tuple(roles[k] for k in ("d", "e", "f", "a", "b", "c"))
        links.append(HexagonLink(point=p.id, cycle=cycle, roles=roles))
    return links


@dataclass(frozen=True)
class Chord:
    """A directed edge outside the spanning tree."""

    index: int      # 1-based position among the chords
    line: int
    tail: int
    head: int


@dataclass
class SpanningData:
    tree_edges: list[int]
    chords: list[Chord]

    def chord_by_line(self) -> dict[int, Chord]:
        return {ch.line: ch for ch in self.chords}


def spanning_data(graph: DualGraph, mode: str = "canonical") -> SpanningData:
    """A spanning tree of the dual graph plus its oriented chords.

    canonical: breadth-first from the lowest vertex, edges in id order,
    chords ascending by line id and oriented from the smaller plane to the
    larger.  paper-fixture: the published tree and chord orientations of
    the 3 x 3 instance, validated against the graph.
    """
    if not graph.is_connected():
        raise ValueError("spanning tree requires a connected graph")
    if mode == "canonical":
        root = min(graph.vertices)
        seen = {root}
        tree: list[int] = []
        queue = [root]
        while queue:
            v = queue.pop(0)
            for e in graph.adjacency[v]:
                w = graph.other_end(e, v)
                if w not in seen:
                    seen.add(w)
                    tree.append(e)
                    queue.append(w)
        tree_set = set(tree)
        chords = []
        for e in sorted(graph.edges):
            if e in tree_set:
                continue
            f, g = sorted(graph.edges[e])
            chords.append(Chord(index=len(chords) + 1, line=e, tail=f, head=g))
        return SpanningData(tree_edges=sorted(tree), chords=chords)
    if mode == "paper-fixture":
        data = fixtures.load_json("t0_spanning.json")
        tree = list(data["tree"])
        chords = [Chord(ch["index"], ch["line"], ch["tail"], ch["head"]) for ch in data["chords"]]
        _check_spanning_fixture(graph, tree, chords)
        return SpanningData(tree_edges=tree, chords=chords)
    raise ValueError(f"unknown spanning mode: {mode}")


def _check_spanning_fixture(graph, tree, chords):
    if set(tree) | {c.line for c in chords} != set(graph.edges) or set(tree) & {c.line for c in chords}:
        raise CorruptFixtureError("spanning fixture does not partition the edge set")
    if len(tree) != len(graph.vertices) - 1:
        raise CorruptFixtureError("spanning fixture has the wrong tree size")
    # n - 1 edges whose transpositions generate S_n form a spanning tree.
    n = len(graph.vertices)
    if not generates_full_symmetric(transposition(*graph.edges[e], n) for e in tree):
        raise CorruptFixtureError("spanning fixture tree has a cycle")
    for ch in chords:
        if set((ch.tail, ch.head)) != set(graph.edges[ch.line]):
            raise CorruptFixtureError(f"chord {ch.line} endpoints disagree with the graph")
    if [ch.index for ch in chords] != list(range(1, len(chords) + 1)):
        raise CorruptFixtureError("chord indices are not 1..t")


# -- the published 3 x 3 labeling ------------------------------------------

def load_paper_labeling() -> DegenerationComplex:
    """The 3 x 3 complex with the published line and point numbering.

    Loaded from the fixture and passed through the consistency oracle,
    which cross-checks every recorded anchor simultaneously; a fixture
    that fails any anchor raises CorruptFixtureError rather than being
    silently patched.
    """
    x0 = complex_from_json(fixtures.load_json("tt33.json"))
    check_paper_fixture(x0)
    return x0


def is_paper_labeling(x0: DegenerationComplex) -> bool:
    try:
        check_paper_fixture(x0)
    except (CorruptFixtureError, ValueError, KeyError):
        return False
    return True


HEXAGON_ANCHORS = {
    1: {1, 2, 4, 6, 13, 22},
    4: {4, 5, 8, 11, 15, 19},
    6: {9, 10, 11, 12, 16, 25},
    9: {22, 23, 24, 25, 26, 27},
}

ROLE_ANCHORS = [(6, "a", 12), (6, "b", 25), (5, "d", 12)]

WITNESS_TRANSPOSITIONS = {"tau1": (2, 7), "tau2": (7, 10), "tau3": (1, 7), "tau4": (1, 3)}


def check_paper_fixture(x0: DegenerationComplex):
    """Every textual anchor of the published labeling, checked at once."""
    if (x0.rows, x0.cols) != (3, 3):
        raise CorruptFixtureError("published labeling is a 3 x 3 complex")
    links = {link.point: link for link in hexagon_links(x0)}
    for point, expected in HEXAGON_ANCHORS.items():
        got = set(links[point].cycle)
        if got != expected:
            raise CorruptFixtureError(f"hexagon of point {point}: {sorted(got)} != {sorted(expected)}")
    for point, role, line in ROLE_ANCHORS:
        if links[point].roles[role] != line:
            raise CorruptFixtureError(
                f"role {role} at point {point} is line {links[point].roles[role]}, expected {line}")

    pairs = fixtures.load_nonrel_pairs()
    for i, j in pairs:
        shared = set(x0.line_by_id[i].points) & set(x0.line_by_id[j].points)
        if len(shared) != 1:
            raise CorruptFixtureError(f"pair ({i}, {j}) does not share exactly one point")
        link = links[next(iter(shared))]
        for lid in (i, j):
            if link.role_of(lid) in ("c", "f"):
                raise CorruptFixtureError(f"pair ({i}, {j}) involves a diagonal at point {link.point}")

    for name, expected in WITNESS_TRANSPOSITIONS.items():
        got = psi_image(x0, witness_words()[name]).as_transposition()
        if got is None or set(got) != set(expected):
            raise CorruptFixtureError(f"witness image {name} is {got}, expected {expected}")


def psi_image(x0: DegenerationComplex, word) -> Permutation:
    """Product of the line transpositions of a word, left to right."""
    n = len(x0.planes)
    out = identity(n)
    for letter in word:
        f, g = x0.line_by_id[abs(letter)].planes
        out = out * transposition(f, g, n)
    return out


# Conjugating words used by the center computation; only lines 1 and 4 lie
# outside the published spanning tree.
SIGMA1 = (21, 19, 8, 6)
SIGMA2 = (20, 24, 25, 16, 11, 5)
TAU2 = (19, 21, 14, 21, 19)


def witness_words() -> dict[str, tuple[int, ...]]:
    tau1 = SIGMA1[::-1] + (14,) + SIGMA1
    tau3 = SIGMA2[::-1] + TAU2 + SIGMA2
    tau4 = SIGMA2[::-1] + (8,) + SIGMA2
    return {"tau1": tau1, "tau2": TAU2, "tau3": tau3, "tau4": tau4}

