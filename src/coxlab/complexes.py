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

from collections import deque
from dataclasses import dataclass, field, fields

from . import fixtures
from .fixtures import CorruptFixtureError
from .perm import Permutation, generates_full_symmetric, identity, transposition

# Endpoints of the line of each kind at cell (r, c), as offsets from (r, c).
ENDPOINTS = {"h": ((0, 0), (0, 1)), "v": ((0, 0), (1, 0)), "d": ((0, 1), (1, 0))}

# The h, v and d sides of each half of cell (r, c), as offsets from (r, c):
# the upper half lies above the cell's diagonal, the lower half below it.
SIDES = {"upper": {"h": (0, 0), "v": (0, 0), "d": (0, 0)},
         "lower": {"h": (1, 0), "v": (0, 1), "d": (0, 0)}}


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
        self._check_field_types()
        self.point_by_id = {p.id: p for p in self.points}
        self.line_by_id = {l.id: l for l in self.lines}
        self.plane_by_id = {f.id: f for f in self.planes}
        self._line_at = {(l.kind, *l.cell): l.id for l in self.lines}
        self.validate()

    def _check_field_types(self):
        """Ids, coordinates and incidence entries are ints; kind and half are strings.

        Runs before any lookup dict is built, so a list-valued id is named
        rather than failing as an unhashable key.
        """
        for cls, elements in ((Point, self.points), (Line, self.lines), (Plane, self.planes)):
            for position, element in enumerate(elements, start=1):
                for f in fields(cls):
                    value = getattr(element, f.name)
                    if f.type == "str":
                        want = None if type(value) is str else "a string"
                    elif f.type.startswith("tuple"):
                        ok = type(value) is tuple and all(type(x) is int for x in value)
                        want = None if ok else "a list of integers"
                        value = list(value) if type(value) is tuple else value
                    else:
                        want = None if type(value) is int else "an integer"
                    if want:
                        label = element.id if type(element.id) is int else f"at position {position}"
                        raise ValueError(f"{cls.__name__.lower()} {label}: {f.name} must be {want}, "
                                         f"got {value!r}")

    def line_at(self, kind: str, row: int, col: int) -> int:
        return self._line_at[(kind, row % self.rows, col % self.cols)]

    def validate(self):
        """Counts, unique ids, grid geometry and incidence; ValueError if not."""
        m, n = self.rows, self.cols
        if type(m) is not int or type(n) is not int or min(m, n) < 3:
            raise ValueError(f"rows and cols must be integers of at least 3, got {m!r} and {n!r}")
        counts = (len(self.points), len(self.lines), len(self.planes))
        if counts != (m * n, 3 * m * n, 2 * m * n):
            raise ValueError(f"expected {m * n} points, {3 * m * n} lines and {2 * m * n} planes, "
                             f"got {counts[0]}, {counts[1]} and {counts[2]}")
        if len(self.point_by_id) + len(self.line_by_id) + len(self.plane_by_id) != 6 * m * n:
            raise ValueError("point, line and plane ids must be unique")
        at = {(p.row, p.col): p.id for p in self.points}
        if len(at) != m * n or not all(_on_grid(cell, m, n) for cell in at):
            raise ValueError(f"point (row, col) values must be distinct cells of the {m} x {n} grid")
        if len(self._line_at) != len(self.lines):
            raise ValueError("two lines share a kind and cell")
        for line in self.lines:
            if line.kind not in ENDPOINTS or not _on_grid(line.cell, m, n):
                raise ValueError(f"line {line.id}: kind {line.kind!r} at cell {list(line.cell)} "
                                 f"is not an h, v or d line of the {m} x {n} grid")
            r, c = line.cell
            ends = {at[((r + dr) % m, (c + dc) % n)] for dr, dc in ENDPOINTS[line.kind]}
            if len(line.points) != 2 or set(line.points) != ends:
                raise ValueError(f"line {line.id} joins points {list(line.points)}, "
                                 f"but its kind and cell give {sorted(ends)}")
            if len(line.planes) != 2 or line.planes[0] == line.planes[1]:
                raise ValueError(f"line {line.id} must border two distinct planes, got {list(line.planes)}")
            for pid in line.planes:
                if pid not in self.plane_by_id:
                    raise ValueError(f"line {line.id} borders unknown plane {pid}")
                if line.id not in self.plane_by_id[pid].lines:
                    raise ValueError(f"incidence mismatch at line {line.id} / plane {pid}")
        for plane in self.planes:
            if plane.half not in SIDES or not _on_grid(plane.cell, m, n):
                raise ValueError(f"plane {plane.id}: half {plane.half!r} at cell {list(plane.cell)} "
                                 f"is not an upper or lower half of the {m} x {n} grid")
            r, c = plane.cell
            sides = {self.line_at(kind, r + dr, c + dc) for kind, (dr, dc) in SIDES[plane.half].items()}
            if len(plane.lines) != 3 or set(plane.lines) != sides:
                raise ValueError(f"plane {plane.id} is bounded by lines {list(plane.lines)}, "
                                 f"but its half and cell give {sorted(sides)}")
        if len({(f.half, f.cell) for f in self.planes}) != len(self.planes):
            raise ValueError("two planes share a half and cell")

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


def _on_grid(cell, m: int, n: int) -> bool:
    return len(cell) == 2 and all(type(x) is int and 0 <= x < size for x, size in zip(cell, (m, n)))


def complex_from_json(data: dict) -> DegenerationComplex:
    """A complex from its JSON form.

    Lists in tuple-typed fields become tuples; every other value passes on
    unchanged for ``DegenerationComplex`` to check and name.
    """
    if type(data) is not dict:
        raise ValueError(f"a complex file holds one object, got {type(data).__name__}")

    def elements(key, cls):
        items = data[key]
        if type(items) is not list:
            raise ValueError(f"{key} must be a list of objects, got {items!r}")
        name = cls.__name__.lower()
        out = []
        for position, item in enumerate(items, start=1):
            if type(item) is not dict:
                raise ValueError(f"{name} at position {position} must be an object, got {item!r}")
            missing = next((f.name for f in fields(cls) if f.name not in item), None)
            if missing:
                raise ValueError(f"{name} at position {position}: missing key {missing!r}")
            values = {f.name: item[f.name] for f in fields(cls)}
            for f in fields(cls):
                if f.type.startswith("tuple") and type(values[f.name]) is list:
                    values[f.name] = tuple(values[f.name])
            out.append(cls(**values))
        return out

    return DegenerationComplex(rows=data["rows"], cols=data["cols"], points=elements("points", Point),
                               lines=elements("lines", Line), planes=elements("planes", Plane))


def build_torus_triangulation(m: int, n: int) -> DegenerationComplex:
    """The m x n torus triangulation with the canonical numbering.

    Grids below 3 x 3 would glue two triangles along two distinct lines,
    producing parallel edges in the dual graph, which the transposition
    constructions downstream do not model; they are rejected.
    """
    if m < 3 or n < 3:
        raise ValueError(f"unsupported grid {m} x {n}: both sides must be at least 3")
    cells = [(r, c) for r in range(m) for c in range(n)]

    def at(r, c):
        return (r % m) * n + c % n

    def line_id(kind, r, c):
        return list(ENDPOINTS).index(kind) * m * n + at(r, c) + 1

    def plane_id(half, r, c):
        return 2 * at(r, c) + (2 if half == "upper" else 1)

    points = [Point(at(r, c) + 1, r, c) for r, c in cells]
    lines = [Line(line_id(kind, r, c),
                  tuple(at(r + dr, c + dc) + 1 for dr, dc in ENDPOINTS[kind]),
                  tuple(plane_id(half, r - sides[kind][0], c - sides[kind][1])
                        for half, sides in SIDES.items()),
                  kind, (r, c))
             for kind in ENDPOINTS for r, c in cells]
    planes = sorted((Plane(plane_id(half, r, c),
                           tuple(line_id(kind, r + dr, c + dc)
                                 for kind, (dr, dc) in sides.items()),
                           (r, c), half)
                     for half, sides in SIDES.items() for r, c in cells),
                    key=lambda f: f.id)
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
    """A spanning tree's edges plus the oriented chords outside it.

    published is not a constructor argument: only spanning_data's
    paper-fixture branch sets it, after the fixture's oracle has passed.
    """

    tree_edges: list[int]
    chords: list[Chord]
    published: bool = field(default=False, init=False)

    def __post_init__(self):
        self._chord_by_line = {ch.line: ch for ch in self.chords}

    def chord_by_line(self) -> dict[int, Chord]:
        """Chords keyed by line id; shared, so callers must not mutate it."""
        return self._chord_by_line


def spanning_data(graph: DualGraph, mode: str = "canonical") -> SpanningData:
    """A spanning tree of the dual graph plus its oriented chords.

    canonical: breadth-first from the lowest vertex, edges in id order,
    chords ascending by line id and oriented from the smaller plane to the
    larger.  paper-fixture: the published tree and chord orientations of
    the 3 x 3 instance, validated against the graph and marked published;
    this branch is the only place that marks a span.
    """
    if not graph.is_connected():
        raise ValueError("spanning tree requires a connected graph")
    if mode == "canonical":
        root = min(graph.vertices)
        seen = {root}
        tree: list[int] = []
        queue = deque([root])
        while queue:
            v = queue.popleft()
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
        span = SpanningData(tree_edges=tree, chords=chords)
        span.published = True
        return span
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

