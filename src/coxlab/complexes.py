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

Rows increase downward; wrap takes rows mod m and columns mod n, and
crossing counts the seams a line crosses from its first plane to its
second.  Summed around a chord's fundamental cycle they give its weight,
the cycle's class in H_1(T^2, Z) = Z^2 (Hatcher, Algebraic Topology,
2.2).  A line's roles at its two ends are ROLES.  The instance of record is the 3 x 3
complex with its published irregular numbering, shipped as the fixture
``tt33.json`` and checked against anchors on every load.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from itertools import product
from operator import attrgetter, itemgetter

from . import fixtures
from .perm import compose, identity, transposition

# The ends of the line of each kind at cell (r, c), as offsets from (r, c),
# and the roles it takes at its first and at its second end.
ENDPOINTS = {"h": ((0, 0), (0, 1)), "v": ((0, 0), (1, 0)), "d": ((0, 1), (1, 0))}
ROLES = {"h": "da", "v": "eb", "d": "fc"}

# The h, v and d sides of each half of cell (r, c), as offsets from (r, c):
# the upper half lies above the cell's diagonal, the lower half below it.
SIDES = {"upper": {"h": (0, 0), "v": (0, 0), "d": (0, 0)},
         "lower": {"h": (1, 0), "v": (0, 1), "d": (0, 0)}}


def wrap(row: int, col: int, m: int, n: int):
    return row % m, col % n


def crossing(first, second, m: int, n: int):
    """The (row, col) seams crossed from cell first to a neighbouring cell
    second: +1 past the last row or column, -1 back."""
    (fr, fc), (gr, gc) = first, second
    return -((gr - fr + 1) // m), -((gc - fc + 1) // n)


def ends_of(kind: str, cell, m: int, n: int):
    """The two end cells of the kind line at cell."""
    (r, c), ((dr, dc), (er, ec)) = cell, ENDPOINTS[kind]
    return wrap(r + dr, c + dc, m, n), wrap(r + er, c + ec, m, n)


def sides_of(half: str, cell, m: int, n: int):
    """The (kind, row, col) of each side of the half plane at cell."""
    r, c = cell
    return [(kind, *wrap(r + dr, c + dc, m, n)) for kind, (dr, dc) in SIDES[half].items()]


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
    """A complex and its lookup dicts, checked by validate on construction;
    field types are trusted, as complex_from_json checks those of a file."""

    rows: int
    cols: int
    points: list[Point]
    lines: list[Line]
    planes: list[Plane]

    line_by_id: dict[int, Line] = field(init=False, repr=False)
    plane_by_id: dict[int, Plane] = field(init=False, repr=False)

    def __post_init__(self):
        self.line_by_id = {l.id: l for l in self.lines}
        self.plane_by_id = {f.id: f for f in self.planes}
        self.validate()

    def validate(self):
        """Counts, ids, grid geometry and incidence; ValueError if not."""
        m, n = self.rows, self.cols
        if type(m) is not int or type(n) is not int or min(m, n) < 3:
            raise ValueError(f"rows and cols must be integers of at least 3, got {m!r} and {n!r}")
        counts = (len(self.points), len(self.lines), len(self.planes))
        if counts != (m * n, 3 * m * n, 2 * m * n):
            raise ValueError(f"expected {m * n} points, {3 * m * n} lines and {2 * m * n} planes, "
                             f"got {counts[0]}, {counts[1]} and {counts[2]}")
        if len({p.id for p in self.points}) != m * n:
            raise ValueError("point ids must be unique")
        for kind, ids, count in (("line", self.line_by_id, 3 * m * n),
                                 ("plane", self.plane_by_id, 2 * m * n)):
            if set(ids) != set(range(1, count + 1)):
                raise ValueError(f"{kind} ids must be exactly 1..{count}")
        at = {(p.row, p.col): p.id for p in self.points}
        if len(at) != m * n or not all(_on_grid(cell, m, n) for cell in at):
            raise ValueError(f"point (row, col) values must be distinct cells of the {m} x {n} grid")
        line_at = {(l.kind, *l.cell): l.id for l in self.lines}
        if len(line_at) != len(self.lines):
            raise ValueError("two lines share a kind and cell")
        for line in self.lines:
            if line.kind not in ENDPOINTS or not _on_grid(line.cell, m, n):
                raise ValueError(f"line {line.id}: kind {line.kind!r} at cell {list(line.cell)} "
                                 f"is not an h, v or d line of the {m} x {n} grid")
            ends = {at[end] for end in ends_of(line.kind, line.cell, m, n)}
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
            sides = {line_at[side] for side in sides_of(plane.half, plane.cell, m, n)}
            if len(plane.lines) != 3 or set(plane.lines) != sides:
                raise ValueError(f"plane {plane.id} is bounded by lines {list(plane.lines)}, "
                                 f"but its half and cell give {sorted(sides)}")
        if len({(f.half, f.cell) for f in self.planes}) != len(self.planes):
            raise ValueError("two planes share a half and cell")

    def to_json(self) -> dict:
        """Each element as its dataclass fields, tuples as lists."""
        def rows(items, cls):
            names = [f.name for f in fields(cls)]
            return [{name: list(v) if type(v := getattr(item, name)) is tuple else v for name in names}
                    for item in items]

        return {"rows": self.rows, "cols": self.cols, "points": rows(self.points, Point),
                "lines": rows(self.lines, Line), "planes": rows(self.planes, Plane)}


def _on_grid(cell, m: int, n: int) -> bool:
    return len(cell) == 2 and all(0 <= x < size for x, size in zip(cell, (m, n)))


def complex_from_json(data: dict) -> DegenerationComplex:
    """A complex from its JSON form; ValueError naming the element and rule if not.

    Each element is an object holding every field of its class.  Ids,
    coordinates and incidence entries are integers (bools rejected), kind
    and half are strings, and tuple-typed fields are lists, which become
    tuples.  Counts, ids and geometry are left to validate.
    """
    if type(data) is not dict:
        raise ValueError(f"a complex file holds one object, got {type(data).__name__}")

    def elements(key, cls):
        items = data[key]
        if type(items) is not list:
            raise ValueError(f"{key} must be a list of objects, got {items!r}")
        name = cls.__name__.lower()
        cls_fields = fields(cls)
        out = []
        for position, item in enumerate(items, start=1):
            if type(item) is not dict:
                raise ValueError(f"{name} at position {position} must be an object, got {item!r}")
            missing = next((f.name for f in cls_fields if f.name not in item), None)
            if missing:
                raise ValueError(f"{name} at position {position}: missing key {missing!r}")
            values = {}
            for f in cls_fields:
                value = item[f.name]
                if f.type == "str":
                    ok, want = type(value) is str, "a string"
                elif f.type.startswith("tuple"):
                    ok = type(value) is list and all(type(x) is int for x in value)
                    want = "a list of integers"
                else:
                    ok, want = type(value) is int, "an integer"
                if not ok:
                    # id comes first, so a later field is named by it once it passed.
                    label = values.get("id", f"at position {position}")
                    raise ValueError(f"{name} {label}: {f.name} must be {want}, got {value!r}")
                values[f.name] = tuple(value) if type(value) is list else value
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
    point_id = {cell: k for k, cell in enumerate(cells, start=1)}
    line_id = {(kind, *cell): k for k, (kind, cell) in enumerate(product(ENDPOINTS, cells), 1)}
    plane_id = {(half, *cell): k for k, (cell, half) in enumerate(product(cells, ["lower", "upper"]), 1)}
    planes, line_planes = [], {key: [] for key in line_id}
    # Halves in SIDES order, so each line lists its upper plane first.
    for half, cell in product(SIDES, cells):
        sides, pid = sides_of(half, cell, m, n), plane_id[(half, *cell)]
        planes.append(Plane(pid, tuple(line_id[side] for side in sides), cell, half))
        for side in sides:
            line_planes[side].append(pid)
    planes.sort(key=attrgetter("id"))
    points = [Point(k, *cell) for cell, k in point_id.items()]
    lines = [Line(k, tuple(point_id[end] for end in ends_of(kind, (r, c), m, n)),
                  tuple(line_planes[kind, r, c]), kind, (r, c))
             for (kind, r, c), k in line_id.items()]
    return DegenerationComplex(rows=m, cols=n, points=points, lines=lines, planes=planes)


@dataclass
class DualGraph:
    """One vertex per plane, one edge per line."""

    vertices: list[int]
    edges: dict[int, tuple[int, int]]       # line id -> plane pair
    adjacency: dict[int, list[int]]         # plane id -> incident line ids, ascending
    crossings: dict[int, tuple[int, int]]   # line id -> crossing from its first plane

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def walk(self, lines) -> list[int]:
        """The lines, among the given ones, by which a breadth-first walk from
        the lowest vertex, taking edges in id order, first reaches each other
        vertex; it spans the graph when it returns len(vertices) - 1 lines."""
        root = min(self.vertices)
        seen = {root}
        tree: list[int] = []
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for e in self.adjacency[v]:
                w = self.other_end(e, v)
                if e in lines and w not in seen:
                    seen.add(w)
                    tree.append(e)
                    queue.append(w)
        return tree

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
    cell = x0.plane_by_id
    crossings = {e: crossing(cell[f].cell, cell[g].cell, x0.rows, x0.cols) for e, (f, g) in edges.items()}
    return DualGraph(vertices=vertices, edges=edges, adjacency=adjacency, crossings=crossings)


@dataclass(frozen=True)
class HexagonLink:
    """The six lines around one point, in cyclic order, with their roles."""

    point: int
    cycle: tuple[int, int, int, int, int, int]      # order (d, e, f, a, b, c)
    roles: dict[str, int]


def hexagon_links(x0: DegenerationComplex) -> list[HexagonLink]:
    """One link per point; a line takes the ROLES of its kind at its two ends."""
    roles_at = {(p.row, p.col): {} for p in x0.points}
    for line in x0.lines:
        (first, second), (a, b) = ends_of(line.kind, line.cell, x0.rows, x0.cols), ROLES[line.kind]
        roles_at[first][a] = roles_at[second][b] = line.id
    cycle = itemgetter(*"defabc")
    links = []
    for p in sorted(x0.points, key=attrgetter("id")):
        roles = dict(sorted(roles_at[p.row, p.col].items()))
        links.append(HexagonLink(point=p.id, cycle=cycle(roles), roles=roles))
    return links


@dataclass(frozen=True)
class Chord:
    """A directed edge outside the spanning tree, weighed by the (-rows,
    cols) that its fundamental cycle winds around the torus."""

    index: int      # 1-based position among the chords
    line: int
    tail: int
    head: int
    weight: tuple[int, int]


@dataclass
class SpanningData:
    """A spanning tree's edges plus the oriented chords outside it, keyed
    by line id in index order."""

    tree_edges: list[int]
    chords: dict[int, Chord]

    @cached_property
    def weights(self) -> dict[int, tuple[int, int]]:
        """{chord index: weight}, read off chords once."""
        return {ch.index: ch.weight for ch in self.chords.values()}


def spanning_data(graph: DualGraph, mode: str = "canonical") -> SpanningData:
    """A spanning tree of the dual graph plus its oriented, weighted chords.

    canonical: breadth-first from the lowest vertex, edges in id order,
    chords ascending by line id and oriented from the smaller plane to the
    larger.  paper-fixture: the published tree and chord orientations of
    the 3 x 3 instance, validated against the graph.
    """
    tree = graph.walk(graph.edges)
    if len(tree) != len(graph.vertices) - 1:
        raise ValueError("spanning tree requires a connected graph")
    if mode == "canonical":
        tree_set = set(tree)
        ends = [(e, *sorted(graph.edges[e])) for e in sorted(graph.edges) if e not in tree_set]
        return SpanningData(tree_edges=sorted(tree), chords=_chords(graph, tree, ends))
    if mode == "paper-fixture":
        return fixtures.load("t0_spanning.json", lambda data: _published_span(graph, data))
    raise ValueError(f"unknown spanning mode: {mode}")


def _chords(graph: DualGraph, walked, ends) -> dict[int, Chord]:
    """Chords 1, 2, ... on the (line, tail, head) ends, keyed by line, each
    weighed by its cycle: tail to head by the chord, back by the tree.
    walked lists the tree lines in the order a walk from the root took them."""
    lift = {min(graph.vertices): (0, 0)}
    for e in walked:
        f, g = graph.edges[e]
        sign, near, far = (1, f, g) if f in lift else (-1, g, f)
        lift[far] = tuple(x + sign * d for x, d in zip(lift[near], graph.crossings[e]))
    chords = {}
    for index, (line, tail, head) in enumerate(ends, start=1):
        sign = 1 if graph.edges[line][0] == tail else -1
        rows, cols = (sign * d + t - h for d, t, h in zip(graph.crossings[line], lift[tail], lift[head]))
        chords[line] = Chord(index, line, tail, head, (-rows, cols))
    return chords


def _published_span(graph: DualGraph, data) -> SpanningData:
    """The tree and chords of a t0_spanning.json document, checked against
    graph.  Every check reads the fixture's chord list; only then are the
    chords weighed and keyed by line."""
    if type(data) is not dict:
        raise ValueError(f"a spanning fixture holds one object, got {type(data).__name__}")
    tree, items = data["tree"], data["chords"]
    if type(tree) is not list or type(items) is not list or any(type(ch) is not dict for ch in items):
        raise ValueError("tree must be a list and chords a list of objects")
    # A fixture chord holds no weight: it is derived below.
    chords = [Chord(**ch, weight=None) for ch in items]
    if any(type(x) is not int for x in tree + [v for ch in items for v in ch.values()]):
        raise ValueError("tree lines and chord index, line, tail and head must be integers")
    # Each line once, in the tree or as a chord: a line listed twice fails too.
    if sorted(tree + [c.line for c in chords]) != sorted(graph.edges):
        raise ValueError("spanning fixture does not partition the edge set")
    if len(tree) != len(graph.vertices) - 1:
        raise ValueError("spanning fixture has the wrong tree size")
    # n - 1 lines that reach every plane form a spanning tree.
    walked = graph.walk(set(tree))
    if len(walked) != len(tree):
        raise ValueError("spanning fixture tree has a cycle")
    for ch in chords:
        if set((ch.tail, ch.head)) != set(graph.edges[ch.line]):
            raise ValueError(f"chord {ch.line} endpoints disagree with the graph")
    if [ch.index for ch in chords] != list(range(1, len(chords) + 1)):
        raise ValueError("chord indices are not 1..t")
    ends = [(ch.line, ch.tail, ch.head) for ch in chords]
    return SpanningData(tree_edges=tree, chords=_chords(graph, walked, ends))


# -- the published 3 x 3 labeling ------------------------------------------

def load_paper_labeling() -> DegenerationComplex:
    """The 3 x 3 complex with the published line and point numbering.

    A fixture that fails complex_from_json or check_paper_fixture raises
    CorruptFixtureError; none is patched.
    """
    return fixtures.load("tt33.json", lambda data: check_paper_fixture(complex_from_json(data)))


def is_paper_labeling(x0: DegenerationComplex) -> bool:
    """Whether x0 passes check_paper_fixture; reads no fixture file."""
    try:
        check_paper_fixture(x0)
    except (ValueError, KeyError):
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


def check_paper_fixture(x0: DegenerationComplex) -> DegenerationComplex:
    """Every textual anchor of the published labeling, checked at once; returns
    x0, or raises ValueError naming the first anchor that fails.  Reads no
    fixture: the 43-pair table is checked by its own loader."""
    if (x0.rows, x0.cols) != (3, 3):
        raise ValueError("published labeling is a 3 x 3 complex")
    links = {link.point: link for link in hexagon_links(x0)}
    for point in sorted({*HEXAGON_ANCHORS, *(point for point, _, _ in ROLE_ANCHORS)}):
        if point not in links:
            raise ValueError(f"anchor point {point} is not a point of the complex")
    for point, expected in HEXAGON_ANCHORS.items():
        got = set(links[point].cycle)
        if got != expected:
            raise ValueError(f"hexagon of point {point}: {sorted(got)} != {sorted(expected)}")
    for point, role, line in ROLE_ANCHORS:
        if links[point].roles[role] != line:
            raise ValueError(
                f"role {role} at point {point} is line {links[point].roles[role]}, expected {line}")

    # Two moved planes are swapped: a permutation moving only a and b sends a to b.
    for name, expected in WITNESS_TRANSPOSITIONS.items():
        moved = sorted(psi_image(x0, witness_words()[name]))
        if moved != list(expected):
            raise ValueError(f"witness image {name} moves planes {moved}, expected {list(expected)}")
    return x0


def psi_image(x0: DegenerationComplex, word) -> dict[int, int]:
    """Product of the line transpositions of a word, left to right, as
    {plane: image} over the planes it moves."""
    n = len(x0.planes)
    return reduce(compose, (transposition(*x0.line_by_id[abs(letter)].planes, n) for letter in word),
                  identity())


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

