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
2.2).  A line's roles at its two ends are ROLES.

A complex is fixed by rows, cols and its numbering: the ids of the points,
of the h, v and d lines and of the upper and lower planes, each as a table
by grid position.  That is all a complex file holds; build_torus_triangulation
derives every incidence from it, for a generated grid, a file and the
fixture alike.  The instance of record is the 3 x 3 complex with its
published irregular numbering, shipped as the fixture ``tt33.json`` and
checked against anchors on every load.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, product
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
    """A complex: its numbering, the elements build_torus_triangulation
    derives from it, and their lookup dicts."""

    rows: int
    cols: int
    numbering: dict     # {"points": ids, "lines": {kind: ids}, "planes": {half: ids}}, ids by grid position
    points: list[Point]
    lines: list[Line]
    planes: list[Plane]

    line_by_id: dict[int, Line] = field(init=False, repr=False)
    plane_by_id: dict[int, Plane] = field(init=False, repr=False)

    def __post_init__(self):
        self.line_by_id = {l.id: l for l in self.lines}
        self.plane_by_id = {f.id: f for f in self.planes}

    def to_json(self) -> dict:
        """The complex file: rows, cols and the numbering."""
        return {"rows": self.rows, "cols": self.cols, **self.numbering}


def _require_keys(value, keys, what: str) -> None:
    """ValueError unless value is an object with exactly the given keys."""
    if type(value) is not dict:
        raise ValueError(f"{what} must be an object keyed {', '.join(sorted(keys))}, got {type(value).__name__}")
    for key in sorted(keys - value.keys()):
        raise ValueError(f"{what}: missing key {key!r}")
    for key in sorted(value.keys() - keys):
        raise ValueError(f"{what}: unexpected key {key!r}")


def complex_from_json(data) -> DegenerationComplex:
    """A complex from its JSON form, rows, cols and the numbering; ValueError
    naming the rule if not.

    Each table is rows lists of cols integers (bools rejected), and each
    kind's ids are exactly 1..its count: lines are the generator letters and
    planes the points the permutations act on.  Incidence is not read; the
    builder derives it.
    """
    if type(data) is not dict:
        raise ValueError(f"a complex file holds one object, got {type(data).__name__}")
    _require_keys(data, {"rows", "cols", "points", "lines", "planes"}, "a complex file")
    m, n = data["rows"], data["cols"]
    if type(m) is not int or type(n) is not int or min(m, n) < 3:
        raise ValueError(f"rows and cols must be integers of at least 3, got {m!r} and {n!r}")
    for key, names in (("points", None), ("lines", ENDPOINTS), ("planes", SIDES)):
        if names:
            _require_keys(data[key], names.keys(), key)
        tables = {f"{key} {name}": data[key][name] for name in names} if names else {key: data[key]}
        for label, table in tables.items():
            if type(table) is not list or len(table) != m or any(
                    type(row) is not list or len(row) != n for row in table):
                raise ValueError(f"{label} must be {m} rows of {n} ids")
            for x in chain.from_iterable(table):
                if type(x) is not int:
                    raise ValueError(f"{label}: ids must be integers, got {x!r}")
        ids = [x for table in tables.values() for x in chain.from_iterable(table)]
        if set(ids) != set(range(1, len(ids) + 1)):
            raise ValueError(f"{key[:-1]} ids must be exactly 1..{len(ids)}")
    return build_torus_triangulation(m, n, {key: data[key] for key in ("points", "lines", "planes")})


def _canonical_numbering(m: int, n: int) -> dict:
    """Points, then h, v and d lines, row by row; the lower then the upper
    half of each cell in turn."""
    def ids(first, step=1):
        return [[first + step * (r * n + c) for c in range(n)] for r in range(m)]

    return {"points": ids(1), "lines": {kind: ids(1 + k * m * n) for k, kind in enumerate(ENDPOINTS)},
            "planes": {"lower": ids(1, 2), "upper": ids(2, 2)}}


def build_torus_triangulation(m: int, n: int, numbering: dict | None = None) -> DegenerationComplex:
    """The m x n torus triangulation under numbering, the id tables of
    DegenerationComplex, by default the canonical one.  numbering is
    trusted: complex_from_json checks those of a file.

    Each line's points and planes and each plane's lines are derived from
    ends_of and sides_of; a line lists its upper plane first.  Grids below
    3 x 3 would glue two triangles along two distinct lines, producing
    parallel edges in the dual graph, which the transposition constructions
    downstream do not model; they are rejected.
    """
    if m < 3 or n < 3:
        raise ValueError(f"unsupported grid {m} x {n}: both sides must be at least 3")
    numbering = numbering or _canonical_numbering(m, n)
    point_ids, line_ids, plane_ids = (numbering[key] for key in ("points", "lines", "planes"))
    cells = list(product(range(m), range(n)))
    planes, line_planes = [], defaultdict(list)
    # Halves in SIDES order, so each line lists its upper plane first.
    for half, cell in product(SIDES, cells):
        sides = sides_of(half, cell, m, n)
        planes.append(Plane(plane_ids[half][cell[0]][cell[1]],
                            tuple(line_ids[kind][r][c] for kind, r, c in sides), cell, half))
        for side in sides:
            line_planes[side].append(planes[-1].id)
    points = [Point(point_ids[r][c], r, c) for r, c in cells]
    lines = [Line(line_ids[kind][r][c], tuple(point_ids[i][j] for i, j in ends_of(kind, (r, c), m, n)),
                  tuple(line_planes[kind, r, c]), kind, (r, c))
             for kind, (r, c) in product(ENDPOINTS, cells)]
    by_id = attrgetter("id")
    return DegenerationComplex(m, n, numbering, sorted(points, key=by_id), sorted(lines, key=by_id),
                               sorted(planes, key=by_id))


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
    except ValueError:
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

