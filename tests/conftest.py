import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxlab.complexes import (DualGraph, HexagonLink, dual_graph, ends_of, hexagon_links,
                              load_paper_labeling, spanning_data)
from coxlab.fixtures import load_json
from oracle import phi_table


def graph_of(edges, vertices=None) -> DualGraph:
    """A dual graph from {line: (a, b)}, drawn on no torus, so no line
    crosses a seam; the vertices default to the endpoints."""
    vertices = sorted(vertices or {v for pair in edges.values() for v in pair})
    adjacency = {v: sorted(e for e, pair in edges.items() if v in pair) for v in vertices}
    return DualGraph(vertices=vertices, edges=dict(edges), adjacency=adjacency,
                     crossings=dict.fromkeys(edges, (0, 0)))


def relabel(data, kind: str, new_id):
    """data, the JSON form of a complex, with each id of kind ("points",
    "lines" or "planes") in its tables replaced by new_id(id)."""
    for table in [data[kind]] if kind == "points" else data[kind].values():
        for row in table:
            row[:] = map(new_id, row)
    return data


def grid_positions(tables) -> dict:
    """{id: (name, row, col)} over the {name: table} id tables of a numbering."""
    return {x: (name, r, c) for name, table in tables.items()
            for r, row in enumerate(table) for c, x in enumerate(row)}


def line_ends(x0) -> dict[int, tuple[int, int]]:
    """{line: its two point ids}, from ends_of over x0's numbering, apart
    from hexagon_links."""
    points = x0.numbering["points"]
    return {line: tuple(points[i][j] for i, j in ends_of(kind, (r, c), x0.rows, x0.cols))
            for line, (kind, r, c) in grid_positions(x0.numbering["lines"]).items()}


def connected(graph: DualGraph) -> bool:
    """Whether a walk from the lowest vertex reaches every vertex."""
    return len(graph.walk(graph.edges)) == len(graph.vertices) - 1


@pytest.fixture(scope="session")
def paper():
    """The published 3 x 3 instance with all derived structure, built once."""
    x0 = load_paper_labeling()
    graph = dual_graph(x0)
    return SimpleNamespace(
        x0=x0,
        graph=graph,
        links=hexagon_links(x0),
        span=spanning_data(graph, "paper-fixture"),
    )


@pytest.fixture(scope="session")
def spanning_with_cycle(paper):
    """t0_spanning.json with one tree line traded for a chord so that the
    tree closes a cycle; edge partition and tree size still hold."""
    data = load_json("t0_spanning.json")
    chord = data["chords"][0]
    edges = paper.graph.edges

    def breaks_tree(t):
        # Trading tree line t for the chord leaves n - 1 edges that no longer
        # connect the planes, so they close a cycle.
        kept = {e: edges[e] for e in data["tree"] if e != t} | {chord["line"]: edges[chord["line"]]}
        return not connected(graph_of(kept, paper.graph.vertices))

    t = next(t for t in data["tree"] if breaks_tree(t))
    data["tree"] = sorted(set(data["tree"]) - {t} | {chord["line"]})
    chord["line"], (chord["tail"], chord["head"]) = t, edges[t]
    return data


@pytest.fixture(scope="session")
def paper_phi(paper):
    """The edge images of the published complex, from the test oracle."""
    return phi_table(paper.span, paper.graph)


@pytest.fixture(scope="session")
def hexagon_graph():
    """A bare 6-cycle as a dual graph, with its one hexagon link.

    Edge i joins vertices i and i+1.  The vertices are 2-valent, so there
    are no fork relators; the quotient variant is the cycle-extended
    presentation whose finite image is checked by coset enumeration.
    """
    graph = graph_of({i: (i, i % 6 + 1) for i in range(1, 7)})
    link = HexagonLink(point=1, cycle=(1, 2, 3, 4, 5, 6),
                       roles=dict(zip("defabc", (1, 2, 3, 4, 5, 6))))
    return graph, [link]
