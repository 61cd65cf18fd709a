import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxlab import model
from coxlab.complexes import (DualGraph, HexagonLink, dual_graph, hexagon_links,
                              load_paper_labeling, spanning_data)
from coxlab.fixtures import load_json


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
        adjacency = {v: [e for e, pair in kept.items() if v in pair] for v in paper.graph.vertices}
        return not DualGraph(paper.graph.vertices, kept, adjacency).is_connected()

    t = next(t for t in data["tree"] if breaks_tree(t))
    data["tree"] = sorted(set(data["tree"]) - {t} | {chord["line"]})
    chord["line"], (chord["tail"], chord["head"]) = t, edges[t]
    return data


@pytest.fixture(scope="session")
def paper_phi(paper):
    return model.phi_table(paper.span, paper.graph)


@pytest.fixture(scope="session")
def hexagon_graph():
    """A bare 6-cycle as a dual graph, with its one hexagon link.

    Edge i joins vertices i and i+1.  The vertices are 2-valent, so there
    are no fork relators; the quotient variant is the cycle-extended
    presentation whose finite image is checked by coset enumeration.
    """
    edges = {i: (i, i % 6 + 1) for i in range(1, 7)}
    adjacency = {v: sorted(e for e, pair in edges.items() if v in pair) for v in range(1, 7)}
    graph = DualGraph(vertices=list(range(1, 7)), edges=edges, adjacency=adjacency)
    link = HexagonLink(point=1, cycle=(1, 2, 3, 4, 5, 6),
                       roles=dict(zip("defabc", (1, 2, 3, 4, 5, 6))))
    return graph, [link]
