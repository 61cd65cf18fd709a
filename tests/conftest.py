import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxlab import model
from coxlab.complexes import (DualGraph, HexagonLink, dual_graph, hexagon_links,
                              load_paper_labeling, spanning_data)


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
