"""Named graphs used throughout tests and the command line."""

from __future__ import annotations

import re

from .graphs import Graph, build_graph, complete_graph, cycle_graph

_FIXED = {
    "c5": "the pentagon (KCBS graph): classical bound 2, quantum maximum sqrt(5)",
    "petersen": "the Petersen graph",
    "chsh-circulant": "8-vertex circulant Ci8(1,4), the CHSH exclusivity graph",
    "fig2-k2": "a single edge, the smallest graph whose compilation is nontrivial",
}
_PATTERNS = {
    "c<n>": "odd cycle on n >= 3 vertices, e.g. c7",
    "k<n>": "complete graph on n vertices, e.g. k4",
    "empty<n>": "edgeless graph on n vertices, e.g. empty6",
}


def catalog_names() -> dict[str, str]:
    """Available catalog entries and patterns with short descriptions."""
    out = dict(_FIXED)
    out.update(_PATTERNS)
    return out


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def chsh_circulant() -> Graph:
    # Vertices adjacent at circular distances 1 and 4: 12 edges, alpha 3,
    # theta 2 + sqrt(2).
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(i, (i + 4) % 8) for i in range(4)]
    return build_graph(8, edges)


def catalog(name: str) -> Graph:
    """Look up a named graph; unknown names raise with the available entries."""
    key = name.strip().lower()
    if key == "petersen":
        return petersen_graph()
    if key == "chsh-circulant":
        return chsh_circulant()
    if key == "fig2-k2":
        return complete_graph(2)
    m = re.fullmatch(r"c(\d+)", key)
    if m:
        n = int(m.group(1))
        if n % 2 == 0 and n >= 3:  # below 3, cycle_graph refuses the cycle itself
            raise ValueError(f"only odd cycles are catalogued, got c{n}")
        return cycle_graph(n)
    m = re.fullmatch(r"k(\d+)", key)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ValueError("complete graph needs n >= 1")
        return complete_graph(n)
    m = re.fullmatch(r"empty(\d+)", key)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ValueError("empty graph needs n >= 1")
        return build_graph(n, [])
    listing = ", ".join(sorted(catalog_names()))
    raise ValueError(f"unknown catalog name {name!r}; available: {listing}")
