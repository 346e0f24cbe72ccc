"""Graph data model and the two-point event-graph compiler.

A :class:`Graph` is a plain undirected simple graph with optional positive
integer vertex weights, built from a tuple of edge pairs or from two arrays
of edge endpoints; each form is made from the other when first read.
:func:`build_two_point_graph` compiles a graph G into the event graph G'
whose vertices are measurement events and whose edges encode exclusivity of
events.  The events carry no label objects: vertex k < n is the single event
1|k, and vertex n + 3e + t is edge e's pair event with outcomes
``PAIR_OUTCOMES[t]``.  :class:`EventGraph` hands that layout out as index
arrays, so no other module decodes it.  Two events are exclusive when they
set one observable to different outcomes, or set two observables adjacent in
G both to 1; the compiler emits the edges of G' straight from these two
rules as endpoint arrays, which G' keeps and the alpha search reads as they
are, and the all-pairs oracle it is checked against lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Optional

import numpy as np

Edge = tuple[int, int]


def reduce_to_fields(obj) -> tuple:
    """``__reduce__`` of a dataclass that freezes its arrays: pickle and copy rebuild it
    through its constructor, so a copy's arrays are read-only too and its caches unbuilt."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    Its edges have two forms: ``edges``, sorted, deduplicated pairs of ints
    in lexicographic order, and ``edge_index``, the same pairs' first and
    second endpoints as two read-only int arrays.  ``Graph(n, edges,
    weights)`` builds a graph from the tuple and `Graph.from_edge_index`
    from the arrays; the other form is made on its first read and kept.
    ``==`` and ``hash`` compare ``(n, edges, weights)`` however the graph was
    built.  ``weights`` is either None (all weights 1) or a length-``n``
    tuple of positive integers.  Instances are immutable and safe to share.
    """

    n: int
    edges: tuple[Edge, ...]
    weights: Optional[tuple[int, ...]] = None

    @classmethod
    def from_edge_index(cls, n: int, ei: np.ndarray, ej: np.ndarray) -> Graph:
        """The unweighted graph whose k-th edge is ``(ei[k], ej[k])``, holding
        the two int arrays themselves, made read-only, as its ``edge_index``.

        The pairs must be in the order of ``edges``: ei[k] < ej[k], sorted
        lexicographically, none repeated.  The compiler of G' makes them so."""
        for ends in (ei, ej):
            ends.setflags(write=False)
        g = cls.__new__(cls)
        vars(g).update(n=n, weights=None, edge_index=(ei, ej))
        return g

    def __getattr__(self, name: str) -> tuple[Edge, ...]:
        # Reached when normal lookup fails: for ``edges``, on an array-built graph not
        # yet read.  A blank instance (pickle, copy) has no edge_index, so it raises.
        if name != "edges" or "edge_index" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ei, ej = vars(self)["edge_index"]
        edges = vars(self)["edges"] = tuple(zip(ei.tolist(), ej.tolist()))
        return edges

    def __reduce__(self) -> tuple:
        # Rebuilt through a constructor (read-only arrays); an unread G' keeps its tuple unbuilt.
        if "edges" in vars(self):
            return Graph, (self.n, self.edges, self.weights)
        return Graph.from_edge_index, (self.n, *self.edge_index)

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours in increasing order, built once per instance."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for (i, j) in self.edges:
            out[i].append(j)
            out[j].append(i)
        return tuple(tuple(sorted(nbrs)) for nbrs in out)

    @functools.cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges' first and second endpoints as read-only int arrays: the SDP,
        its checks and the alpha search index with them.  A tuple-built graph
        makes them on their first read."""
        flat = np.fromiter(
            itertools.chain.from_iterable(self.edges), dtype=int, count=2 * len(self.edges)
        )
        flat.setflags(write=False)
        return flat[0::2], flat[1::2]

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def weight(self, v: int) -> int:
        return 1 if self.weights is None else self.weights[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]


def build_graph(
    n: int,
    edges: Iterable[Iterable[int]],
    weights: Optional[Mapping[int, int]] = None,
) -> Graph:
    """Validate and normalize a graph description.

    Edges are stored with the smaller endpoint first and deduplicated.
    Weights may be given for a subset of vertices; missing vertices get
    weight 1, and an all-ones weighting normalizes to unweighted.

    Raises ValueError on out-of-range endpoints, self-loops, or weights < 1.
    """
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    norm = set()
    for e in edges:
        i, j = e
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        norm.add((min(i, j), max(i, j)))
    wtuple: Optional[tuple[int, ...]] = None
    if weights is not None:
        full = [1] * n
        for v, w in weights.items():
            v, w = int(v), int(w)
            if not (0 <= v < n):
                raise ValueError(f"weight for out-of-range vertex {v}")
            if w < 1:
                raise ValueError(f"weight of vertex {v} must be >= 1, got {w}")
            full[v] = w
        if any(w != 1 for w in full):
            wtuple = tuple(full)
    return Graph(n=n, edges=tuple(sorted(norm)), weights=wtuple)


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def expand_weighted(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Blow up integer vertex weights into vertex copies.

    A vertex of weight w becomes w mutually non-adjacent copies, each copy
    adjacent to every copy of every neighbor of the original vertex.  Returns
    the unweighted blow-up together with a provenance map: entry k is the
    source vertex of new vertex k.  This is the unique expansion for which
    the independence number and the Lovasz number of the blow-up equal the
    weighted invariants of the input.
    """
    first = []
    provenance = []
    for v in range(g.n):
        first.append(len(provenance))
        provenance.extend([v] * g.weight(v))
    copies = [range(first[v], first[v] + g.weight(v)) for v in range(g.n)]
    edges = []
    for (i, j) in g.edges:
        for a in copies[i]:
            for b in copies[j]:
                edges.append((a, b))
    return build_graph(len(provenance), edges), tuple(provenance)


PAIR_OUTCOMES: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0))


def _pair_events(g: Graph) -> np.ndarray:
    """Row e: the vertices of G' that hold source edge e's pair events, one per
    entry of PAIR_OUTCOMES, as a read-only (|E|, 3) int array."""
    triples = g.n + np.arange(3 * len(g.edges)).reshape(-1, 3)
    triples.setflags(write=False)
    return triples


@dataclass(frozen=True)
class EventGraph:
    """The compiled two-point event graph G' of a source graph G.

    Its vertices are the n + 3|E| events, laid out by index: vertex k < n is
    the single event 1|k, and vertex n + 3e + t is source edge e's pair event
    with outcomes ``PAIR_OUTCOMES[t]``.  This module alone knows that layout;
    everything else reads it through `triples`, `blocks`, `events` and
    `assignments`.  Edges are exactly the exclusive event pairs.

    ``graph`` is G' itself, built by the compiler from its endpoint arrays:
    `as_graph` hands out that one instance, whose ``edge_index`` the alpha
    search and the checks read, and `edges` is its tuple view, built on the
    first read and the same object on every read after.
    """

    source: Graph
    graph: Graph

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges of G' as a tuple of pairs: ``graph.edges``."""
        return self.graph.edges

    def as_graph(self) -> Graph:
        """The event graph as a plain unweighted graph: ``graph``, the same
        instance on every call."""
        return self.graph

    @functools.cached_property
    def triples(self) -> np.ndarray:
        """Each source edge's three pair events, built once per instance."""
        return _pair_events(self.source)

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The block partition of G': the single events of the source vertices,
        in vertex order, and the (|E|, 3) `triples` of pair events."""
        return np.arange(self.source.n), self.triples

    @functools.cached_property
    def events(self) -> tuple[np.ndarray, np.ndarray]:
        """Each event's observables and outcomes as read-only (n', 2) int arrays,
        built once per instance.

        Row k is event k as the assignment ``dict(zip(obs[k], out[k]))``: edge
        (i, j)'s pair event with outcomes (a, b) reads (i, j) and (a, b), and the
        single event 1|i reads (i, i) and (1, 1)."""
        singles, triples = self.blocks()
        obs = np.empty((self.n, 2), dtype=int)
        out = np.empty((self.n, 2), dtype=int)
        obs[singles] = singles[:, None]
        out[singles] = 1
        obs[triples] = np.stack(self.source.edge_index, axis=1)[:, None, :]
        out[triples] = PAIR_OUTCOMES
        obs.setflags(write=False)
        out.setflags(write=False)
        return obs, out

    def assignments(self) -> list[dict[int, int]]:
        """Each event as the outcomes it assigns, ``{observable: outcome}``: one
        observable for a single event, two for a pair event."""
        obs, out = self.events
        return [dict(zip(o, u)) for o, u in zip(obs.tolist(), out.tolist())]


def build_two_point_graph(g: Graph) -> EventGraph:
    """Compile G into its two-point event graph G'.

    The result has n(G) + 3|E(G)| vertices, laid out as `EventGraph` says.
    Two events are exclusive, and joined by an edge, when they cannot both
    occur:

    (a) one sets an observable o to 1 and the other sets o to 0, or
    (b) one sets o_1 to 1 and the other sets o_2 to 1, with (o_1, o_2) an
        edge of G (adjacent observables carry orthogonal projectors).

    The edges are emitted rule by rule from the events that set each
    observable to 1 and to 0.  All the rules' products are expanded into two
    index arrays at once, each pair is coded as ``min * n' + max``, and the
    sorted codes lose the pairs that both rules emit, so time and memory are
    O(|E(G')|) and no n' x n' array is built.  The codes split into the
    endpoint arrays of G', which `EventGraph.graph` holds; no edge tuple is
    built until something reads `EventGraph.edges`.  The all-pairs oracle
    the edges are tested against lives in ``tests/oracles.py``.
    Weighted graphs must be expanded with :func:`expand_weighted` first.
    """
    if g.is_weighted:
        raise ValueError("expand weighted graphs with expand_weighted before compiling")
    # ones[o] and zeros[o]: the events that set observable o to 1 and to 0.
    ones: list[list[int]] = [[i] for i in range(g.n)]
    zeros: list[list[int]] = [[] for _ in range(g.n)]
    for (i, j), triple in zip(g.edges, _pair_events(g).tolist()):
        for k, (a, b) in zip(triple, PAIR_OUTCOMES):
            (ones if a else zeros)[i].append(k)
            (ones if b else zeros)[j].append(k)
    # Rule (a) pairs ones[o] with zeros[o]; rule (b) ones[i] with ones[j] per edge.
    p, q = _group_products(
        ones + [ones[i] for (i, _) in g.edges], zeros + [ones[j] for (_, j) in g.edges]
    )
    n_prime = g.n + 3 * len(g.edges)
    codes = np.sort(np.minimum(p, q) * n_prime + np.maximum(p, q))
    # np.unique would do, but its hash pass (numpy >= 2.3) is slower than the sort
    codes = codes[np.diff(codes, prepend=-1) != 0]
    return EventGraph(source=g, graph=Graph.from_edge_index(n_prime, *np.divmod(codes, n_prime)))


def _group_products(
    left: list[list[int]], right: list[list[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Every (p, q) with p in left[k] and q in right[k], over all k, as two
    int64 arrays: one CSR-style expansion, not a loop over the groups."""
    def flat(groups: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        values = np.fromiter(
            itertools.chain.from_iterable(groups), dtype=np.int64, count=int(sizes.sum())
        )
        return values, np.cumsum(sizes) - sizes, sizes

    lvals, lstart, lsize = flat(left)
    rvals, rstart, rsize = flat(right)
    counts = lsize * rsize
    group = np.repeat(np.arange(len(counts)), counts)
    # r: each product's rank within its group, row-major over left x right
    r = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    width = rsize[group]
    return lvals[lstart[group] + r // width], rvals[rstart[group] + r % width]
