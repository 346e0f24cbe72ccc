"""Graph data model and the two-point event-graph compiler.

A :class:`Graph` is a plain undirected simple graph with optional positive
integer vertex weights.  :func:`build_two_point_graph` compiles a graph G into
the event graph G' whose vertices are measurement events (single-observable
outcomes and pair-outcome events, three per edge) and whose edges encode
exclusivity of events.  Two events are exclusive when they set one
observable to different outcomes, or set two observables adjacent in G both
to 1; the compiler emits the edges of G' straight from these two rules, and the
all-pairs oracle it is checked against lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    ``edges`` holds sorted, deduplicated pairs in lexicographic order.
    ``weights`` is either None (all weights 1) or a length-``n`` tuple of
    positive integers.  Instances are immutable and safe to share.
    """

    n: int
    edges: tuple[Edge, ...]
    weights: Optional[tuple[int, ...]] = None

    @functools.cached_property
    def edge_set(self) -> frozenset[Edge]:
        # Built once per instance: simulate and complement query it repeatedly.
        return frozenset(self.edges)

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
        """The edges' first and second endpoints as read-only int arrays, built once
        per instance: the SDP and its checks index matrices with them."""
        ei = np.fromiter((e[0] for e in self.edges), dtype=int, count=len(self.edges))
        ej = np.fromiter((e[1] for e in self.edges), dtype=int, count=len(self.edges))
        ei.setflags(write=False)
        ej.setflags(write=False)
        return ei, ej

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def weight(self, v: int) -> int:
        return 1 if self.weights is None else self.weights[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

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


def complement(g: Graph) -> Graph:
    """Edge present in the output iff absent in the input; weights dropped."""
    present = g.edge_set
    edges = [
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if (i, j) not in present
    ]
    return build_graph(g.n, edges)


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


@dataclass(frozen=True)
class SingleEvent:
    """Outcome assignment to one observable: ``outcome | obs``."""

    obs: int
    outcome: int

    def __post_init__(self) -> None:
        if self.outcome not in (0, 1):
            raise ValueError(f"outcome must be a bit, got {self.outcome}")

    def assignments(self) -> dict[int, int]:
        return {self.obs: self.outcome}


@dataclass(frozen=True)
class PairEvent:
    """Joint outcome assignment to two observables measured together.

    By convention ``obs_a < obs_b``; pair events are only meaningful for
    observables joined by an edge of the source graph.
    """

    obs_a: int
    obs_b: int
    outcome_a: int
    outcome_b: int

    def __post_init__(self) -> None:
        if self.obs_a >= self.obs_b:
            raise ValueError(f"pair events require obs_a < obs_b, got ({self.obs_a},{self.obs_b})")
        if self.outcome_a not in (0, 1) or self.outcome_b not in (0, 1):
            raise ValueError("pair outcomes must be bits")

    def assignments(self) -> dict[int, int]:
        return {self.obs_a: self.outcome_a, self.obs_b: self.outcome_b}


EventLabel = Union[SingleEvent, PairEvent]


PAIR_OUTCOMES: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0))


@dataclass(frozen=True)
class EventGraph:
    """The compiled two-point event graph G' of a source graph G.

    Vertex order: one ``SingleEvent(i, 1)`` per source vertex in vertex
    order, then per source edge (in edge order) the three pair events with
    outcomes (0,0), (0,1), (1,0).  Edges are exactly the exclusive label
    pairs.
    """

    source: Graph
    labels: tuple[EventLabel, ...]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def as_graph(self) -> Graph:
        """The event graph as a plain unweighted graph."""
        return Graph(n=self.n, edges=self.edges, weights=None)

    def blocks(self) -> tuple[list[int], list[list[int]]]:
        """The block partition of G', read off the labels: each source vertex's
        single event in vertex order, then each source edge's three pair events."""
        singles = [-1] * self.source.n
        triples: dict[Edge, list[int]] = {e: [] for e in self.source.edges}
        for k, label in enumerate(self.labels):
            if isinstance(label, PairEvent):
                triples[(label.obs_a, label.obs_b)].append(k)
            else:
                singles[label.obs] = k
        return singles, list(triples.values())


def build_two_point_graph(g: Graph) -> EventGraph:
    """Compile G into its two-point event graph G'.

    The result has n(G) + 3|E(G)| vertices.  Two events are exclusive, and
    joined by an edge, when they cannot both occur:

    (a) one sets an observable o to 1 and the other sets o to 0, or
    (b) one sets o_1 to 1 and the other sets o_2 to 1, with (o_1, o_2) an
        edge of G (adjacent observables carry orthogonal projectors).

    The edges are emitted rule by rule from the events that set each
    observable to 1 and to 0.  All the rules' products are expanded into two
    index arrays at once, each pair is coded as ``min * n' + max``, and the
    sorted codes lose the pairs that both rules emit, so time and memory are
    O(|E(G')|) and no n' x n' array is built.  The label-pair oracle the
    edges are tested against lives in ``tests/oracles.py``.
    Weighted graphs must be expanded with :func:`expand_weighted` first.
    """
    if g.is_weighted:
        raise ValueError("expand weighted graphs with expand_weighted before compiling")
    labels: list[EventLabel] = [SingleEvent(i, 1) for i in range(g.n)]
    # ones[o] and zeros[o]: the events that set observable o to 1 and to 0.
    ones: list[list[int]] = [[i] for i in range(g.n)]
    zeros: list[list[int]] = [[] for _ in range(g.n)]
    for (i, j) in g.edges:
        for (a, b) in PAIR_OUTCOMES:
            (ones if a else zeros)[i].append(len(labels))
            (ones if b else zeros)[j].append(len(labels))
            labels.append(PairEvent(i, j, a, b))
    # Rule (a) pairs ones[o] with zeros[o]; rule (b) ones[i] with ones[j] per edge.
    p, q = _group_products(
        ones + [ones[i] for (i, _) in g.edges], zeros + [ones[j] for (_, j) in g.edges]
    )
    n_prime = len(labels)
    codes = np.sort(np.minimum(p, q) * n_prime + np.maximum(p, q))
    # np.unique would do, but its hash pass (numpy >= 2.3) is slower than the sort
    codes = codes[np.diff(codes, prepend=-1) != 0]
    edges = tuple(zip((codes // n_prime).tolist(), (codes % n_prime).tolist()))
    return EventGraph(source=g, labels=tuple(labels), edges=edges)


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
