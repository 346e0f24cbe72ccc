"""Exact independence numbers by branch and bound."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph

ALPHA_LIMIT = 64  # default vertex limit of the exact solver


class SizeLimitError(ValueError):
    """Graph exceeds the vertex limit of an exact algorithm."""


@dataclass(frozen=True)
class IndependenceResult:
    alpha: int
    witness: tuple[int, ...]
    node_count: int


def _adjacency_masks(g: Graph) -> list[int]:
    adj = [0] * g.n
    for (i, j) in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no edge of g has both endpoints in s."""
    sset = set(s)
    for v in sset:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    return not any(i in sset and j in sset for (i, j) in g.edges)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def independence_number(g: Graph, limit: int = ALPHA_LIMIT) -> IndependenceResult:
    """Exact maximum independent set by branch and bound.

    Branches on a maximum-degree vertex of the remaining subgraph (lowest id
    on ties) and prunes with a greedy clique-cover upper bound; vertex sets
    are bitmasks.  Two reductions shrink the tree without changing alpha:

    - False twins (vertices with equal adjacency masks) are branched on as
      one class: some maximum independent set holds all of a class's
      remaining members or none of them.  G' is G with each vertex's
      single event and outcome-1 pair events merged into one such class.
      Every candidate mask is therefore a union of whole classes: the root
      holds all vertices, a branch removes the pivot's class, and the
      include branch also removes the pivot's neighbourhood, which twins
      share, so it is a union of classes too.  Twins have equal degree in
      such a mask, so the pivot scan visits only each class's lowest member
      and still picks the lowest-id vertex of maximum degree.
    - A candidate set with no edge left is taken whole, in one leaf.

    The search starts from a greedy incumbent, GWMIN of Sakai, Togasaki and
    Yamazaki (Discrete Appl. Math. 126, 2003) over whole classes: it takes
    the class with the most members per (remaining neighbours + 1), ratios
    compared exactly in integers and ties going to the lowest id, until no
    vertex is left.  The search then looks only for a strictly larger set,
    and explores each exclude branch before its include branch, so its
    first dive deletes maximum-degree classes.  It runs until the bound
    proves the best set optimal, so alpha is exact; the witness is the
    incumbent when no larger set exists.

    Deterministic: identical inputs give the same incumbent and explore
    identical trees, and ``tests/test_independence.py`` pins the tree
    (alpha, witness and node count) on four event graphs, so a change to
    the incumbent, the branch order, the pivot, the bound or either
    reduction shows.

    Raises SizeLimitError above ``limit`` vertices and ValueError for
    weighted graphs (expand them first).
    """
    if g.is_weighted:
        raise ValueError("independence_number expects an unweighted graph; apply expand_weighted")
    if g.n > limit:
        raise SizeLimitError(f"graph has {g.n} vertices, exceeding the limit of {limit}")
    adj = _adjacency_masks(g)
    classes: dict[int, int] = {}
    for v, a in enumerate(adj):
        classes[a] = classes.get(a, 0) | 1 << v
    twins = [classes[a] for a in adj]
    # The lowest member of each class: the only vertices the pivot scan visits.
    reps = sum(c & -c for c in classes.values())

    def cover_bound(mask: int) -> int:
        # Greedily peel cliques, each grown from the lowest remaining vertex;
        # the number of cliques needed to cover the candidate set bounds its
        # independence number from above.
        count = 0
        rem = mask
        while rem:
            clique = rem & -rem
            cand = rem & adj[clique.bit_length() - 1]
            while cand:
                low = cand & -cand
                clique |= low
                cand &= adj[low.bit_length() - 1]
            rem ^= clique
            count += 1
        return count

    # Greedy incumbent.  Remaining masks are unions of whole classes, so a
    # class is either all remaining or gone; classes are in lowest-id order.
    full = (1 << g.n) - 1
    best_set = 0
    live = list(classes.values())
    rem = full
    while rem:
        live = [c for c in live if c & rem]
        pick, pick_num, pick_den = 0, 0, 1
        for c in live:
            num = c.bit_count()
            den = (adj[(c & -c).bit_length() - 1] & rem).bit_count() + 1
            if num * pick_den > pick_num * den:
                pick, pick_num, pick_den = c, num, den
        best_set |= pick
        rem &= ~pick & ~adj[(pick & -pick).bit_length() - 1]
    best_size = best_set.bit_count()
    nodes = 0
    # Explicit stack of (candidate mask, chosen mask, chosen size) frames.
    stack = [(full, 0, 0)]
    while stack:
        mask, chosen, size = stack.pop()
        nodes += 1
        if not mask:
            if size > best_size:
                best_size, best_set = size, chosen
            continue
        if size + cover_bound(mask) <= best_size:
            continue
        pivot, pivot_deg = -1, -1
        m = mask & reps
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            d = (adj[v] & mask).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        if not pivot_deg:
            stack.append((0, chosen | mask, size + mask.bit_count()))
            continue
        cls = twins[pivot] & mask
        # Include branch pushed first so the exclude branch is explored first.
        stack.append((mask & ~adj[pivot] & ~cls, chosen | cls, size + cls.bit_count()))
        stack.append((mask ^ cls, chosen, size))
    return IndependenceResult(
        alpha=best_size, witness=tuple(_bits(best_set)), node_count=nodes
    )
