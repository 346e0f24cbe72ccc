"""Exact independence numbers by branch and bound."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import Graph

ALPHA_LIMIT = 64  # default vertex limit of the exact solver


class SizeLimitError(ValueError):
    """Graph exceeds the vertex limit of an exact algorithm."""


@dataclass(frozen=True)
class IndependenceResult:
    alpha: int
    witness: tuple[int, ...]
    node_count: int


def _adjacency_masks(n: int, ei: np.ndarray, ej: np.ndarray) -> list[int]:
    """Bitmask neighbourhoods of the graph on 0..n-1 with edges (ei[k], ej[k]):
    bit u of entry v is set iff u ~ v."""
    rows = np.zeros((n, n), dtype=bool)
    rows[ei, ej] = True
    rows[ej, ei] = True
    packed = np.packbits(rows, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width)]


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no edge of g has both endpoints in s; read off ``g.edge_index``."""
    sset = set(s)
    for v in sset:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    chosen = np.zeros(g.n, dtype=bool)
    chosen[list(sset)] = True
    ei, ej = g.edge_index
    return not np.any(chosen[ei] & chosen[ej])


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def independence_number(g: Graph, limit: int = ALPHA_LIMIT) -> IndependenceResult:
    """Exact maximum independent set by branch and bound.

    A maximum independent set of G is a maximum clique of G's complement, so
    this is the max-clique scheme of MCQ (Tomita and Seki, DMTCS 2003) and
    BBMC (San Segundo, Rodriguez-Losada and Jimenez, Computers & OR 38,
    2011), with a greedy clique cover of G in place of their colouring.
    Vertex sets are bitmasks over an internal order sorted by (degree, id),
    lowest degree first; the witness is mapped back to input ids, ascending.

    Each search node holds a candidate set P and a chosen independent set.
    It peels cliques Q_1, ..., Q_K off P, each grown greedily from the
    lowest remaining position.  Any independent set meets a clique at most
    once, so one drawn from Q_1 .. Q_k has at most k vertices.  The node
    therefore branches only on vertices of cliques with size + k > best,
    walking the cliques from Q_K back and each clique from its highest
    position down, and stops as soon as size + k <= best, with best the
    largest set found so far.  A branch on v takes v's whole false-twin
    class (the vertices with v's neighbourhood; some maximum independent
    set holds all of a class or none of it), searches P minus the class
    and its neighbourhood, and then drops the class from P.  Candidate sets
    are thus unions of whole classes.  G' is G with each vertex's single
    event and outcome-1 pair events merged into one such class.

    The search starts from a greedy incumbent, GWMIN of Sakai, Togasaki and
    Yamazaki (Discrete Appl. Math. 126, 2003) over whole classes: it takes
    the class with the most members per (remaining neighbours + 1), ratios
    compared exactly in integers and ties going to the class with the
    lowest input id, until no vertex is left.  The search replaces it only
    by a strictly larger set, and runs until the bound has closed every
    branch, so alpha is exact; the witness is the incumbent when no larger
    set exists.  The nodes are held on an explicit stack, not in Python
    recursion, since the depth reaches alpha.

    ``node_count`` counts the nodes searched: the root and every branch
    still open under the bound when its turn comes.  It is deterministic:
    identical inputs give the same incumbent and explore identical trees
    (relabelling the vertices can change the tree and the witness, never
    alpha), and ``tests/test_independence.py`` pins the tree (alpha, witness and
    node count) on four event graphs, so a change to the order, the
    incumbent, the cover, the walk or the class branching shows.

    Raises SizeLimitError above ``limit`` vertices and ValueError for
    weighted graphs (expand them first).
    """
    if g.is_weighted:
        raise ValueError("independence_number expects an unweighted graph; apply expand_weighted")
    if g.n > limit:
        raise SizeLimitError(f"graph has {g.n} vertices, exceeding the limit of {limit}")
    ei, ej = g.edge_index
    degree = np.bincount(ei, minlength=g.n) + np.bincount(ej, minlength=g.n)
    # order[p] is the input id at bit position p; pos is its inverse.
    order = np.argsort(degree, kind="stable")
    pos = np.empty(g.n, dtype=np.intp)
    pos[order] = np.arange(g.n)
    adj = _adjacency_masks(g.n, pos[ei], pos[ej])
    # False-twin classes, inserted in order of their lowest input id.
    classes: dict[int, int] = {}
    for p in pos.tolist():
        classes[adj[p]] = classes.get(adj[p], 0) | 1 << p
    twins = [classes[a] for a in adj]

    # Greedy incumbent.  Remaining masks are unions of whole classes, so a
    # class is either all remaining or gone.
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
    # Explicit stack of (candidate mask, chosen mask, chosen size, bound) frames;
    # the root's bound exceeds any set.
    stack = [(full, 0, 0, g.n + 1)]
    while stack:
        mask, chosen, size, bound = stack.pop()
        if bound <= best_size:
            continue
        nodes += 1
        if not mask:
            if size > best_size:
                best_size, best_set = size, chosen
            continue
        cliques = []
        rem = mask
        while rem:
            clique = rem & -rem
            cand = rem & adj[clique.bit_length() - 1]
            while cand:
                low = cand & -cand
                clique |= low
                cand &= adj[low.bit_length() - 1]
            rem ^= clique
            cliques.append(clique)
        branches = []
        for k in range(len(cliques), max(best_size - size, 0), -1):
            clique = cliques[k - 1]
            while clique:
                v = clique.bit_length() - 1
                clique ^= 1 << v
                if mask >> v & 1:
                    cls = twins[v] & mask
                    rest = mask & ~adj[v] & ~cls
                    branches.append((rest, chosen | cls, size + cls.bit_count(), size + k))
                    mask ^= cls
        # Reversed, so the first branch of the walk is explored first.
        stack.extend(reversed(branches))
    witness = sorted(order[_bits(best_set)].tolist())
    return IndependenceResult(alpha=best_size, witness=tuple(witness), node_count=nodes)
