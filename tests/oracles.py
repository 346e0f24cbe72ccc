"""Test-only oracles: brute-force and closed-form references for the package.

Each oracle computes its answer by a route that shares no algorithm with
the code it checks (exhaustive enumeration, closed forms, fixed examples),
or is the simpler implementation the package replaced, kept as a reference.
"""

import dataclasses
import importlib
import json
import math
from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from twopoint import (
    EventGraph,
    ExperimentRecord,
    Graph,
    IndependenceResult,
    NoiseModel,
    OrthoRep,
    QState,
    SizeLimitError,
    build_graph,
    build_two_point_graph,
    cycle_graph,
    independence_number,
    joint_probs_demolition,
    joint_probs_projective,
    ordered_contexts,
    pure_state,
    theta,
)
from twopoint.graphs import PAIR_OUTCOMES, Edge
from twopoint.serialize import (
    ParseError, _json_int, event_graph_to_jsonable, graph_from_jsonable, graph_to_jsonable
)
from twopoint.simulate import OUTCOMES, _joint_table
from twopoint.theta import DEFAULT_TOLERANCE

# The package re-exports the function `theta` under the module's name.
theta_mod = importlib.import_module("twopoint.theta")

PROB_ATOL = 1e-12


def brute_force_alpha(g: Graph) -> int:
    """Independence number by exhaustive subset enumeration (n <= 24).

    For weighted graphs this returns the maximum total weight of an
    independent set, which equals the plain independence number of the
    weighted blow-up.  Enumeration is vectorized in chunks so n = 24
    (16.7M subsets) stays affordable.
    """
    if g.n > 24:
        raise SizeLimitError(f"brute force limited to 24 vertices, got {g.n}")
    adj = [0] * g.n
    for (i, j) in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    best = 0
    chunk = 1 << 20
    for start in range(0, 1 << g.n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << g.n), dtype=np.uint32)
        valid = np.ones(masks.shape, dtype=bool)
        for v in range(g.n):
            chosen = ((masks >> np.uint32(v)) & 1) != 0
            conflicted = (masks & np.uint32(adj[v])) != 0
            valid &= ~(chosen & conflicted)
        if not valid.any():
            continue
        if g.weights is None:
            values = np.bitwise_count(masks[valid])
        else:
            picked = masks[valid]
            values = np.zeros(picked.shape, dtype=np.int32)
            for v in range(g.n):
                values += ((picked >> np.uint32(v)) & 1).astype(np.int32) * g.weight(v)
        best = max(best, int(values.max()))
    return best


def one_vertex_branch_alpha(g: Graph) -> IndependenceResult:
    """Branch and bound that branches on one vertex at a time.

    The kernel ``independence_number`` used before it branched on whole
    false-twin classes and closed an edgeless candidate set in one leaf:
    the same pivot (maximum degree, lowest id on ties), the same greedy
    clique-cover bound and the same stack order, with neither reduction.
    It has no size limit, so it cross-checks alpha above brute force's
    n <= 24.
    """
    if g.is_weighted:
        raise ValueError("one_vertex_branch_alpha expects an unweighted graph")
    adj = [0] * g.n
    for (i, j) in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    def cover_bound(mask: int) -> int:
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

    best_size = 0
    best_set = 0
    nodes = 0
    stack = [((1 << g.n) - 1, 0, 0)]
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
        for v in range(g.n):
            if mask >> v & 1:
                d = (adj[v] & mask).bit_count()
                if d > pivot_deg:
                    pivot, pivot_deg = v, d
        bit = 1 << pivot
        stack.append((mask ^ bit, chosen, size))
        stack.append(((mask & ~adj[pivot]) ^ bit, chosen | bit, size + 1))
    witness = tuple(v for v in range(g.n) if best_set >> v & 1)
    return IndependenceResult(alpha=best_size, witness=witness, node_count=nodes)


def greedy_incumbent(g: Graph) -> tuple[int, ...]:
    """The incumbent ``independence_number`` starts its search from, written
    with sets and fractions: GWMIN over whole false-twin classes.  Until no
    vertex remains, take the class with the largest ratio of its members to
    (remaining neighbours + 1), ties going to the class holding the lowest
    id, and delete it and its neighbourhood.  Remaining sets are unions of
    whole classes, so a class is always taken whole.
    """
    nbrs = [set() for _ in range(g.n)]
    for (i, j) in g.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    twins = [frozenset(u for u in range(g.n) if nbrs[u] == nbrs[v]) for v in range(g.n)]
    rem = set(range(g.n))
    taken: set[int] = set()
    while rem:
        # max keeps the first of equal keys: the lowest id in sorted order.
        v = max(sorted(rem), key=lambda u: Fraction(len(twins[u]), len(nbrs[u] & rem) + 1))
        taken |= twins[v]
        rem -= twins[v] | nbrs[v]
    return tuple(sorted(taken))


def full_scan_independence_number(g: Graph) -> IndependenceResult:
    """The clique-cover search of ``independence_number``, written with sets.

    Vertices are ranked by (degree, id), lowest degree first.  A node peels
    cliques off its candidate set, each started at the lowest-ranked
    remaining vertex and grown by the lowest-ranked vertex adjacent to all
    of it; it then walks the cliques from the last one back, each from its
    highest rank down, stops once size + k <= best for the k-th clique,
    and branches on each vertex still a candidate by taking its whole
    false-twin class, recursing, and dropping the class.  It starts from
    ``greedy_incumbent`` and replaces the best set only at an empty
    candidate set holding more.  It counts one node per call, as the
    package counts one per branch it searches, and has no size limit.
    """
    if g.is_weighted:
        raise ValueError("full_scan_independence_number expects an unweighted graph")
    nbrs = [set() for _ in range(g.n)]
    for (i, j) in g.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    rank = {v: r for r, v in enumerate(sorted(range(g.n), key=lambda v: (len(nbrs[v]), v)))}
    twins = [{u for u in range(g.n) if nbrs[u] == nbrs[v]} for v in range(g.n)]
    best = set(greedy_incumbent(g))
    nodes = 0

    def search(cand: set, chosen: set) -> None:
        nonlocal best, nodes
        nodes += 1
        if not cand:
            if len(chosen) > len(best):
                best = chosen
            return
        cliques = []
        rest = set(cand)
        while rest:
            clique = [min(rest, key=rank.get)]
            grow = rest & nbrs[clique[0]]
            while grow:
                u = min(grow, key=rank.get)
                clique.append(u)
                grow &= nbrs[u]
            rest -= set(clique)
            cliques.append(clique)
        for k in range(len(cliques), 0, -1):
            for v in sorted(cliques[k - 1], key=rank.get, reverse=True):
                if len(chosen) + k <= len(best):
                    return
                if v in cand:
                    cls = twins[v] & cand
                    search(cand - nbrs[v] - cls, chosen | cls)
                    cand = cand - cls

    search(set(range(g.n)), set())
    return IndependenceResult(alpha=len(best), witness=tuple(sorted(best)), node_count=nodes)


def complement(g: Graph) -> Graph:
    """Edge present in the output iff absent in the input; weights dropped."""
    present = frozenset(g.edges)
    edges = [
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if (i, j) not in present
    ]
    return build_graph(g.n, edges)


Event = Mapping[int, int]


def event_assignments(g: Graph) -> list[dict[int, int]]:
    """The events of G' as ``{observable: outcome}`` dicts, in the vertex order
    the compiler promises, written out: 1|i for every vertex i, then for every
    edge (i, j) in edge order its pair events (0,0), (0,1) and (1,0)."""
    singles = [{i: 1} for i in range(g.n)]
    return singles + [{i: a, j: b} for (i, j) in g.edges for (a, b) in ((0, 0), (0, 1), (1, 0))]


def are_exclusive(a1: Event, a2: Event, g: Graph) -> bool:
    """Decide whether two measurement events, each given as the outcomes it
    assigns ``{observable: outcome}``, are exclusive.

    Two events are exclusive when they cannot both occur, i.e. they are
    alternative outcomes of one sharp measurement.  That happens iff

    (a) some observable appears in both events with different outcomes, or
    (b) an observable of the first and an observable of the second are
        adjacent in g and both are assigned outcome 1 (adjacent observables
        carry orthogonal projectors, so their 1-outcomes cannot co-occur).

    The relation is symmetric, and irreflexive on the events of the
    two-point compilation.  This is the all-pairs reference for the rule
    by rule edge emission of ``build_two_point_graph``.
    """
    for obs, out in a1.items():
        if obs in a2 and a2[obs] != out:
            return True
    eset = frozenset(g.edges)
    for o1, v1 in a1.items():
        if v1 != 1:
            continue
        for o2, v2 in a2.items():
            if v2 == 1 and o1 != o2 and (min(o1, o2), max(o1, o2)) in eset:
                return True
    return False


def exclusive_pairs(g: Graph, events: list[Event]) -> tuple[tuple[int, int], ...]:
    """All event-index pairs p < q with exclusive events, in lexicographic order."""
    return tuple(
        (p, q)
        for p in range(len(events))
        for q in range(p + 1, len(events))
        if are_exclusive(events[p], events[q], g)
    )


def _label_from_jsonable(data: dict) -> dict:
    return {
        "kind": data["kind"],
        "obs": [_json_int(x, "label 'obs'") for x in data["obs"]],
        "out": [_json_int(x, "label 'out'") for x in data["out"]],
    }


def event_graph_from_jsonable(data: dict) -> EventGraph:
    """The event graph of ``event_graph_to_jsonable``; its n, labels and edges
    must be those that ``build_two_point_graph`` compiles from its source.

    No command reads an event graph back (``twopoint alpha`` reads
    ``transform`` output as a plain graph), so the reader lives here, as the
    round-trip reference for the writer."""
    source = graph_from_jsonable(data["source"])
    try:
        n = _json_int(data["n"], "'n'")
        labels = [_label_from_jsonable(lab) for lab in data["labels"]]
        edges = tuple(tuple(_json_int(x, "edge endpoint") for x in e) for e in data["edges"])
        compiled = build_two_point_graph(source)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as err:
        raise ParseError(f"bad event graph JSON: {err}") from err
    if n != compiled.n or labels != event_graph_to_jsonable(compiled)["labels"]:
        raise ParseError("event n or labels differ from the compilation of the source graph")
    if edges != compiled.edges:
        raise ParseError("event edges are not exactly the exclusive label pairs")
    return compiled


def noncontextual_assignment_value(g: Graph, assignment: Mapping[int, int]) -> int:
    """Value of the two-point witness under a deterministic 0/1 assignment.

    Computes sum_i a(i) - sum_{(i,j) in E} a(i) a(j).  Assignments that are
    indicators of independent sets score the set size; the maximum over all
    assignments is the independence number.
    """
    missing = [v for v in range(g.n) if v not in assignment]
    if missing:
        raise ValueError(f"assignment missing vertices {missing}")
    for v in range(g.n):
        if assignment[v] not in (0, 1):
            raise ValueError(f"assignment at vertex {v} must be a bit")
    total = sum(assignment[v] for v in range(g.n))
    total -= sum(assignment[i] * assignment[j] for (i, j) in g.edges)
    return total


def max_assignment_value(g: Graph) -> int:
    """Maximum of noncontextual_assignment_value over all 2^n assignments (n <= 20)."""
    if g.n > 20:
        raise SizeLimitError(f"exhaustive assignment scan limited to 20 vertices, got {g.n}")
    best = None
    for mask in range(1 << g.n):
        ones = bin(mask).count("1")
        penalty = sum(1 for (i, j) in g.edges if (mask >> i) & 1 and (mask >> j) & 1)
        value = ones - penalty
        if best is None or value > best:
            best = value
    return int(best)


def odd_cycle_theta(n: int) -> float:
    """Closed-form Lovasz number of an odd cycle: n cos(pi/n) / (1 + cos(pi/n))."""
    if n < 5 or n % 2 == 0:
        raise ValueError(f"odd cycle formula needs odd n >= 5, got {n}")
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def theta_sandwich(
    g: Graph,
    tolerance: float = DEFAULT_TOLERANCE,
    alpha_limit: int = 64,
) -> tuple[int, float]:
    """Independence number and Lovasz number, checked against alpha <= theta."""
    alpha = independence_number(g, limit=alpha_limit).alpha
    sol = theta(g, tolerance=tolerance)
    if alpha > sol.primal_value + max(tolerance, sol.duality_gap) + 10 * tolerance:
        raise ArithmeticError(
            f"sandwich violated: alpha={alpha} > theta={sol.primal_value}"
        )
    return alpha, sol.primal_value


def lift_primal_per_edge(eg: EventGraph, X: np.ndarray) -> np.ndarray:
    """`theta.lift_primal` with one least-squares solve per (0,0) event, as the
    package computed it before the solves were stacked.

    Reads F and psi through ``theta_mod.primal_factor`` at call time, so a
    test that replaces it feeds both lifts the same factor."""
    F, psi = theta_mod.primal_factor(X)
    sq = np.einsum("ij,ij->i", F, F)
    P = F * np.divide(F @ psi, sq, out=np.zeros(len(F)), where=F.any(axis=1))[:, None]
    obs, out = eg.events
    W = P[np.where(out[:, 0] == 1, obs[:, 0], obs[:, 1])]
    for k in np.flatnonzero(~out.any(axis=1)):
        B = F[obs[k]].T
        W[k] = psi - B @ np.linalg.lstsq(B, psi, rcond=None)[0]
    return (W @ W.T) / np.sum(W * W)


def lift_dual_dense(eg: EventGraph, Y: np.ndarray, bound: float) -> np.ndarray:
    """`theta.lift_dual` from G's dense multiplier matrix Y, as the package
    computed it before it took the multiplier vector: (t / bound) Y on the
    whole single-event block, t (J_3 - I_3) on each edge's triangle."""
    t = bound + len(eg.source.edges)
    singles, triangles = eg.blocks()
    Yp = np.zeros((eg.n, eg.n))
    Yp[np.ix_(singles, singles)] = (t / bound) * np.asarray(Y, dtype=float)
    Yp[triangles[:, :, None], triangles[:, None, :]] = t * (1.0 - np.eye(3))
    return Yp


def vertex_overlap(rep: OrthoRep, v: int) -> float:
    """Squared overlap |<v|psi>|^2 of vertex v's vector with the handle, by one
    `np.vdot`: the per-vertex reference for `OrthoRep.overlaps`."""
    return float(abs(np.vdot(rep.vectors[v], rep.psi)) ** 2)


def joint_probs_table(
    state: QState, rep: OrthoRep, contexts: Sequence[tuple[int, int]]
) -> dict[tuple[int, int], dict[tuple[int, int], float]]:
    """`joint_probs_projective` of every (first, second) context, from one
    call of the exact kernel over all of ``rep``'s vectors."""
    _, table = _joint_table(
        state.rho,
        np.asarray(rep.vectors, dtype=complex),
        np.array(contexts, dtype=np.intp).reshape(-1, 2),
        demolition=False,
    )
    return {tuple(c): dict(zip(OUTCOMES, row)) for c, row in zip(contexts, table.tolist())}


def evaluate_s(
    g: Graph,
    singles: Mapping[int, float],
    pairs: Mapping[Edge, float],
) -> float:
    """The two-point witness: sum of P(1|i) minus sum of P(1,1|i,j) over edges."""
    total = 0.0
    for v in range(g.n):
        if v not in singles:
            raise ValueError(f"missing single probability for vertex {v}")
        total += singles[v]
    for e in g.edges:
        p = pairs.get(e, pairs.get((e[1], e[0])))
        if p is None:
            raise ValueError(f"missing pair probability for edge {e}")
        total -= p
    return total


def evaluate_s_prime(
    g: Graph,
    singles: Mapping[int, float],
    pair_tables: Mapping[Edge, Mapping[tuple[int, int], float]],
) -> float:
    """The compiled witness: singles plus, per edge, its pair events in G',
    P(0,0) + P(0,1) + P(1,0).

    On probability tables consistent with a single joint distribution this
    exceeds :func:`evaluate_s` by exactly the number of edges.
    """
    total = 0.0
    for v in range(g.n):
        if v not in singles:
            raise ValueError(f"missing single probability for vertex {v}")
        total += singles[v]
    for e in g.edges:
        table = pair_tables.get(e, pair_tables.get((e[1], e[0])))
        if table is None:
            raise ValueError(f"missing pair table for edge {e}")
        for outcomes in PAIR_OUTCOMES:
            if outcomes not in table:
                raise ValueError(f"pair table for edge {e} missing outcome {outcomes}")
            total += table[outcomes]
    return total


def dict_witnesses(rep: OrthoRep, g: Graph) -> tuple[float, float]:
    """(S, S') by the dict path `certify` once took: the singles as a dict,
    `joint_probs_table` of the edges, then `evaluate_s` and `evaluate_s_prime`."""
    singles = dict(enumerate(rep.overlaps().tolist()))
    tables = joint_probs_table(pure_state(rep.psi), rep, g.edges)
    s = evaluate_s(g, singles, {e: t[(1, 1)] for e, t in tables.items()})
    return s, evaluate_s_prime(g, singles, tables)


def builtin_kcbs_rep() -> OrthoRep:
    """The qutrit pentagon representation saturating the KCBS inequality.

    Vertex k carries (cos t, sin t cos(4 pi k / 5), sin t sin(4 pi k / 5))
    with cos^2 t = cos(pi/5) / (1 + cos(pi/5)) = 1/sqrt(5); consecutive
    vectors are orthogonal, so the source graph is the standard pentagon
    with edges (0,1),(1,2),(2,3),(3,4),(0,4).  Every squared overlap with
    psi = (1,0,0) is 1/sqrt(5) and their sum is sqrt(5).
    """
    cos2 = math.cos(math.pi / 5) / (1 + math.cos(math.pi / 5))
    t = math.acos(math.sqrt(cos2))
    vectors = np.array(
        [
            [
                math.cos(t),
                math.sin(t) * math.cos(4 * math.pi * k / 5),
                math.sin(t) * math.sin(4 * math.pi * k / 5),
            ]
            for k in range(5)
        ]
    )
    psi = np.array([1.0, 0.0, 0.0])
    return OrthoRep(psi=psi, vectors=vectors)


def kcbs_graph() -> Graph:
    """The pentagon matching the vertex labeling of builtin_kcbs_rep."""
    return cycle_graph(5)


def maximally_mixed(d: int) -> QState:
    return QState(np.eye(d, dtype=complex) / d)


def recursive_canonical_json(obj: Any) -> str:
    """Canonical JSON by recursive descent: keys sorted by ``str(k)``, floats
    at 17 significant digits.  The reference for ``dumps_canonical``, which
    must read back to the same values in the same key order."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot serialize {x}")
        s = f"{x:.17g}"
        return s if any(c in s for c in ".eE") else s + ".0"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(recursive_canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(
            f"{json.dumps(str(k))}:{recursive_canonical_json(v)}" for k, v in items
        ) + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def binomial_stderr(c: int, shots: int) -> float:
    """Binomial standard error of a count c of ``shots``: sqrt(p q / shots)
    with p = c / shots and q = (shots - c) / shots, floored at
    sqrt(0.25 / shots) where c is 0 or ``shots``; the scalar reference for
    ``binomial_estimates``."""
    if c == 0 or c == shots:
        return math.sqrt(0.25 / shots)
    return math.sqrt((c / shots) * ((shots - c) / shots) / shots)


def born_single(state: QState, v: np.ndarray) -> float:
    """Probability <v|rho|v> of outcome 1 for the projector onto v."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (state.d,):
        raise ValueError(f"vector dimension {v.shape} does not match state dimension {state.d}")
    p = float(np.real(np.vdot(v, state.rho @ v)))
    return min(1.0, max(0.0, p))


def luders_update(state: QState, v: np.ndarray, outcome: int) -> QState:
    """Post-measurement state under Lueders's rule for the projector onto v.

    Raises, naming the outcome's probability, where it is at most PROB_ATOL or
    where dividing by it leaves round-off that the density matrix checks reject."""
    if outcome not in (0, 1):
        raise ValueError("outcome must be a bit")
    v = np.asarray(v, dtype=complex)
    if v.shape != (state.d,):
        raise ValueError(f"vector dimension {v.shape} does not match state dimension {state.d}")
    proj = np.outer(v, v.conj())
    op = proj if outcome == 1 else np.eye(state.d) - proj
    unnorm = op @ state.rho @ op
    p = float(np.real(np.trace(unnorm)))
    refused = f"conditioning on outcome {outcome} with probability {p:.3e}"
    if p <= PROB_ATOL:
        raise ValueError(refused)
    rho = unnorm / p
    try:
        return QState((rho + rho.conj().T) / 2)
    except ValueError as err:
        raise ValueError(f"{refused} leaves round-off the density matrix checks reject") from err


def pair_row(record: ExperimentRecord, first: int, second: int) -> dict[tuple[int, int], int]:
    """The counts of the ordered context (first, second), keyed by outcome pair."""
    return dict(zip(OUTCOMES, record.pair_counts[record.contexts.index((first, second))]))


def single_estimate(record: ExperimentRecord, v: int) -> tuple[float, float]:
    c = record.single_counts[v]
    return c / record.shots, binomial_stderr(c, record.shots)


def pair_estimate(
    record: ExperimentRecord, first: int, second: int, a: int, b: int
) -> tuple[float, float]:
    c = pair_row(record, first, second)[(a, b)]
    return c / record.shots, binomial_stderr(c, record.shots)


def pooled_pair11(record: ExperimentRecord, i: int, j: int) -> tuple[float, float]:
    """P(1,1) estimate pooled over the two measurement orders of an edge."""
    c = pair_row(record, i, j)[(1, 1)] + pair_row(record, j, i)[(1, 1)]
    n = 2 * record.shots
    return c / n, binomial_stderr(c, n)


def scalar_s_estimate(record: ExperimentRecord) -> tuple[float, float]:
    """``ExperimentRecord.s_estimate`` one scalar estimate at a time."""
    value = 0.0
    var = 0.0
    for v in range(record.graph.n):
        p, se = single_estimate(record, v)
        value += p
        var += se * se
    for (i, j) in record.graph.edges:
        p, se = pooled_pair11(record, i, j)
        value -= p
        var += se * se
    return value, math.sqrt(var)


def record_marginal(
    record: ExperimentRecord, ctx: tuple[int, int], position: int, outcome: int
) -> int:
    """Marginal count of the first (position 0) or second (position 1)
    measurement of the ordered pair ``ctx = (first, second)``."""
    return sum(n for ab, n in pair_row(record, *ctx).items() if ab[position] == outcome)


def pairwise_signaling(record: ExperimentRecord, position: int) -> list[dict]:
    """The epsilon (position 1) or epsilon-prime (position 0) table, with both
    marginal counts recomputed from the counts for every comparison and
    outcome: the difference of the two estimates as the integer difference of
    the counts over ``shots``, and each estimate's error from its count."""
    out: list[dict] = []
    for fixed in range(record.graph.n):
        ctxs = sorted(
            (c for c in record.contexts if c[position] == fixed),
            key=lambda c: c[1 - position],
        )
        for x in range(len(ctxs)):
            for y in range(x + 1, len(ctxs)):
                for outcome in (0, 1):
                    c1 = record_marginal(record, ctxs[x], position, outcome)
                    c2 = record_marginal(record, ctxs[y], position, outcome)
                    se1 = binomial_stderr(c1, record.shots)
                    se2 = binomial_stderr(c2, record.shots)
                    out.append(
                        {
                            "fixed": fixed,
                            "varied_a": ctxs[x][1 - position],
                            "varied_b": ctxs[y][1 - position],
                            "outcome": outcome,
                            "difference": abs(c1 - c2) / record.shots,
                            "stderr": math.sqrt(se1 * se1 + se2 * se2),
                        }
                    )
    return out


def record_tree(record: ExperimentRecord) -> dict:
    """The experiment record's JSON tree, built row by row from the scalar
    estimates above: the reference for ``serialize.dumps_record``."""
    singles = {}
    for v, n1 in enumerate(record.single_counts):
        p1, se = single_estimate(record, v)
        singles[str(v)] = {"n0": record.shots - n1, "n1": n1, "p1": p1, "stderr": se}
    pairs = {}
    for (first, second), row in zip(record.contexts, record.pair_counts):
        entry: dict[str, dict] = {"counts": {}, "p": {}, "stderr": {}}
        for (a, b), c in zip(OUTCOMES, row):
            key = f"{a}{b}"
            entry["counts"][key] = c
            entry["p"][key], entry["stderr"][key] = pair_estimate(record, first, second, a, b)
        pairs[f"{first},{second}"] = entry
    s_value, s_err = scalar_s_estimate(record)
    return {
        "graph": graph_to_jsonable(record.graph),
        "scheme": record.scheme,
        "seed": record.seed,
        "shots": record.shots,
        "noise": dataclasses.asdict(record.noise),
        "singles": singles,
        "pairs": pairs,
        "s_estimate": s_value,
        "s_stderr": s_err,
        "epsilon": pairwise_signaling(record, 1),
        "epsilon_prime": pairwise_signaling(record, 0),
    }


def flip_joint_terms(probs: Mapping[tuple[int, int], float], f: float) -> dict:
    """Outcome-flip noise on a joint table, written out term by term.

    Each flipped P(a, b) adds P(a0, b0) q(a, a0) q(b, b0) from left to right
    over (a0, b0) = (1, 1), (1, 0), (0, 1), (0, 0), the order in which
    ``_flip_table`` sums them elementwise, so the result equals each of its
    rows to the last bit."""
    def q(x: int, x0: int) -> float:
        return 1.0 - f if x == x0 else f

    out = {}
    for a in (0, 1):
        for b in (0, 1):
            out[(a, b)] = (
                probs[(1, 1)] * q(a, 1) * q(b, 1)
                + probs[(1, 0)] * q(a, 1) * q(b, 0)
                + probs[(0, 1)] * q(a, 0) * q(b, 1)
                + probs[(0, 0)] * q(a, 0) * q(b, 0)
            )
    return out


def isolated_and_leaf_case() -> tuple[Graph, OrthoRep]:
    """Vertex 5 is isolated; 1, 2 and 4 have one neighbour each.  The vectors
    are an orthonormal basis of R^6, so every edge is orthogonal."""
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4)])
    rng = np.random.default_rng(3)
    vecs = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    psi = rng.standard_normal(6)
    return g, OrthoRep(psi=psi / np.linalg.norm(psi), vectors=vecs.T.copy())


def luders_joint_table(
    state: QState, vectors: np.ndarray, contexts, scheme: str
) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex's P(1) and the k x 4 ``OUTCOMES`` table of the contexts,
    from full density matrices: P(a) by the Born rule, the state after the
    first measurement by ``luders_update`` (or, for the demolition scheme
    after outcome 1, the pure eigenstate), and P(a, b) = P(a) P(b | a).

    A first outcome too rare to condition on keeps its mass P(a): where
    ``luders_update`` refuses it (at P(a) <= PROB_ATOL, or where dividing by
    P(a) leaves round-off that the density matrix checks reject), P(a, 1) is
    read off the unnormalised Lueders matrix Pi_a rho Pi_a, clipped to
    [0, P(a)], and P(a, 0) is the rest."""
    singles = np.array([born_single(state, v) for v in vectors])
    rows = []
    for (i, j) in contexts:
        row = {}
        for a in (0, 1):
            pa = singles[i] if a == 1 else 1.0 - singles[i]
            try:
                if a == 1 and scheme == "demolition":
                    after = pure_state(vectors[i])
                else:
                    after = luders_update(state, vectors[i], a)
            except ValueError:  # too rare to condition on
                v = np.asarray(vectors[i], dtype=complex)
                proj = np.outer(v, v.conj())
                op = proj if a == 1 else np.eye(state.d) - proj
                w = np.asarray(vectors[j], dtype=complex)
                q = float(np.real(np.vdot(w, op @ state.rho @ op @ w)))
                row[(a, 1)] = min(max(q, 0.0), pa)
                row[(a, 0)] = pa - row[(a, 1)]
                continue
            pb1 = born_single(after, vectors[j])
            row[(a, 0)] = pa * (1.0 - pb1)
            row[(a, 1)] = pa * pb1
        rows.append([row[o] for o in OUTCOMES])
    return singles, np.array(rows).reshape(-1, 4)


def misaligned_vectors_loop(
    rep: OrthoRep, angle: float, rng: np.random.Generator
) -> np.ndarray:
    """The vector misalignment one vertex at a time, as the package drew it
    before `_misaligned_vectors` drew every candidate in one call: each vertex
    draws d normals, then d more for the imaginary part of complex vectors,
    projects them off its vector with `np.vdot`, and draws again, up to 64
    times, while the remainder's norm is at most 1e-9."""
    vecs = rep.vectors.astype(complex if np.iscomplexobj(rep.vectors) else float).copy()
    cplx = np.iscomplexobj(vecs)
    d = rep.dimension
    for v in range(vecs.shape[0]):
        base = vecs[v]
        u = None
        for _ in range(64):
            cand = rng.standard_normal(d)
            if cplx:
                cand = cand + 1j * rng.standard_normal(d)
            cand = cand - base * np.vdot(base, cand)
            norm = np.linalg.norm(cand)
            if norm > 1e-9:
                u = cand / norm
                break
        if u is None:  # dimension 1: no orthogonal direction exists
            continue
        vecs[v] = math.cos(angle) * base + math.sin(angle) * u
    return vecs


def per_context_counts(
    rep: OrthoRep,
    g: Graph,
    shots: int,
    seed: int,
    noise: Optional[NoiseModel] = None,
    scheme: str = "projective",
) -> tuple[tuple, tuple, tuple]:
    """``run_experiment``'s contexts, single counts and pair counts, drawn one
    context at a time: on the same count stream (stream 1 of
    SeedSequence(seed)), one scalar binomial per vertex, then, over the
    sorted contexts, one public ``joint_probs_*`` call, the term-by-term flip
    and one scalar multinomial each.  Each count is stored in a dict keyed by
    vertex, context and outcome pair before it is read out in the record's
    order."""
    noise = noise or NoiseModel()
    flip = noise.outcome_flip_p
    joint_fn = joint_probs_projective if scheme == "projective" else joint_probs_demolition
    contexts = ordered_contexts(g)
    misalign_stream, count_stream = np.random.SeedSequence(seed).spawn(2)
    state = pure_state(rep.psi)
    if noise.depolarizing_p > 0.0:
        d = state.d
        rho = (1.0 - noise.depolarizing_p) * state.rho + noise.depolarizing_p * np.eye(d) / d
        state = QState(rho)
    vectors = rep.vectors
    if noise.vector_misalignment_angle != 0.0:
        vectors = misaligned_vectors_loop(
            rep, noise.vector_misalignment_angle, np.random.default_rng(misalign_stream)
        )
    noisy_rep = OrthoRep(psi=rep.psi, vectors=vectors)

    rng = np.random.default_rng(count_stream)
    single_counts = {}
    for v in range(g.n):
        p1 = born_single(state, vectors[v])
        p1 = (1.0 - flip) * p1 + flip * (1.0 - p1)
        n1 = int(rng.binomial(shots, min(1.0, max(0.0, p1))))
        single_counts[v] = (shots - n1, n1)
    pair_counts = {}
    for ctx in contexts:
        probs = flip_joint_terms(joint_fn(state, ctx, noisy_rep), flip)
        vec = np.array([max(0.0, probs[o]) for o in OUTCOMES])
        vec = vec / vec.sum()
        counts = rng.multinomial(shots, vec)
        pair_counts[ctx] = {o: int(c) for o, c in zip(OUTCOMES, counts)}
    keys = sorted(pair_counts)
    return (
        tuple(keys),
        tuple(single_counts[v][1] for v in range(g.n)),
        tuple(tuple(pair_counts[k][o] for o in OUTCOMES) for k in keys),
    )
