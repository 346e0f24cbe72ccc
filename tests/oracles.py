"""Test-only oracles: brute-force and closed-form references for the package.

Each oracle computes its answer by a route that shares no algorithm with
the code it checks (exhaustive enumeration, closed forms, fixed examples),
or is the simpler implementation the package replaced, kept as a reference.
"""

import json
import math
from typing import Any, Mapping, Optional

import numpy as np

from twopoint import (
    EventLabel,
    ExperimentRecord,
    Graph,
    IndependenceResult,
    NoiseModel,
    OrthoRep,
    QState,
    SizeLimitError,
    born_single,
    cycle_graph,
    independence_number,
    joint_probs_demolition,
    joint_probs_projective,
    ordered_contexts,
    pure_state,
    theta,
)
from twopoint.simulate import (
    OUTCOMES,
    _flip_joint,
    _flip_single,
    _misaligned_vectors,
)
from twopoint.theta import DEFAULT_TOLERANCE


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


def are_exclusive(e1: EventLabel, e2: EventLabel, g: Graph) -> bool:
    """Decide whether two measurement events are exclusive.

    Two events are exclusive when they cannot both occur, i.e. they are
    alternative outcomes of one sharp measurement.  That happens iff

    (a) some observable appears in both events with different outcomes, or
    (b) an observable of the first and an observable of the second are
        adjacent in g and both are assigned outcome 1 (adjacent observables
        carry orthogonal projectors, so their 1-outcomes cannot co-occur).

    The relation is symmetric, and irreflexive on the labels used by the
    two-point compilation.  This is the label-pair reference for the rule
    by rule edge emission of ``build_two_point_graph``.
    """
    a1 = e1.assignments()
    a2 = e2.assignments()
    for obs, out in a1.items():
        if obs in a2 and a2[obs] != out:
            return True
    eset = g.edge_set
    for o1, v1 in a1.items():
        if v1 != 1:
            continue
        for o2, v2 in a2.items():
            if v2 == 1 and o1 != o2 and (min(o1, o2), max(o1, o2)) in eset:
                return True
    return False


def exclusive_pairs(g: Graph, labels: tuple[EventLabel, ...]) -> tuple[tuple[int, int], ...]:
    """All label-index pairs p < q with exclusive labels, in lexicographic order."""
    return tuple(
        (p, q)
        for p in range(len(labels))
        for q in range(p + 1, len(labels))
        if are_exclusive(labels[p], labels[q], g)
    )


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
    return OrthoRep(dimension=3, psi=psi, vectors=vectors)


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


def binomial_stderr(p: float, shots: int) -> float:
    """Binomial standard error with a continuity floor at degenerate estimates:
    the scalar reference for ``binomial_estimates``."""
    if p <= 0.0 or p >= 1.0:
        return math.sqrt(0.25 / shots)
    return math.sqrt(p * (1.0 - p) / shots)


def pair_row(record: ExperimentRecord, first: int, second: int) -> dict[tuple[int, int], int]:
    """The counts of the ordered context (first, second), keyed by outcome pair."""
    return dict(zip(OUTCOMES, record.pair_counts[record.contexts.index((first, second))]))


def single_estimate(record: ExperimentRecord, v: int) -> tuple[float, float]:
    p = record.single_counts[v] / record.shots
    return p, binomial_stderr(p, record.shots)


def pair_estimate(
    record: ExperimentRecord, first: int, second: int, a: int, b: int
) -> tuple[float, float]:
    p = pair_row(record, first, second)[(a, b)] / record.shots
    return p, binomial_stderr(p, record.shots)


def pooled_pair11(record: ExperimentRecord, i: int, j: int) -> tuple[float, float]:
    """P(1,1) estimate pooled over the two measurement orders of an edge."""
    c = pair_row(record, i, j)[(1, 1)] + pair_row(record, j, i)[(1, 1)]
    n = 2 * record.shots
    p = c / n
    return p, binomial_stderr(p, n)


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
) -> tuple[float, float]:
    """Marginal estimate of the first (position 0) or second (position 1)
    measurement of the ordered pair ``ctx = (first, second)``, from its counts."""
    c = sum(n for ab, n in pair_row(record, *ctx).items() if ab[position] == outcome)
    p = c / record.shots
    return p, binomial_stderr(p, record.shots)


def pairwise_signaling(record: ExperimentRecord, position: int) -> list[dict]:
    """The epsilon (position 1) or epsilon-prime (position 0) table, with both
    marginals recomputed from the counts for every comparison."""
    out: list[dict] = []
    for fixed in range(record.graph.n):
        ctxs = sorted(
            (c for c in record.contexts if c[position] == fixed),
            key=lambda c: c[1 - position],
        )
        for x in range(len(ctxs)):
            for y in range(x + 1, len(ctxs)):
                for outcome in (0, 1):
                    p1, se1 = record_marginal(record, ctxs[x], position, outcome)
                    p2, se2 = record_marginal(record, ctxs[y], position, outcome)
                    out.append(
                        {
                            "fixed": fixed,
                            "varied_a": ctxs[x][1 - position],
                            "varied_b": ctxs[y][1 - position],
                            "outcome": outcome,
                            "difference": abs(p1 - p2),
                            "stderr": math.sqrt(se1 * se1 + se2 * se2),
                        }
                    )
    return out


def flip_joint_terms(probs: Mapping[tuple[int, int], float], f: float) -> dict:
    """Outcome-flip noise on a joint table, written out term by term.

    Each flipped P(a, b) adds P(a0, b0) q(a, a0) q(b, b0) from left to right
    over (a0, b0) = (1, 1), (1, 0), (0, 1), (0, 0), the order in which the
    exact kernel conditions on the first outcome, so on the kernel's own
    table the result equals ``_flip_joint``'s to the last bit."""
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


def per_context_counts(
    rep: OrthoRep,
    g: Graph,
    shots: int,
    seed: int,
    noise: Optional[NoiseModel] = None,
    scheme: str = "projective",
) -> tuple[tuple, tuple, tuple]:
    """``run_experiment``'s contexts, single counts and pair counts, sampled the
    way it did before it conditioned once per first observable: the public
    ``joint_probs_*`` kernel is called once per ordered context, on the same
    RNG streams, and each count is stored in a dict keyed by vertex, context
    and outcome pair before it is read out in the record's order."""
    noise = noise or NoiseModel()
    joint_fn = joint_probs_projective if scheme == "projective" else joint_probs_demolition
    contexts = ordered_contexts(g)
    streams = np.random.SeedSequence(seed).spawn(1 + g.n + len(contexts))
    state = pure_state(rep.psi)
    if noise.depolarizing_p > 0.0:
        d = state.d
        rho = (1.0 - noise.depolarizing_p) * state.rho + noise.depolarizing_p * np.eye(d) / d
        state = QState(rho)
    vectors = rep.vectors
    if noise.vector_misalignment_angle != 0.0:
        vectors = _misaligned_vectors(
            rep, noise.vector_misalignment_angle, np.random.default_rng(streams[0])
        )
    noisy_rep = OrthoRep(dimension=vectors.shape[1], psi=rep.psi, vectors=vectors)

    single_counts = {}
    for v in range(g.n):
        p1 = _flip_single(born_single(state, vectors[v]), noise.outcome_flip_p)
        rng = np.random.default_rng(streams[1 + v])
        n1 = int(rng.binomial(shots, min(1.0, max(0.0, p1))))
        single_counts[v] = (shots - n1, n1)
    pair_counts = {}
    for k, ctx in enumerate(contexts):
        probs = _flip_joint(joint_fn(state, ctx, noisy_rep), noise.outcome_flip_p)
        vec = np.array([max(0.0, probs[o]) for o in OUTCOMES])
        vec = vec / vec.sum()
        rng = np.random.default_rng(streams[1 + g.n + k])
        counts = rng.multinomial(shots, vec)
        pair_counts[ctx] = {o: int(c) for o, c in zip(OUTCOMES, counts)}
    keys = sorted(pair_counts)
    return (
        tuple(keys),
        tuple(single_counts[v][1] for v in range(g.n)),
        tuple(tuple(pair_counts[k][o] for o in OUTCOMES) for k in keys),
    )
