"""Simulation of two-point sequential-measurement experiments.

Exact joint probabilities are available through two schemes that must agree:
a projective scheme (measure, update the state by Lueders's rule, measure
again) and a demolition-and-repreparation scheme (measure destructively,
then re-prepare the first observable's eigenstate on outcome 1 or the
Lueders outcome-0 state on outcome 0).  Monte Carlo experiments sample every
single-observable context and every ordered pair context with a fixed number
of shots, under an optional noise model, and carry no-signaling diagnostics:
epsilon compares the second measurement's marginal across first settings,
epsilon-prime the first measurement's marginal across second settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .graphs import Edge, Graph
from .orthorep import OrthoRep

PROB_ATOL = 1e-12
SCHEMES = ("projective", "demolition")
OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))  # the (a, b) order of every count array


@dataclass(frozen=True)
class QState:
    """Density matrix state; Hermitian, unit trace, positive semidefinite."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {rho.shape}")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise ValueError(f"trace must be 1, got {np.trace(rho)}")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise ValueError("density matrix must be Hermitian")
        if float(np.linalg.eigvalsh(rho)[0]) < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def d(self) -> int:
        return self.rho.shape[0]


def pure_state(vec: np.ndarray) -> QState:
    v = np.asarray(vec, dtype=complex)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ValueError("cannot prepare a pure state from the zero vector")
    v = v / norm
    return QState(np.outer(v, v.conj()))


@dataclass(frozen=True)
class NoiseModel:
    """Preparation, measurement, and readout imperfections.

    depolarizing_p mixes the state with I/d; vector_misalignment_angle
    rotates every measurement vector by that angle in an independently
    sampled direction (fixed for the duration of one experiment);
    outcome_flip_p flips each recorded bit independently.
    """

    depolarizing_p: float = 0.0
    vector_misalignment_angle: float = 0.0
    outcome_flip_p: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.depolarizing_p <= 1.0:
            raise ValueError("depolarizing_p must lie in [0, 1]")
        if not 0.0 <= self.outcome_flip_p <= 1.0:
            raise ValueError("outcome_flip_p must lie in [0, 1]")
        if not math.isfinite(self.vector_misalignment_angle):
            raise ValueError("vector_misalignment_angle must be finite")


@dataclass(frozen=True)
class TwoPointContext:
    """An ordered pair of adjacent observables measured in sequence."""

    first: int
    second: int


def context(g: Graph, first: int, second: int) -> TwoPointContext:
    """Validated context constructor: (first, second) must be an edge of g."""
    if first == second:
        raise ValueError("a context needs two distinct observables")
    if (min(first, second), max(first, second)) not in g.edge_set:
        raise ValueError(f"({first},{second}) is not an edge; observables are not compatible")
    return TwoPointContext(first=first, second=second)


def ordered_contexts(g: Graph) -> list[TwoPointContext]:
    """Both orders of every edge, sorted by (first, second)."""
    out = []
    for (i, j) in g.edges:
        out.append(TwoPointContext(i, j))
        out.append(TwoPointContext(j, i))
    return sorted(out, key=lambda c: (c.first, c.second))


def born_single(state: QState, v: np.ndarray) -> float:
    """Probability <v|rho|v> of outcome 1 for the projector onto v."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (state.d,):
        raise ValueError(f"vector dimension {v.shape} does not match state dimension {state.d}")
    return _born(state.rho, v)


def _born(rho: np.ndarray, v: np.ndarray) -> float:
    p = float(np.real(np.vdot(v, rho @ v)))
    return min(1.0, max(0.0, p))


def _luders_rho(rho: np.ndarray, v: np.ndarray, outcome: int) -> np.ndarray:
    """Normalised Lueders post-measurement matrix; raises on a near-zero outcome."""
    proj = np.outer(v, v.conj())
    op = proj if outcome == 1 else np.eye(rho.shape[0]) - proj
    unnorm = op @ rho @ op
    p = float(np.real(np.trace(unnorm)))
    if p <= PROB_ATOL:
        raise ValueError(f"conditioning on outcome {outcome} with probability {p:.3e}")
    rho = unnorm / p
    return (rho + rho.conj().T) / 2


def luders_update(state: QState, v: np.ndarray, outcome: int) -> QState:
    """Post-measurement state under Lueders's rule for the projector onto v."""
    if outcome not in (0, 1):
        raise ValueError("outcome must be a bit")
    v = np.asarray(v, dtype=complex)
    if v.shape != (state.d,):
        raise ValueError(f"vector dimension {v.shape} does not match state dimension {state.d}")
    return QState(_luders_rho(state.rho, v, outcome))


_BRANCH_ATOL = 10 * PROB_ATOL  # skip margin above the conditioning threshold


def _conditionals(
    state: QState, v1: np.ndarray, demolition: bool
) -> list[tuple[int, float, Optional[np.ndarray]]]:
    """The first measurement of ``v1``: for outcome a = 1, then a = 0, P(a) and
    the matrix that the second measurement sees after it, or None when P(a)
    is too small to condition on.  The schemes differ only in that matrix
    after outcome 1.  It stays a plain matrix: a QState would reject the
    roundoff that dividing by a tiny P(a) leaves in it, although the product
    P(a) P(b|a) is sound."""
    p_first1 = born_single(state, v1)
    out = []
    for a, pa in ((1, p_first1), (0, 1.0 - p_first1)):
        if pa <= _BRANCH_ATOL:
            out.append((a, pa, None))
        elif demolition and a == 1:
            u = v1 / np.linalg.norm(v1)
            out.append((a, pa, np.outer(u, u.conj())))
        else:
            out.append((a, pa, _luders_rho(state.rho, v1, a)))
    return out


def _second_probs(
    conditionals: list[tuple[int, float, Optional[np.ndarray]]], v2: np.ndarray
) -> dict[tuple[int, int], float]:
    """P(a, b) = P(a) P(b|a) from the first measurement's :func:`_conditionals`."""
    probs: dict[tuple[int, int], float] = {}
    for a, pa, rho in conditionals:
        if rho is None:
            probs[(a, 0)] = 0.0
            probs[(a, 1)] = 0.0
            continue
        pb1 = _born(rho, v2)
        probs[(a, 1)] = pa * pb1
        probs[(a, 0)] = pa * (1.0 - pb1)
    return {k: min(1.0, max(0.0, p)) for k, p in probs.items()}


def _joint_probs(
    state: QState, ctx: TwoPointContext, rep: OrthoRep, demolition: bool
) -> dict[tuple[int, int], float]:
    v1 = np.asarray(rep.vectors[ctx.first], dtype=complex)
    v2 = np.asarray(rep.vectors[ctx.second], dtype=complex)
    return _second_probs(_conditionals(state, v1, demolition), v2)


def joint_probs_projective(
    state: QState, ctx: TwoPointContext, rep: OrthoRep
) -> dict[tuple[int, int], float]:
    """Joint outcome probabilities from sequential projective measurements."""
    return _joint_probs(state, ctx, rep, demolition=False)


def joint_probs_demolition(
    state: QState, ctx: TwoPointContext, rep: OrthoRep
) -> dict[tuple[int, int], float]:
    """Joint probabilities from a demolition measurement plus repreparation.

    Outcome 1 re-prepares the first observable's eigenstate, so
    P(1,b) = P(1|first) * P(b measured on that eigenstate); outcome 0
    re-prepares the Lueders outcome-0 state of the input.  Agrees with the
    projective scheme for every state, context, and representation.
    """
    return _joint_probs(state, ctx, rep, demolition=True)


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
    """The compiled witness: singles plus, per edge, P(0,0) + P(0,1) + P(1,0).

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
        for outcomes in ((0, 0), (0, 1), (1, 0)):
            if outcomes not in table:
                raise ValueError(f"pair table for edge {e} missing outcome {outcomes}")
            total += table[outcomes]
    return total


def binomial_estimates(
    counts: np.ndarray | Sequence[int], shots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise estimate p = c / shots of outcome counts and its binomial
    standard error sqrt(p (1 - p) / shots), floored at sqrt(0.25 / shots) where
    p is 0 or 1.  ``counts`` is an int64 array, or a sequence of Python ints
    where they may pass int64 (pooled counts reach 2 shots - 2).  Every p is
    the correctly rounded quotient, as Python's ``c / shots`` gives it."""
    if shots <= 2**53:  # counts and shots convert to doubles exactly
        p = np.asarray(counts, dtype=np.int64) / shots
    else:  # exact Python ints, as pooled counts may pass int64
        exact = np.array(counts, dtype=object)
        p = np.array([c / shots for c in exact.ravel().tolist()]).reshape(exact.shape)
    floor = math.sqrt(0.25 / shots)
    return p, np.where((p <= 0.0) | (p >= 1.0), floor, np.sqrt(p * (1.0 - p) / shots))


def _flip_single(p1: float, f: float) -> float:
    return (1.0 - f) * p1 + f * (1.0 - p1)


def _flip_joint(
    probs: dict[tuple[int, int], float], f: float
) -> dict[tuple[int, int], float]:
    if f == 0.0:
        return probs
    out: dict[tuple[int, int], float] = {}
    for a in (0, 1):
        for b in (0, 1):
            total = 0.0
            for (a0, b0), p in probs.items():
                qa = 1.0 - f if a == a0 else f
                qb = 1.0 - f if b == b0 else f
                total += p * qa * qb
            out[(a, b)] = total
    return out


def _misaligned_vectors(rep: OrthoRep, angle: float, rng: np.random.Generator) -> np.ndarray:
    """Rotate each vertex vector by ``angle`` toward an independent random direction."""
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


class SignalingEntry(NamedTuple):
    """One marginal-consistency comparison.

    ``fixed`` is the observable whose marginal is compared while the
    co-measured setting changes between ``varied_a`` and ``varied_b``;
    ``difference`` is the absolute difference of the two marginal estimates
    for ``outcome`` and ``stderr`` its propagated standard error.
    """

    fixed: int
    varied_a: int
    varied_b: int
    outcome: int
    difference: float
    stderr: float


@dataclass(frozen=True)
class ExperimentRecord:
    """The counts one simulated experiment drew, as the sampler draws them.

    ``contexts`` holds the ordered contexts (first, second), sorted;
    ``single_counts[v]`` is vertex v's count of outcome 1 (of 0, ``shots``
    minus it); ``pair_counts[k]`` is ``contexts[k]``'s counts in ``OUTCOMES``
    order.  Tuples keep the record comparable with ``==`` and hashable.
    """

    graph: Graph
    scheme: str
    seed: int
    shots: int
    noise: NoiseModel
    contexts: tuple[tuple[int, int], ...]
    single_counts: tuple[int, ...]
    pair_counts: tuple[tuple[int, int, int, int], ...]

    def s_estimate(self) -> tuple[float, float]:
        """Witness estimate with combined binomial standard error: each vertex's
        P(1) less each edge's P(1,1), pooled over its two orders."""
        n11 = {c: row[3] for c, row in zip(self.contexts, self.pair_counts)}  # OUTCOMES[3] = (1, 1)
        pooled = [n11[(i, j)] + n11[(j, i)] for (i, j) in self.graph.edges]  # may pass int64
        p1, se1 = binomial_estimates(self.single_counts, self.shots)
        p11, se11 = binomial_estimates(pooled, 2 * self.shots)
        value = 0.0
        var = 0.0
        # plain loops, not sum(), which compensates from Python 3.12 on
        for p, se in zip(p1.tolist(), se1.tolist()):
            value += p
            var += se * se
        for p, se in zip(p11.tolist(), se11.tolist()):
            value -= p
            var += se * se
        return value, math.sqrt(var)


def run_experiment(
    rep: OrthoRep,
    g: Graph,
    shots: int,
    seed: int,
    noise: Optional[NoiseModel] = None,
    scheme: str = "projective",
) -> ExperimentRecord:
    """Simulate the full two-point experiment with finite statistics.

    Every vertex is measured alone and every edge in both orders, each for
    ``shots`` trials.  Outcomes are drawn from the exact per-context
    distribution of the chosen scheme under the noise model, using one
    independent RNG stream per context spawned from the master seed (stream
    k of SeedSequence(seed): k=0 drives vector misalignment, then singles in
    vertex order, then ordered pair contexts sorted by (first, second)), so
    results do not depend on sampling order.  Fixed seed, fixed record.

    Conditioning happens once per first observable: P(first = 1) and the
    matrices the second measurement sees (Lueders, or the re-prepared
    eigenstate) are computed when the sorted contexts reach a new first
    observable, and each context adds one Born probability per first
    outcome.  The probabilities are those of ``joint_probs_projective`` and
    ``joint_probs_demolition``, bit for bit.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots >= 2**63:
        raise ValueError(f"shots must be below 2**63 (counts are int64), got {shots}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if rep.n != g.n:
        raise ValueError(f"representation covers {rep.n} vertices, graph has {g.n}")
    noise = noise or NoiseModel()
    flip = noise.outcome_flip_p

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
    vectors = np.asarray(vectors, dtype=complex)

    single_counts = []
    for v in range(g.n):
        p1 = _flip_single(born_single(state, vectors[v]), flip)
        rng = np.random.default_rng(streams[1 + v])
        single_counts.append(int(rng.binomial(shots, min(1.0, max(0.0, p1)))))

    demolition = scheme == "demolition"
    pair_counts = []
    first = None
    for k, ctx in enumerate(contexts):
        if ctx.first != first:
            first = ctx.first
            conditionals = _conditionals(state, vectors[first], demolition)
        probs = _flip_joint(_second_probs(conditionals, vectors[ctx.second]), flip)
        vec = np.array([max(0.0, probs[o]) for o in OUTCOMES])
        vec = vec / vec.sum()
        rng = np.random.default_rng(streams[1 + g.n + k])
        pair_counts.append(tuple(rng.multinomial(shots, vec).tolist()))

    return ExperimentRecord(
        graph=g,
        scheme=scheme,
        seed=seed,
        shots=shots,
        noise=noise,
        contexts=tuple((c.first, c.second) for c in contexts),
        single_counts=tuple(single_counts),
        pair_counts=tuple(pair_counts),
    )


def _signaling(record: ExperimentRecord, position: int) -> list[SignalingEntry]:
    """Compare the marginal at ``position`` of every observable across the settings
    measured with it in the other position.

    The tables come from count arrays: the count rows are read once into a
    contexts x 4 array, each context's two marginal counts, estimates and
    standard errors are computed once, and a fixed observable's comparisons
    are index pairs into them, in (fixed, varied_a, varied_b, outcome) order.
    """
    other = 1 - position
    counts = np.array(record.pair_counts, dtype=np.int64).reshape(-1, 4)
    ctx = np.array(record.contexts, dtype=np.int64).reshape(-1, 2)
    # counts[k, a, b]: summing out the other position leaves the marginal of ``position``
    p, se = binomial_estimates(counts.reshape(-1, 2, 2).sum(axis=2 - position), record.shots)
    groups: dict[int, list[int]] = {}
    for k in np.lexsort((ctx[:, other], ctx[:, position])).tolist():
        groups.setdefault(record.contexts[k][position], []).append(k)
    pairs = [(x, y) for rows in groups.values() for i, x in enumerate(rows) for y in rows[i + 1:]]
    a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    columns = (  # one row per pair and outcome, outcome fastest
        ctx[a, position].repeat(2).tolist(),
        ctx[a, other].repeat(2).tolist(),
        ctx[b, other].repeat(2).tolist(),
        [0, 1] * len(pairs),
        np.abs(p[a] - p[b]).ravel().tolist(),
        np.sqrt(se[a] * se[a] + se[b] * se[b]).ravel().tolist(),
    )
    return list(map(SignalingEntry._make, zip(*columns)))


def epsilon_signaling(record: ExperimentRecord) -> list[SignalingEntry]:
    """Influence of the first setting on the second measurement's marginal.

    For every observable B and every pair of first settings A, A' measured
    before B, and each outcome b, reports |P(.,b|A,B) - P(.,b|A',B)| with
    propagated standard error.  Zero for perfectly compatible measurements;
    sensitive to measurement imperfections.
    """
    return _signaling(record, 1)


def epsilon_prime(record: ExperimentRecord) -> list[SignalingEntry]:
    """Influence of the later setting on the first measurement's marginal.

    Zero by causality in any sampling scheme; its empirical spread is the
    yardstick against which the epsilon table is judged.
    """
    return _signaling(record, 0)
