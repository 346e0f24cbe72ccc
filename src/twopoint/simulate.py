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
from typing import Mapping, Optional

import numpy as np

from .graphs import Edge, Graph
from .orthorep import OrthoRep

PROB_ATOL = 1e-12
SCHEMES = ("projective", "demolition")


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


def _joint_probs(
    state: QState, ctx: TwoPointContext, rep: OrthoRep, demolition: bool
) -> dict[tuple[int, int], float]:
    """P(a, b) = P(a) P(b|a); the schemes differ only in the state that the
    second measurement sees after first outcome 1.  The conditional state
    stays a plain matrix: a QState would reject the roundoff that dividing
    by a tiny P(a) leaves in it, although the product P(a) P(b|a) is sound."""
    v1 = np.asarray(rep.vectors[ctx.first], dtype=complex)
    v2 = np.asarray(rep.vectors[ctx.second], dtype=complex)
    p_first1 = born_single(state, v1)
    probs: dict[tuple[int, int], float] = {}
    for a, pa in ((1, p_first1), (0, 1.0 - p_first1)):
        if pa <= _BRANCH_ATOL:
            probs[(a, 0)] = 0.0
            probs[(a, 1)] = 0.0
            continue
        if demolition and a == 1:
            u = v1 / np.linalg.norm(v1)
            rho = np.outer(u, u.conj())
        else:
            rho = _luders_rho(state.rho, v1, a)
        pb1 = _born(rho, v2)
        probs[(a, 1)] = pa * pb1
        probs[(a, 0)] = pa * (1.0 - pb1)
    return {k: min(1.0, max(0.0, p)) for k, p in probs.items()}


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


def binomial_stderr(p: float, shots: int) -> float:
    """Binomial standard error with a continuity floor at degenerate estimates."""
    if p <= 0.0 or p >= 1.0:
        return math.sqrt(0.25 / shots)
    return math.sqrt(p * (1.0 - p) / shots)


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


@dataclass(frozen=True)
class SignalingEntry:
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
    """Counts and derived statistics of one simulated experiment."""

    graph: Graph
    scheme: str
    seed: int
    shots: int
    noise: NoiseModel
    single_counts: dict[int, tuple[int, int]]  # vertex -> (count of 0, count of 1)
    pair_counts: dict[tuple[int, int], dict[tuple[int, int], int]]

    def single_estimate(self, v: int) -> tuple[float, float]:
        n0, n1 = self.single_counts[v]
        p = n1 / self.shots
        return p, binomial_stderr(p, self.shots)

    def pair_estimate(self, first: int, second: int, a: int, b: int) -> tuple[float, float]:
        c = self.pair_counts[(first, second)][(a, b)]
        p = c / self.shots
        return p, binomial_stderr(p, self.shots)

    def pooled_pair11(self, i: int, j: int) -> tuple[float, float]:
        """P(1,1) estimate pooled over the two measurement orders of an edge."""
        c = self.pair_counts[(i, j)][(1, 1)] + self.pair_counts[(j, i)][(1, 1)]
        n = 2 * self.shots
        p = c / n
        return p, binomial_stderr(p, n)

    def marginal(self, ctx: tuple[int, int], position: int, outcome: int) -> tuple[float, float]:
        """Marginal estimate of the first (position 0) or second (position 1)
        measurement of the ordered pair ``ctx = (first, second)``."""
        c = sum(n for ab, n in self.pair_counts[ctx].items() if ab[position] == outcome)
        p = c / self.shots
        return p, binomial_stderr(p, self.shots)

    def s_estimate(self) -> tuple[float, float]:
        """Witness estimate with combined binomial standard error."""
        value = 0.0
        var = 0.0
        for v in range(self.graph.n):
            p, se = self.single_estimate(v)
            value += p
            var += se * se
        for (i, j) in self.graph.edges:
            p, se = self.pooled_pair11(i, j)
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
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if rep.n != g.n:
        raise ValueError(f"representation covers {rep.n} vertices, graph has {g.n}")
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

    single_counts: dict[int, tuple[int, int]] = {}
    for v in range(g.n):
        p1 = _flip_single(born_single(state, vectors[v]), noise.outcome_flip_p)
        rng = np.random.default_rng(streams[1 + v])
        n1 = int(rng.binomial(shots, min(1.0, max(0.0, p1))))
        single_counts[v] = (shots - n1, n1)

    outcome_order = ((0, 0), (0, 1), (1, 0), (1, 1))
    pair_counts: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for k, ctx in enumerate(contexts):
        probs = _flip_joint(joint_fn(state, ctx, noisy_rep), noise.outcome_flip_p)
        vec = np.array([max(0.0, probs[o]) for o in outcome_order])
        vec = vec / vec.sum()
        rng = np.random.default_rng(streams[1 + g.n + k])
        counts = rng.multinomial(shots, vec)
        pair_counts[(ctx.first, ctx.second)] = {
            o: int(c) for o, c in zip(outcome_order, counts)
        }

    return ExperimentRecord(
        graph=g,
        scheme=scheme,
        seed=seed,
        shots=shots,
        noise=noise,
        single_counts=single_counts,
        pair_counts=pair_counts,
    )


def _signaling(record: ExperimentRecord, position: int) -> list[SignalingEntry]:
    """Compare the marginal at ``position`` of every observable across the settings
    measured with it in the other position, from two marginals per context."""
    other = 1 - position
    groups: dict[int, list] = {}
    for ctx in sorted(record.pair_counts, key=lambda c: c[other]):
        marginals = [record.marginal(ctx, position, outcome) for outcome in (0, 1)]
        groups.setdefault(ctx[position], []).append((ctx[other], marginals))
    out: list[SignalingEntry] = []
    for fixed, rows in sorted(groups.items()):
        for x, (varied_a, m1) in enumerate(rows):
            for varied_b, m2 in rows[x + 1:]:
                for outcome in (0, 1):
                    (p1, se1), (p2, se2) = m1[outcome], m2[outcome]
                    out.append(
                        SignalingEntry(
                            fixed=fixed,
                            varied_a=varied_a,
                            varied_b=varied_b,
                            outcome=outcome,
                            difference=abs(p1 - p2),
                            stderr=math.sqrt(se1 * se1 + se2 * se2),
                        )
                    )
    return out


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
