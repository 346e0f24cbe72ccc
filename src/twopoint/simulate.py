"""Simulation of two-point sequential-measurement experiments.

Exact joint probabilities are available through two schemes that must agree:
a projective scheme (measure, update the state by Lueders's rule, measure
again) and a demolition-and-repreparation scheme (measure destructively,
then re-prepare the first observable's eigenstate on outcome 1 or the
Lueders outcome-0 state on outcome 0).  Both are one-context views of one
exact kernel that computes the joint tables of many contexts at once, and
`exact_witnesses` sums S and S' straight from its table of the edges.  Monte
Carlo experiments sample every single-observable context and every ordered
pair context with a fixed number of shots, under an optional noise model,
from one call of that kernel: seed stream 0 draws the vector misalignment,
stream 1 every count, so a fixed seed gives a fixed record within a version
of the package.  Records carry no-signaling diagnostics, as the columns of
`ExperimentRecord.signaling_columns`: epsilon compares the second
measurement's marginal across first settings, epsilon-prime the first
measurement's marginal across second settings.  Their JSON rows are written
by `serialize`, which also returns them as tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, reduce_to_fields
from .orthorep import OrthoRep

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

    __reduce__ = reduce_to_fields

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


def ordered_contexts(g: Graph) -> list[tuple[int, int]]:
    """The contexts (first, second): both orders of every edge, sorted."""
    return sorted([*g.edges, *((j, i) for (i, j) in g.edges)])


def _joint_table(
    rho: np.ndarray, vectors: np.ndarray, contexts: np.ndarray, demolition: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The exact kernel: every vertex's Born probability P(1) and, for the
    k x 2 array ``contexts`` of (first, second) rows, the k x 4 table of
    P(a, b) in ``OUTCOMES`` order.

    Built from n x n per-vertex matrices, the overlaps G = <v_i|v_j> and
    R = <v_i|rho|v_j>.  Outcome a of the first measurement leaves the
    unnormalised Lueders matrix Pi_a rho Pi_a, so Q_a = tr(Pi_b Pi_a rho Pi_a)
    is |G_ij|^2 P(1) for a = 1 and R_jj - 2 Re(conj(G_ij) R_ij) + |G_ij|^2 R_ii
    for a = 0.  The demolition scheme re-prepares the normalised eigenstate on
    a = 1, dividing |G_ij|^2 by G_ii; its a = 0 branch is Lueders's.  Each row
    is P(a, 0) = P(a) - Q_a clamped to [0, P(a)] and P(a, 1) = P(a) - P(a, 0),
    so a conditional below double resolution reads as 0 and every row keeps
    its first outcome's mass P(a), however small: no state is conditioned,
    so a branch too rare to condition a density matrix on is still well
    defined.
    """
    if vectors.shape[1] != rho.shape[0]:
        raise ValueError(
            f"vector dimension {vectors.shape[1:]} does not match state dimension {rho.shape[0]}"
        )
    bra = vectors.conj()
    gram = bra @ vectors.T
    sandwich = (bra @ rho) @ vectors.T
    diag = sandwich.diagonal().real
    born = np.clip(diag, 0.0, 1.0)
    first, second = contexts[:, 0], contexts[:, 1]
    g = gram[first, second]
    g2 = g.real * g.real + g.imag * g.imag
    p1 = born[first]
    p0 = 1.0 - p1
    q1 = p1 * (g2 / gram.diagonal().real[first] if demolition else g2)
    q0 = diag[second] - 2.0 * (g.conj() * sandwich[first, second]).real + g2 * diag[first]
    table = np.empty((len(first), 4))
    for col, pa, qa in ((0, p0, q0), (2, p1, q1)):
        table[:, col] = np.minimum(np.maximum(pa - qa, 0.0), pa)
        table[:, col + 1] = pa - table[:, col]
    return born, table


def _joint_probs(
    state: QState, ctx: tuple[int, int], rep: OrthoRep, demolition: bool
) -> dict[tuple[int, int], float]:
    vectors = np.asarray(rep.vectors[list(ctx)], dtype=complex)
    _, table = _joint_table(state.rho, vectors, np.array([[0, 1]]), demolition)
    return dict(zip(OUTCOMES, table[0].tolist()))


def joint_probs_projective(
    state: QState, ctx: tuple[int, int], rep: OrthoRep
) -> dict[tuple[int, int], float]:
    """Joint outcome probabilities from sequential projective measurements."""
    return _joint_probs(state, ctx, rep, demolition=False)


def joint_probs_demolition(
    state: QState, ctx: tuple[int, int], rep: OrthoRep
) -> dict[tuple[int, int], float]:
    """Joint probabilities from a demolition measurement plus repreparation.

    Outcome 1 re-prepares the first observable's eigenstate, so
    P(1,b) = P(1|first) * P(b measured on that eigenstate); outcome 0
    re-prepares the Lueders outcome-0 state of the input.  Agrees with the
    projective scheme for every state, context, and representation.
    """
    return _joint_probs(state, ctx, rep, demolition=True)


def exact_witnesses(rep: OrthoRep, g: Graph) -> tuple[float, float]:
    """The exact witness values (S, S') of ``rep`` on ``g``, from one call of the
    exact kernel over the edges as (first, second) contexts, in the pure
    state ``rep.psi`` and the projective scheme.

    S is the singles P(1) = |<v|psi>|^2 less each edge's P(1, 1); S' is the
    singles plus each edge's three pair events of G', P(0, 0), P(0, 1) and
    P(1, 0), and exceeds S by the number of edges up to rounding.  Both start
    from the singles' sum `OrthoRep.overlap_sum` and add the edges left to
    right in the order of ``g.edges``.
    """
    if rep.n != g.n:
        raise ValueError(f"representation covers {rep.n} vertices, graph has {g.n}")
    _, table = _joint_table(
        pure_state(rep.psi).rho,
        np.asarray(rep.vectors, dtype=complex),
        np.stack(g.edge_index, axis=1),
        demolition=False,
    )
    s = s_prime = rep.overlap_sum()
    for p00, p01, p10, p11 in table.tolist():
        s -= p11
        s_prime += p00
        s_prime += p01
        s_prime += p10
    return s, s_prime


def binomial_estimates(
    counts: np.ndarray | Sequence[int], shots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise estimate p = c / shots of outcome counts and its binomial
    standard error sqrt(p q / shots), floored at sqrt(0.25 / shots) where c is
    0 or ``shots``.  ``counts`` is an int64 array, or a sequence of Python ints
    where they may pass int64 (pooled counts reach 2 shots - 2).  Every p, and
    q = (shots - c) / shots, is the correctly rounded quotient of integers, as
    Python's ``c / shots`` gives it.  So the complementary count shots - c has
    p and q swapped and the same standard error to the last bit; 1 - p, the
    rounded complement of a rounded p, would not."""
    if shots <= 2**53:  # counts and shots convert to doubles exactly
        c = np.asarray(counts, dtype=np.int64)
        p, q = c / shots, (shots - c) / shots
    else:  # exact Python ints, as pooled counts may pass int64
        exact = np.array(counts, dtype=object)
        flat = exact.ravel().tolist()
        p = np.array([c / shots for c in flat]).reshape(exact.shape)
        q = np.array([(shots - c) / shots for c in flat]).reshape(exact.shape)
    floor = math.sqrt(0.25 / shots)
    return p, np.where((p <= 0.0) | (q <= 0.0), floor, np.sqrt(p * q / shots))


def _flip_table(table: np.ndarray, f: float) -> np.ndarray:
    """Independent readout flips with probability f on both bits of every
    row of a k x 4 ``OUTCOMES`` table: each flipped column adds the terms
    P(a0, b0) q(a, a0) q(b, b0) elementwise, from left to right over
    (a0, b0) = (1, 1), (1, 0), (0, 1), (0, 0)."""
    q = ((1.0 - f, f), (f, 1.0 - f))  # q[x][x0]
    out = np.zeros_like(table)
    for col, (a, b) in enumerate(OUTCOMES):
        for k in (3, 2, 1, 0):
            a0, b0 = OUTCOMES[k]
            out[:, col] += table[:, k] * q[a][a0] * q[b][b0]
    return out


def _misaligned_vectors(rep: OrthoRep, angle: float, rng: np.random.Generator) -> np.ndarray:
    """Rotate each vertex vector by ``angle`` toward an independent random direction.

    One call of ``rng`` draws every vertex's standard normal candidate in
    vertex order: d entries, or for complex vectors d real then d imaginary
    entries.  The direction is the candidate's part orthogonal to the vertex
    vector, normalised.  A vertex whose orthogonal part has norm at most
    1e-9, as every vertex has at d = 1, keeps its vector.
    """
    cplx = np.iscomplexobj(rep.vectors)
    vecs = rep.vectors.astype(complex if cplx else float)
    n, d = vecs.shape
    if cplx:
        draws = rng.standard_normal((n, 2, d))
        cand = draws[:, 0] + 1j * draws[:, 1]
    else:
        cand = rng.standard_normal((n, d))
    # Row by row as np.vdot and np.linalg.norm compute them for one vector.
    cand = cand - vecs * np.vecdot(vecs, cand)[:, None]
    sq = np.vecdot(cand.real, cand.real)
    if cplx:
        sq = sq + np.vecdot(cand.imag, cand.imag)
    norm = np.sqrt(sq)
    turn = norm > 1e-9
    vecs[turn] = math.cos(angle) * vecs[turn] + math.sin(angle) * (cand[turn] / norm[turn, None])
    return vecs


@dataclass(frozen=True)
class ExperimentRecord:
    """The counts one simulated experiment drew, as the sampler draws them.

    ``contexts`` holds the (first, second) pairs of :func:`ordered_contexts`;
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

    __reduce__ = reduce_to_fields

    @functools.cached_property
    def count_array(self) -> np.ndarray:
        """``pair_counts`` as a read-only k x 4 int64 array, built once per
        instance: the record writer and the ε tables read it."""
        counts = np.array(self.pair_counts, dtype=np.int64).reshape(-1, 4)
        counts.setflags(write=False)
        return counts

    @functools.cached_property
    def signaling_columns(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The read-only columns of :func:`_signaling` at positions 0 (ε′) and 1
        (ε), indexed by position and built once per instance: the record writer,
        ``certify``'s significances and the text summary read them."""
        return _signaling(self, 0), _signaling(self, 1)

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


def check_experiment(shots: int, seed: int, scheme: str) -> None:
    """Refuse, with ValueError, shots outside [1, 2**63), a negative seed or an
    unknown scheme; `run_experiment` and `CertifyOptions` both call this."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots >= 2**63:
        raise ValueError(f"shots must be below 2**63 (counts are int64), got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")


def run_experiment(
    rep: OrthoRep,
    g: Graph,
    shots: int,
    seed: int,
    noise: NoiseModel = NoiseModel(),
    scheme: str = "projective",
) -> ExperimentRecord:
    """Simulate the full two-point experiment with finite statistics.

    Every vertex is measured alone and every edge in both orders, each for
    ``shots`` trials.  One call of the exact kernel gives every vertex's
    P(1) and the P(a, b) table of every ordered context under the chosen
    scheme (the probabilities of ``joint_probs_projective`` and
    ``joint_probs_demolition``); the readout flips act on the whole table.
    The master seed is split into two streams of SeedSequence(seed): stream
    0 draws the vector misalignment, stream 1 every count, the singles as
    one binomial draw in vertex order and then the pairs as one multinomial
    draw over the contexts sorted by (first, second).  A fixed seed gives a
    fixed record within a version of the package.
    """
    check_experiment(shots, seed, scheme)
    if rep.n != g.n:
        raise ValueError(f"representation covers {rep.n} vertices, graph has {g.n}")
    flip = noise.outcome_flip_p

    contexts = ordered_contexts(g)
    misalign_stream, count_stream = np.random.SeedSequence(seed).spawn(2)

    state = pure_state(rep.psi)
    if noise.depolarizing_p > 0.0:
        d = state.d
        rho = (1.0 - noise.depolarizing_p) * state.rho + noise.depolarizing_p * np.eye(d) / d
        state = QState(rho)
    vectors = rep.vectors
    if noise.vector_misalignment_angle != 0.0:
        vectors = _misaligned_vectors(
            rep, noise.vector_misalignment_angle, np.random.default_rng(misalign_stream)
        )
    vectors = np.asarray(vectors, dtype=complex)

    born, table = _joint_table(
        state.rho,
        vectors,
        np.array(contexts, dtype=np.intp).reshape(-1, 2),
        demolition=scheme == "demolition",
    )
    p1 = np.clip((1.0 - flip) * born + flip * (1.0 - born), 0.0, 1.0)
    table = np.maximum(_flip_table(table, flip), 0.0)
    table /= table.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(count_stream)
    single_counts = rng.binomial(shots, p1)
    pair_counts = rng.multinomial(shots, table)

    return ExperimentRecord(
        graph=g,
        scheme=scheme,
        seed=seed,
        shots=shots,
        noise=noise,
        contexts=tuple(contexts),
        single_counts=tuple(single_counts.tolist()),
        pair_counts=tuple(map(tuple, pair_counts.tolist())),
    )


def _signaling(record: ExperimentRecord, position: int) -> tuple[np.ndarray, ...]:
    """Compare the marginal at ``position`` of every observable across the settings
    measured with it in the other position.

    One comparison per pair of contexts that share the observable ``fixed`` at
    ``position`` while the co-measured setting changes between ``varied_a`` and
    ``varied_b``, in (fixed, varied_a, varied_b) order.  Returns the columns
    fixed, varied_a, varied_b, difference and stderr of an ε row, every key but
    ``outcome``, one entry per comparison, because both
    outcomes' rows hold the same numbers: outcome 0's marginal count is shots
    minus outcome 1's, so ``difference`` = |m1_a - m1_b| / shots comes from the
    integer counts, and ``binomial_estimates`` gives a count and its complement
    one standard error, so ``stderr``, propagated from the two, is shared too.

    Each context's outcome-1 marginal count, from the record's count array, and
    its standard error are computed once, and a fixed observable's comparisons
    are index pairs into them.  The columns are read-only; callers read them
    through ``ExperimentRecord.signaling_columns``, which builds them once.
    """
    other = 1 - position
    ctx = np.array(record.contexts, dtype=np.int64).reshape(-1, 2)
    # counts[k, a, b]: summing out the other position leaves the marginal of ``position``
    ones = record.count_array.reshape(-1, 2, 2).sum(axis=2 - position)[:, 1]
    _, se = binomial_estimates(ones, record.shots)
    groups: dict[int, list[int]] = {}
    for k in np.lexsort((ctx[:, other], ctx[:, position])).tolist():
        groups.setdefault(record.contexts[k][position], []).append(k)
    pairs = [(x, y) for rows in groups.values() for i, x in enumerate(rows) for y in rows[i + 1:]]
    a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    difference, _ = binomial_estimates(np.abs(ones[a] - ones[b]), record.shots)
    columns = (
        ctx[a, position], ctx[a, other], ctx[b, other],
        difference, np.sqrt(se[a] * se[a] + se[b] * se[b]),
    )
    for column in columns:
        column.setflags(write=False)
    return columns
