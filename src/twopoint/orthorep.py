"""Extraction and verification of Lovasz-optimum orthogonal representations.

A representation assigns a unit vector to every vertex, with vectors of
adjacent vertices orthogonal, together with a unit handle state psi whose
squared overlaps with the vertex vectors sum to the Lovasz number.  The
extractor factors the optimal primal matrix of the theta program; the
verifier certifies the result numerically instead of trusting the
construction.  It feeds the exact witness values and the simulation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph
from .theta import SdpSolution, SdpStatus


class ExtractionError(RuntimeError):
    """The factorization did not produce a verifiable representation."""


@dataclass(frozen=True)
class OrthoRep:
    """Unit handle state ``psi`` plus one unit vector per vertex (rows of ``vectors``).

    Arrays are frozen at construction; instances are safe to share between
    threads.
    """

    dimension: int
    psi: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        psi = np.array(self.psi)
        vectors = np.array(self.vectors)
        psi.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def overlap(self, v: int) -> float:
        """Squared overlap |<v|psi>|^2 of vertex v's vector with the handle."""
        return float(abs(np.vdot(self.vectors[v], self.psi)) ** 2)

    def overlap_sum(self) -> float:
        return sum(self.overlap(v) for v in range(self.n))


@dataclass(frozen=True)
class OrthoRepReport:
    max_edge_overlap: float
    max_norm_error: float
    overlap_sum: float
    overlap_error: Optional[float]
    orthogonality_ok: bool
    norms_ok: bool
    overlap_ok: bool

    @property
    def passed(self) -> bool:
        return self.orthogonality_ok and self.norms_ok and self.overlap_ok


def verify_ortho_rep(
    g: Graph,
    rep: OrthoRep,
    tolerance: float,
    theta_target: Optional[float] = None,
) -> OrthoRepReport:
    """Check edge orthogonality, unit norms, and (optionally) the overlap sum."""
    if rep.vectors.shape != (g.n, rep.dimension):
        raise ValueError(
            f"vectors have shape {rep.vectors.shape}, expected ({g.n},{rep.dimension})"
        )
    if rep.psi.shape != (rep.dimension,):
        raise ValueError(f"psi has shape {rep.psi.shape}, expected ({rep.dimension},)")
    max_edge = 0.0
    for (i, j) in g.edges:
        max_edge = max(max_edge, float(abs(np.vdot(rep.vectors[i], rep.vectors[j]))))
    norm_errs = [abs(float(np.linalg.norm(rep.psi)) - 1.0)]
    norm_errs += [
        abs(float(np.linalg.norm(rep.vectors[v])) - 1.0) for v in range(g.n)
    ]
    max_norm_err = max(norm_errs)
    total = rep.overlap_sum()
    overlap_error = None if theta_target is None else abs(total - theta_target)
    return OrthoRepReport(
        max_edge_overlap=max_edge,
        max_norm_error=max_norm_err,
        overlap_sum=total,
        overlap_error=overlap_error,
        orthogonality_ok=max_edge <= tolerance,
        norms_ok=max_norm_err <= tolerance,
        overlap_ok=overlap_error is None or overlap_error <= tolerance,
    )


_ASCENT_SWEEPS = 100


def _ascend_overlap_sum(g: Graph, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alternating maximization of the handle overlap sum.

    With the vectors fixed, the best handle is the dominant eigenvector of
    B = sum_v |v><v| (the sum equals <psi|B|psi>); with the handle fixed,
    the best vector at v is the normalized projection of psi onto the
    orthogonal complement of v's neighbors.  Both steps keep edge
    orthogonality exact and never decrease the sum, which repairs the
    O(sqrt(gap)) vector errors that degenerate optimal faces leave in the
    factorization.  Returns the polished vectors and the final handle.
    """
    nbrs = [list(g.neighbors(v)) for v in range(g.n)]
    best = -math.inf
    for _ in range(_ASCENT_SWEEPS):
        op = vectors.T @ vectors
        vals, vecs = np.linalg.eigh(op)
        psi = vecs[:, -1]
        total = float(vals[-1])
        if total <= best + 1e-14:
            break
        best = total
        for v in range(g.n):
            if nbrs[v]:
                q = np.linalg.qr(vectors[nbrs[v]].T)[0]
                proj = psi - q @ (q.T @ psi)
            else:
                proj = psi
            gain = float(proj @ proj)
            if gain > float(psi @ vectors[v]) ** 2 and gain > 1e-16:
                vectors[v] = proj / math.sqrt(gain)
    return vectors, psi


def _complete_zero_columns(
    g: Graph,
    vectors: np.ndarray,
    zero: list[int],
    handle_dir: np.ndarray,
    tolerance: float,
) -> np.ndarray:
    """Assign unit vectors to vertices whose factor column vanished.

    Each such vertex gets a vector orthogonal to its neighbors' vectors and
    to the handle direction (so the overlap sum is untouched); when no such
    direction exists the ambient dimension grows by one.
    """
    for v in zero:
        nbr = g.neighbors(v)
        d = vectors.shape[1]
        rows = [vectors[u] for u in nbr]
        rows.append(np.pad(handle_dir, (0, d - handle_dir.shape[0])))
        basis = np.vstack(rows)
        found = None
        if basis.shape[0] < d:
            # Right-singular vectors with vanishing singular value span the
            # orthogonal complement of the constraint rows.
            s, vt = np.linalg.svd(basis)[1:]
            if int(np.sum(s > math.sqrt(tolerance))) < d:
                found = vt[-1]
        if found is None:
            vectors = np.hstack([vectors, np.zeros((vectors.shape[0], 1))])
            found = np.zeros(vectors.shape[1])
            found[-1] = 1.0
        vectors[v] = found / np.linalg.norm(found)
    return vectors


def extract_ortho_rep(
    g: Graph, sol: SdpSolution, tolerance: float = 1e-7
) -> OrthoRep:
    """Build the representation realizing the quantum maximum from the SDP optimum.

    Factors X = W^T W through an eigendecomposition (eigenvalues below
    ``tolerance`` truncated); normalized columns are the vertex vectors.
    The handle is the dominant eigenvector of B = sum_v |v><v|: the overlap
    sum equals <psi|B|psi>, so this choice maximizes it and, unlike the
    column-sum direction, stays accurate when the optimal face is
    degenerate and the per-vertex complementarity residuals dwarf the
    duality gap.  The output is verified at 100 x tolerance; failure raises
    ExtractionError rather than returning a silently bad representation.
    """
    if sol.status is not SdpStatus.CONVERGED:
        raise ValueError(f"need a converged SDP solution, got status {sol.status.value}")
    X = np.asarray(sol.X, dtype=float)
    if X.shape != (g.n, g.n):
        raise ValueError(f"solution shape {X.shape} does not match n={g.n}")
    eigvals, eigvecs = np.linalg.eigh((X + X.T) / 2)
    keep = eigvals > tolerance
    if not np.any(keep):
        raise ExtractionError("primal matrix has no eigenvalue above tolerance")
    W = np.sqrt(eigvals[keep])[:, None] * eigvecs[:, keep].T  # columns w_v
    columns = W.T.copy()  # row v = w_v
    norms_sq = np.sum(columns**2, axis=1)
    zero = [v for v in range(g.n) if norms_sq[v] <= 100 * tolerance]
    live = [v for v in range(g.n) if v not in set(zero)]
    if not live:
        raise ExtractionError("every factor column is (numerically) zero")
    vectors = columns.copy()
    for v in live:
        vectors[v] = columns[v] / math.sqrt(norms_sq[v])
    overlap_op = vectors[live].T @ vectors[live]
    handle = np.linalg.eigh(overlap_op)[1][:, -1]
    # orient along the column sum so the handle is reproducible
    if float(handle @ columns[live].sum(axis=0)) < 0:
        handle = -handle
    vectors = _complete_zero_columns(g, vectors, zero, handle, tolerance)
    vectors, handle = _ascend_overlap_sum(g, vectors)
    reference = np.zeros(vectors.shape[1])
    reference[: columns.shape[1]] = columns[live].sum(axis=0)
    if float(handle @ reference) < 0:
        handle = -handle
    rep = OrthoRep(dimension=vectors.shape[1], psi=handle, vectors=vectors)
    report = verify_ortho_rep(g, rep, 100 * tolerance, theta_target=sol.primal_value)
    if not report.passed:
        raise ExtractionError(
            "extracted representation failed verification: "
            f"edge overlap {report.max_edge_overlap:.3e}, "
            f"norm error {report.max_norm_error:.3e}, "
            f"overlap-sum error {report.overlap_error:.3e}"
        )
    return rep
