"""Extraction and verification of Lovasz-optimum orthogonal representations.

A representation assigns a unit vector to every vertex, with vectors of
adjacent vertices orthogonal, together with a unit handle state psi whose
squared overlaps with the vertex vectors sum to the Lovasz number.  The
extractor reads it off `theta.primal_factor`, the factor X = F F^T of the
optimal primal matrix that `theta.lift_primal` also lifts to G': psi is the
normalised sum of F's rows f_i, and each vertex vector is f_i made
orthogonal to its neighbours' vectors.  At an optimum vertex i then
contributes theta * X_ii to the overlap sum.

The tolerance is the one the SDP was solved to, ``SdpSolution.tolerance``.
F is tried at two widths.  Its columns whose eigenvalue is above the
tolerance give a low dimension (3 on the odd cycles) and usually suffice;
when they do not, all columns with a positive eigenvalue reproduce X to
round-off, at a dimension of about n.  At both widths a direction of the
neighbours' span counts only if its singular value is above a tenth of the
tolerance, so every edge overlap stays below that tenth, and a singular
value at round-off does not cost a vertex its vector.  The verifier
certifies the result numerically instead of trusting the construction.  It
feeds the exact witness values and the simulation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .theta import SdpSolution, SdpStatus, primal_factor


def realisation_gate(tolerance: float) -> float:
    """100 x the SDP tolerance: the gate of extraction's fallback and of reported realisations."""
    return 100 * tolerance


class ExtractionError(RuntimeError):
    """The factorization did not produce a verifiable representation."""


@dataclass(frozen=True)
class OrthoRep:
    """Unit handle state ``psi`` plus one unit vector per vertex (rows of ``vectors``).

    The dimension is the vectors' width, which ``psi`` must match.  Arrays
    are frozen at construction; instances are safe to share between threads.
    """

    psi: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        psi = np.array(self.psi)
        vectors = np.array(self.vectors)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be an n x d array, got shape {vectors.shape}")
        if psi.shape != vectors.shape[1:]:
            raise ValueError(f"psi has shape {psi.shape}, expected ({vectors.shape[1]},)")
        psi.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def overlaps(self) -> np.ndarray:
        """Every vertex's squared overlap |<v|psi>|^2 with the handle, in vertex
        order, from one stacked `np.vecdot`."""
        return np.abs(np.vecdot(self.vectors, self.psi)) ** 2

    def overlap_sum(self) -> float:
        total = 0.0
        for p in self.overlaps().tolist():  # not sum(), which compensates from Python 3.12 on
            total += p
        return total


@dataclass(frozen=True)
class OrthoRepReport:
    max_edge_overlap: float
    max_norm_error: float
    overlap_sum: float
    overlap_error: float
    orthogonality_ok: bool
    norms_ok: bool
    overlap_ok: bool

    @property
    def passed(self) -> bool:
        return self.orthogonality_ok and self.norms_ok and self.overlap_ok

    def measures(self) -> dict[str, float]:
        """The four verified numbers, as `certify` and `twopoint orthorep` report them."""
        keys = ("max_edge_overlap", "max_norm_error", "overlap_sum", "overlap_error")
        return {k: getattr(self, k) for k in keys}


def verify_ortho_rep(
    g: Graph, rep: OrthoRep, tolerance: float, theta_target: float
) -> OrthoRepReport:
    """Check edge orthogonality, unit norms, and the overlap sum's distance to
    ``theta_target``, each within ``tolerance``.  The target is the value the
    representation should realise: the `SdpSolution.primal_value` it was read off."""
    if rep.n != g.n:
        raise ValueError(
            f"vectors have shape {rep.vectors.shape}, expected ({g.n},{rep.dimension})"
        )
    # np.vecdot conjugates its first argument, as np.vdot does, and on real
    # vectors sums each row in the order of np.dot.
    V = rep.vectors
    ei, ej = g.edge_index
    max_edge = float(np.abs(np.vecdot(V[ei], V[ej])).max(initial=0.0))
    norms = np.sqrt(np.vecdot(V, V).real)
    max_norm_err = max(abs(float(np.linalg.norm(rep.psi)) - 1.0),
                       float(np.abs(norms - 1.0).max(initial=0.0)))
    total = rep.overlap_sum()
    overlap_error = abs(total - theta_target)
    return OrthoRepReport(
        max_edge_overlap=max_edge,
        max_norm_error=max_norm_err,
        overlap_sum=total,
        overlap_error=overlap_error,
        orthogonality_ok=max_edge <= tolerance,
        norms_ok=max_norm_err <= tolerance,
        overlap_ok=overlap_error <= tolerance,
    )


def _place(g: Graph, F: np.ndarray, tolerance: float) -> np.ndarray:
    """Unit vectors from the rows f_i of F, with every edge overlap below ``tolerance / 10``.

    Vertices are placed in order of decreasing |f_i|.  Each v_i is f_i
    projected off the span of its already-placed neighbours' vectors, then
    normalised.  The span keeps the left singular vectors of those vectors
    whose singular value is above ``tolerance / 10``.  A neighbour's vector
    lies in the kept span up to the dropped directions, so by Cauchy-Schwarz
    its overlap with v_i is at most the largest dropped singular value.  A
    row that vanishes, to 1e-12 of the longest, gets a fresh axis appended
    after F's columns, orthogonal to every other vector and to psi.
    """
    sq = np.einsum("ij,ij->i", F, F)
    vectors = np.zeros_like(F)
    placed = np.zeros(g.n, dtype=bool)
    fresh = []
    for i in np.argsort(-sq, kind="stable"):
        v = F[i]
        nbrs = [j for j in g.neighbors(i) if placed[j]]
        if nbrs:
            B = vectors[nbrs].T
            u, s = np.linalg.svd(B, full_matrices=False)[:2]
            u = u[:, s > tolerance / 10]
            # A second pass removes what cancellation leaves of the first
            # when f_i lies nearly in that span.
            v = v - u @ (u.T @ v)
            v = v - u @ (u.T @ v)
        norm = float(np.linalg.norm(v))
        if norm <= 1e-12 * math.sqrt(sq.max()):
            fresh.append(i)
        else:
            vectors[i] = v / norm
        placed[i] = True
    axes = np.zeros((g.n, len(fresh)))
    axes[fresh, range(len(fresh))] = 1.0
    return np.hstack([vectors, axes])


def extract_ortho_rep(g: Graph, sol: SdpSolution) -> OrthoRep:
    """Build the representation realizing the quantum maximum from the SDP optimum.

    Reads F and psi off the optimal X = F F^T with `primal_factor`, the
    factor `lift_primal` lifts to G', and places the vertex vectors with
    `_place`, whose edge overlaps stay below a tenth of ``sol.tolerance``,
    the tolerance the SDP was solved to.  The first try keeps only F's
    columns whose eigenvalue is above that tolerance and is returned when it
    passes `verify_ortho_rep` at it.  Otherwise the construction reruns on
    every column with a positive eigenvalue, which reproduces X to
    round-off; that result must pass at `realisation_gate`, or
    ExtractionError is raised rather than a silently bad representation
    returned.
    """
    if sol.status is not SdpStatus.CONVERGED:
        raise ValueError(f"need a converged SDP solution, got status {sol.status.value}")
    X = np.asarray(sol.X, dtype=float)
    if X.shape != (g.n, g.n):
        raise ValueError(f"solution shape {X.shape} does not match n={g.n}")
    tolerance = sol.tolerance
    for floor, gate in ((tolerance, tolerance), (0.0, realisation_gate(tolerance))):
        F, psi = primal_factor(X, floor)
        vectors = _place(g, F, tolerance)
        psi = np.pad(psi, (0, vectors.shape[1] - len(psi)))
        rep = OrthoRep(psi, vectors)
        report = verify_ortho_rep(g, rep, gate, theta_target=sol.primal_value)
        if report.passed:
            return rep
    raise ExtractionError(
        "extracted representation failed verification: "
        f"edge overlap {report.max_edge_overlap:.3e}, "
        f"norm error {report.max_norm_error:.3e}, "
        f"overlap-sum error {report.overlap_error:.3e}"
    )
