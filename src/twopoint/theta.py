"""Lovasz number via a self-contained dense semidefinite solver.

The program solved is

    maximize  <J, X>   subject to  tr(X) = 1,  X_ij = 0 for every edge,
                                   X positive semidefinite,

whose optimum is the Lovasz number of the graph.  The solver is a
feasible-start primal-dual path-following interior-point method with the
HKM search direction and Mehrotra's predictor-corrector: the affine
predictor sets the centering weight, and the corrector adds the predictor's
second-order term dX dZ W to both the Schur right-hand side and dX, reusing
the same factorization.  X0 = I/n and the dual slack Z0 = (n+1) I - J are
strictly feasible, so both residuals stay (numerically) zero throughout and
only the duality gap has to be driven below tolerance; primal iterates are
re-projected onto the exact affine constraints after every step.

The Schur complement is assembled from row-then-column gathers of X and W
that exploit the two-entry constraint matrices, and is exactly symmetric
by construction.  Its m x m arrays (m = 1 + |E|) are allocated once per
call, so one iteration costs one in-place Cholesky of the m x m system and
no m x m allocation.  The loop, the Schur border and re-projection read
and write edge entries of the n x n iterates through flat indices i n + j
and j n + i on ``reshape(-1)`` views, built once per call: on small graphs
numpy spends less per access on one index array than on an index pair, and
the arithmetic is the same.

Each iterate's X and Z are factored once, X = U^T U and Z = V^T V, and
the inverse factors U^-1 and V^-1 serve the whole iteration: W = Z^-1 is V^-1 V^-T, and each of the four step lengths is the
smallest eigenvalue of one n x n matrix U^-T dX U^-1 or V^-T dZ V^-1.  X's
factor is the Cholesky factorisation that re-projection runs anyway as its
definiteness test.  Every factorisation, solve and eigenvalue goes straight
to LAPACK, so nothing checks finiteness on the way; the loop checks each new
iterate once instead and raises ValueError if it is not finite.  The raw
wrappers (`dpotrf`, `dpotrs`, `dsyevr`, `dtrtri`) come from SciPy's compiled
extension `scipy.linalg._flapack`, the module whose functions
`scipy.linalg.lapack` re-exports.  `_lapack` loads that extension on the
first call that needs it, without importing the `scipy.linalg` package:
importing this module, and everything that never runs the SDP, loads numpy
alone.  `SdpSolution.termination` names the exit the loop took.

The loop returns its best iterate, whichever exit fires.  It stops at a gap
of a hundredth of the tolerance, but not below `GAP_FLOOR`, or once the gap
stops falling: after 10 non-improving iterations while the best gap is
above the tolerance, after 3 once it is within it, and at the first once it
is within a tenth of it.  Below the tolerance a stall is round-off (a
re-projection lift raising the gap), and the best iterate is already
certified.

The dual of the program is

    minimize  y_0   subject to  y_0 I - (J - Y) positive semidefinite,

with Y symmetric and supported on the edges, so every such Y certifies
the upper bound lambda_max(J - Y).  `SdpSolution.y` carries the solver's
multipliers; `verify_dual` recomputes the bound from Y alone.  For the
two-point event graph G', `lift_primal` builds an X from G's own X, and
`lift_dual` a Y from G's own multipliers y and verified bound.
"""

from __future__ import annotations

import enum
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .graphs import EventGraph, Graph, reduce_to_fields

DEFAULT_TOLERANCE = 1e-7
DEFAULT_MAX_ITERATIONS = 10_000
MEMORY_LIMIT_BYTES = 2 * 2**30
GAP_FLOOR = 2e-10  # round-off: the lowest gap `theta` aims for and the lowest tolerance


def check_tolerance(tolerance: float) -> None:
    """Refuse a tolerance outside [GAP_FLOOR, 1e-3], so the gap aimed for is within it,
    with ValueError; `theta` and `CertifyOptions` both call this before any work."""
    if not (GAP_FLOOR <= tolerance <= 1e-3):
        raise ValueError(f"tolerance must lie in [{GAP_FLOOR:g}, 1e-3], got {tolerance}")


class SdpStatus(enum.Enum):
    CONVERGED = "converged"
    NOT_CONVERGED = "not_converged"  # not converged, whichever exit fired


class SdpTermination(enum.Enum):
    """Which exit of the interior-point loop fired."""

    GAP_TARGET = "gap_target"
    # The gap stopped falling: 10 non-improving iterations above the
    # tolerance, 3 within it, 1 within a tenth of it (see `_patience`).
    STALLED = "stalled"
    Z_NOT_FACTORABLE = "z_not_factorable"
    X_NOT_FACTORABLE = "x_not_factorable"
    SCHUR_NOT_FACTORABLE = "schur_not_factorable"
    STEP_TOO_SMALL = "step_too_small"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class SdpSolution:
    """Primal matrix X and dual multipliers y of the returned iterate.

    ``y[0]`` is the trace multiplier and ``y[1:]`` holds one multiplier per
    edge of the graph, in edge order.  ``primal_value`` <J, X> and
    ``dual_value`` ``y[0]`` are read off them.  Later checks judge the
    solution at ``tolerance``, the one it was solved to.  ``status`` is the solver's
    stop verdict on its gap y_0 - <J, X>, which extraction requires; no report copies it.
    """

    X: np.ndarray
    y: np.ndarray
    tolerance: float
    status: SdpStatus
    iterations: int
    termination: SdpTermination

    def __post_init__(self) -> None:
        for name in ("X", "y"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    __reduce__ = reduce_to_fields

    @property
    def primal_value(self) -> float:
        return float(self.X.sum())

    @property
    def dual_value(self) -> float:
        return float(self.y[0])


def verify_feasibility(g: Graph, X: np.ndarray) -> dict[str, float]:
    """X's residuals on g, recomputed independently of the solver, as a bounds section stores
    them: lambda_min, |trace - 1| and the largest |entry| on an edge of S = (X + X^T) / 2."""
    X = np.asarray(X, dtype=float)
    if X.shape != (g.n, g.n):
        raise ValueError(f"X has shape {X.shape}, expected ({g.n},{g.n})")
    S = (X + X.T) / 2
    ei, ej = g.edge_index
    return {
        "min_eigenvalue": float(np.linalg.eigvalsh(S)[0]),
        "trace_error": float(abs(np.trace(S) - 1.0)),
        "max_edge_entry": float(np.abs(S[ei, ej]).max(initial=0.0)),
    }


def feasible(residuals: dict[str, float], tolerance: float) -> bool:
    """The one feasibility rule: X is PSD, of unit trace and zero on the edges, each
    to within ``tolerance``.  `theta`'s status and every bounds section apply it."""
    return (residuals["min_eigenvalue"] >= -tolerance
            and residuals["trace_error"] <= tolerance
            and residuals["max_edge_entry"] <= tolerance)


def converged(gap: float, residuals: dict[str, float], tolerance: float) -> bool:
    """The one convergence rule, |gap| <= tolerance and `feasible`, for ϑ(G) and ϑ(G')."""
    return abs(gap) <= tolerance and feasible(residuals, tolerance)


def multiplier_matrix(g: Graph, y: np.ndarray) -> np.ndarray:
    """The edge multipliers ``y[1:]`` of a dual iterate as a symmetric matrix Y."""
    ei, ej = g.edge_index
    Y = np.zeros((g.n, g.n))
    Y[ei, ej] = y[1:]
    Y[ej, ei] = y[1:]
    return Y


def verify_dual(g: Graph, Y: np.ndarray) -> dict[str, float | bool]:
    """Y's bound on g, recomputed independently of the solver, as a bounds section stores
    it: ``dual`` = lambda_max(J - Y), and ``dual_verified``, true iff Y is a valid dual
    point, exactly symmetric and zero off the edges of g (its diagonal included); a
    failure is reported, not raised.  Then y_0 = lambda_max(J - Y) makes y_0 I - J + Y
    positive semidefinite, so the bound holds for every feasible X.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (g.n, g.n):
        raise ValueError(f"Y has shape {Y.shape}, expected ({g.n},{g.n})")
    ei, ej = g.edge_index
    off_edges = Y.copy()
    off_edges[ei, ej] = 0.0
    off_edges[ej, ei] = 0.0
    M = np.ones((g.n, g.n)) - Y
    return {
        "dual": float(np.linalg.eigvalsh((M + M.T) / 2)[-1]),
        "dual_verified": bool(np.array_equal(Y, Y.T)) and not np.any(off_edges),
    }


def lift_dual(eg: EventGraph, y: np.ndarray, bound: float) -> np.ndarray:
    """Dual multipliers Y' for G' from G's multipliers y certifying ``bound``.

    ``y`` is laid out as `SdpSolution.y`.  Lovasz's direct sum in matrix
    form: the single events of G' induce G, and each copy of G's edge e gets
    (t / bound) y_e in both orders, with t = bound + |E|; each edge's three
    pair events form a triangle and get t (J_3 - I_3).  Cauchy-Schwarz over
    the 1 + |E| blocks, weighted bound : 1 : ... : 1, gives
    lambda_max(J' - Y') <= t.  The blocks are `EventGraph.blocks`, the one
    source of where G' puts each event.
    """
    t = bound + len(eg.source.edges)
    singles, triangles = eg.blocks()
    a, b = (singles[e] for e in eg.source.edge_index)
    scaled = (t / bound) * np.asarray(y, dtype=float)[1:]
    Yp = np.zeros((eg.n, eg.n))
    Yp[a, b] = Yp[b, a] = scaled
    Yp[triangles[:, :, None], triangles[:, None, :]] = t * (1.0 - np.eye(3))
    return Yp


def primal_factor(X: np.ndarray, floor: float = -math.inf) -> tuple[np.ndarray, np.ndarray]:
    """A factor X = F F^T and the state psi = sum_k f_k / |sum_k f_k| read off it.

    One eigh of X; the columns whose eigenvalue is not above ``floor`` are
    dropped, negative eigenvalues are clipped to 0, and a row f_i no longer
    than 1e-12 of the longest is zeroed as round-off.  `lift_primal` and the
    orthogonal-representation extractor both read their vectors off this F."""
    vals, vecs = np.linalg.eigh((X + X.T) / 2)
    k = int(np.searchsorted(vals, floor, side="right"))  # eigh sorts ascending
    F = vecs[:, k:] * np.sqrt(np.clip(vals[k:], 0.0, None))
    sq = np.einsum("ij,ij->i", F, F)
    F[sq <= 1e-24 * sq.max()] = 0.0
    psi = F.sum(axis=0)
    psi /= np.linalg.norm(psi)
    return F, psi


def lift_primal(eg: EventGraph, X: np.ndarray) -> np.ndarray:
    """Primal point X' for G' from a primal point X of G.

    Rows of W are the paper's event vectors read off the `primal_factor` F of
    X and its psi: psi projected onto span(f_i) for outcome 1 on observable i,
    and psi minus its projection onto span(f_i, f_j) for (i, j, 0, 0).  The
    (0,0) rows come from one stacked SVD of the d x 2 blocks [f_i f_j]: the
    projection is onto their left singular vectors whose singular value
    exceeds eps * max(d, 2) times the largest, the rank rule of a least
    squares solve (`numpy.linalg.lstsq` with ``rcond=None``).  X' is W W^T
    over its trace, and <J, X'> >= <J, X> + |E| by Cauchy-Schwarz when X
    vanishes on G's edges, with equality at an optimum."""
    F, psi = primal_factor(X)
    sq = np.einsum("ij,ij->i", F, F)
    P = F * np.divide(F @ psi, sq, out=np.zeros(len(F)), where=F.any(axis=1))[:, None]
    obs, out = eg.events
    # Each event's row of P is that of the observable it sets to 1; the (0,0)
    # events set none, and their rows are overwritten.
    W = P[np.where(out[:, 0] == 1, obs[:, 0], obs[:, 1])]
    zero = np.flatnonzero(~out.any(axis=1))
    u, s, _ = np.linalg.svd(F[obs[zero]].transpose(0, 2, 1), full_matrices=False)
    rank_cut = s[:, :1] * (np.finfo(float).eps * max(F.shape[1], 2))
    coef = np.einsum("kdr,d->kr", u, psi) * (s > rank_cut)
    W[zero] = psi - np.einsum("kdr,kr->kd", u, coef)
    return (W @ W.T) / np.sum(W * W)


@functools.cache
def _lapack():
    """SciPy's LAPACK extension `scipy.linalg._flapack`, loaded once per process.

    The SDP calls four wrappers of this one extension.  Importing the
    `scipy.linalg` package around it costs more time and memory than the
    rest of this package together (its array-API layer pulls in
    `numpy.f2py` and `numpy.testing`), so the extension file is loaded from
    SciPy's install directory, unless `scipy.linalg` is loaded already.
    `importlib.util.find_spec` names that directory without running SciPy's
    own `__init__`, so no `scipy` module is imported at all.  The wrappers
    are the same objects either way.

    The loader may register the module in `sys.modules`.  The entry is dropped
    again: left in place, a later `import scipy.linalg` would find it there
    and never set the package's `_flapack` attribute.
    """
    if "scipy.linalg" in sys.modules:
        from scipy.linalg import _flapack

        return _flapack
    name = "scipy.linalg._flapack"
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ImportError("SciPy is not installed", name="scipy")
    stem = os.path.join(package.submodule_search_locations[0], "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            break
    else:
        raise ImportError(f"SciPy's LAPACK extension {stem}.* is missing", name=name)
    spec = importlib.util.spec_from_file_location(name, stem + suffix)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


def _smallest_eigenvalue(S: np.ndarray) -> float:
    """lambda_min of symmetric S from one partial eigensolve; nan if that fails."""
    w, _, found, _, info = _lapack().dsyevr(S, compute_v=0, range="I", il=1, iu=1)
    return float(w[0]) if info == 0 and found else math.nan


def _lift_to_pd(M: np.ndarray) -> np.ndarray:
    """Shift the diagonal just enough to undo a roundoff-level loss of definiteness."""
    lmin = _smallest_eigenvalue(M)
    if lmin <= 0.0:
        M = M + (1e-14 + 2.0 * abs(lmin)) * np.eye(M.shape[0])
    return M


def _inverse_factor(M: np.ndarray) -> np.ndarray | None:
    """U^-1 for the Cholesky factor M = U^T U; None if M does not factor."""
    U, info = _lapack().dpotrf(M, clean=1)
    if info:
        return None
    return _lapack().dtrtri(U)[0]


def _reproject(
    X: np.ndarray, ij: np.ndarray, ji: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """X with zero edge entries and unit trace imposed exactly, and U^-1 for X = U^T U.

    ``ij`` and ``ji`` are the edges' flat indices i n + j and j n + i.

    Both constraints hold by construction of the search direction; imposing
    them again stops roundoff drift.  Near convergence X is close to
    singular and the zeroing can flip its smallest eigenvalue negative, so a
    Cholesky factorisation that fails sends X through `_lift_to_pd` (a
    diagonal shift respects the edge constraints).  The factor of the
    definite X is kept: scaled by sqrt(trace) it is the factor of the
    returned X.  If the lifted X does not factor either, U^-1 is None.
    """
    X = (X + X.T) / 2
    Xf = X.reshape(-1)
    Xf[ij] = 0.0
    Xf[ji] = 0.0
    U, info = _lapack().dpotrf(X, clean=1)
    if info:
        X = _lift_to_pd(X)
        U, info = _lapack().dpotrf(X, clean=1)
        if info:
            return X, None
    t = float(X.trace())
    return X / t, _lapack().dtrtri(U)[0] * math.sqrt(t)


def _patience(best_gap: float, tolerance: float) -> int:
    """Non-improving iterations the loop waits for before it exits STALLED."""
    if best_gap <= 0.1 * tolerance:
        return 1
    return 3 if best_gap <= tolerance else 10


def _max_step(R: np.ndarray, dM: np.ndarray) -> float:
    """Largest a with M + a dM still positive semidefinite, given R = U^-1 for M = U^T U.

    M + a dM = U^T (I + a R^T dM R) U, so the step is -1 / lambda_min of
    R^T dM R, or inf when that eigenvalue is not negative; 0 if the
    eigensolve fails (a non-finite dM).
    """
    lmin = _smallest_eigenvalue(R.T @ dM @ R)
    if math.isnan(lmin):
        return 0.0
    if lmin >= -1e-14:
        return math.inf
    return -1.0 / lmin


class _Schur:
    """HKM Schur complement H[p,q] = tr(A_p X A_q W) of the theta program.

    A_0 is the identity and the edge constraint (i, j) has A = E_ij + E_ji,
    given by its endpoints ``ei``, ``ej`` and flat indices ``ij``, ``ji``.
    The m x m matrix, a Fortran-order factor buffer and two gather buffers
    are allocated once and reused by every iteration.
    """

    def __init__(self, ei: np.ndarray, ej: np.ndarray, ij: np.ndarray, ji: np.ndarray):
        me = len(ei)
        m = 1 + me
        self.ei, self.ej, self.ij, self.ji = ei, ej, ij, ji
        self.H = np.empty((m, m))
        self._factor = np.empty((m, m), order="F")
        self._ga = np.empty((me, me))
        self._gb = np.empty((me, me))

    def assemble(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Fill H from symmetric X and W; the result is exactly symmetric.

        For edges p = (a, b) and q = (c, d) the edge block is
        X_ad W_cb + X_bc W_da + X_ac W_bd + X_bd W_ac, that is
        T + T' + X_ii o W_jj + X_jj o W_ii with T = X_ij o W_ji, where
        X_ij[p, q] = X[i_p, j_q].  Each term is a row gather followed by a
        column gather into a reused buffer.  The border H[0, 1:] reads W X at
        each edge's flat indices.
        """
        ei, ej, ij, ji = self.ei, self.ej, self.ij, self.ji
        H, ga, gb = self.H, self._ga, self._gb
        H[0, 0] = float(np.sum(X * W))
        Rf = (W @ X).reshape(-1)
        h0 = Rf[ji] + Rf[ij]
        H[0, 1:] = h0
        H[1:, 0] = h0
        Xi, Xj, Wi, Wj = X[ei], X[ej], W[ei], W[ej]
        block = H[1:, 1:]
        np.take(Xi, ej, axis=1, out=ga, mode="clip")
        np.take(Wj, ei, axis=1, out=gb, mode="clip")
        ga *= gb
        np.add(ga, ga.T, out=block)
        for Xr, Wr, cx, cw in ((Xi, Wj, ei, ej), (Xj, Wi, ej, ei)):
            np.take(Xr, cx, axis=1, out=ga, mode="clip")
            np.take(Wr, cw, axis=1, out=gb, mode="clip")
            ga *= gb
            block += ga
        return H

    def factor(self) -> np.ndarray | None:
        """Upper Cholesky factor of H, with diagonal jitter if needed; None if none works."""
        H, F = self.H, self._factor
        m = H.shape[0]
        jitter_scale = float(H.trace()) / m
        for jit in (0.0, 1e-12, 1e-9, 1e-6):
            F[...] = H
            if jit:
                F.flat[:: m + 1] += jit * jitter_scale
            c, info = _lapack().dpotrf(F, clean=0, overwrite_a=1)
            if info == 0:
                return c
        return None

    def solve(self, F: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        # One round of iterative refinement against the unjittered H; the
        # Schur system turns badly conditioned as the gap closes.
        dy = _lapack().dpotrs(F, rhs)[0]
        dy += _lapack().dpotrs(F, rhs - self.H @ dy)[0]
        return dy


def theta(
    g: Graph,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> SdpSolution:
    """Lovasz number of g with feasibility and duality-gap certificates.

    The returned primal value is a lower and the dual value an upper bound
    on the true optimum, up to X's feasibility residuals.  The status is
    CONVERGED iff the gap and X's residuals pass `converged` at tolerance;
    otherwise it is NOT_CONVERGED, carrying the best iterate found, never
    silently.  `termination` names the exit.  A graph whose SDP would need
    more than `MEMORY_LIMIT_BYTES` is refused with ValueError before anything
    is allocated, and an iterate that turns non-finite raises ValueError.
    """
    if g.n < 1:
        raise ValueError("theta needs at least one vertex")
    if g.is_weighted:
        raise ValueError("theta expects an unweighted graph; apply expand_weighted")
    check_tolerance(tolerance)
    # Bytes live at the peak: four m x m Schur buffers, the four m x n row gathers
    # of `assemble`, and 16 n x n iterates, directions, factors and temporaries.
    n, m = g.n, 1 + len(g.edges)
    need = 8 * (4 * m * m + 4 * m * n + 16 * n * n)
    if need > MEMORY_LIMIT_BYTES:
        raise ValueError(f"theta of n={n}, |E|={m - 1} needs about {need / 2**30:.1f} GiB, "
                         f"above the limit of {MEMORY_LIMIT_BYTES / 2**30:g} GiB")
    if n == 1:
        return SdpSolution(
            X=np.ones((1, 1)),
            y=np.ones(1),
            tolerance=tolerance,
            status=SdpStatus.CONVERGED,
            iterations=0,
            termination=SdpTermination.GAP_TARGET,
        )

    ei, ej = g.edge_index
    ij, ji = ei * n + ej, ej * n + ei
    J = np.ones((n, n))
    eye_n = np.eye(n)
    schur = _Schur(ei, ej, ij, ji)

    def build_Z(y: np.ndarray) -> np.ndarray:
        Z = y[0] * eye_n - J
        Zf = Z.reshape(-1)
        Zf[ij] += y[1:]
        Zf[ji] += y[1:]
        return Z

    X, Rx = _reproject(eye_n, ij, ji)  # X0 = I/n
    y = np.zeros(m)
    y[0] = n + 1.0
    Z = build_Z(y)

    # Aim well below the certified tolerance: the lifted bound for G' and
    # the realisation are both read off this X's factor and inherit its
    # remaining gap, and the realisation's truncated first try must match
    # the primal value to within the tolerance itself.
    target_gap = max(0.01 * tolerance, GAP_FLOOR)
    tau = 0.98
    best_gap = math.inf
    best = (X, y)
    stall = 0
    iterations = 0
    termination = SdpTermination.MAX_ITERATIONS

    for iterations in range(1, max_iterations + 1):
        gap = float(y[0] - X.sum())
        if gap < best_gap:
            if gap < 0.99 * best_gap:
                stall = 0
            best_gap, best = gap, (X, y)
        else:
            stall += 1
            if stall >= _patience(best_gap, tolerance):
                termination = SdpTermination.STALLED
                break
        if gap <= target_gap:
            termination = SdpTermination.GAP_TARGET
            break
        mu = gap / n

        Rz = _inverse_factor(Z)
        if Rz is None:
            termination = SdpTermination.Z_NOT_FACTORABLE
            break
        W = Rz @ Rz.T  # Z^-1, exactly symmetric (numpy runs A A^T as a syrk)

        schur.assemble(X, W)
        ch = schur.factor()
        if ch is None:
            termination = SdpTermination.SCHUR_NOT_FACTORABLE
            break

        def direction(sigma: float, C: np.ndarray | None):
            # Solve the linearised X Z = sigma mu I, plus the second-order
            # term C = dX_a dZ_a W of the predictor when correcting.
            R = sigma * mu * W - X
            if C is not None:
                R -= C
            rhs = np.empty(m)
            rhs[0] = float(R.trace())
            Rf = R.reshape(-1)
            rhs[1:] = Rf[ij] + Rf[ji]
            dy = schur.solve(ch, rhs)
            dZ = dy[0] * eye_n
            dZf = dZ.reshape(-1)
            dZf[ij] += dy[1:]
            dZf[ji] += dy[1:]
            dXr = R - X @ dZ @ W
            return dy, dZ, (dXr + dXr.T) / 2

        # Mehrotra predictor-corrector: the affine predictor fixes the
        # centering weight and the second-order term, and the corrector
        # reuses the factorization.
        dy_a, dZ_a, dX_a = direction(0.0, None)
        ap = min(1.0, tau * _max_step(Rx, dX_a))
        ad = min(1.0, tau * _max_step(Rz, dZ_a))
        gap_aff = float((y[0] + ad * dy_a[0]) - (X + ap * dX_a).sum())
        sigma = min(max((max(gap_aff, 0.0) / gap) ** 3, 0.01), 0.8)

        dy, dZ, dX = direction(sigma, dX_a @ dZ_a @ W)
        ap = min(1.0, tau * _max_step(Rx, dX))
        ad = min(1.0, tau * _max_step(Rz, dZ))
        X_next, y_next = X + ap * dX, y + ad * dy
        if not (np.isfinite(X_next).all() and np.isfinite(y_next).all()):
            raise ValueError("theta: the interior-point iterate is not finite")
        if ap <= 1e-12 and ad <= 1e-12:
            termination = SdpTermination.STEP_TOO_SMALL
            break
        X_next, Rx = _reproject(X_next, ij, ji)
        if Rx is None:
            termination = SdpTermination.X_NOT_FACTORABLE
            break
        X, y = X_next, y_next
        Z = build_Z(y)

    gap = float(y[0] - X.sum())
    if gap < best_gap:
        best_gap, best = gap, (X, y)
    X, y = best

    ok = converged(best_gap, verify_feasibility(g, X), tolerance)
    return SdpSolution(
        X=X,
        y=y,
        tolerance=tolerance,
        status=SdpStatus.CONVERGED if ok else SdpStatus.NOT_CONVERGED,
        iterations=iterations,
        termination=termination,
    )
