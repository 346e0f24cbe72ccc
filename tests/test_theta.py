import dataclasses
import importlib
import math
import random

import numpy as np
import pytest
import scipy.linalg as sla

from twopoint import (
    SdpSolution,
    SdpStatus,
    SdpTermination,
    build_graph,
    build_two_point_graph,
    complete_graph,
    cycle_graph,
    catalog,
    lift_dual,
    multiplier_matrix,
    theta,
    verify_dual,
    verify_feasibility,
)
from twopoint.cli import main
from twopoint.theta import _Schur
from conftest import random_graph, sampled_graph
from oracles import complement, lift_dual_dense, odd_cycle_theta, theta_sandwich

# The package re-exports the function `theta` under the module's name.
theta_mod = importlib.import_module("twopoint.theta")

SQRT5 = math.sqrt(5.0)

# Frozen evaluations of n cos(pi/n) / (1 + cos(pi/n)).
ODD_CYCLE_VALUES = {
    5: 2.23606797749979,
    7: 3.317667207394096,
    9: 4.360089581434065,
    11: 5.386302911967422,
}


class TestOddCycleOracle:
    @pytest.mark.parametrize("n,expected", sorted(ODD_CYCLE_VALUES.items()))
    def test_frozen_values(self, n, expected):
        assert odd_cycle_theta(n) == pytest.approx(expected, abs=1e-12)

    def test_rejects_even_and_small(self):
        for bad in (4, 6, 3, 1):
            with pytest.raises(ValueError):
                odd_cycle_theta(bad)


class TestThetaKnownValues:
    def test_c5_is_sqrt5(self, c5):
        sol = theta(c5)
        assert sol.status is SdpStatus.CONVERGED
        assert sol.primal_value == pytest.approx(SQRT5, abs=1e-6)

    def test_empty_graph(self):
        for n in (1, 3, 6):
            sol = theta(build_graph(n, []))
            assert sol.primal_value == pytest.approx(n, abs=1e-6)

    def test_complete_graph(self):
        for n in (2, 4, 7):
            sol = theta(complete_graph(n))
            assert sol.primal_value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_matches_cycle_oracle(self, n):
        sol = theta(cycle_graph(n))
        assert sol.primal_value == pytest.approx(odd_cycle_theta(n), abs=1e-6)

    def test_petersen(self, petersen):
        assert theta(petersen).primal_value == pytest.approx(4.0, abs=1e-6)

    def test_chsh_circulant(self):
        g = catalog("chsh-circulant")
        sol = theta(g)
        assert sol.primal_value == pytest.approx(2 + math.sqrt(2), abs=1e-5)
        # Lovasz identity for vertex-transitive graphs: theta(G) theta(~G) = n
        co = theta(complement(g))
        assert sol.primal_value * co.primal_value == pytest.approx(8.0, abs=1e-4)

    def test_k2_gadget_sandwich(self, k2):
        gp = build_two_point_graph(k2).as_graph()
        alpha, th = theta_sandwich(gp)
        assert alpha == 2
        assert th == pytest.approx(2.0, abs=1e-6)

    def test_sandwich_examples(self, c5):
        assert theta_sandwich(c5) == (2, pytest.approx(SQRT5, abs=1e-6))
        assert theta_sandwich(build_graph(3, [])) == (3, pytest.approx(3.0, abs=1e-6))

    def test_single_vertex_shortcut(self):
        sol = theta(build_graph(1, []))
        assert sol.primal_value == 1.0 and sol.iterations == 0
        assert sol.status is SdpStatus.CONVERGED

    @pytest.mark.parametrize("name", ["k1", "c5"])
    def test_values_are_read_off_x_and_y(self, name):
        names = {f.name for f in dataclasses.fields(SdpSolution)}
        assert not names & {"primal_value", "dual_value"}
        sol = theta(catalog(name))
        assert sol.primal_value == float(sol.X.sum())
        assert sol.dual_value == float(sol.y[0])


class TestCertificates:
    def test_duality_gap_within_tolerance(self, c5, petersen):
        for g in (c5, petersen):
            sol = theta(g, tolerance=1e-7)
            assert -1e-9 <= sol.duality_gap <= 1e-7

    def test_feasibility_of_converged_solutions(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            g = random_graph(rng, int(rng.integers(2, 9)), 0.5)
            sol = theta(g)
            assert sol.status is SdpStatus.CONVERGED
            report = verify_feasibility(g, sol.X, sol.tolerance)
            assert report.passed

    def test_feasibility_flags_edge_violation(self, c5):
        X = np.eye(5) / 5
        X[0, 1] = X[1, 0] = 0.01
        report = verify_feasibility(c5, X, 1e-6)
        assert not report.edges_ok
        assert not report.passed

    def test_feasibility_of_uniform_matrix_on_empty_graph(self):
        g = build_graph(4, [])
        X = np.ones((4, 4)) / 4
        report = verify_feasibility(g, X, 1e-9)
        assert report.passed
        assert report.max_edge_entry == 0.0

    def test_dimension_mismatch(self, c5):
        with pytest.raises(ValueError, match="shape"):
            verify_feasibility(c5, np.eye(4), 1e-7)

    def test_max_iterations_reported_honestly(self, c5):
        sol = theta(c5, max_iterations=1)
        assert sol.status is SdpStatus.MAX_ITERATIONS
        assert sol.termination is SdpTermination.MAX_ITERATIONS
        assert sol.iterations == 1

    def test_converged_run_names_gap_target(self, c5):
        assert theta(c5).termination is SdpTermination.GAP_TARGET

    @pytest.mark.parametrize("max_iterations", [10_000, 1])
    def test_status_is_gap_and_feasibility(self, petersen, max_iterations):
        sol = theta(petersen, max_iterations=max_iterations)
        tol = sol.tolerance
        passed = sol.duality_gap <= tol and verify_feasibility(petersen, sol.X, tol).passed
        assert (sol.status is SdpStatus.CONVERGED) == passed
        assert passed == (max_iterations > 1)


class TestDualCertificate:
    @pytest.mark.parametrize("name", ["c5", "petersen", "chsh-circulant", "k4"])
    def test_verified_bound_matches_solver_dual(self, name):
        g = catalog(name)
        sol = theta(g)
        report = verify_dual(g, multiplier_matrix(g, sol.y))
        assert report.passed
        assert report.bound == pytest.approx(sol.dual_value, abs=1e-8)
        assert sol.primal_value <= report.bound + 1e-9

    def test_y_on_every_exit(self, c5):
        assert theta(build_graph(1, [])).y.tolist() == [1.0]
        sol = theta(c5, max_iterations=1)
        assert sol.y.shape == (6,)
        assert sol.dual_value == sol.y[0]
        # A non-converged dual iterate still certifies an upper bound.
        assert verify_dual(c5, multiplier_matrix(c5, sol.y)).bound >= SQRT5 - 1e-9

    def test_asymmetric_multipliers_fail(self, c5):
        Y = multiplier_matrix(c5, theta(c5).y)
        Y[0, 1] += 1e-3
        report = verify_dual(c5, Y)
        assert not report.symmetric_ok and report.support_ok and not report.passed

    def test_support_off_the_edges_fails(self, c5):
        Y = multiplier_matrix(c5, theta(c5).y)
        Y[0, 2] = Y[2, 0] = -0.5
        report = verify_dual(c5, Y)
        assert report.symmetric_ok and not report.support_ok and not report.passed
        diagonal = np.eye(5)
        assert not verify_dual(c5, diagonal).support_ok

    def test_zero_multipliers_bound_by_n(self, petersen):
        report = verify_dual(petersen, np.zeros((10, 10)))
        assert report.passed and report.bound == pytest.approx(10.0, abs=1e-12)

    def test_dimension_mismatch(self, c5):
        with pytest.raises(ValueError, match="shape"):
            verify_dual(c5, np.zeros((4, 4)))

    @pytest.mark.parametrize("name", ["c5", "petersen", "fig2-k2", "empty3"])
    def test_lifted_dual_bounds_gprime(self, name):
        g = catalog(name)
        sol = theta(g)
        base = verify_dual(g, multiplier_matrix(g, sol.y))
        eg = build_two_point_graph(g)
        lifted = verify_dual(eg.as_graph(), lift_dual(eg, sol.y, base.bound))
        assert lifted.passed
        assert lifted.bound <= base.bound + len(g.edges) + 1e-9
        assert lifted.bound == pytest.approx(sol.dual_value + len(g.edges), abs=1e-8)

    @pytest.mark.parametrize("name", ["c5", "petersen", "chsh-circulant", "random-10-22"])
    def test_lifted_dual_equals_the_dense_reference(self, name):
        if name == "random-10-22":
            pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
            g = build_graph(10, sorted(random.Random(0).sample(pairs, 22)))
        else:
            g = catalog(name)
        sol = theta(g)
        Y = multiplier_matrix(g, sol.y)
        bound = verify_dual(g, Y).bound
        eg = build_two_point_graph(g)
        assert np.array_equal(lift_dual(eg, sol.y, bound), lift_dual_dense(eg, Y, bound))

    def test_unscaled_stacking_is_not_enough(self, c5):
        # Stacking G's multipliers with plain triangle blocks is a valid dual
        # point but a loose one: the (t / bound) scaling is what makes the
        # direct sum tight.
        sol = theta(c5)
        Y = multiplier_matrix(c5, sol.y)
        eg = build_two_point_graph(c5)
        naive = np.zeros((eg.n, eg.n))
        naive[:5, :5] = Y
        for k in range(5):
            tri = slice(5 + 3 * k, 8 + 3 * k)
            naive[tri, tri] = 1.0 - np.eye(3)
        report = verify_dual(eg.as_graph(), naive)
        assert report.passed
        assert report.bound == pytest.approx(17.814, abs=1e-3)


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    B = rng.standard_normal((n, n))
    M = B @ B.T + n * np.eye(n)
    return (M + M.T) / 2


class TestSolverInternals:
    def test_schur_matches_dense_oracle(self):
        gp = build_two_point_graph(cycle_graph(5)).as_graph()
        n, edges = gp.n, gp.edges
        ei = np.array([e[0] for e in edges])
        ej = np.array([e[1] for e in edges])
        ij, ji = ei * n + ej, ej * n + ei
        A = [np.eye(n)]
        for i, j in edges:
            Ak = np.zeros((n, n))
            Ak[i, j] = Ak[j, i] = 1.0
            A.append(Ak)
        assert len(A) == 76
        rng = np.random.default_rng(5)
        X, W = _random_spd(rng, n), _random_spd(rng, n)
        oracle = np.array([[np.trace(Ap @ X @ Aq @ W) for Aq in A] for Ap in A])
        H = _Schur(ei, ej, ij, ji).assemble(X, W)
        assert np.max(np.abs(H - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("name", ["c5", "petersen", "chsh-circulant", "c21"])
    def test_gprime_iteration_budget(self, name):
        # The predictor-corrector needs 11 iterations on these; the plain
        # centering corrector needed 16-24.
        sol = theta(build_two_point_graph(catalog(name)).as_graph())
        assert sol.status is SdpStatus.CONVERGED
        assert sol.iterations <= 14


class TestLapackKernels:
    """The iteration's direct LAPACK calls against scipy's high-level oracles."""

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_max_step_matches_generalised_eigh(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            M = _random_spd(rng, n)
            B = rng.standard_normal((n, n))
            dM = 3.0 * (B + B.T)
            dM[0, 0] = -abs(dM[0, 0]) - 1.0  # e_0^T dM e_0 < 0, so the step is finite
            lmin = sla.eigh(dM, M, eigvals_only=True)[0]
            step = theta_mod._max_step(theta_mod._inverse_factor(M), dM)
            assert abs(step - (-1.0 / lmin)) <= 1e-10 * abs(1.0 / lmin)

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_max_step_unbounded_direction(self, n):
        rng = np.random.default_rng(100 + n)
        M = _random_spd(rng, n)
        B = rng.standard_normal((n, n - 1))  # dM = B B^T is PSD and singular
        assert theta_mod._max_step(theta_mod._inverse_factor(M), B @ B.T) == math.inf

    def test_reproject_carries_inverse_factor(self):
        g = catalog("petersen")
        ei, ej = g.edge_index
        ij, ji = ei * g.n + ej, ej * g.n + ei
        X, R = theta_mod._reproject(_random_spd(np.random.default_rng(3), g.n), ij, ji)
        assert np.trace(X) == pytest.approx(1.0, abs=1e-15)
        assert not np.any(X[ei, ej]) and not np.any(X[ej, ei])
        U = np.linalg.cholesky(X).T
        assert np.max(np.abs(R @ U - np.eye(g.n))) <= 1e-10

    def test_non_finite_iterate_raises(self, c5, monkeypatch):
        def solve(schur, factor, rhs):
            return np.full_like(rhs, np.nan)

        monkeypatch.setattr(theta_mod._Schur, "solve", solve)
        with pytest.raises(ValueError, match="not finite"):
            theta(c5)

    def test_schur_factor_and_solve(self):
        g = catalog("petersen")
        ei, ej = g.edge_index
        rng = np.random.default_rng(11)
        schur = _Schur(ei, ej, ei * g.n + ej, ej * g.n + ei)
        H = schur.assemble(_random_spd(rng, g.n), _random_spd(rng, g.n)).copy()
        rhs = rng.standard_normal(len(H))
        dy = schur.solve(schur.factor(), rhs)
        assert np.max(np.abs(H @ dy - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_lift_to_pd_restores_a_factor(self):
        # I - (1 + 1e-13) v v^T with |v| = 1 has lambda_min = -1e-13.
        v = np.ones(4) / 2.0
        M = np.eye(4) - (1.0 + 1e-13) * np.outer(v, v)
        assert theta_mod._smallest_eigenvalue(M) < 0.0
        assert theta_mod._inverse_factor(theta_mod._lift_to_pd(M)) is not None

    def test_wrapper_signatures(self):
        # Each raw wrapper exactly as the loop calls it, on a 3 x 3 SPD matrix.
        lapack = theta_mod._lapack()
        M = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        U, info = lapack.dpotrf(M, clean=1)
        assert info == 0 and np.allclose(U.T @ U, M)
        R, info = lapack.dtrtri(U)
        assert info == 0 and np.allclose(R @ U, np.eye(3))
        F = np.asfortranarray(M)
        c, info = lapack.dpotrf(F, clean=0, overwrite_a=1)
        assert info == 0
        x, info = lapack.dpotrs(c, np.ones(3))
        assert info == 0 and np.allclose(M @ x, 1.0)
        w, _, found, _, info = lapack.dsyevr(M, compute_v=0, range="I", il=1, iu=1)
        assert info == 0 and found == 1
        assert w[0] == pytest.approx(np.linalg.eigvalsh(M)[0], rel=1e-12)


class TestUndrivenExits:
    """Exits no known input reaches, driven by failing a factorisation or the step search.

    Each failure fires at iteration K + 1, after that iteration's start point
    has been scored, so the solver must return the best iterate of a run
    capped at K iterations, bit for bit.
    """

    K = 3

    def _check(self, sol, ref, termination):
        assert sol.termination is termination
        assert sol.status is SdpStatus.MAX_ITERATIONS
        assert sol.iterations == self.K + 1
        assert np.array_equal(sol.X, ref.X) and np.array_equal(sol.y, ref.y)
        assert sol.duality_gap < 5.0  # below the gap n of the start point

    def test_z_not_factorable(self, c5, monkeypatch):
        ref = theta(c5, max_iterations=self.K)
        original = theta_mod._inverse_factor
        calls = []

        def inverse_factor(Z):
            # Z is factored once per iteration, through this helper alone.
            calls.append(Z)
            return None if len(calls) > self.K else original(Z)

        monkeypatch.setattr(theta_mod, "_inverse_factor", inverse_factor)
        self._check(theta(c5), ref, SdpTermination.Z_NOT_FACTORABLE)

    def test_schur_not_factorable(self, c5, monkeypatch):
        ref = theta(c5, max_iterations=self.K)
        original = theta_mod._Schur.factor
        calls = []

        def factor(schur):
            calls.append(schur)
            return None if len(calls) > self.K else original(schur)

        monkeypatch.setattr(theta_mod._Schur, "factor", factor)
        self._check(theta(c5), ref, SdpTermination.SCHUR_NOT_FACTORABLE)

    def test_step_too_small(self, c5, monkeypatch):
        ref = theta(c5, max_iterations=self.K)
        original = theta_mod._max_step
        calls = []

        def max_step(M, dM):
            # Four step searches per iteration: predictor and corrector, X and Z.
            calls.append(M)
            return 0.0 if len(calls) > 4 * self.K else original(M, dM)

        monkeypatch.setattr(theta_mod, "_max_step", max_step)
        self._check(theta(c5), ref, SdpTermination.STEP_TOO_SMALL)

    def test_x_not_factorable(self, c5, monkeypatch):
        ref = theta(c5, max_iterations=self.K)
        original = theta_mod._reproject
        calls, lifts = [], []

        def reproject(X, ij, ji):
            # X0, then one new iterate per iteration.  From iteration K + 1
            # on X is negated, and the lift leaves it so: neither
            # factorisation succeeds.
            calls.append(X)
            return original(-X if len(calls) > self.K + 1 else X, ij, ji)

        def lift_to_pd(M):
            lifts.append(M)
            return M

        monkeypatch.setattr(theta_mod, "_reproject", reproject)
        monkeypatch.setattr(theta_mod, "_lift_to_pd", lift_to_pd)
        self._check(theta(c5), ref, SdpTermination.X_NOT_FACTORABLE)
        assert len(lifts) == 1


class TestStalledEndGame:
    """A stall once the best gap is within tolerance is round-off: the loop
    waits 3 non-improving iterations there, and 1 within a tenth of it."""

    def test_patience(self):
        gaps = (1e-9, 1e-8, 5e-8, 1e-7, 2e-7, 1.0)
        assert [theta_mod._patience(gap, 1e-7) for gap in gaps] == [1, 1, 3, 3, 10, 10]

    def test_integer_theta_stops_three_stalls_after_its_best(self):
        # Graph 1 of the benchmark's simulate_noisy workload: theta = 13.  The
        # best gap, 1.30e-8, is followed by re-projection lifts that raise the
        # gap; waiting 10 stalls for them returned the same iterate after 24
        # iterations.
        g = sampled_graph("simulate_noisy/pool/1/1", 28, 66)
        sol = theta(g)
        assert sol.status is SdpStatus.CONVERGED
        assert sol.termination is SdpTermination.STALLED
        assert sol.iterations <= 17
        assert sol.duality_gap == pytest.approx(1.3027e-8, rel=1e-3)
        assert sol.primal_value == pytest.approx(13.0, abs=1e-7)


class TestValidation:
    def test_tolerance_range(self, c5):
        for bad in (1e-11, 1e-2, 0.5):
            with pytest.raises(ValueError, match="tolerance"):
                theta(c5, tolerance=bad)

    def test_weighted_rejected(self):
        g = build_graph(2, [(0, 1)], weights={0: 2})
        with pytest.raises(ValueError, match="expand"):
            theta(g)


class _SchurBuilt(Exception):
    pass


class TestMemoryRefusal:
    """A graph whose SDP working set exceeds 2 GiB is refused before any allocation."""

    @pytest.fixture(autouse=True)
    def no_schur(self, monkeypatch):
        # A missing guard fails here instead of allocating the m x m buffers.
        def built(*args):
            raise _SchurBuilt

        monkeypatch.setattr(theta_mod, "_Schur", built)

    def test_k200_refused(self):
        # |E| = 19,900: the four m x m float64 Schur buffers alone need 11.8 GiB.
        with pytest.raises(ValueError, match=r"n=200, \|E\|=19900 needs about 11\.9 GiB"):
            theta(complete_graph(200))

    def test_cli_exits_1_on_k200(self, capsys):
        assert main(["theta", "k200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: theta of n=200, |E|=19900 needs about")
        assert "above the limit of 2 GiB" in captured.err

    def test_k9_gprime_is_accepted(self):
        # K9's G' (m' = 3,565, about 0.4 GiB) reaches the solver.
        gp = build_two_point_graph(complete_graph(9)).as_graph()
        assert 1 + len(gp.edges) == 3565
        with pytest.raises(_SchurBuilt):
            theta(gp)


class TestStructuralProperties:
    def test_sandwich_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 10)), 0.5)
            alpha, th = theta_sandwich(g)
            assert alpha <= th + 1e-6

    def test_adding_edges_never_increases_theta(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            n = int(rng.integers(3, 9))
            g = random_graph(rng, n, 0.4)
            present = frozenset(g.edges)
            non_edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if (i, j) not in present
            ]
            if not non_edges:
                continue
            extra = non_edges[int(rng.integers(len(non_edges)))]
            denser = build_graph(n, list(g.edges) + [extra])
            assert theta(denser).primal_value <= theta(g).primal_value + 1e-6

    def test_bound_transfer_on_small_graphs(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            g = random_graph(rng, int(rng.integers(2, 10)), [0.2, 0.5, 0.8][trial % 3])
            gp = build_two_point_graph(g).as_graph()
            dev = abs(
                theta(gp).primal_value - theta(g).primal_value - len(g.edges)
            )
            assert dev <= 1e-6
