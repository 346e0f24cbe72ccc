import dataclasses
import functools
import math
import operator

import numpy as np
import pytest

from twopoint import (
    ExtractionError,
    OrthoRep,
    SdpStatus,
    build_graph,
    catalog,
    cycle_graph,
    extract_ortho_rep,
    realised,
    theta,
    verify_ortho_rep,
)
from twopoint.orthorep import _place
from twopoint.simulate import joint_probs_projective, pure_state
from conftest import random_graph, sampled_graph
from oracles import builtin_kcbs_rep, kcbs_graph, vertex_overlap

SQRT5 = math.sqrt(5.0)


class TestBuiltinKcbs:
    def test_unit_norms(self):
        rep = builtin_kcbs_rep()
        for v in range(5):
            assert np.linalg.norm(rep.vectors[v]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(rep.psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_along_pentagon_edges(self):
        rep = builtin_kcbs_rep()
        for (i, j) in kcbs_graph().edges:
            assert abs(np.dot(rep.vectors[i], rep.vectors[j])) < 1e-12

    def test_every_overlap_is_inverse_sqrt5(self):
        rep = builtin_kcbs_rep()
        for v in range(5):
            assert rep.overlaps()[v] == pytest.approx(1 / SQRT5, abs=1e-12)
        assert rep.overlap_sum() == pytest.approx(SQRT5, abs=1e-12)

    def test_verifier_passes_with_theta_target(self):
        report = verify_ortho_rep(kcbs_graph(), builtin_kcbs_rep(), theta_target=SQRT5)
        assert realised(report, 1e-9)


class TestVerifier:
    def test_vector_replaced_by_handle_breaks_orthogonality(self):
        rep = builtin_kcbs_rep()
        vectors = rep.vectors.copy()
        vectors[2] = rep.psi
        bad = OrthoRep(psi=rep.psi, vectors=vectors)
        report = verify_ortho_rep(kcbs_graph(), bad, theta_target=SQRT5)
        assert report["max_edge_overlap"] > 1e-6
        assert not realised(report, 1e-6)

    def test_scaling_breaks_norms(self):
        rep = builtin_kcbs_rep()
        bad = OrthoRep(psi=2 * rep.psi, vectors=2 * rep.vectors)
        report = verify_ortho_rep(kcbs_graph(), bad, theta_target=SQRT5)
        assert report["max_norm_error"] > 1e-6
        assert not realised(report, 1e-6)

    def test_shape_mismatch(self):
        rep = builtin_kcbs_rep()
        with pytest.raises(ValueError, match="shape"):
            verify_ortho_rep(build_graph(4, []), rep, theta_target=SQRT5)

    def test_target_is_required(self):
        with pytest.raises(TypeError, match="theta_target"):
            verify_ortho_rep(kcbs_graph(), builtin_kcbs_rep())

    def test_psi_must_match_the_vectors_width(self):
        with pytest.raises(ValueError, match="psi has shape"):
            OrthoRep(np.ones(2) / 2**0.5, np.eye(3))
        with pytest.raises(ValueError, match="n x d"):
            OrthoRep(np.ones(3), np.ones(3))

    def test_edge_overlap_conjugates_the_first_vector(self):
        # v_0^T v_1 = 1, but <v_0, v_1> = conj(v_0) . v_1 = 0: K2's edge is orthogonal.
        v = np.array([[1.0, 1j], [1.0, -1j]]) / math.sqrt(2.0)
        assert abs(v[0] @ v[1]) == pytest.approx(1.0) and abs(np.vdot(v[0], v[1])) <= 1e-16
        rep = OrthoRep(psi=np.array([1.0, 0.0]), vectors=v)
        report = verify_ortho_rep(build_graph(2, [(0, 1)]), rep, theta_target=1.0)
        assert report["max_edge_overlap"] <= 1e-16
        assert realised(report, 1e-9)

    def test_edgeless_graph_has_zero_edge_overlap(self):
        rep = OrthoRep(psi=np.ones(3) / math.sqrt(3.0), vectors=np.eye(3))
        report = verify_ortho_rep(build_graph(3, []), rep, theta_target=1.0)
        assert report["max_edge_overlap"] == 0.0
        assert realised(report, 1e-9)

    @pytest.mark.parametrize("name", ["kcbs", "k2-complex", "c7", "petersen", "chsh-circulant"])
    def test_overlaps_are_the_per_vertex_overlaps(self, name):
        if name == "kcbs":
            rep = builtin_kcbs_rep()
        elif name == "k2-complex":
            v = np.array([[1.0, 1j], [1.0, -1j]]) / math.sqrt(2.0)
            rep = OrthoRep(psi=np.array([0.6, 0.8j]), vectors=v)
        else:
            g = catalog(name)
            rep = extract_ortho_rep(g, theta(g))
        expected = [vertex_overlap(rep, v) for v in range(rep.n)]
        assert np.allclose(rep.overlaps(), expected, rtol=0.0, atol=1e-16)
        assert rep.overlap_sum() == pytest.approx(sum(expected), abs=1e-15)


# Random graphs on which extraction once failed its own verification.  The
# first is slot 4 of the benchmark's simulate_random workload at seed 44; the
# other two are draws 40 and 261 of a stream with n in [12, 40] and |E| in
# [2n, 3n].  On all three the truncated factor misses and the full one passes.
_SIMULATE_RANDOM_44_4 = (
    40,
    [
        (0, 4), (0, 7), (0, 26), (0, 30), (0, 37), (1, 5), (1, 12), (1, 16), (1, 23), (1, 29),
        (1, 37), (1, 39), (2, 7), (2, 14), (2, 16), (2, 17), (2, 30), (3, 5), (3, 25), (3, 26),
        (3, 29), (3, 31), (3, 32), (3, 36), (4, 11), (4, 14), (4, 21), (4, 23), (4, 24),
        (5, 7), (5, 9), (5, 20), (5, 23), (5, 24), (5, 26), (5, 29), (6, 8), (6, 14), (6, 22),
        (6, 36), (6, 37), (7, 12), (7, 14), (7, 19), (7, 24), (7, 25), (7, 27), (7, 30),
        (7, 31), (8, 12), (8, 13), (8, 20), (8, 25), (8, 27), (8, 29), (8, 33), (8, 35),
        (9, 19), (9, 21), (9, 24), (9, 25), (10, 12), (10, 15), (10, 29), (10, 35), (10, 38),
        (11, 17), (11, 22), (11, 29), (11, 36), (12, 38), (13, 16), (13, 21), (13, 23),
        (13, 26), (13, 33), (14, 23), (14, 33), (14, 37), (14, 38), (15, 21), (15, 26),
        (15, 29), (15, 34), (16, 20), (16, 28), (17, 20), (17, 21), (17, 27), (17, 31),
        (17, 35), (19, 25), (20, 28), (20, 35), (20, 39), (22, 25), (23, 31), (23, 33),
        (24, 29), (24, 32), (25, 30), (25, 33), (25, 37), (25, 38), (25, 39), (27, 29),
        (27, 31), (27, 33), (28, 29), (28, 31), (28, 34), (28, 35), (29, 39), (30, 38),
        (31, 32), (31, 34), (32, 38), (33, 38), (34, 36), (34, 38),
    ],
)

_SWEEP_DRAW_40 = (
    29,
    [
        (0, 4), (0, 5), (0, 12), (0, 13), (0, 15), (0, 25), (1, 8), (1, 12), (1, 21), (1, 23),
        (2, 5), (2, 10), (2, 12), (2, 18), (3, 11), (3, 13), (3, 14), (3, 22), (3, 28), (4, 9),
        (4, 22), (4, 23), (4, 25), (4, 26), (5, 7), (5, 9), (5, 15), (5, 22), (5, 24), (5, 27),
        (6, 13), (6, 17), (6, 21), (6, 23), (6, 27), (7, 20), (7, 24), (7, 28), (8, 9),
        (8, 10), (8, 12), (8, 14), (8, 17), (8, 20), (8, 23), (8, 24), (8, 27), (9, 12),
        (9, 19), (9, 22), (9, 24), (10, 14), (11, 13), (11, 20), (11, 21), (11, 28), (12, 18),
        (12, 23), (12, 26), (13, 20), (13, 27), (14, 16), (14, 23), (14, 28), (15, 17),
        (15, 22), (15, 28), (16, 21), (17, 22), (18, 19), (18, 24), (18, 27), (19, 27),
        (19, 28), (20, 21), (20, 25), (21, 22), (21, 25), (21, 27), (24, 28), (25, 27),
    ],
)

_SWEEP_DRAW_261 = (
    23,
    [
        (0, 4), (0, 10), (0, 15), (0, 16), (0, 17), (1, 6), (1, 9), (2, 3), (2, 5), (2, 8),
        (2, 11), (2, 18), (3, 5), (3, 7), (3, 8), (3, 14), (3, 19), (3, 21), (4, 6), (4, 7),
        (4, 13), (5, 13), (6, 10), (6, 12), (6, 17), (6, 19), (6, 20), (7, 10), (7, 14),
        (7, 15), (7, 19), (7, 21), (8, 9), (8, 10), (8, 16), (8, 17), (8, 18), (8, 19),
        (9, 10), (9, 11), (9, 17), (9, 18), (9, 20), (10, 13), (10, 19), (10, 21), (11, 13),
        (11, 19), (11, 20), (12, 14), (12, 15), (12, 21), (12, 22), (13, 17), (14, 17),
        (14, 19), (15, 19), (15, 21), (16, 17), (16, 18), (16, 19), (17, 19), (18, 19),
        (20, 22),
    ],
)


class TestRealisedRule:
    """`realised` is the one realisation rule: each of the three errors within the tolerance."""

    @pytest.mark.parametrize("key", ["max_edge_overlap", "max_norm_error", "overlap_error"])
    def test_boundary_and_nan(self, key):
        tol = 1e-5
        # The overlap sum is reported, not judged: its distance to the target is.
        zero = {"max_edge_overlap": 0.0, "max_norm_error": 0.0, "overlap_sum": math.nan,
                "overlap_error": 0.0}
        assert realised(zero, tol)
        assert realised({**zero, key: tol}, tol)
        assert not realised({**zero, key: math.nextafter(tol, math.inf)}, tol)
        assert not realised({**zero, key: math.nan}, tol)


class TestOverlapSum:
    """The overlap sum adds left to right, as on Python 3.10 and 3.11, so the
    report's overlap_sum does not depend on the compensated sum() of 3.12."""

    def test_tiny_overlaps_after_one_are_lost(self):
        rest = math.sqrt(1 - 1e-16)
        vectors = np.array([[1.0, 0.0], [1e-8, rest], [1e-8, rest]])
        rep = OrthoRep(psi=np.array([1.0, 0.0]), vectors=vectors)
        assert rep.overlaps().tolist() == pytest.approx([1.0, 1e-16, 1e-16], rel=1e-12, abs=0)
        assert rep.overlap_sum() == 1.0

    @pytest.mark.parametrize("name", ["c21", "petersen"])
    def test_catalog_sums_fold_in_vertex_order(self, name):
        g = catalog(name)
        rep = extract_ortho_rep(g, theta(g))
        assert rep.overlap_sum() == functools.reduce(operator.add, rep.overlaps().tolist(), 0.0)


class TestExtraction:
    def test_c5_gives_three_dimensional_representation(self, c5):
        sol = theta(c5)
        rep = extract_ortho_rep(c5, sol)
        assert rep.dimension == 3
        assert rep.overlap_sum() == pytest.approx(SQRT5, abs=1e-5)
        report = verify_ortho_rep(c5, rep, theta_target=sol.primal_value)
        assert realised(report, 1e-5)

    @pytest.mark.parametrize("name, dimension", [("c21", 3), ("petersen", 5)])
    def test_loose_solution_is_judged_at_its_own_tolerance(self, name, dimension):
        # Judged at a tighter tolerance than it was solved to, the first try
        # failed and the fallback gave d = n.
        g = catalog(name)
        sol = theta(g, tolerance=1e-4)
        rep = extract_ortho_rep(g, sol)
        assert rep.dimension == dimension
        assert realised(verify_ortho_rep(g, rep, theta_target=sol.primal_value), 1e-4)

    def test_empty_graph_vectors_align_with_handle(self):
        g = build_graph(4, [])
        rep = extract_ortho_rep(g, theta(g))
        for v in range(4):
            assert abs(np.vdot(rep.vectors[v], rep.psi)) == pytest.approx(1.0, abs=1e-6)
        assert rep.overlap_sum() == pytest.approx(4.0, abs=1e-5)

    def test_single_vertex(self):
        g = build_graph(1, [])
        rep = extract_ortho_rep(g, theta(g))
        assert np.allclose(rep.psi, rep.vectors[0])
        assert rep.overlap_sum() == pytest.approx(1.0, abs=1e-9)

    def test_star_graph_zero_column_handled(self):
        # theta(K_{1,3}) = 3 comes from the leaves; the hub's diagonal entry
        # vanishes at the optimum and its vector is rebuilt orthogonally.
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        sol = theta(g)
        rep = extract_ortho_rep(g, sol)
        report = verify_ortho_rep(g, rep, theta_target=sol.primal_value)
        assert realised(report, 1e-5)

    def test_path_graph_zero_column_handled(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        sol = theta(g)
        rep = extract_ortho_rep(g, sol)
        assert realised(verify_ortho_rep(g, rep, theta_target=sol.primal_value), 1e-5)

    def test_degenerate_face_instance(self):
        # On this graph the optimal face is degenerate: the primal matrix
        # keeps two eigenvalues near 2e-6 and eight near 1e-11, and the
        # factor's columns above the tolerance leave the overlap sum 7e-6
        # short.  The full factor reproduces X to round-off and passes.
        g = build_graph(
            13,
            [
                (0, 1), (0, 3), (0, 6), (0, 8), (0, 9), (0, 10), (0, 11),
                (1, 4), (1, 6), (1, 10), (2, 3), (2, 4), (2, 5), (2, 6),
                (2, 8), (2, 9), (3, 10), (4, 5), (4, 9), (4, 11), (5, 7),
                (6, 8), (8, 9), (8, 10), (8, 11), (9, 10),
            ],
        )
        sol = theta(g)
        rep = extract_ortho_rep(g, sol)
        report = verify_ortho_rep(g, rep, theta_target=sol.primal_value)
        assert realised(report, 1e-5), report

    @pytest.mark.parametrize(
        "case",
        [_SIMULATE_RANDOM_44_4, _SWEEP_DRAW_40, _SWEEP_DRAW_261],
        ids=["simulate-random-44-4", "sweep-draw-40", "sweep-draw-261"],
    )
    def test_random_graph_regression(self, case):
        g = build_graph(*case)
        sol = theta(g)
        rep = extract_ortho_rep(g, sol)
        report = verify_ortho_rep(g, rep, theta_target=sol.primal_value)
        assert realised(report, 1e-5), report

    def test_disconnected_graph_zero_column_avoids_handle(self):
        # Hub of the star vanishes at the optimum while the complement of
        # its neighbors contains triangle directions that overlap the
        # handle; the replacement must dodge them to keep the overlap sum.
        g = build_graph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)])
        sol = theta(g)
        rep = extract_ortho_rep(g, sol)
        assert rep.overlaps()[0] <= 1e-9
        assert realised(verify_ortho_rep(g, rep, theta_target=sol.primal_value), 1e-5)

    def test_random_graphs_extract_and_verify(self):
        rng = np.random.default_rng(2026)
        for trial in range(10):
            g = random_graph(rng, int(rng.integers(2, 10)), [0.2, 0.5, 0.8][trial % 3])
            sol = theta(g)
            rep = extract_ortho_rep(g, sol)
            report = verify_ortho_rep(g, rep, theta_target=sol.primal_value)
            assert realised(report, 1e-5), (g, report)

    def test_value_the_factor_cannot_reach_raises(self, c5):
        sol = theta(c5)
        sol = dataclasses.replace(sol, X=sol.X * (1 + 1e-3 / sol.primal_value))
        with pytest.raises(ExtractionError, match="overlap-sum error 1.000e-03"):
            extract_ortho_rep(c5, sol)

    def test_requires_converged_solution(self, c5):
        sol = theta(c5, max_iterations=1)
        assert sol.status is not SdpStatus.CONVERGED
        with pytest.raises(ValueError, match="converged"):
            extract_ortho_rep(c5, sol)

    def test_edge_pair_probability_vanishes(self, c5):
        # Orthogonality on edges forces P(1,1) = 0 for the handle state.  The
        # vectors are orthogonal to round-off, on c21 too.
        for g in (c5, cycle_graph(21)):
            sol = theta(g)
            rep = extract_ortho_rep(g, sol)
            report = verify_ortho_rep(g, rep, theta_target=sol.primal_value)
            assert report["max_edge_overlap"] <= 1e-15
            state = pure_state(rep.psi)
            for (i, j) in g.edges:
                probs = joint_probs_projective(state, (i, j), rep)
                assert probs[(1, 1)] <= 1e-9


class TestRoundOffRank:
    """`_place` counts a direction of the placed neighbours' span only when its
    singular value is above tolerance / 10, which bounds every edge overlap
    by tolerance / 10 (Cauchy-Schwarz over the dropped directions)."""

    def test_round_off_direction_leaves_the_vertex_its_overlap(self):
        # Vertex 0's neighbours 1 and 2 are placed first.  Their span holds e_1
        # with singular value 7e-11, round-off; f_0 lies along e_1.
        g = build_graph(3, [(0, 1), (0, 2)])
        F = np.array([[0.0, 0.08, 0.0], [1.0, 0.0, 0.0], [1.0, 1e-10, 0.0]])
        V = _place(g, F, 1e-7)
        assert V.shape == (3, 3)  # no fresh axis
        assert V[0] @ F[0] / np.linalg.norm(F[0]) == pytest.approx(1.0, abs=1e-15)
        assert max(abs(V[0] @ V[1]), abs(V[0] @ V[2])) <= 1e-8

    @pytest.mark.parametrize(
        "seed, n, m, dimension",
        [(0, 10, 22, 5), ("simulate_noisy/pool/2/0", 32, 84, 7)],
        ids=["random-10-22", "simulate-noisy-2"],
    )
    def test_first_try_passes(self, seed, n, m, dimension):
        # The random rung of the benchmark's certify ladder, and graph 2 of its
        # simulate_noisy workload.  Counting round-off as rank gave fresh axes
        # there: d = 10 on the first and, after the first try failed, d = n.
        g = sampled_graph(seed, n, m)
        sol = theta(g)
        rep = extract_ortho_rep(g, sol)
        assert rep.dimension == dimension
        assert realised(verify_ortho_rep(g, rep, theta_target=sol.primal_value), sol.tolerance)
