import math

import numpy as np
import pytest

from twopoint import (
    OrthoRep,
    SdpStatus,
    build_graph,
    extract_ortho_rep,
    theta,
    verify_ortho_rep,
)
from twopoint.simulate import TwoPointContext, joint_probs_projective, pure_state
from conftest import random_graph
from oracles import builtin_kcbs_rep, kcbs_graph

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
            assert rep.overlap(v) == pytest.approx(1 / SQRT5, abs=1e-12)
        assert rep.overlap_sum() == pytest.approx(SQRT5, abs=1e-12)

    def test_verifier_passes_with_theta_target(self):
        report = verify_ortho_rep(kcbs_graph(), builtin_kcbs_rep(), 1e-9, theta_target=SQRT5)
        assert report.passed


class TestVerifier:
    def test_vector_replaced_by_handle_breaks_orthogonality(self):
        rep = builtin_kcbs_rep()
        vectors = rep.vectors.copy()
        vectors[2] = rep.psi
        bad = OrthoRep(dimension=3, psi=rep.psi, vectors=vectors)
        report = verify_ortho_rep(kcbs_graph(), bad, 1e-6)
        assert not report.orthogonality_ok
        assert not report.passed

    def test_scaling_breaks_norms(self):
        rep = builtin_kcbs_rep()
        bad = OrthoRep(dimension=3, psi=2 * rep.psi, vectors=2 * rep.vectors)
        report = verify_ortho_rep(kcbs_graph(), bad, 1e-6)
        assert not report.norms_ok

    def test_shape_mismatch(self):
        rep = builtin_kcbs_rep()
        with pytest.raises(ValueError, match="shape"):
            verify_ortho_rep(build_graph(4, []), rep, 1e-6)


class TestExtraction:
    def test_c5_gives_three_dimensional_representation(self, c5):
        sol = theta(c5)
        rep = extract_ortho_rep(c5, sol)
        assert rep.dimension == 3
        assert rep.overlap_sum() == pytest.approx(SQRT5, abs=1e-5)
        report = verify_ortho_rep(c5, rep, 1e-5, theta_target=sol.primal_value)
        assert report.passed

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
        report = verify_ortho_rep(g, rep, 1e-5, theta_target=sol.primal_value)
        assert report.passed

    def test_path_graph_zero_column_handled(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        sol = theta(g)
        rep = extract_ortho_rep(g, sol)
        assert verify_ortho_rep(g, rep, 1e-5, theta_target=sol.primal_value).passed

    def test_degenerate_face_instance(self):
        # On this graph the optimal face is degenerate: the primal matrix
        # keeps eigenvalues around 3e-6 and per-vertex complementarity
        # residuals far above the duality gap, so the raw factorization is
        # ~2e-5 off in the overlap sum and only the ascent polish brings
        # the representation inside the verification tolerance.
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
        report = verify_ortho_rep(g, rep, 1e-5, theta_target=sol.primal_value)
        assert report.passed, report

    def test_disconnected_graph_zero_column_avoids_handle(self):
        # Hub of the star vanishes at the optimum while the complement of
        # its neighbors contains triangle directions that overlap the
        # handle; the replacement must dodge them to keep the overlap sum.
        g = build_graph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)])
        sol = theta(g)
        rep = extract_ortho_rep(g, sol)
        assert rep.overlap(0) <= 1e-9
        assert verify_ortho_rep(g, rep, 1e-5, theta_target=sol.primal_value).passed

    def test_random_graphs_extract_and_verify(self):
        rng = np.random.default_rng(2026)
        for trial in range(10):
            g = random_graph(rng, int(rng.integers(2, 10)), [0.2, 0.5, 0.8][trial % 3])
            sol = theta(g)
            rep = extract_ortho_rep(g, sol)
            report = verify_ortho_rep(g, rep, 1e-5, theta_target=sol.primal_value)
            assert report.passed, (g, report)

    def test_requires_converged_solution(self, c5):
        sol = theta(c5, max_iterations=1)
        assert sol.status is not SdpStatus.CONVERGED
        with pytest.raises(ValueError, match="converged"):
            extract_ortho_rep(c5, sol)

    def test_edge_pair_probability_vanishes(self, c5):
        # Orthogonality on edges forces P(1,1) = 0 for the handle state.
        sol = theta(c5)
        rep = extract_ortho_rep(c5, sol)
        state = pure_state(rep.psi)
        for (i, j) in c5.edges:
            probs = joint_probs_projective(state, TwoPointContext(i, j), rep)
            assert probs[(1, 1)] <= 1e-9
