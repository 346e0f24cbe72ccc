import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopoint import (
    SizeLimitError,
    build_graph,
    build_two_point_graph,
    complete_graph,
    cycle_graph,
    independence_number,
    is_independent,
)
from conftest import random_graph
from oracles import brute_force_alpha, max_assignment_value, noncontextual_assignment_value


class TestIsIndependent:
    def test_c5_examples(self, c5):
        assert is_independent(c5, {0, 2})
        assert not is_independent(c5, {0, 1})

    def test_empty_set(self, c5):
        assert is_independent(c5, set())

    def test_out_of_range(self, c5):
        with pytest.raises(ValueError, match="out of range"):
            is_independent(c5, {0, 7})


class TestIndependenceNumber:
    def test_c5(self, c5):
        res = independence_number(c5)
        assert res.alpha == 2
        assert len(res.witness) == 2 and is_independent(c5, res.witness)
        assert res.node_count >= 1

    def test_complete_graphs(self):
        for n in (1, 2, 5, 9):
            assert independence_number(complete_graph(n)).alpha == 1

    def test_petersen(self, petersen):
        assert independence_number(petersen).alpha == 4

    def test_k2_gadget(self, k2):
        gp = build_two_point_graph(k2).as_graph()
        res = independence_number(gp)
        assert res.alpha == 2  # alpha(K2) + |E(K2)| = 1 + 1

    def test_size_limit(self):
        g = build_graph(65, [])
        with pytest.raises(SizeLimitError):
            independence_number(g)
        assert independence_number(g, limit=65).alpha == 65

    def test_weighted_rejected(self):
        g = build_graph(2, [(0, 1)], weights={0: 2})
        with pytest.raises(ValueError, match="expand"):
            independence_number(g)

    def test_matches_brute_force_on_random_graphs(self):
        # 200+ random graphs across the brute-force range, all three
        # densities; a few at the n = 24 ceiling.
        rng = np.random.default_rng(20260809)
        sizes = [int(rng.integers(1, 17)) for _ in range(198)] + [18, 20, 22, 24]
        for trial, n in enumerate(sizes):
            p = [0.2, 0.5, 0.8][trial % 3]
            g = random_graph(rng, n, p)
            res = independence_number(g)
            assert res.alpha == brute_force_alpha(g)
            assert is_independent(g, res.witness)
            assert len(res.witness) == res.alpha

    @given(st.integers(1, 10), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_property(self, n, rnd):
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.5
        ]
        g = build_graph(n, edges)
        assert independence_number(g).alpha == brute_force_alpha(g)


class TestBruteForce:
    def test_c5(self, c5):
        assert brute_force_alpha(c5) == 2

    def test_empty_graph(self):
        assert brute_force_alpha(build_graph(7, [])) == 7

    def test_petersen(self, petersen):
        assert brute_force_alpha(petersen) == 4

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            brute_force_alpha(build_graph(25, []))

    def test_weighted_graph_uses_weights(self):
        g = build_graph(2, [(0, 1)], weights={0: 3, 1: 2})
        assert brute_force_alpha(g) == 3


class TestAssignments:
    def test_all_ones_on_c5(self, c5):
        assert noncontextual_assignment_value(c5, {v: 1 for v in range(5)}) == 0

    def test_independent_set_indicator(self, c5):
        assignment = {v: 1 if v in (0, 2) else 0 for v in range(5)}
        assert noncontextual_assignment_value(c5, assignment) == 2

    def test_missing_vertex_rejected(self, c5):
        with pytest.raises(ValueError, match="missing"):
            noncontextual_assignment_value(c5, {0: 1})

    def test_non_bit_rejected(self, c5):
        with pytest.raises(ValueError, match="bit"):
            noncontextual_assignment_value(c5, {v: v for v in range(5)})

    def test_can_dip_below_zero_on_dense_graphs(self):
        # all-ones on K4 pays for all six edges
        assert noncontextual_assignment_value(complete_graph(4), {v: 1 for v in range(4)}) == -2

    def test_exhaustive_maximum_equals_alpha(self):
        rng = np.random.default_rng(77)
        graphs = [cycle_graph(5), cycle_graph(7), complete_graph(4)]
        graphs += [random_graph(rng, int(rng.integers(2, 13)), 0.5) for _ in range(8)]
        for g in graphs:
            assert max_assignment_value(g) == independence_number(g).alpha

    def test_max_assignment_size_limit(self):
        with pytest.raises(SizeLimitError):
            max_assignment_value(build_graph(21, []))


class TestGadgetAlphaTransfer:
    def test_alpha_transfer_small_random(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            g = random_graph(rng, int(rng.integers(1, 10)), [0.2, 0.5, 0.8][trial % 3])
            gp = build_two_point_graph(g).as_graph()
            assert (
                independence_number(gp, limit=128).alpha
                == independence_number(g).alpha + len(g.edges)
            )
