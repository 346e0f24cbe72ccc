import copy
import dataclasses
import json
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twopoint import (
    Graph,
    build_graph,
    build_two_point_graph,
    catalog,
    complete_graph,
    cycle_graph,
    expand_weighted,
)
from twopoint.serialize import dumps_canonical, event_graph_to_jsonable
from conftest import random_graph
from oracles import (
    are_exclusive, brute_force_alpha, complement, event_assignments, event_graph_from_jsonable,
    exclusive_pairs,
)


class TestBuildGraph:
    def test_normalizes_edge_order_and_duplicates(self):
        g = build_graph(4, [(2, 0), (0, 2), (3, 1)])
        assert g.edges == ((0, 2), (1, 3))

    def test_kcbs_pentagon(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert g.n == 5 and len(g.edges) == 5
        assert all(len(g.neighbors(v)) == 2 for v in range(5))

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.edges == ()

    def test_weighted_k2(self):
        g = build_graph(2, [(0, 1)], weights={0: 2})
        assert g.weight(0) == 2 and g.weight(1) == 1
        assert g.is_weighted

    def test_all_unit_weights_normalize_away(self):
        g = build_graph(3, [(0, 1)], weights={0: 1, 2: 1})
        assert not g.is_weighted

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(3, [(0, 3)])

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            build_graph(2, [(0, 1)], weights={0: 0})


class TestComplement:
    def test_c5_complement_is_a_pentagon(self):
        # The pentagon is self-complementary: the complement is again a
        # connected 2-regular graph on 5 vertices, i.e. a 5-cycle.
        g = complement(cycle_graph(5))
        assert len(g.edges) == 5
        assert all(len(g.neighbors(v)) == 2 for v in range(5))
        reached = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in g.neighbors(v):
                if u not in reached:
                    reached.add(u)
                    frontier.append(u)
        assert reached == set(range(5))

    def test_complete_graph_complement_is_empty(self):
        assert complement(complete_graph(4)).edges == ()

    @given(st.integers(2, 9), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, n, rnd):
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.5
        ]
        g = build_graph(n, edges)
        assert complement(complement(g)) == g


class TestExpandWeighted:
    def test_unit_weights_identity(self, c5):
        expanded, provenance = expand_weighted(c5)
        assert expanded == c5
        assert provenance == tuple(range(5))

    def test_weighted_k2(self):
        g = build_graph(2, [(0, 1)], weights={0: 2})
        expanded, provenance = expand_weighted(g)
        # Two non-adjacent copies of vertex 0, each adjacent to vertex 1.
        assert expanded.n == 3
        assert expanded.edges == ((0, 2), (1, 2))
        assert provenance == (0, 0, 1)
        assert brute_force_alpha(expanded) == 2

    def test_c5_one_heavy_vertex(self, c5):
        g = build_graph(5, c5.edges, weights={0: 2})
        expanded, _ = expand_weighted(g)
        assert expanded.n == 6
        assert brute_force_alpha(expanded) == 3
        assert brute_force_alpha(g) == 3

    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_weighted_alpha_equals_blowup_alpha(self, n, rnd):
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.5
        ]
        weights = {v: rnd.randint(1, 3) for v in range(n)}
        g = build_graph(n, edges, weights)
        expanded, provenance = expand_weighted(g)
        assert expanded.n == sum(weights.values())
        assert [g.weight(v) for v in range(n)] == [
            provenance.count(v) for v in range(n)
        ]
        assert brute_force_alpha(g) == brute_force_alpha(expanded)


class TestExclusivity:
    def test_single_vs_pair_conflicting_outcome(self, k2):
        assert are_exclusive({0: 1}, {0: 0, 1: 1}, k2)

    def test_single_vs_pair_agreeing_outcome(self, k2):
        # 1|0 and (1,0)|01 agree on observable 0 and assign no 1-1 pair
        # across the edge, so these events coexist.
        assert not are_exclusive({0: 1}, {0: 1, 1: 0}, k2)

    def test_two_singles_across_an_edge(self, k2):
        assert are_exclusive({0: 1}, {1: 1}, k2)

    def test_two_singles_without_edge(self):
        g = build_graph(3, [(0, 1)])
        assert not are_exclusive({0: 1}, {2: 1}, g)

    def test_symmetric_and_irreflexive_on_compiled_labels(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 7)), 0.5)
            events = event_assignments(g)
            for e1 in events:
                assert not are_exclusive(e1, e1, g)
                for e2 in events:
                    assert are_exclusive(e1, e2, g) == are_exclusive(e2, e1, g)


class TestTwoPointGraph:
    def test_k2_gadget_matches_expected_edge_list(self, k2):
        eg = build_two_point_graph(k2)
        assert eg.n == 5
        assert eg.assignments() == [{0: 1}, {1: 1}, {0: 0, 1: 0}, {0: 0, 1: 1}, {0: 1, 1: 0}]
        obs, out = eg.events
        assert obs.tolist() == [[0, 0], [1, 1], [0, 1], [0, 1], [0, 1]]
        assert out.tolist() == [[1, 1], [1, 1], [0, 0], [0, 1], [1, 0]]
        singles, triples = eg.blocks()
        assert singles.tolist() == [0, 1] and triples.tolist() == [[2, 3, 4]]
        assert set(eg.edges) == {
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4),
        }

    def test_c5_vertex_count(self, c5):
        eg = build_two_point_graph(c5)
        assert eg.n == 5 + 15 == 20

    def test_empty_graph_compiles_to_itself(self):
        g = build_graph(4, [])
        eg = build_two_point_graph(g)
        assert eg.n == 4 and eg.edges == ()

    def test_vertex_count_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(1, 8)), float(rng.choice([0.2, 0.5, 0.8])))
            eg = build_two_point_graph(g)
            assert eg.n == g.n + 3 * len(g.edges)

    def test_weighted_input_rejected(self):
        g = build_graph(2, [(0, 1)], weights={0: 2})
        with pytest.raises(ValueError, match="expand"):
            build_two_point_graph(g)

    @given(st.integers(1, 8), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
    @example(8, 0.0, random.Random(0))  # edgeless
    @example(8, 1.0, random.Random(0))  # complete
    @settings(max_examples=60, deadline=None)
    def test_edges_match_all_pairs_oracle(self, n, density, rnd):
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < density
        ]
        g = build_graph(n, edges)
        eg = build_two_point_graph(g)
        assert eg.assignments() == event_assignments(g)
        assert eg.edges == exclusive_pairs(g, event_assignments(g))

    @staticmethod
    def _beyond_hypothesis_sources():
        # n = 24 and |E| = 48 with 2 isolated vertices at random ids; K1; empty6.
        # A path through the 22 others keeps them all non-isolated.
        rnd = random.Random("compile-n24")
        active = rnd.sample(range(24), 22)
        path = {(min(a, b), max(a, b)) for a, b in zip(active, active[1:])}
        rest = [(a, b) for a in active for b in active if a < b and (a, b) not in path]
        return {
            "n24-m48": build_graph(24, [*path, *rnd.sample(rest, 48 - len(path))]),
            "k1": build_graph(1, []),
            "empty6": catalog("empty6"),
        }

    @pytest.mark.parametrize("name", ["n24-m48", "k1", "empty6"])
    def test_edges_match_oracle_beyond_hypothesis_sizes(self, name):
        g = self._beyond_hypothesis_sources()[name]
        eg = build_two_point_graph(g)
        assert eg.n == g.n + 3 * len(g.edges)
        assert eg.assignments() == event_assignments(g)
        assert eg.edges == exclusive_pairs(g, event_assignments(g))
        # numpy integers would break the JSON writer and the edge-set lookups
        assert all(type(x) is int for e in eg.edges for x in e)

    def test_large_event_graph_round_trips_through_json(self):
        eg = build_two_point_graph(self._beyond_hypothesis_sources()["n24-m48"])
        assert len(eg.source.edges) == 48
        assert sum(1 for v in range(24) if not eg.source.neighbors(v)) == 2
        text = dumps_canonical(event_graph_to_jsonable(eg))
        back = event_graph_from_jsonable(json.loads(text))
        assert back == eg and hash(back) == hash(eg)

    def test_never_emits_one_one_pairs(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 6, 0.8)
        obs, out = build_two_point_graph(g).events
        pairs = obs[:, 0] != obs[:, 1]
        assert pairs.sum() == 3 * len(g.edges)
        assert not (out[pairs] == 1).all(axis=1).any()

    def test_layout_arrays_are_read_only(self, c5):
        eg = build_two_point_graph(c5)
        for arr in (eg.triples, *eg.events):
            with pytest.raises(ValueError):
                arr[0, 0] = 0


def _array_built(g: Graph) -> Graph:
    """g rebuilt by `Graph.from_edge_index` from fresh copies of its endpoints."""
    pairs = np.array(g.edges, dtype=int).reshape(-1, 2)
    return Graph.from_edge_index(g.n, pairs[:, 0].copy(), pairs[:, 1].copy())


class TestArrayBuiltGraph:
    """A graph built from endpoint arrays answers every query as the graph
    built from the same edges as a tuple."""

    @staticmethod
    def _sources():
        rng = np.random.default_rng(24)
        graphs = [random_graph(rng, int(rng.integers(2, 16)), p) for p in (0.1, 0.3, 0.6, 1.0) * 3]
        return graphs + [build_graph(1, []), build_graph(6, [])]

    def test_matches_the_tuple_built_graph(self):
        for g in self._sources():
            # Each query reads a fresh array-built graph, so it is answered from
            # the arrays alone and not from a form an earlier query built.
            assert hash(_array_built(g)) == hash(g)
            assert _array_built(g) == g and g == _array_built(g)
            a = _array_built(g)
            assert a.edges == g.edges
            assert all(type(x) is int for e in a.edges for x in e)
            for got, want in zip(_array_built(g).edge_index, g.edge_index):
                assert got.dtype == want.dtype == np.dtype(int)
                assert got.tolist() == want.tolist()
                assert not got.flags.writeable
            assert _array_built(g).adjacency == g.adjacency
            assert not _array_built(g).is_weighted

    def test_differs_where_the_tuple_built_graphs_differ(self):
        c5 = cycle_graph(5)
        a = _array_built(c5)
        weighted = build_graph(5, c5.edges, weights={0: 2})
        assert a != weighted and hash(a) != hash(weighted)
        assert a != cycle_graph(6) and a != build_graph(5, c5.edges[1:])
        assert a != build_graph(6, c5.edges)

    def test_is_immutable(self):
        for g in (cycle_graph(5), _array_built(cycle_graph(5))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.n = 6
            with pytest.raises(dataclasses.FrozenInstanceError):
                del g.weights

    def test_compiled_gprime_equals_the_oracle_graph(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(1, 9)), float(rng.choice([0.2, 0.5, 0.8])))
            eg = build_two_point_graph(g)
            oracle = Graph(eg.n, exclusive_pairs(g, event_assignments(g)))
            gp = eg.as_graph()
            assert hash(gp) == hash(oracle) and gp == oracle
            assert [a.tolist() for a in gp.edge_index] == [a.tolist() for a in oracle.edge_index]


class TestGraphIsAFrozenDataclass:
    """`Graph` is a frozen dataclass whose array-built instances make ``edges``
    on first read, through ``__getattr__`` and nothing else."""

    @staticmethod
    def _gprime():
        return build_two_point_graph(cycle_graph(5)).as_graph()

    def test_fields_and_replace(self):
        assert [f.name for f in dataclasses.fields(Graph)] == ["n", "edges", "weights"]
        gp = self._gprime()
        assert dataclasses.replace(gp, n=gp.n) == gp

    @pytest.mark.parametrize("copier", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_equal_the_original(self, copier):
        petersen, gp = catalog("petersen"), self._gprime()
        copies = copier(petersen), copier(gp)
        # The copy of G' holds the arrays, and makes its tuple when first read.
        assert "edges" not in vars(copies[1])
        assert copies[1].edges == tuple(zip(*(a.tolist() for a in gp.edge_index)))
        for original, copied in zip((petersen, gp), copies):
            assert copied == original and hash(copied) == hash(original)
        # Each compares equal to the other kind's build of the same graph.
        assert copies[0] == _array_built(petersen) and _array_built(petersen) == copies[0]
        assert copies[1] == Graph(gp.n, gp.edges) and hash(copies[1]) == hash(Graph(gp.n, gp.edges))

    def test_unknown_attribute_raises_and_builds_nothing(self):
        gp = self._gprime()
        with pytest.raises(AttributeError, match="^'Graph' object has no attribute 'colour'$"):
            gp.colour
        assert "edges" not in vars(gp)

    def test_frozen_messages(self):
        gp = self._gprime()
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'n'$"):
            gp.n = 6
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'n'$"):
            del gp.n
