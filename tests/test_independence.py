import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopoint import (
    SizeLimitError,
    build_graph,
    build_two_point_graph,
    catalog,
    complete_graph,
    cycle_graph,
    expand_weighted,
    independence_number,
    is_independent,
)
from conftest import random_graph
from oracles import (
    brute_force_alpha,
    event_assignments,
    full_scan_independence_number,
    greedy_incumbent,
    max_assignment_value,
    noncontextual_assignment_value,
    one_vertex_branch_alpha,
)


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
        res = independence_number(g, limit=65)
        # The 65 isolated vertices are one false-twin class, which the greedy
        # incumbent takes whole; the root's cover (65 singletons) then leaves
        # nothing to branch on.
        assert (res.alpha, res.node_count) == (65, 1)

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


def _pinned_random_graph(rng: random.Random):
    n = rng.randint(24, 30)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(n, rng.sample(pairs, rng.randint(2 * n, 5 * n // 2)))


def _pinned_sources():
    rng = random.Random("pinned-tree")
    return {
        "c21": cycle_graph(21),
        "c31": cycle_graph(31),
        "random-0": _pinned_random_graph(rng),
        "random-1": _pinned_random_graph(rng),
    }


# (alpha, witness, node_count) of independence_number on G' of each source.
# The node count changes with any change to the vertex order, the greedy
# incumbent, the clique cover, the walk over the cliques or the false-twin
# class branching, even one that keeps alpha and the witness, and reports
# print it.  On c21 and c31 the incumbent is already optimal: the root
# branches on the one class its last clique holds, and that branch's cover
# closes the search; the random sources pin a deeper search.
PINNED_TREES = {
    "c21": (
        31,
        (
            0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 23, 26, 28, 32, 34, 38, 40, 44, 46, 50,
            52, 56, 58, 62, 64, 68, 70, 74, 76, 80, 81,
        ),
        2,
    ),
    "c31": (
        46,
        (
            0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 33, 36, 38, 42, 44,
            48, 50, 54, 56, 60, 62, 66, 68, 72, 74, 78, 80, 84, 86, 90, 92, 96, 98, 102,
            104, 108, 110, 114, 116, 120, 121,
        ),
        2,
    ),
    "random-0": (
        71,
        (
            1, 4, 6, 7, 8, 9, 17, 19, 20, 21, 22, 27, 29, 32, 35, 39, 42, 44, 46, 49,
            53, 55, 58, 62, 66, 69, 71, 74, 76, 79, 82, 85, 89, 93, 96, 99, 102, 105,
            108, 111, 114, 117, 120, 123, 126, 129, 130, 133, 136, 140, 143, 145, 149,
            152, 154, 157, 160, 163, 166, 170, 173, 176, 179, 182, 185, 189, 192, 195,
            198, 200, 203,
        ),
        41,
    ),
    "random-1": (
        73,
        (
            5, 6, 7, 10, 12, 13, 14, 16, 18, 19, 22, 28, 32, 34, 37, 41, 43, 47, 50,
            52, 55, 59, 61, 65, 68, 71, 73, 77, 80, 83, 86, 89, 92, 94, 99, 102, 105,
            108, 111, 114, 117, 120, 123, 126, 128, 130, 134, 136, 140, 144, 147, 150,
            152, 155, 159, 162, 165, 168, 171, 174, 177, 180, 182, 184, 187, 190, 195,
            198, 199, 202, 205, 208, 211,
        ),
        36,
    ),
}


class TestPinnedSearchTree:
    @pytest.mark.parametrize("name", sorted(PINNED_TREES))
    def test_tree_is_unchanged(self, name):
        g = _pinned_sources()[name]
        gp = build_two_point_graph(g).as_graph()
        res = independence_number(gp, limit=gp.n)
        alpha, witness, node_count = PINNED_TREES[name]
        assert (res.alpha, res.witness, res.node_count) == (alpha, witness, node_count)



def _false_twin_classes(gp):
    """Vertex sets of gp with equal neighbourhoods, as a set of frozensets."""
    nbrs = [set() for _ in range(gp.n)]
    for (p, q) in gp.edges:
        nbrs[p].add(q)
        nbrs[q].add(p)
    classes = {}
    for v in range(gp.n):
        classes.setdefault(frozenset(nbrs[v]), set()).add(v)
    return {frozenset(c) for c in classes.values()}


def _random_edges(rnd, n, p):
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p]


class TestTwinReductions:
    @pytest.mark.parametrize("name", ["c21", "c31", "c41", "random-0", "random-1"])
    def test_matches_one_vertex_branching_on_gprime(self, name):
        g = cycle_graph(41) if name == "c41" else _pinned_sources()[name]
        gp = build_two_point_graph(g).as_graph()
        res = independence_number(gp, limit=gp.n)
        assert res.alpha == one_vertex_branch_alpha(gp).alpha
        assert len(res.witness) == res.alpha and is_independent(gp, res.witness)

    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_weighted_blowups_match_brute_force(self, n, rnd):
        # expand_weighted makes each weight-w vertex a class of w false twins.
        weights = {v: rnd.randint(1, 24 // n) for v in range(n)}
        g = build_graph(n, _random_edges(rnd, n, rnd.random()), weights=weights)
        blowup, _ = expand_weighted(g)
        res = independence_number(blowup)
        assert res.alpha == brute_force_alpha(g)
        assert len(res.witness) == res.alpha and is_independent(blowup, res.witness)

    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_small_gprime_matches_brute_force(self, n, rnd):
        edges = _random_edges(rnd, n, rnd.random())
        rnd.shuffle(edges)
        g = build_graph(n, edges[: (24 - n) // 3])
        gp = build_two_point_graph(g).as_graph()
        res = independence_number(gp)
        assert res.alpha == brute_force_alpha(gp)
        assert len(res.witness) == res.alpha and is_independent(gp, res.witness)

    @given(st.integers(0, 12), st.integers(2, 8), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_isolated_vertices_match_brute_force(self, n, isolated, rnd):
        order = list(range(n + isolated))
        rnd.shuffle(order)
        edges = [(order[i], order[j]) for (i, j) in _random_edges(rnd, n, rnd.random())]
        g = build_graph(n + isolated, edges)
        res = independence_number(g)
        assert res.alpha == brute_force_alpha(g)
        assert len(res.witness) == res.alpha and is_independent(g, res.witness)


def _relabelled(g, rnd):
    """g with its vertices permuted, so that twin classes interleave in id order."""
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return build_graph(g.n, [(perm[i], perm[j]) for (i, j) in g.edges])


def _complete_multipartite(parts):
    first = [sum(parts[:k]) for k in range(len(parts))]
    return build_graph(sum(parts), [
        (first[a] + x, first[b] + y)
        for a in range(len(parts)) for b in range(a + 1, len(parts))
        for x in range(parts[a]) for y in range(parts[b])
    ])


class TestRepresentativeScan:
    """The package's bitmask search against the set-based reference of the same
    rule in ``oracles``.  Same tree: alpha, witness and node count."""

    @staticmethod
    def _assert_same_tree(g):
        res = independence_number(g, limit=g.n)
        ref = full_scan_independence_number(g)
        assert (res.alpha, res.witness, res.node_count) == (
            ref.alpha, ref.witness, ref.node_count
        )

    def test_random_graphs(self):
        rng = np.random.default_rng(20261019)
        for trial in range(200):
            n = int(rng.integers(1, 31))
            self._assert_same_tree(random_graph(rng, n, [0.1, 0.3, 0.5, 0.8][trial % 4]))

    def test_weighted_blowups(self):
        # expand_weighted makes each weight-w vertex a class of w false twins.
        rnd = random.Random("blowup-scan")
        for _ in range(40):
            n = rnd.randint(2, 9)
            weights = {v: rnd.randint(1, 5) for v in range(n)}
            g = build_graph(n, _random_edges(rnd, n, rnd.random()), weights=weights)
            blowup, _ = expand_weighted(g)
            self._assert_same_tree(blowup)
            self._assert_same_tree(_relabelled(blowup, rnd))

    @pytest.mark.parametrize(
        "parts", [(1,), (4,), (2, 2), (1, 2, 3), (3, 1, 2), (4, 4, 4), (5, 1, 1, 2), (3, 3, 3, 3)]
    )
    def test_complete_multipartite(self, parts):
        g = _complete_multipartite(parts)
        self._assert_same_tree(g)
        self._assert_same_tree(_relabelled(g, random.Random(f"multipartite-{parts}")))

    def test_gprime_of_random_graphs(self):
        rnd = random.Random("gprime-scan")
        for _ in range(20):
            n = rnd.randint(3, 12)
            g = build_graph(n, _random_edges(rnd, n, rnd.uniform(0.2, 0.6)))
            self._assert_same_tree(build_two_point_graph(g).as_graph())


def _structure_sources():
    return {"c5": cycle_graph(5), "petersen": catalog("petersen"), **_pinned_sources()}


class TestGprimeTwinClasses:
    """G' is G with each vertex blown up into a class of false twins, plus one
    (0,0) event per edge; the lifted witness of alpha(G) attains alpha(G')."""

    @pytest.mark.parametrize("name", sorted(_structure_sources()))
    def test_classes_are_vertex_classes_and_zero_zero_events(self, name):
        g = _structure_sources()[name]
        assert all(g.neighbors(v) for v in range(g.n))  # isolated vertices would merge
        eg = build_two_point_graph(g)
        events = event_assignments(g)
        expected = set()
        for i in range(g.n):
            expected.add(frozenset(k for k, event in enumerate(events) if event.get(i) == 1))
        for k, event in enumerate(events):
            if not any(event.values()):
                expected.add(frozenset([k]))
        classes = _false_twin_classes(eg.as_graph())
        assert classes == expected
        assert len(classes) == g.n + len(g.edges)

    @pytest.mark.parametrize("name", sorted(_structure_sources()))
    def test_lifted_witness_attains_alpha_gprime(self, name):
        g = _structure_sources()[name]
        eg = build_two_point_graph(g)
        s = set(independence_number(g).witness)
        reads = [1 if v in s else 0 for v in range(g.n)]
        lifted = [
            k for k, event in enumerate(event_assignments(g))
            if all(reads[o] == out for o, out in event.items())
        ]
        assert len(lifted) == len(s) + len(g.edges)
        assert is_independent(eg.as_graph(), lifted)
        assert len(lifted) == independence_number(eg.as_graph(), limit=eg.n).alpha


def _alpha_sweep_sources():
    """Random graphs G, n 10-45, and small random sources of G', drawn once."""
    rnd = random.Random("alpha-sweep")
    graphs = []
    for _ in range(60):
        n = rnd.randint(10, 45)
        graphs.append(build_graph(n, _random_edges(rnd, n, rnd.choice((0.1, 0.2, 0.3, 0.5)))))
    sources = []
    for _ in range(20):
        n = rnd.randint(6, 16)
        sources.append(build_graph(n, _random_edges(rnd, n, rnd.uniform(0.2, 0.5))))
    return graphs, sources


# alpha of each sweep graph and of G' of each sweep source, as computed by the
# search before it started from the greedy incumbent (include branch first,
# from an empty best set).
SWEEP_ALPHA = (
    6, 13, 9, 6, 7, 12, 11, 5, 10, 10, 6, 8, 5, 11, 9, 13, 16, 15, 9, 13, 13, 6, 12, 20,
    12, 9, 5, 13, 7, 7, 8, 6, 8, 8, 6, 5, 14, 9, 10, 7, 8, 5, 11, 4, 15, 11, 13, 7, 8,
    10, 9, 7, 6, 7, 7, 6, 10, 8, 9, 22,
)
SWEEP_GPRIME_ALPHA = (
    10, 18, 8, 12, 20, 9, 46, 22, 29, 13, 11, 8, 55, 36, 40, 55, 32, 27, 19, 15,
)


class TestGreedyIncumbent:
    # GWMIN takes vertex 1 (ratio 1/3, lowest id), which deletes 0 and 2 and
    # leaves the triangle 3, 4, 5: two vertices, against alpha = 3 at {0, 2, 5}.
    BELOW_ALPHA = build_graph(6, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 4), (3, 4), (3, 5), (4, 5)])

    def test_search_goes_beyond_an_incumbent_below_alpha(self):
        g = self.BELOW_ALPHA
        assert greedy_incumbent(g) == (1, 3)
        res = independence_number(g)
        assert res.alpha == brute_force_alpha(g) == 3
        assert len(res.witness) == 3 and is_independent(g, res.witness)

    def test_optimal_incumbent_is_the_witness(self):
        # The search replaces the incumbent only by a strictly larger set.
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        res = independence_number(star)
        assert (res.alpha, res.witness, res.node_count) == (3, (1, 2, 3), 1)
        assert independence_number(cycle_graph(5)).witness == (0, 2)
        rng = np.random.default_rng(20261020)
        for trial in range(100):
            g = random_graph(rng, int(rng.integers(1, 17)), [0.2, 0.5, 0.8][trial % 3])
            res = independence_number(g)
            if len(greedy_incumbent(g)) == brute_force_alpha(g):
                assert res.witness == greedy_incumbent(g)

    def test_alpha_unchanged_on_random_graphs(self):
        graphs, _ = _alpha_sweep_sources()
        found = []
        for g in graphs:
            res = independence_number(g)
            assert len(res.witness) == res.alpha and is_independent(g, res.witness)
            found.append(res.alpha)
        assert tuple(found) == SWEEP_ALPHA

    def test_alpha_unchanged_on_gprime_of_random_graphs(self):
        _, sources = _alpha_sweep_sources()
        found = []
        for g in sources:
            gp = build_two_point_graph(g).as_graph()
            res = independence_number(gp, limit=gp.n)
            assert len(res.witness) == res.alpha and is_independent(gp, res.witness)
            found.append(res.alpha)
        assert tuple(found) == SWEEP_GPRIME_ALPHA


def _where_graph(n, m):
    """where-n-m: m of the n(n-1)/2 vertex pairs, drawn by random.Random(f"where-{n}-{m}")."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(n, random.Random(f"where-{n}-{m}").sample(pairs, m))


# alpha of where-n-3n, as computed by the search before it walked a clique
# cover over the degree order (max-degree pivot, one cover bound per node).
WHERE_ALPHA = {40: 15, 60: 24, 80: 31, 100: 40, 140: 59}


class TestCliqueCoverSearch:
    @pytest.mark.parametrize("n", sorted(WHERE_ALPHA))
    def test_alpha_of_where_graphs(self, n):
        g = _where_graph(n, 3 * n)
        res = independence_number(g, limit=n)
        assert res.alpha == WHERE_ALPHA[n]
        assert len(res.witness) == res.alpha and is_independent(g, res.witness)

    def test_gprime_alpha_unchanged_under_relabelling(self):
        # The internal order sorts by (degree, id), so relabelling moves ties
        # and the tree; alpha must not move.
        rnd = random.Random("relabel-gprime")
        for _ in range(20):
            n = rnd.randint(5, 14)
            g = build_graph(n, _random_edges(rnd, n, rnd.uniform(0.2, 0.5)))
            gp = build_two_point_graph(g).as_graph()
            alpha = independence_number(g).alpha + len(g.edges)
            for h in (gp, _relabelled(gp, rnd), _relabelled(gp, rnd)):
                res = independence_number(h, limit=h.n)
                assert res.alpha == alpha
                assert len(res.witness) == alpha and is_independent(h, res.witness)
