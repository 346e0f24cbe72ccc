import dataclasses
import math

import numpy as np
import pytest

from twopoint import (
    NoiseModel,
    OrthoRep,
    QState,
    build_graph,
    catalog,
    complete_graph,
    cycle_graph,
    epsilon_prime,
    epsilon_signaling,
    exact_witnesses,
    extract_ortho_rep,
    joint_probs_demolition,
    joint_probs_projective,
    ordered_contexts,
    pure_state,
    run_experiment,
    theta,
)
from twopoint.certify import EXACT_CONSISTENCY_TOL
from twopoint.simulate import OUTCOMES, _flip_table, _joint_table, _misaligned_vectors
from twopoint.serialize import record_to_jsonable
from conftest import random_graph
from oracles import (
    born_single,
    builtin_kcbs_rep,
    dict_witnesses,
    evaluate_s,
    evaluate_s_prime,
    flip_joint_terms,
    isolated_and_leaf_case,
    joint_probs_table,
    kcbs_graph,
    luders_joint_table,
    luders_update,
    maximally_mixed,
    misaligned_vectors_loop,
    pair_estimate,
    pair_row,
    pairwise_signaling,
    per_context_counts,
    scalar_s_estimate,
    single_estimate,
    vertex_overlap,
)

SQRT5 = math.sqrt(5.0)


def random_mixed_state(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return QState(rho / np.trace(rho).real)


def random_unit(rng, d, complex_=True):
    v = rng.standard_normal(d)
    if complex_:
        v = v + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


NOISY = NoiseModel(depolarizing_p=0.05, vector_misalignment_angle=0.02, outcome_flip_p=0.01)


class TestStates:
    def test_pure_state_roundtrip(self):
        st = pure_state([1.0, 0.0, 0.0])
        assert st.d == 3
        assert st.rho[0, 0] == pytest.approx(1.0)

    def test_trace_validation(self):
        with pytest.raises(ValueError, match="trace"):
            QState(np.eye(2))

    def test_hermiticity_validation(self):
        rho = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            QState(rho)

    def test_positivity_validation(self):
        rho = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(ValueError, match="positive"):
            QState(rho)

    def test_noise_model_ranges(self):
        with pytest.raises(ValueError):
            NoiseModel(depolarizing_p=1.5)
        with pytest.raises(ValueError):
            NoiseModel(outcome_flip_p=-0.1)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_noise_model_rejects_non_finite_angle(self, angle):
        with pytest.raises(ValueError, match="vector_misalignment_angle must be finite"):
            NoiseModel(vector_misalignment_angle=angle)


class TestBornRule:
    def test_state_measured_against_itself(self):
        psi = np.array([0.6, 0.8])
        assert born_single(pure_state(psi), psi) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert born_single(maximally_mixed(d), np.eye(d)[0]) == pytest.approx(1 / d)

    def test_kcbs_overlap(self):
        rep = builtin_kcbs_rep()
        st = pure_state(rep.psi)
        assert born_single(st, rep.vectors[3]) == pytest.approx(1 / SQRT5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            born_single(maximally_mixed(2), np.array([1.0, 0.0, 0.0]))


class TestLudersRule:
    def test_orthogonal_outcome_zero_leaves_state_alone(self):
        psi = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        updated = luders_update(pure_state(psi), v, 0)
        assert np.allclose(updated.rho, pure_state(psi).rho)

    def test_outcome_one_projects(self):
        psi = np.array([0.6, 0.8])
        v = np.array([1.0, 0.0])
        updated = luders_update(pure_state(psi), v, 1)
        assert np.allclose(updated.rho, pure_state(v).rho)

    def test_mixed_qubit_outcome_one(self):
        v = random_unit(np.random.default_rng(0), 2)
        updated = luders_update(maximally_mixed(2), v, 1)
        assert np.allclose(updated.rho, pure_state(v).rho)

    def test_zero_probability_conditioning(self):
        psi = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="probability"):
            luders_update(pure_state(psi), psi, 0)


class TestJointProbabilities:
    def test_exact_rep_edge_has_no_one_one(self):
        rep = builtin_kcbs_rep()
        st = pure_state(rep.psi)
        for (i, j) in kcbs_graph().edges:
            probs = joint_probs_projective(st, (i, j), rep)
            assert probs[(1, 1)] == pytest.approx(0.0, abs=1e-12)
            assert probs[(1, 0)] == pytest.approx(1 / SQRT5, abs=1e-12)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)

    def test_eigenstate_of_first(self):
        rep = builtin_kcbs_rep()
        (i, j) = kcbs_graph().edges[0]
        st = pure_state(rep.vectors[i])
        probs = joint_probs_projective(st, (i, j), rep)
        assert probs[(1, 0)] == pytest.approx(1.0, abs=1e-12)
        assert probs[(0, 0)] == probs[(0, 1)] == probs[(1, 1)] == 0.0

    def test_demolition_product_formula(self):
        # P(1,1) factors through the re-prepared eigenstate of the first
        # observable: P(1|first on psi) * P(1|second on that eigenstate).
        rng = np.random.default_rng(8)
        g = build_graph(2, [(0, 1)])
        for _ in range(25):
            d = int(rng.integers(2, 5))
            vecs = np.array([random_unit(rng, d), random_unit(rng, d)])
            rep = OrthoRep(psi=random_unit(rng, d), vectors=vecs)
            st = pure_state(rep.psi)
            probs = joint_probs_demolition(st, (0, 1), rep)
            expected = born_single(st, vecs[0]) * born_single(pure_state(vecs[0]), vecs[1])
            assert probs[(1, 1)] == pytest.approx(expected, abs=1e-12)

    def test_schemes_agree_on_random_triples(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            n_v = 2
            vecs = np.array([random_unit(rng, d) for _ in range(n_v)])
            rep = OrthoRep(psi=random_unit(rng, d), vectors=vecs)
            st = (
                random_mixed_state(rng, d)
                if rng.random() < 0.5
                else pure_state(random_unit(rng, d))
            )
            ctx = (0, 1)
            pp = joint_probs_projective(st, ctx, rep)
            pd = joint_probs_demolition(st, ctx, rep)
            for key in pp:
                assert pp[key] == pytest.approx(pd[key], abs=1e-10)
            assert sum(pp.values()) == pytest.approx(1.0, abs=1e-10)
            assert all(0.0 <= p <= 1.0 for p in pp.values())

    def test_batched_table_matches_per_context_calls(self):
        rng = np.random.default_rng(17)
        g = random_graph(rng, 9, 0.4)
        d = 4
        rep = OrthoRep(psi=random_unit(rng, d),
                       vectors=np.array([random_unit(rng, d) for _ in range(g.n)]))
        st = random_mixed_state(rng, d)
        contexts = ordered_contexts(g)
        tables = joint_probs_table(st, rep, contexts)
        assert list(tables) == contexts
        for ctx in contexts:
            one = joint_probs_projective(st, ctx, rep)
            assert list(tables[ctx]) == list(one)
            assert all(tables[ctx][k] == pytest.approx(one[k], abs=1e-14) for k in one)

    def test_one_one_probability_is_order_symmetric_on_edges(self):
        rep = builtin_kcbs_rep()
        st = pure_state(rep.psi)
        for (i, j) in kcbs_graph().edges:
            fwd = joint_probs_projective(st, (i, j), rep)
            rev = joint_probs_projective(st, (j, i), rep)
            assert fwd[(1, 1)] == pytest.approx(0.0, abs=1e-12)
            assert rev[(1, 1)] == pytest.approx(0.0, abs=1e-12)



class TestWitnessEvaluation:
    def test_exact_kcbs_value(self):
        rep = builtin_kcbs_rep()
        g = kcbs_graph()
        st = pure_state(rep.psi)
        singles = {v: vertex_overlap(rep, v) for v in range(5)}
        pairs = {
            e: joint_probs_projective(st, e, rep)[(1, 1)]
            for e in g.edges
        }
        assert evaluate_s(g, singles, pairs) == pytest.approx(SQRT5, abs=1e-10)

    def test_independent_set_indicator(self, c5):
        chosen = {0, 2}
        singles = {v: 1.0 if v in chosen else 0.0 for v in range(5)}
        pairs = {e: 0.0 for e in c5.edges}
        assert evaluate_s(c5, singles, pairs) == 2.0

    def test_maximally_mixed_on_pentagon(self):
        rep = builtin_kcbs_rep()
        g = kcbs_graph()
        st = maximally_mixed(3)
        singles = {v: born_single(st, rep.vectors[v]) for v in range(5)}
        pairs = {
            e: joint_probs_projective(st, e, rep)[(1, 1)]
            for e in g.edges
        }
        # Each single is 1/3; edge vectors are orthogonal so P(1,1) stays 0.
        assert evaluate_s(g, singles, pairs) == pytest.approx(5 / 3, abs=1e-10)

    def test_missing_entries_raise(self, c5):
        with pytest.raises(ValueError, match="missing single"):
            evaluate_s(c5, {0: 1.0}, {e: 0.0 for e in c5.edges})
        with pytest.raises(ValueError, match="missing pair"):
            evaluate_s(c5, {v: 0.0 for v in range(5)}, {})

    def test_s_prime_exact_rep(self):
        rep = builtin_kcbs_rep()
        g = kcbs_graph()
        st = pure_state(rep.psi)
        singles = {v: vertex_overlap(rep, v) for v in range(5)}
        tables = {
            e: joint_probs_projective(st, e, rep) for e in g.edges
        }
        s_prime = evaluate_s_prime(g, singles, tables)
        assert s_prime == pytest.approx(SQRT5 + 5, abs=1e-9)
        assert s_prime - len(g.edges) == pytest.approx(
            evaluate_s(g, singles, {e: tables[e][(1, 1)] for e in g.edges}), abs=1e-10
        )

    def test_all_zeros_assignment_on_k2(self, k2):
        singles = {0: 0.0, 1: 0.0}
        tables = {(0, 1): {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0}}
        assert evaluate_s_prime(k2, singles, tables) == 1.0
        assert evaluate_s(k2, singles, {(0, 1): 0.0}) == 0.0

    def test_all_ones_assignment_on_k2(self, k2):
        singles = {0: 1.0, 1: 1.0}
        tables = {(0, 1): {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0}}
        assert evaluate_s_prime(k2, singles, tables) == 2.0

    def test_s_prime_missing_outcome_raises(self, k2):
        with pytest.raises(ValueError, match="missing outcome"):
            evaluate_s_prime(k2, {0: 0.0, 1: 0.0}, {(0, 1): {(0, 0): 1.0}})


class TestExactWitnesses:
    """`exact_witnesses` sums the exact kernel's table in the order of the dict
    path it replaced, so both give the same doubles."""

    @pytest.mark.parametrize(
        "name", ["c5", "c7", "c21", "petersen", "chsh-circulant", "fig2-k2", "k4", "k1", "empty6"]
    )
    def test_equals_dict_path_on_catalog_graphs(self, name):
        g = catalog(name)
        rep = extract_ortho_rep(g, theta(g))
        assert exact_witnesses(rep, g) == dict_witnesses(rep, g)

    def test_kcbs_values(self):
        s, s_prime = exact_witnesses(builtin_kcbs_rep(), kcbs_graph())
        assert s == pytest.approx(SQRT5, abs=1e-10)
        assert s_prime == pytest.approx(SQRT5 + 5, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_dict_path_on_random_representations(self, seed):
        rng = np.random.default_rng(2700 + seed)
        g = random_graph(rng, int(rng.integers(2, 12)), 0.4)
        d = int(rng.integers(1, 6))
        complex_ = bool(seed % 2)
        rep = OrthoRep(psi=random_unit(rng, d, complex_),
                       vectors=np.array([random_unit(rng, d, complex_) for _ in range(g.n)]))
        assert exact_witnesses(rep, g) == dict_witnesses(rep, g)

    def test_equals_dict_path_at_round_off(self):
        g, rep = TestNearZeroBranches._case()
        s, s_prime = exact_witnesses(rep, g)
        assert (s, s_prime) == dict_witnesses(rep, g)
        assert abs(s_prime - len(g.edges) - s) <= 1e-13

    def test_vertex_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="representation covers 5 vertices, graph has 7"):
            exact_witnesses(builtin_kcbs_rep(), cycle_graph(7))


class TestRunExperiment:
    def test_same_seed_reproduces_record(self, c5):
        rep = builtin_kcbs_rep()
        a = run_experiment(rep, kcbs_graph(), shots=500, seed=11)
        b = run_experiment(rep, kcbs_graph(), shots=500, seed=11)
        assert a == b
        assert hash(a) == hash(b)

    def test_different_seeds_differ(self):
        rep = builtin_kcbs_rep()
        a = run_experiment(rep, kcbs_graph(), shots=500, seed=1)
        b = run_experiment(rep, kcbs_graph(), shots=500, seed=2)
        assert a != b

    def test_single_shot_counts(self):
        rep = builtin_kcbs_rep()
        record = run_experiment(rep, kcbs_graph(), shots=1, seed=3)
        for counts in record.pair_counts:
            assert sum(counts) == 1
        assert all(n1 in (0, 1) for n1 in record.single_counts)

    def test_counts_sum_to_shots(self):
        rep = builtin_kcbs_rep()
        record = run_experiment(rep, kcbs_graph(), shots=250, seed=4)
        assert all(sum(c) == 250 for c in record.pair_counts)
        assert len(record.pair_counts) == 2 * len(kcbs_graph().edges)
        assert list(record.contexts) == ordered_contexts(kcbs_graph())

    def test_noiseless_estimate_converges(self):
        rep = builtin_kcbs_rep()
        record = run_experiment(rep, kcbs_graph(), shots=200_000, seed=5)
        s, se = record.s_estimate()
        assert abs(s - SQRT5) <= 5 * se

    def test_validation(self, c5):
        rep = builtin_kcbs_rep()
        with pytest.raises(ValueError, match="shots"):
            run_experiment(rep, kcbs_graph(), shots=0, seed=0)
        with pytest.raises(ValueError, match="scheme"):
            run_experiment(rep, kcbs_graph(), shots=1, seed=0, scheme="teleport")
        with pytest.raises(ValueError, match="vertices"):
            run_experiment(rep, build_graph(3, [(0, 1)]), shots=1, seed=0)
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            run_experiment(rep, kcbs_graph(), shots=2**63, seed=0)
        with pytest.raises(ValueError, match="seed"):
            run_experiment(rep, kcbs_graph(), shots=1, seed=-1)

    def test_demolition_scheme_estimates_match_exact(self):
        rep = builtin_kcbs_rep()
        record = run_experiment(rep, kcbs_graph(), shots=100_000, seed=6, scheme="demolition")
        s, se = record.s_estimate()
        assert abs(s - SQRT5) <= 5 * se


class TestSignalingDiagnostics:
    def test_noiseless_entries_compatible_with_zero(self):
        rep = builtin_kcbs_rep()
        record = run_experiment(rep, kcbs_graph(), shots=100_000, seed=7)
        eps = epsilon_signaling(record)
        eps_p = epsilon_prime(record)
        assert len(eps) == 10 and len(eps_p) == 10
        assert all(e["difference"] <= 5 * e["stderr"] for e in eps)
        assert all(e["difference"] <= 5 * e["stderr"] for e in eps_p)

    def test_misalignment_shows_up_in_epsilon_only(self):
        rep = builtin_kcbs_rep()
        noise = NoiseModel(vector_misalignment_angle=0.1)
        record = run_experiment(rep, kcbs_graph(), shots=200_000, seed=8, noise=noise)
        eps = epsilon_signaling(record)
        eps_p = epsilon_prime(record)
        assert max(e["difference"] / e["stderr"] for e in eps) > 5
        assert all(e["difference"] <= 5 * e["stderr"] for e in eps_p)

    def test_outcome_flips_keep_epsilon_prime_null(self):
        rep = builtin_kcbs_rep()
        noise = NoiseModel(outcome_flip_p=0.05)
        record = run_experiment(rep, kcbs_graph(), shots=100_000, seed=9, noise=noise)
        assert all(e["difference"] <= 5 * e["stderr"] for e in epsilon_prime(record))

    def test_depolarizing_and_flip_compose(self):
        # fully depolarized state gives P(1|i) = 1/3, then the readout flip
        # moves it to 0.9/3 + 0.1*2/3
        rep = builtin_kcbs_rep()
        noise = NoiseModel(depolarizing_p=1.0, outcome_flip_p=0.1)
        record = run_experiment(rep, kcbs_graph(), shots=150_000, seed=13, noise=noise)
        expected = 0.9 / 3 + 0.1 * 2 / 3
        for v in range(5):
            p, se = single_estimate(record, v)
            assert abs(p - expected) <= 5 * se

    def test_no_shared_second_means_empty_table(self, k2):
        rep = OrthoRep(
            psi=np.array([1.0, 0.0]),
            vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        record = run_experiment(rep, k2, shots=100, seed=10)
        assert epsilon_signaling(record) == []
        assert epsilon_prime(record) == []

    def test_star_graph_table_sizes(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        rng = np.random.default_rng(0)
        vecs = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        rep = OrthoRep(psi=vecs[:, 3].copy(), vectors=vecs.T[:4].copy())
        record = run_experiment(rep, g, shots=50, seed=12)
        # hub as second observable: 3 first settings -> 3 pairs x 2 outcomes
        assert len(epsilon_signaling(record)) == 6
        assert len(epsilon_prime(record)) == 6

    @pytest.mark.parametrize("scheme", ["projective", "demolition"])
    def test_tables_equal_pairwise_oracle_on_noisy_records(self, petersen, scheme):
        rep = extract_ortho_rep(petersen, theta(petersen))
        record = run_experiment(rep, petersen, shots=20_000, seed=4, noise=NOISY, scheme=scheme)
        assert len(epsilon_signaling(record)) == 10 * 3 * 2
        assert epsilon_signaling(record) == pairwise_signaling(record, 1)
        assert epsilon_prime(record) == pairwise_signaling(record, 0)

    def test_tables_equal_pairwise_oracle_with_isolated_and_leaf_vertices(self):
        g, rep = isolated_and_leaf_case()
        noise = NoiseModel(outcome_flip_p=0.02)
        record = run_experiment(rep, g, shots=5_000, seed=2, noise=noise)
        order = np.random.default_rng(0).permutation(len(record.contexts)).tolist()
        shuffled = dataclasses.replace(
            record,
            contexts=tuple(record.contexts[k] for k in order),
            pair_counts=tuple(record.pair_counts[k] for k in order),
        )
        for rec in (record, shuffled):
            assert epsilon_signaling(rec) == pairwise_signaling(rec, 1)
            assert epsilon_prime(rec) == pairwise_signaling(rec, 0)
        assert {e["fixed"] for e in epsilon_signaling(record)} == {0, 3}

    def test_context_order_within_experiment(self):
        g = kcbs_graph()
        assert ordered_contexts(g)[:3] == [
            (0, 1), (0, 4), (1, 0),
        ]


class TestBatchedTableAgainstLuders:
    """The batched kernel works from n x n overlaps; the oracle conditions full
    density matrices with luders_update, one context at a time."""

    @staticmethod
    def _assert_matches(state, vectors, g, scheme):
        contexts = ordered_contexts(g)
        born, table = _joint_table(
            state.rho,
            np.asarray(vectors, dtype=complex),
            np.array(contexts).reshape(-1, 2),
            demolition=scheme == "demolition",
        )
        ref_born, ref_table = luders_joint_table(state, vectors, contexts, scheme)
        np.testing.assert_allclose(born, ref_born, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table, ref_table, rtol=0, atol=1e-12)

    @staticmethod
    def _states(rng, psi):
        pure = pure_state(psi)
        d = pure.d
        depolarised = QState(0.95 * pure.rho + 0.05 * np.eye(d) / d)
        return (pure, random_mixed_state(rng, d), depolarised)

    @pytest.mark.parametrize("scheme", ["projective", "demolition"])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_random_graph(self, scheme, complex_):
        rng = np.random.default_rng(16)
        g = random_graph(rng, 12, 0.4)
        vectors = np.array([random_unit(rng, 5, complex_) for _ in range(12)])
        for state in self._states(rng, random_unit(rng, 5)):
            self._assert_matches(state, vectors, g, scheme)

    @pytest.mark.parametrize("scheme", ["projective", "demolition"])
    def test_isolated_and_leaf_vertices(self, scheme):
        g, rep = isolated_and_leaf_case()
        for state in self._states(np.random.default_rng(17), rep.psi):
            self._assert_matches(state, rep.vectors, g, scheme)


class TestNearZeroBranches:
    """An orthonormal basis of R^14 realises K_14, and psi close to its first
    vector leaves 13 vertices with 1e-12 <= P(1) <= 1e-11.  Dropping those
    first outcomes' mass would move S' - |E| - S past the certify tolerance."""

    @staticmethod
    def _case():
        rng = np.random.default_rng(18)
        d = 14
        eps = rng.uniform(1e-12, 1e-11, d - 1)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        psi = q @ np.concatenate([[math.sqrt(1.0 - eps.sum())], np.sqrt(eps)])
        return complete_graph(d), OrthoRep(psi=psi, vectors=q.T.copy())

    def test_consistency_at_round_off(self):
        g, rep = self._case()
        singles = dict(enumerate(rep.overlaps().tolist()))
        rare = sum(singles[i] for (i, _) in g.edges if singles[i] <= 1e-11)
        assert rare > EXACT_CONSISTENCY_TOL  # the mass a dropped branch would lose
        tables = joint_probs_table(pure_state(rep.psi), rep, g.edges)
        s = evaluate_s(g, singles, {e: t[(1, 1)] for e, t in tables.items()})
        s_prime = evaluate_s_prime(g, singles, tables)
        assert abs(s_prime - len(g.edges) - s) <= 1e-13

    def test_luders_reference_names_the_probability(self):
        # Outcome 0 of vertex 0 has probability 7.4e-11, above PROB_ATOL, and
        # dividing by it leaves round-off that QState's PSD check rejects.
        g, rep = self._case()
        with pytest.raises(ValueError, match=r"outcome 0 with probability 7\.4\d\de-11") as info:
            luders_update(pure_state(rep.psi), rep.vectors[0], 0)
        assert "positive semidefinite" not in str(info.value)
        assert "positive semidefinite" in str(info.value.__cause__)

    @pytest.mark.parametrize("scheme", ["projective", "demolition"])
    def test_rows_keep_first_outcome_mass(self, scheme):
        g, rep = self._case()
        state = pure_state(rep.psi)
        TestBatchedTableAgainstLuders._assert_matches(state, rep.vectors, g, scheme)
        born, table = _joint_table(
            state.rho,
            np.asarray(rep.vectors, dtype=complex),
            np.array(ordered_contexts(g)).reshape(-1, 2),
            demolition=scheme == "demolition",
        )
        first = np.array(ordered_contexts(g))[:, 0]
        np.testing.assert_allclose(table[:, 2] + table[:, 3], born[first], rtol=1e-15, atol=0)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-15)


class TestKernelAgainstPerContextOracle:
    """run_experiment draws every count from one batched table; the oracle
    calls the public kernel and draws once per ordered context, on the same
    stream.  The counts must be equal."""

    @pytest.mark.parametrize("scheme", ["projective", "demolition"])
    @pytest.mark.parametrize("noise", [NoiseModel(), NOISY], ids=["noiseless", "noisy"])
    def test_petersen(self, petersen, scheme, noise):
        rep = extract_ortho_rep(petersen, theta(petersen))
        record = run_experiment(rep, petersen, shots=50_000, seed=5, noise=noise, scheme=scheme)
        oracle = per_context_counts(rep, petersen, 50_000, 5, noise, scheme)
        assert (record.contexts, record.single_counts, record.pair_counts) == oracle

    @pytest.mark.parametrize("scheme", ["projective", "demolition"])
    def test_isolated_and_leaf_vertices(self, scheme):
        g, rep = isolated_and_leaf_case()
        record = run_experiment(rep, g, shots=7_000, seed=8, noise=NOISY, scheme=scheme)
        oracle = per_context_counts(rep, g, 7_000, 8, NOISY, scheme)
        assert (record.contexts, record.single_counts, record.pair_counts) == oracle

    @pytest.mark.parametrize("scheme", ["projective", "demolition"])
    def test_random_graph_complex_vectors(self, scheme):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 12, 0.4)
        vectors = np.array([random_unit(rng, 5) for _ in range(12)])
        rep = OrthoRep(psi=random_unit(rng, 5), vectors=vectors)
        for noise in (NoiseModel(), NOISY):
            record = run_experiment(rep, g, shots=30_000, seed=6, noise=noise, scheme=scheme)
            oracle = per_context_counts(rep, g, 30_000, 6, noise, scheme)
            assert (record.contexts, record.single_counts, record.pair_counts) == oracle


class TestMisalignment:
    @pytest.mark.parametrize("case", ["petersen", "complex", "d1-real", "d1-complex"])
    def test_matches_the_per_vertex_loop_bit_for_bit(self, petersen, case):
        rng = np.random.default_rng(31)
        if case == "petersen":
            rep = extract_ortho_rep(petersen, theta(petersen))
        elif case == "complex":
            rep = OrthoRep(random_unit(rng, 4), np.array([random_unit(rng, 4) for _ in range(9)]))
        else:  # no direction is orthogonal to a vector: every vector stays
            ends = [1.0, -1.0, 0.6 + 0.8j] if case == "d1-complex" else [1.0, -1.0, 1.0]
            rep = OrthoRep(np.ones(1), np.array(ends)[:, None])
        for seed in range(3):
            got = _misaligned_vectors(rep, 0.3, np.random.default_rng(seed))
            want = misaligned_vectors_loop(rep, 0.3, np.random.default_rng(seed))
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        if case.startswith("d1"):
            assert np.array_equal(got, rep.vectors)


class TestExactKernelArithmetic:
    """Sampled counts do not move when a probability changes in its last bit,
    so the flipped tables the sampler draws from are compared exactly."""

    @pytest.mark.parametrize("kernel", [joint_probs_projective, joint_probs_demolition])
    def test_flipped_tables_sum_one_outcome_first(self, petersen, kernel):
        rng = np.random.default_rng(21)
        rep = extract_ortho_rep(petersen, theta(petersen))
        for state in (pure_state(rep.psi), random_mixed_state(rng, rep.dimension)):
            for ctx in ordered_contexts(petersen):
                probs = kernel(state, ctx, rep)
                row = np.array([[probs[o] for o in OUTCOMES]])
                for f in (0.01, 0.3):
                    flipped = dict(zip(OUTCOMES, _flip_table(row, f)[0].tolist()))
                    assert flipped == flip_joint_terms(probs, f)


class TestRecordEstimates:
    """record_to_jsonable and s_estimate compute p and stderr with
    binomial_estimates; they must be the doubles of the scalar oracle,
    floors and exact-division branches included."""

    @staticmethod
    def _assert_estimates_equal(record):
        data = record_to_jsonable(record)
        for v in range(record.graph.n):
            entry = data["singles"][str(v)]
            assert (entry["p1"], entry["stderr"]) == single_estimate(record, v)
            assert entry["n0"] + entry["n1"] == record.shots
        for (first, second) in record.contexts:
            entry = data["pairs"][f"{first},{second}"]
            for (a, b), c in pair_row(record, first, second).items():
                key = f"{a}{b}"
                assert entry["counts"][key] == c
                assert (entry["p"][key], entry["stderr"][key]) == pair_estimate(
                    record, first, second, a, b
                )
        assert record.s_estimate() == scalar_s_estimate(record)
        assert (data["s_estimate"], data["s_stderr"]) == record.s_estimate()
        assert epsilon_signaling(record) == pairwise_signaling(record, 1)
        assert epsilon_prime(record) == pairwise_signaling(record, 0)

    def test_single_shot(self, petersen):
        rep = extract_ortho_rep(petersen, theta(petersen))
        self._assert_estimates_equal(run_experiment(rep, petersen, shots=1, seed=2, noise=NOISY))

    @pytest.mark.parametrize("scheme", ["projective", "demolition"])
    def test_noisy_petersen(self, petersen, scheme):
        rep = extract_ortho_rep(petersen, theta(petersen))
        record = run_experiment(rep, petersen, shots=30_000, seed=9, noise=NOISY, scheme=scheme)
        self._assert_estimates_equal(record)

    def test_record_embeds_the_epsilon_rows(self, petersen):
        rep = extract_ortho_rep(petersen, theta(petersen))
        record = run_experiment(rep, petersen, shots=30_000, seed=9, noise=NOISY)
        data = record_to_jsonable(record)
        assert data["epsilon"] == epsilon_signaling(record)
        assert data["epsilon_prime"] == epsilon_prime(record)

    def test_exact_rep_edges_floor_one_one(self):
        record = run_experiment(builtin_kcbs_rep(), kcbs_graph(), shots=20_000, seed=3)
        assert all(c[OUTCOMES.index((1, 1))] == 0 for c in record.pair_counts)
        self._assert_estimates_equal(record)

    @pytest.mark.parametrize("shots", [2**52 + 1, 2**53 + 1, 2**63 - 1])
    def test_shots_beyond_exact_doubles(self, shots):
        # 2**52 + 1: only the pooled (1,1) counts, over 2 shots > 2**53, divide exactly
        g, rep = isolated_and_leaf_case()
        self._assert_estimates_equal(run_experiment(rep, g, shots=shots, seed=4, noise=NOISY))

    def test_pooled_counts_beyond_int64(self, k2):
        # Every bit flips, so each (1,1) count is shots and the pooled count
        # 2**64 - 2 does not fit in int64.
        rep = OrthoRep(psi=np.eye(3)[2], vectors=np.eye(3)[:2].copy())
        record = run_experiment(
            rep, k2, shots=2**63 - 1, seed=0, noise=NoiseModel(outcome_flip_p=1.0)
        )
        assert record.pair_counts == ((0, 0, 0, 2**63 - 1),) * 2
        assert record.s_estimate() == (1.0, 2.6031257322754127e-10)
        self._assert_estimates_equal(record)
