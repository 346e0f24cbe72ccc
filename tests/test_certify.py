import copy
import dataclasses
import importlib
import json
import math
import random

import numpy as np
import pytest

from twopoint import (
    CertifyOptions,
    ExtractionError,
    Graph,
    SizeLimitError,
    StageError,
    build_graph,
    build_two_point_graph,
    catalog,
    certify,
    complete_graph,
    cycle_graph,
    emit_report,
    epsilon_signaling,
    expand_weighted,
    extract_ortho_rep,
    independence_number,
    lift_primal,
    multiplier_matrix,
    run_experiment,
    theta,
    verify_dual,
)
from twopoint.cli import main
from twopoint.serialize import dumps_canonical, format_float
from twopoint.simulate import SCHEMES, NoiseModel
from oracles import (
    event_assignments, lift_primal_per_edge, pairwise_signaling, record_tree, scalar_s_estimate
)

cli_mod = importlib.import_module("twopoint.cli")

# The package re-exports the functions `certify` and `theta` under their modules' names.
certify_mod = importlib.import_module("twopoint.certify")
theta_mod = importlib.import_module("twopoint.theta")

SQRT5 = math.sqrt(5.0)
FAST = CertifyOptions(skip_montecarlo=True)
NOISY = NoiseModel(depolarizing_p=0.05, vector_misalignment_angle=0.02, outcome_flip_p=0.01)


class TestCatalog:
    def test_c5(self):
        assert catalog("c5") == cycle_graph(5)

    def test_parametric_names(self):
        assert catalog("c7") == cycle_graph(7)
        assert catalog("k4") == complete_graph(4)
        assert catalog("empty6").n == 6 and catalog("empty6").edges == ()

    def test_fig2_k2(self):
        assert catalog("fig2-k2") == complete_graph(2)

    def test_chsh_circulant(self):
        from oracles import brute_force_alpha

        g = catalog("chsh-circulant")
        assert g.n == 8 and len(g.edges) == 12
        assert brute_force_alpha(g) == 3

    def test_petersen(self):
        from oracles import brute_force_alpha

        g = catalog("petersen")
        assert g.n == 10 and len(g.edges) == 15
        assert brute_force_alpha(g) == 4

    def test_even_cycles_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            catalog("c6")

    @pytest.mark.parametrize("name, message", [
        ("c0", "cycle needs n >= 3, got 0"),
        ("c1", "cycle needs n >= 3, got 1"),
        ("c2", "cycle needs n >= 3, got 2"),
        ("c4", "only odd cycles are catalogued, got c4"),
        ("k0", "complete graph needs n >= 1"),
        ("empty0", "empty graph needs n >= 1"),
    ])
    def test_refusals_are_pinned(self, name, message):
        with pytest.raises(ValueError) as excinfo:
            catalog(name)
        assert str(excinfo.value) == message

    def test_unknown_name_lists_entries(self):
        with pytest.raises(ValueError, match="available:.*petersen"):
            catalog("dodecahedron")


class TestCertifyPipeline:
    def test_pentagon(self):
        report = certify(cycle_graph(5), FAST)
        d = report.data
        assert report.complete and report.all_passed
        assert d["alpha_g"]["alpha"] == 2
        assert abs(d["theta_g"]["value"] - SQRT5) <= 1e-6
        assert d["event_graph"]["n"] == 20
        assert d["alpha_gprime"]["alpha"] == 7
        assert abs(d["theta_gprime"]["value"] - (5 + SQRT5)) <= 1e-5
        assert abs(d["exact"]["s"] - SQRT5) <= 1e-5

    def test_single_edge(self):
        report = certify(complete_graph(2), FAST)
        d = report.data
        assert report.all_passed
        assert d["alpha_g"]["alpha"] == 1
        assert abs(d["theta_g"]["value"] - 1.0) <= 1e-6
        assert d["event_graph"] == {"n": 5, "edge_count": 8}
        assert d["alpha_gprime"]["alpha"] == 2
        assert abs(d["theta_gprime"]["value"] - 2.0) <= 1e-6
        assert abs(d["exact"]["s"] - 1.0) <= 1e-6

    def test_empty_graph(self):
        report = certify(build_graph(4, []), FAST)
        d = report.data
        assert report.all_passed
        assert d["alpha_g"]["alpha"] == 4
        assert abs(d["theta_g"]["value"] - 4.0) <= 1e-5
        assert d["event_graph"]["n"] == 4
        assert d["identities"]["alpha_difference"] == 0

    def test_weighted_input_is_expanded(self):
        g = build_graph(5, cycle_graph(5).edges, weights={0: 2})
        report = certify(g, FAST)
        d = report.data
        assert report.all_passed
        assert d["input"]["weighted"] is True
        assert d["expanded"]["n"] == 6
        assert d["alpha_g"]["alpha"] == 3

    def test_oversized_blowup_refused_before_expansion(self, monkeypatch):
        def never(g):
            raise AssertionError("expand_weighted must not be called")

        monkeypatch.setattr(certify_mod, "expand_weighted", never)
        g = build_graph(2, [(0, 1)], weights={0: 100_000_000})
        with pytest.raises(StageError) as excinfo:
            certify(g, FAST)
        err = excinfo.value
        assert err.stage == "expand"
        assert isinstance(err.cause, SizeLimitError)
        message = err.report.data["error"]["message"]
        assert "sum of weights = 100000001" in message
        assert "limit of 64" in message
        assert "expanded" not in err.report.data

    def test_montecarlo_section(self):
        report = certify(cycle_graph(5), CertifyOptions(shots=20_000, seed=5))
        mc = report.data["montecarlo"]
        assert abs(mc["s_estimate"] - SQRT5) <= 6 * mc["s_stderr"]
        assert len(epsilon_signaling(mc["record"])) == 10

    def test_stage_error_carries_partial_report(self, monkeypatch):
        def failing(g):
            raise RuntimeError("injected")

        monkeypatch.setattr(certify_mod, "build_two_point_graph", failing)
        with pytest.raises(StageError) as excinfo:
            certify(complete_graph(7), FAST)
        err = excinfo.value
        assert err.stage == "compile"
        partial = err.report
        assert not partial.complete
        assert partial.data["error"] == {"stage": "compile", "message": "injected"}
        assert "alpha_g" in partial.data and "theta_g" in partial.data
        assert "event_graph" not in partial.data and "alpha_gprime" not in partial.data
        text = emit_report(partial, "text")
        assert "error at stage compile: injected" in text
        assert "complete: NO" in text

    def test_extraction_failure_keeps_theta_gprime(self, monkeypatch):
        def failing(g, sol):
            raise ExtractionError("injected")

        monkeypatch.setattr(certify_mod, "extract_ortho_rep", failing)
        with pytest.raises(StageError) as excinfo:
            certify(cycle_graph(5), FAST)
        err = excinfo.value
        assert err.stage == "orthorep"
        d = err.report.data
        assert d["theta_gprime"]["status"] == "converged"
        assert "identities" in d
        assert dict(err.report.checks())["theta_identity"] is True
        assert "orthorep" not in d and "exact" not in d

    def test_raised_alpha_limit_unblocks(self):
        # alpha_limit gates G only: K7 stops at alpha_g below 7 and passes at the default.
        with pytest.raises(StageError) as excinfo:
            certify(complete_graph(7), CertifyOptions(skip_montecarlo=True, alpha_limit=6))
        assert excinfo.value.stage == "alpha_g"
        assert "limit of 6" in str(excinfo.value.cause)
        report = certify(complete_graph(7), FAST)
        assert report.all_passed
        assert report.data["alpha_gprime"]["alpha"] == 1 + 21


def _ladder_graph(name: str):
    if name == "random-10-22":
        pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
        return build_graph(10, sorted(random.Random(0).sample(pairs, 22)))
    return catalog(name)


LADDER = ["c5", "c7", "chsh-circulant", "petersen", "c21", "k6", "random-10-22"]


def _sweep_graph(index: int, stream: str = "probe-sweep"):
    """Graph ``index`` of a sweep stream: n in 12-40, |E| in 2n-3n."""
    rng = random.Random(stream)
    for _ in range(index + 1):
        n = rng.randint(12, 40)
        m = rng.randint(2 * n, 3 * n)
        edges = rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], m)
    return build_graph(n, sorted(edges))


def _certify_c5_tampered(monkeypatch, add=(), drop=()):
    """certify(c5) on a G' whose edge list gains ``add`` and loses ``drop``."""

    def compile_tampered(g):
        eg = build_two_point_graph(g)
        edges = tuple(sorted((set(eg.edges) | set(add)) - set(drop)))
        return dataclasses.replace(eg, graph=Graph(eg.n, edges))

    monkeypatch.setattr(certify_mod, "build_two_point_graph", compile_tampered)
    return certify(cycle_graph(5), FAST)


class TestConstructiveThetaGprime:
    """theta(G') is certified from G's certificates; the direct SDP cross-checks it."""

    @pytest.mark.parametrize("name", LADDER)
    def test_sandwich_against_direct_sdp(self, name):
        g = _ladder_graph(name)
        report = certify(g, CertifyOptions(skip_montecarlo=True, alpha_limit=128))
        assert report.all_passed, [c for c, ok in report.checks() if not ok]
        t = report.data["theta_gprime"]
        assert t["method"] == "constructive"
        assert "iterations" not in t and "termination" not in t
        sdp = theta(build_two_point_graph(g).as_graph())
        assert t["value"] <= sdp.dual_value + 1e-7
        assert sdp.primal_value <= t["dual"] + 1e-7
        assert abs(t["value"] - sdp.primal_value) <= 1e-6

    def test_theta_runs_once_on_g(self, monkeypatch):
        calls = []

        def counting(g, **kwargs):
            calls.append(g)
            return theta(g, **kwargs)

        monkeypatch.setattr(certify_mod, "theta", counting)
        g = catalog("petersen")
        assert certify(g, FAST).all_passed
        assert calls == [g]

    @pytest.mark.parametrize("name", ["fig2-k2", "k6"])
    def test_fresh_direction_for_vanishing_residual_handle(self, name):
        # Where psi = sum_k f_k / sqrt(t) lies in span(f_i, f_j), the (0,0)
        # event vector vanishes, and so does its row of X'.  The residual
        # |psi|^2 minus its projection onto the span is read from X alone.
        g = catalog(name)
        sol = theta(g)
        t = verify_dual(g, multiplier_matrix(g, sol.y)).bound
        eg = build_two_point_graph(g)
        X = lift_primal(eg, sol.X)
        load = sol.X.sum(axis=1)

        def residual(i, j):
            b = load[[i, j]]
            return (sol.X.sum() - b @ np.linalg.pinv(sol.X[np.ix_([i, j], [i, j])]) @ b) / t

        residuals = {
            k: residual(*event)
            for k, event in enumerate(event_assignments(g))
            if len(event) == 2 and not any(event.values())
        }
        zero_rows = [k for k, r in residuals.items() if r <= 1e-14]
        # K2's one edge spans psi; K6's six orthogonal f_k leave 2/3 of it outside any pair.
        assert len(zero_rows) == {"fig2-k2": 1, "k6": 0}[name]
        assert np.abs(X[zero_rows]).max(initial=0.0) <= 1e-15
        for k, r in residuals.items():
            assert X[k, k] == pytest.approx(r / (t + len(g.edges)), abs=1e-9)
        report = certify(g, FAST)
        assert report.all_passed, [c for c, ok in report.checks() if not ok]

    @pytest.mark.parametrize("name", LADDER)
    def test_lifted_objective_is_overlap_sum_plus_edges(self, name):
        # At an optimum of G, <J, X'> = t + |E| = <J, X> + |E|; near one the
        # difference stays within G's own gap.
        g = _ladder_graph(name)
        sol = theta(g)
        t = verify_dual(g, multiplier_matrix(g, sol.y)).bound
        X = lift_primal(build_two_point_graph(g), sol.X)
        assert abs(X.sum() - sol.X.sum() - len(g.edges)) <= t - sol.X.sum()

    def test_sweep_graph_118_certifies(self):
        # With X' lifted from the extracted representation, this graph failed
        # theta_gprime_converged and theta_identity with a gap of 1.1e-6.
        g = _sweep_graph(118)
        assert (g.n, len(g.edges)) == (15, 45)
        report = certify(g, CertifyOptions(skip_montecarlo=True, alpha_limit=150))
        assert report.all_passed, [c for c, ok in report.checks() if not ok]
        d = report.data
        assert abs(d["identities"]["theta_difference"]) <= d["theta_g"]["gap"]

    def test_sweep_graph_254_certifies(self):
        # With outcome-1 rows sqrt(t) f_i, <J, X'> fell short of <J, X> + |E|
        # off complementarity: gap' was 1.63e-7 against G's gap of 7.7e-8.
        g = _sweep_graph(254, "sweep-400")
        assert (g.n, len(g.edges)) == (39, 84)
        report = certify(g, CertifyOptions(skip_montecarlo=True, alpha_limit=300))
        assert report.all_passed, [c for c, ok in report.checks() if not ok]
        assert report.data["theta_gprime"]["gap"] <= report.data["theta_g"]["gap"]

    def test_roundoff_sized_vector_lifts_as_zero(self):
        # f_2 is 1e-15 along f_0: as a direction it would carry psi's unit-scale
        # component along f_0 into the rows of the events with outcome 1 on 2.
        g = build_graph(3, [(1, 2)])
        eg = build_two_point_graph(g)
        F = np.array([[0.6, 0.0], [0.0, 0.8], [1e-15, 0.0]])
        exact = np.array([[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]])
        X = lift_primal(eg, F @ F.T)
        on_2 = [k for k, event in enumerate(event_assignments(g)) if event.get(2) == 1]
        assert len(on_2) == 2
        assert np.all(X[on_2] == 0.0)
        assert np.allclose(X, lift_primal(eg, exact @ exact.T), rtol=0.0, atol=1e-15)

    def test_added_edge_fails_primal_feasibility(self, monkeypatch):
        # Single events 0 and 2 of c5 are not exclusive; their lifted
        # vectors overlap and both overlap the handle.
        eg = build_two_point_graph(cycle_graph(5))
        assert (0, 2) not in eg.edges
        checks = dict(_certify_c5_tampered(monkeypatch, add=[(0, 2)]).checks())
        assert checks["theta_gprime_feasible"] is False
        assert checks["theta_gprime_dual_verified"] is True

    def test_deleted_triangle_edge_fails_dual(self, monkeypatch):
        # Vertices 5 and 6 are the (0,0) and (0,1) events of edge (0, 1).
        eg = build_two_point_graph(cycle_graph(5))
        assert (5, 6) in eg.edges
        checks = dict(_certify_c5_tampered(monkeypatch, drop=[(5, 6)]).checks())
        assert checks["theta_gprime_dual_verified"] is False
        assert checks["theta_gprime_feasible"] is True

    def test_report_fields(self):
        d = certify(cycle_graph(5), FAST).data
        assert d["schema"] == 3
        t = d["theta_gprime"]
        assert t["status"] == "converged" and t["feasible"] and t["dual_verified"]
        assert abs(t["gap"]) <= 1e-7
        assert t["gap"] == t["dual"] - t["value"]
        assert set(t["residuals"]) == {"min_eigenvalue", "trace_error", "max_edge_entry"}
        assert d["theta_g"]["dual_verified"] is True
        names = [name for name, _ in d["checks"]]
        assert names.index("theta_gprime_converged") < names.index("orthorep_verified")
        assert {"theta_g_dual_verified", "theta_gprime_dual_verified"} <= set(names)

    def test_dump_sdp_holds_the_lifted_matrix(self):
        opts = CertifyOptions(skip_montecarlo=True, include_sdp_matrices=True)
        t = certify(cycle_graph(5), opts).data["theta_gprime"]
        X = t["X"]
        assert len(X) == 20 and len(X[0]) == 20
        assert sum(map(sum, X)) == pytest.approx(t["value"], abs=1e-12)


def _seeded_graphs(count: int, stream: str):
    """``count`` graphs with n in 3-14 and 1 to all n(n-1)/2 edges."""
    rng = random.Random(stream)
    out = []
    for _ in range(count):
        n = rng.randint(3, 14)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        out.append(build_graph(n, rng.sample(pairs, rng.randint(1, len(pairs)))))
    return out


class TestStackedLift:
    """`lift_primal`'s stacked projection against the per-edge least-squares oracle."""

    @staticmethod
    def assert_matches_oracle(g, X):
        eg = build_two_point_graph(g)
        lifted = lift_primal(eg, X)
        assert np.max(np.abs(lifted - lift_primal_per_edge(eg, X))) <= 1e-15
        return lifted

    @pytest.mark.parametrize("name", [
        "c5", "c7", "c9", "c21", "petersen", "chsh-circulant", "fig2-k2", "k4", "k6",
        "empty6", "random-10-22",
    ])
    def test_catalog_and_ladder_graphs(self, name):
        g = _ladder_graph(name)
        self.assert_matches_oracle(g, theta(g).X)

    def test_seeded_random_graphs(self):
        for g in _seeded_graphs(20, "stacked-lift"):
            self.assert_matches_oracle(g, theta(g).X)

    def test_one_zero_row(self):
        # Edge (1, 2) has f_2 = 0: its block [f_1 f_2] has rank 1.
        F = np.array([[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]])
        self.assert_matches_oracle(build_graph(3, [(1, 2)]), F @ F.T)

    @pytest.mark.parametrize("factor", ["eigh", "fed"])
    def test_both_rows_of_an_edge_zero(self, monkeypatch, factor):
        # f_2 = f_3 = 0, so the (0,0) event of edge (2, 3) keeps all of psi = (0.6, 0.8),
        # and psi lies in span(f_0, f_1), so edge (0, 1)'s (0,0) event vanishes.  "fed"
        # hands both lifts F itself, where the SVD of the zero block has singular
        # vectors along psi.
        g = build_graph(4, [(0, 1), (2, 3)])
        F = np.array([[0.6, 0.0], [0.0, 0.8], [0.0, 0.0], [0.0, 0.0]])
        if factor == "fed":
            psi = np.array([0.6, 0.8])
            monkeypatch.setattr(theta_mod, "primal_factor", lambda X, floor=-math.inf: (F, psi))
        lifted = self.assert_matches_oracle(g, F @ F.T)
        p0, p1, psi, zero = [0.6, 0.0], [0.0, 0.8], [0.6, 0.8], [0.0, 0.0]
        # singles 0-3, then (0,0), (0,1), (1,0) of edge (0, 1), then those of edge (2, 3)
        W = np.array([p0, p1, zero, zero, zero, p1, p0, psi, zero, zero])
        assert np.allclose(lifted, W @ W.T / np.sum(W * W), rtol=0.0, atol=1e-16)

    @staticmethod
    def nearly_parallel(monkeypatch, r):
        """G = path 0-1-2 with f_0 = e_0, f_1 = e_0 + r e_1 and f_2 = e_1 + e_2 in
        d = 40, fed to both lifts in place of X's factor; psi = (e_0 + e_1 + e_2) / sqrt(3)."""
        F = np.zeros((3, 40))
        F[0, 0] = F[1, 0] = 1.0
        F[1, 1] = r
        F[2, 1] = F[2, 2] = 1.0
        psi = np.zeros(40)
        psi[:3] = 1.0 / math.sqrt(3.0)
        monkeypatch.setattr(theta_mod, "primal_factor", lambda X, floor=-math.inf: (F.copy(), psi))
        return build_graph(3, [(0, 1), (1, 2)]), F

    def test_nearly_parallel_rows_below_the_rank_cutoff(self, monkeypatch):
        # [f_0 f_1] has singular values about sqrt(2) and r / sqrt(2).  At r = 8e-15
        # their ratio, 4e-15, is below the least-squares cutoff 40 eps = 8.9e-15 but
        # above numpy.linalg.pinv's default 1e-15: the block has rank 1, as for f_1 = f_0.
        g, F = self.nearly_parallel(monkeypatch, 8e-15)
        lifted = self.assert_matches_oracle(g, np.eye(3))
        F[1, 1] = 0.0
        assert np.max(np.abs(lifted - lift_primal(build_two_point_graph(g), np.eye(3)))) <= 1e-13

    @pytest.mark.parametrize("r", [1e-6, 1e-10])
    def test_ill_conditioned_rows_above_the_rank_cutoff(self, monkeypatch, r):
        # Rank 2: the (0,0) event of edge (0, 1), event 3, is psi off span(e_0, e_1),
        # orthogonal to the rows of single events 0 and 1 (along f_0 and f_1).
        # A least-squares solve leaves about eps / r of psi's e_0 part in it.
        g, _ = self.nearly_parallel(monkeypatch, r)
        lifted = lift_primal(build_two_point_graph(g), np.eye(3))
        assert np.abs(lifted[3, [0, 1]]).max() <= 1e-15
        assert lifted[3, 3] == pytest.approx(lifted[2, 2] / 2, rel=1e-12)


class TestConstructiveAlphaGprime:
    """alpha(G') is read off G's witness and the blocks of G'; branch and bound runs on G only."""

    def test_branch_and_bound_runs_once_on_the_work_graph(self, monkeypatch):
        calls = []

        def counting(g, **kwargs):
            calls.append(g)
            return independence_number(g, **kwargs)

        monkeypatch.setattr(certify_mod, "independence_number", counting)
        g = catalog("petersen")
        assert certify(g, FAST).all_passed
        assert calls == [g]
        weighted = build_graph(5, cycle_graph(5).edges, weights={0: 2})
        calls.clear()
        assert certify(weighted, FAST).all_passed
        assert calls == [expand_weighted(weighted)[0]]

    @pytest.mark.parametrize("name", ["c21", "c41", "k7"])
    def test_default_options_certify(self, name, capsys):
        # alpha(G') once ran branch and bound on G' (n' = 84, 164 and 70),
        # which the default alpha_limit of 64 refused.
        g = catalog(name)
        report = certify(g)
        assert report.all_passed, [c for c, ok in report.checks() if not ok]
        a = report.data["alpha_gprime"]
        reference = independence_number(build_two_point_graph(g).as_graph(), limit=10**4)
        assert a["alpha"] == a["upper_bound"] == reference.alpha
        assert main(["certify", name, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["complete"] and all(ok for _, ok in data["checks"])
        assert data["alpha_gprime"] == a

    def test_report_fields(self):
        report = certify(cycle_graph(5), FAST)
        d = report.data
        a = d["alpha_gprime"]
        assert set(a) == {
            "alpha", "witness", "upper_bound", "method", "witness_independent", "cover_verified"
        }
        assert (a["alpha"], a["upper_bound"], a["method"]) == (7, 7, "constructive")
        assert a["witness_independent"] is True and a["cover_verified"] is True
        # The witness {0, 2} of c5 reads 1 on observables 0 and 2: single events
        # 0 and 2, and on each edge the pair event of the outcomes it reads.
        assert d["alpha_g"]["witness"] == [0, 2]
        reads = [1, 0, 1, 0, 0]
        assert a["witness"] == [
            k for k, event in enumerate(event_assignments(cycle_graph(5)))
            if all(reads[o] == out for o, out in event.items())
        ]
        names = [name for name, _ in d["checks"]]
        assert {"alpha_gprime_witness_independent", "alpha_gprime_cover_verified"} <= set(names)
        text = emit_report(report, "text")
        assert (
            "α(G') = 7 (upper bound 7, constructive, witness independent PASS, "
            "cover verified PASS)" in text
        )

    @pytest.mark.parametrize(
        "drop",
        [(5, 6), (6, 7), (0, 1)],
        ids=["triangle-edge", "triangle-last-edge", "single-event-edge"],
    )
    def test_deleted_edge_fails_cover(self, monkeypatch, drop):
        # 5, 6 and 7 are the (0,0), (0,1) and (1,0) events of c5's edge (0, 1);
        # 0 and 1 are its single events.  Each deletion lets an independent set
        # of G' exceed alpha(G) + |E|.
        report = _certify_c5_tampered(monkeypatch, drop=[drop])
        checks = dict(report.checks())
        assert checks["alpha_gprime_cover_verified"] is False
        assert checks["alpha_gprime_witness_independent"] is True
        assert not report.all_passed
        text = emit_report(report, "text")
        assert "cover verified FAIL" in text and "overall: FAIL" in text

    def test_blocks_must_partition_gprime(self):
        # A G' with a second, isolated vertex: it lies outside every block, so
        # the cover bound alpha(G) + |E| = 1 would miss it, and alpha of this G' is 2.
        eg = build_two_point_graph(build_graph(1, []))
        gp = Graph(n=2, edges=(), weights=None)
        section = certify_mod._alpha_gprime_section(eg, gp, {"alpha": 1, "witness": [0]})
        assert section["cover_verified"] is False
        assert section["witness_independent"] is True
        assert (section["alpha"], section["upper_bound"]) == (1, 1)

    def test_joined_witness_events_fail_independence(self, monkeypatch):
        # The lifted witness holds single events 0 and 2; joining them leaves
        # the cover intact but the lifted set no longer independent.
        report = _certify_c5_tampered(monkeypatch, add=[(0, 2)])
        checks = dict(report.checks())
        assert checks["alpha_gprime_witness_independent"] is False
        assert checks["alpha_gprime_cover_verified"] is True
        assert not report.all_passed


class TestReportEmission:
    def test_byte_identical_reruns(self):
        a = emit_report(certify(cycle_graph(5), CertifyOptions(shots=2000, seed=3)), "json")
        b = emit_report(certify(cycle_graph(5), CertifyOptions(shots=2000, seed=3)), "json")
        assert a == b

    def test_json_is_parseable_and_versioned(self):
        report = certify(complete_graph(2), FAST)
        data = json.loads(emit_report(report, "json"))
        assert data["schema"] == 3
        assert data["complete"] is True

    def test_text_has_identity_lines(self):
        text = emit_report(certify(cycle_graph(5), FAST), "text")
        assert "identity α(G') − α(G) − |E| = 0: PASS" in text
        assert "overall: PASS" in text
        assert text.count("PASS") >= 4

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_json_is_the_report_tree_with_the_oracle_record(self, scheme):
        opts = CertifyOptions(shots=20_000, seed=4, noise=NOISY, scheme=scheme)
        report = certify(catalog("petersen"), opts)
        mc = report.data["montecarlo"]
        record = mc["record"]
        assert (mc["s_estimate"], mc["s_stderr"]) == scalar_s_estimate(record)
        for key, position in (("max_epsilon_significance", 1), ("max_epsilon_prime_significance", 0)):
            rows = pairwise_signaling(record, position)
            assert mc[key] == max(r["difference"] / r["stderr"] for r in rows)
        tree = {**report.data, "montecarlo": {**mc, "record": record_tree(record)}}
        text = emit_report(report, "json")
        assert text == dumps_canonical(tree) + "\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(certify(complete_graph(2), FAST), "xml")

    def test_sdp_dump_is_flag_gated(self):
        without = certify(complete_graph(2), FAST)
        assert "X" not in without.data["theta_g"]
        opts = CertifyOptions(skip_montecarlo=True, include_sdp_matrices=True)
        with_dump = certify(complete_graph(2), opts)
        X = with_dump.data["theta_g"]["X"]
        assert len(X) == 2 and len(X[0]) == 2


CHECK_NAMES = [
    "theta_g_converged", "theta_g_feasible", "theta_g_dual_verified",
    "alpha_gprime_witness_independent", "alpha_gprime_cover_verified",
    "theta_gprime_converged", "theta_gprime_feasible", "theta_gprime_dual_verified",
    "alpha_identity", "theta_identity", "orthorep_verified", "s_prime_consistent",
    "s_matches_theta",
]

# check -> (section, key, value past the check's gate, text line prefix, verdict on that line)
TAMPER = {
    "theta_g_converged": ("theta_g", "status", "not_converged", "ϑ(G) =", "not_converged"),
    "theta_g_feasible": ("theta_g", "feasible", False, "ϑ(G) =", "feasible FAIL"),
    "theta_g_dual_verified": ("theta_g", "dual_verified", False, "ϑ(G) =", "verified FAIL"),
    "alpha_gprime_witness_independent":
        ("alpha_gprime", "witness_independent", False, "α(G') =", "independent FAIL"),
    "alpha_gprime_cover_verified":
        ("alpha_gprime", "cover_verified", False, "α(G') =", "cover verified FAIL"),
    "theta_gprime_converged":
        ("theta_gprime", "status", "not_converged", "ϑ(G') =", "not_converged"),
    "theta_gprime_feasible": ("theta_gprime", "feasible", False, "ϑ(G') =", "feasible FAIL"),
    "theta_gprime_dual_verified":
        ("theta_gprime", "dual_verified", False, "ϑ(G') =", "verified FAIL"),
    "alpha_identity": ("identities", "alpha_difference", 1, "identity α(G')", ": FAIL"),
    "theta_identity": ("identities", "theta_difference", -1e-3, "identity |ϑ(G')", ": FAIL"),
    # Its text line once read FAIL while overall read PASS off the stored checks.
    "orthorep_verified": ("orthorep", "max_edge_overlap", 1.0, "orthorep:", ": FAIL"),
    "s_prime_consistent": ("exact", "consistency_error", 1e-9, "exact:", "S = 1e-09: FAIL"),
    "s_matches_theta":
        ("exact", "s_vs_theta_error", 1e-3, "exact:", "0.001 ≤ 9.999999999999999e-06: FAIL"),
}

# Every line that carries a check, by its prefix.
CHECK_LINES = sorted({line for *_, line, _ in TAMPER.values()})


def _line(text: str, prefix: str) -> str:
    (line,) = [line for line in text.splitlines() if line.startswith(prefix + " ")]
    return line


@pytest.fixture(scope="module")
def c5_report():
    return certify(cycle_graph(5), FAST)


class TestCheckRules:
    """Every check is one rule of certify.CHECKS, evaluated on the report's own data."""

    def test_table_names_and_order(self, c5_report):
        assert [name for name, _, _ in certify_mod.CHECKS] == CHECK_NAMES
        assert c5_report.data["checks"] == [[name, True] for name in CHECK_NAMES]
        assert set(TAMPER) == set(CHECK_NAMES)

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_tampered_section_fails_its_check_line_and_overall(self, c5_report, name):
        section, key, value, prefix, verdict = TAMPER[name]
        data = copy.deepcopy(c5_report.data)
        data[section][key] = value
        report = certify_mod.CertifyReport(data=data)
        assert report.checks() == [[c, c != name] for c in CHECK_NAMES]
        assert not report.all_passed
        text = emit_report(report, "text")
        assert verdict in _line(text, prefix)
        for other in CHECK_LINES:
            line = _line(text, other)
            assert other == prefix or ("FAIL" not in line and "not_converged" not in line)
        # The stored checks predate the tampering, and the text says so.
        assert "stored checks: differ from the rules evaluated on this report" in text
        assert text.endswith("overall: FAIL\n")

    @pytest.mark.parametrize("key", ["max_edge_overlap", "max_norm_error", "overlap_error"])
    def test_each_orthorep_number_is_gated(self, c5_report, key):
        data = copy.deepcopy(c5_report.data)
        data["orthorep"][key] = 2 * data["orthorep"]["tolerance"]
        assert dict(certify_mod.CertifyReport(data).checks())["orthorep_verified"] is False

    def test_s_off_theta_fails_on_the_exact_line(self, monkeypatch):
        # S and S' both 1e-3 high keep S' - |E| - S consistent but miss theta(G).
        # That check once had no text line, so every line read PASS and overall FAIL.
        exact = certify_mod.exact_witnesses
        monkeypatch.setattr(
            certify_mod, "exact_witnesses",
            lambda *a: tuple(w + 1e-3 for w in exact(*a)),
        )
        report = certify(cycle_graph(5), FAST)
        assert [name for name, ok in report.checks() if not ok] == ["s_matches_theta"]
        assert report.data["checks"] == report.checks()
        text = emit_report(report, "text")
        assert _line(text, "exact:").endswith(": FAIL")
        assert text.count("FAIL") == 2 and text.endswith("overall: FAIL\n")

    @pytest.mark.parametrize(
        "name", ["c5", "c7", "petersen", "chsh-circulant", "fig2-k2", "k4", "empty6"]
    )
    def test_stored_checks_are_the_rules_on_catalog_graphs(self, name):
        report = certify(catalog(name), FAST)
        assert report.data["checks"] == report.checks()
        assert [c for c, _ in report.checks()] == CHECK_NAMES and report.all_passed

    def test_stored_checks_are_the_rules_in_partial_reports(self, monkeypatch, capsys):
        assert main(["certify", "k7", "--shots", str(10**19), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["checks"] == certify_mod.CertifyReport(data).checks()
        assert [c for c, _ in data["checks"]] == CHECK_NAMES

        def failing(g):
            raise RuntimeError("injected")

        monkeypatch.setattr(certify_mod, "build_two_point_graph", failing)
        with pytest.raises(StageError) as excinfo:
            certify(complete_graph(7), FAST)
        data = excinfo.value.report.data
        assert data["checks"] == certify_mod.CertifyReport(data).checks()
        assert [c for c, _ in data["checks"]] == CHECK_NAMES[:3]

    def test_stale_stored_checks_fail_overall(self, c5_report):
        data = copy.deepcopy(c5_report.data)
        data["checks"][0][1] = False
        report = certify_mod.CertifyReport(data=data)
        assert all(ok for _, ok in report.checks()) and not report.all_passed
        text = emit_report(report, "text")
        assert "stored checks: differ" in text and "overall: FAIL" in text

    def test_unknown_scheme_refused_up_front(self):
        with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
            CertifyOptions(scheme="bogus", skip_montecarlo=True)


class TestCli:
    def test_alpha_json(self, capsys):
        assert main(["alpha", "c5", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["alpha"] == 2

    def test_theta_text(self, capsys):
        assert main(["theta", "c5"]) == 0
        out = capsys.readouterr().out
        assert "2.23606" in out and "PASS" in out

    def test_transform_json(self, capsys):
        assert main(["transform", "fig2-k2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 5 and len(data["edges"]) == 8

    def test_transform_text(self, capsys):
        # Each vertex of G' reads as its outcomes | its observables.
        assert main(["transform", "fig2-k2", "--format", "text"]) == 0
        assert capsys.readouterr().out == (
            "G: n=2, |E|=1\n"
            "G': n=5, |E|=8\n"
            "  vertex 0: 1|0\n"
            "  vertex 1: 1|1\n"
            "  vertex 2: 0,0|0,1\n"
            "  vertex 3: 0,1|0,1\n"
            "  vertex 4: 1,0|0,1\n"
        )

    def test_orthorep_json(self, capsys):
        assert main(["orthorep", "c5", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["d"] == 3 and data["verification"]["passed"] is True

    def test_simulate_json(self, capsys):
        assert main(["simulate", "c5", "--shots", "2000", "--seed", "1", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["shots"] == 2000 and len(data["pairs"]) == 10

    def test_simulate_text_lines(self, capsys):
        argv = ["simulate", "petersen", "--shots", "20000", "--seed", "3", "--scheme", "demolition",
                "--noise-flip", "0.01"]
        assert main(argv) == 0
        g = catalog("petersen")
        rep = extract_ortho_rep(g, theta(g))
        record = run_experiment(rep, g, 20_000, 3, NoiseModel(outcome_flip_p=0.01), "demolition")
        s_value, s_err = scalar_s_estimate(record)
        eps, eps_prime = pairwise_signaling(record, 1), pairwise_signaling(record, 0)

        def significance(rows):
            return format_float(max(r["difference"] / r["stderr"] for r in rows))

        assert capsys.readouterr().out == (
            "scheme = demolition, shots = 20000, seed = 3\n"
            f"Ŝ = {format_float(s_value)} ± {format_float(s_err)}\n"
            f"ε entries = 60, max |ε|/σ = {significance(eps)}\n"
            f"ε′ entries = 60, max |ε′|/σ = {significance(eps_prime)}\n"
        )
        assert len(eps) == len(eps_prime) == 60  # 3-regular: 10 vertices x 3 pairs x 2 outcomes

    def test_certify_exit_code_and_output(self, capsys):
        assert main(["certify", "c5", "--skip-montecarlo"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_certify_json_deterministic(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["certify", "c5", "--shots", "2000", "--seed", "9", "--format", "json"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("scheme", ["projective", "demolition"])
    def test_simulate_json_deterministic(self, tmp_path, scheme):
        argv = ["simulate", "petersen", "--shots", "20000", "--seed", "3", "--format", "json",
                "--scheme", scheme, "--noise-depol", "0.05", "--noise-angle", "0.02",
                "--noise-flip", "0.01"]
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(argv + ["--output", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["scheme"] == scheme

    def test_consecutive_calls_share_no_parser_state(self, capsys):
        base = ["simulate", "c5", "--shots", "100", "--format", "json"]
        assert main(base + ["--scheme", "demolition"]) == 0
        assert json.loads(capsys.readouterr().out)["scheme"] == "demolition"
        assert main(base) == 0
        assert json.loads(capsys.readouterr().out)["scheme"] == "projective"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_non_finite_noise_angle_refused(self, capsys, fmt, angle):
        for command in ("simulate", "certify"):
            assert main([command, "c5", "--noise-angle", angle, "--format", fmt]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "vector_misalignment_angle must be finite" in captured.err

    def test_oversized_shots_refused(self, capsys):
        assert main(["simulate", "c5", "--shots", str(10**19)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "shots must be below 2**63" in captured.err
        with pytest.raises(StageError) as info:
            certify(cycle_graph(5), CertifyOptions(shots=10**19))
        assert info.value.stage == "montecarlo"
        assert "shots must be below 2**63" in str(info.value.cause)
        assert info.value.report.data["error"]["stage"] == "montecarlo"

    def test_negative_seed_refused_by_name(self, capsys):
        assert main(["simulate", "c5", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        with pytest.raises(StageError) as info:
            certify(cycle_graph(5), CertifyOptions(seed=-1))
        assert info.value.stage == "montecarlo"
        assert "seed" in str(info.value.cause)

    def test_certify_stage_failure_emits_partial_report(self, capsys):
        assert main(["certify", "k7", "--shots", str(10**19), "--format", "json"]) == 1
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["complete"] is False
        assert data["error"]["stage"] == "montecarlo"
        assert "alpha_gprime" in data and "exact" in data and "montecarlo" not in data
        assert "montecarlo" in captured.err

    @pytest.mark.parametrize("command", ["orthorep", "simulate"])
    def test_extraction_failure_is_an_error_line(self, monkeypatch, capsys, command):
        def failing(g, sol):
            raise ExtractionError("injected")

        monkeypatch.setattr(cli_mod, "extract_ortho_rep", failing)
        assert main([command, "c5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: injected\n"

    def test_repeated_edge_is_one_warning_line(self, tmp_path, capsys):
        path = tmp_path / "repeated.dimacs"
        path.write_text("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n")
        for _ in range(2):
            assert main(["alpha", str(path)]) == 0
            assert capsys.readouterr().err == (
                "warning: duplicate edge (0, 1) in input; deduplicated\n"
            )

    def test_graph_file_input(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text('{"n": 2, "edges": [[0, 1]]}')
        assert main(["alpha", str(path)]) == 0
        assert "α = 1" in capsys.readouterr().out

    def test_dimacs_file_input(self, tmp_path, capsys):
        path = tmp_path / "graph.col"
        path.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
        assert main(["alpha", str(path)]) == 0
        assert "α = 2" in capsys.readouterr().out

    def test_weighted_graph_file_through_certify(self, tmp_path, capsys):
        path = tmp_path / "weighted.json"
        path.write_text('{"n": 2, "edges": [[0, 1]], "weights": {"0": 2}}')
        assert main(["certify", str(path), "--skip-montecarlo", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["expanded"]["n"] == 3
        assert data["alpha_g"]["alpha"] == 2

    @pytest.mark.parametrize("command", ["alpha", "theta", "transform", "orthorep", "simulate"])
    def test_weighted_graph_file_points_to_certify(self, tmp_path, capsys, command):
        path = tmp_path / "weighted.json"
        path.write_text('{"n": 2, "edges": [[0, 1]], "weights": {"0": 2}}')
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: twopoint {command} needs an unweighted graph; "
            "twopoint certify expands vertex weights\n"
        )

    def test_unknown_graph_is_operational_error(self, capsys):
        assert main(["alpha", "no-such-graph"]) == 1
        assert "error" in capsys.readouterr().err

    def test_failed_check_exits_2(self, capsys, monkeypatch):
        import twopoint.cli as cli_mod

        def doctored(g, opts):
            report = certify(g, opts)
            report.data["checks"].append(["injected_failure", False])
            return report

        monkeypatch.setattr(cli_mod, "certify", doctored)
        assert main(["certify", "fig2-k2", "--skip-montecarlo"]) == 2
        assert "overall: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, flag, line",
        [
            ("verify_dual", "support_ok", "dual verification = FAIL"),
            ("verify_feasibility", "edges_ok", "feasibility = FAIL"),
        ],
    )
    def test_theta_failed_verification_exits_2(self, capsys, monkeypatch, name, flag, line):
        real = getattr(certify_mod, name)

        def failing(*args):
            return dataclasses.replace(real(*args), **{flag: False})

        monkeypatch.setattr(certify_mod, name, failing)
        assert main(["theta", "c5"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert line in out
        assert sum(x.endswith("= FAIL") for x in out) == 1

    @pytest.mark.parametrize("scheme", ["projective", "demolition"])
    def test_stalled_sweep_graph_now_certifies(self, tmp_path, capsys, scheme):
        # Its theta(G') once stalled just above tolerance and failed
        # theta_gprime_converged.
        path = tmp_path / "stall.json"
        path.write_text(
            '{"n": 7, "edges": [[0, 5], [0, 6], [1, 2], [1, 6], [2, 5], [3, 4]],'
            ' "weights": {"2": 2}}'
        )
        argv = ["certify", str(path), "--scheme", scheme, "--noise-depol", "0.05",
                "--noise-angle", "0.02", "--noise-flip", "0.01", "--format", "json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["complete"] and all(ok for _, ok in data["checks"])

    def test_catalog_listing(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "petersen" in out and "chsh-circulant" in out

    def test_catalog_emit_round_trips(self, capsys):
        from twopoint import parse_graph

        assert main(["catalog", "c5", "--format", "json"]) == 0
        assert parse_graph(capsys.readouterr().out) == cycle_graph(5)
