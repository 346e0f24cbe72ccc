"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import math

import numpy as np
import pytest

from twopoint import (
    CertifyOptions,
    OrthoRep,
    QState,
    build_graph,
    build_two_point_graph,
    catalog,
    certify,
    complete_graph,
    cycle_graph,
    epsilon_prime,
    epsilon_signaling,
    expand_weighted,
    independence_number,
    joint_probs_demolition,
    joint_probs_projective,
    pure_state,
    run_experiment,
    theta,
)
from twopoint.cli import main
from conftest import random_graph
from oracles import (
    born_single,
    brute_force_alpha,
    max_assignment_value,
    odd_cycle_theta,
    pair_estimate,
    single_estimate,
)

SQRT5 = math.sqrt(5.0)
SDP_TOL = 1e-7


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


def test_criterion_1_theorem_identities_on_random_graphs():
    # The full-theorem regression suite runs through the certify pipeline,
    # with the source-graph alpha cross-checked against brute force, the
    # constructive alpha(G') against branch and bound on G', and the
    # constructive theta(G') against the direct SDP on G'.
    rng = np.random.default_rng(20260809)
    opts = CertifyOptions(skip_montecarlo=True, alpha_limit=128, tolerance=SDP_TOL)
    alpha_ok = True
    pipeline_ok = True
    sandwich_ok = True
    alpha_gprime_mismatches = 0
    worst_theta_dev = 0.0
    worst_sdp_dev = 0.0
    count = 0
    for density in (0.2, 0.5, 0.8):
        for _ in range(68):
            g = random_graph(rng, int(rng.integers(2, 9)), density)
            count += 1
            report = certify(g, opts)
            d = report.data
            if not report.all_passed or d["theta_gprime"]["method"] != "constructive":
                pipeline_ok = False
            if d["alpha_g"]["alpha"] != brute_force_alpha(g):
                alpha_ok = False
            if d["identities"]["alpha_difference"] != 0:
                alpha_ok = False
            gp = build_two_point_graph(g).as_graph()
            if d["alpha_gprime"]["alpha"] != independence_number(gp, limit=gp.n).alpha:
                alpha_gprime_mismatches += 1
            worst_theta_dev = max(
                worst_theta_dev, abs(d["identities"]["theta_difference"])
            )
            sdp = theta(gp, tolerance=SDP_TOL)
            tp = d["theta_gprime"]
            if tp["value"] > sdp.dual_value + SDP_TOL or sdp.primal_value > tp["dual"] + SDP_TOL:
                sandwich_ok = False
            worst_sdp_dev = max(worst_sdp_dev, abs(tp["value"] - sdp.primal_value))
    ok = (
        alpha_ok and pipeline_ok and sandwich_ok and alpha_gprime_mismatches == 0
        and worst_theta_dev <= 1e-5
        and worst_sdp_dev <= 1e-6 and count >= 200
    )
    _report(
        1,
        "theorem identities on random graphs",
        ok,
        f"{count} graphs via certify, {alpha_gprime_mismatches} constructive-vs-branch-and-bound "
        f"alpha(G') mismatches, worst theta deviation {worst_theta_dev:.2e}, "
        f"worst constructive-vs-SDP theta(G') {worst_sdp_dev:.2e}",
    )
    assert alpha_ok, "alpha identity violated"
    assert pipeline_ok, "a certify check failed"
    assert sandwich_ok, "constructive and SDP bounds on theta(G') do not interleave"
    assert alpha_gprime_mismatches == 0, "constructive alpha(G') differs from branch and bound"
    assert worst_theta_dev <= 1e-5
    assert worst_sdp_dev <= 1e-6
    assert count >= 200


def test_criterion_2_kcbs_endpoint():
    report = certify(cycle_graph(5), CertifyOptions(skip_montecarlo=True, tolerance=SDP_TOL))
    d = report.data
    checks = {
        "alpha": d["alpha_g"]["alpha"] == 2,
        "theta": abs(d["theta_g"]["value"] - SQRT5) <= 1e-6,
        "gprime_vertices": d["event_graph"]["n"] == 20,
        "alpha_gprime": d["alpha_gprime"]["alpha"] == 7,
        "theta_gprime": abs(d["theta_gprime"]["value"] - (5 + SQRT5)) <= 1e-5,
        "exact_s": abs(d["exact"]["s"] - SQRT5) <= 1e-5,
    }
    ok = all(checks.values())
    _report(2, "KCBS endpoint", ok, ", ".join(k for k, v in checks.items() if not v) or "all values")
    assert ok, checks


def test_criterion_3_single_edge_gadget():
    eg = build_two_point_graph(complete_graph(2))
    expected_edges = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)}
    graph_ok = eg.n == 5 and set(eg.edges) == expected_edges
    gp = eg.as_graph()
    alpha_ok = independence_number(gp).alpha == 2
    th = theta(gp, tolerance=SDP_TOL).primal_value
    theta_ok = abs(th - 2.0) <= 1e-6
    ok = graph_ok and alpha_ok and theta_ok
    _report(3, "single-edge gadget", ok, f"theta(G')={th:.9f}")
    assert ok


def test_criterion_4_odd_cycle_oracle_agreement():
    worst = 0.0
    for n in (5, 7, 9, 11):
        dev = abs(theta(cycle_graph(n), tolerance=SDP_TOL).primal_value - odd_cycle_theta(n))
        worst = max(worst, dev)
    ok = worst <= 1e-6
    _report(4, "odd-cycle oracle agreement", ok, f"worst deviation {worst:.2e}")
    assert ok


def test_criterion_5_classical_ceiling():
    rng = np.random.default_rng(14)
    graphs = [
        cycle_graph(5),
        cycle_graph(7),
        cycle_graph(9),
        cycle_graph(11),
        catalog("petersen"),
        catalog("chsh-circulant"),
        complete_graph(5),
        build_graph(6, []),
        complete_graph(2),
    ]
    graphs += [random_graph(rng, int(rng.integers(4, 13)), d) for d in (0.2, 0.5, 0.8) for _ in range(4)]
    ok = True
    for g in graphs:
        if max_assignment_value(g) != independence_number(g).alpha:
            ok = False
    _report(5, "classical ceiling (assignment max = alpha)", ok, f"{len(graphs)} graphs")
    assert ok


def test_criterion_6_scheme_equivalence():
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        vecs = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        rep = OrthoRep(psi=psi, vectors=vecs)
        if rng.random() < 0.5:
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = a @ a.conj().T
            state = QState(rho / np.trace(rho).real)
        else:
            state = pure_state(psi)
        ctx = (0, 1)
        pp = joint_probs_projective(state, ctx, rep)
        pd = joint_probs_demolition(state, ctx, rep)
        worst = max(worst, max(abs(pp[k] - pd[k]) for k in pp))
    ok = worst <= 1e-10
    _report(6, "projective/demolition scheme equivalence", ok, f"worst gap {worst:.2e}")
    assert ok


def test_criterion_7_monte_carlo_statistics():
    g = cycle_graph(5)
    sol = theta(g, tolerance=SDP_TOL)
    from twopoint import extract_ortho_rep

    rep = extract_ortho_rep(g, sol)
    seed = 20260809
    record = run_experiment(rep, g, shots=1_000_000, seed=seed)
    s, se = record.s_estimate()
    s_ok = abs(s - SQRT5) <= 5 * se

    # every single estimate within 5 binomial standard errors of exact
    state = pure_state(rep.psi)
    probs_ok = True
    for v in range(g.n):
        p_hat, p_se = single_estimate(record, v)
        if abs(p_hat - born_single(state, rep.vectors[v])) > 5 * max(p_se, 1e-9):
            probs_ok = False
    for (first, second) in record.contexts:
        exact = joint_probs_projective(state, (first, second), rep)
        for (a, b), p_exact in exact.items():
            p_hat, p_se = pair_estimate(record, first, second, a, b)
            if abs(p_hat - p_exact) > 5 * max(p_se, 1e-9):
                probs_ok = False

    eps = epsilon_signaling(record)
    eps_p = epsilon_prime(record)
    eps_ok = all(e["difference"] <= 5 * e["stderr"] for e in eps)
    eps_p_ok = all(e["difference"] <= 5 * e["stderr"] for e in eps_p)
    # The scale check pools the rows of 20 seeds.  c5's tables repeat each
    # outcome-0 row as an outcome-1 row, so one seed gives 5 independent
    # values per side, and its ratio leaves [0.5, 2] on about 9% of seeds.
    pooled = [record] + [
        run_experiment(rep, g, shots=1_000_000, seed=seed + k) for k in range(1, 20)
    ]
    pooled_eps = [e for r in pooled for e in epsilon_signaling(r)]
    pooled_eps_p = [e for r in pooled for e in epsilon_prime(r)]
    scale_eps = math.sqrt(sum(e["difference"]**2 for e in pooled_eps) / len(pooled_eps))
    scale_eps_p = math.sqrt(sum(e["difference"]**2 for e in pooled_eps_p) / len(pooled_eps_p))
    ratio = scale_eps / scale_eps_p if scale_eps_p > 0 else math.inf
    scale_ok = 0.5 <= ratio <= 2.0
    ok = s_ok and probs_ok and eps_ok and eps_p_ok and scale_ok
    _report(
        7,
        "Monte Carlo statistics at 1e6 shots",
        ok,
        f"|S-sqrt5|={abs(s - SQRT5):.2e} (se {se:.2e}), "
        f"eps/eps' scale ratio {ratio:.2f} over 20 seeds",
    )
    assert s_ok and probs_ok and eps_ok and eps_p_ok and scale_ok


def test_criterion_8_weighted_extension():
    g = build_graph(5, cycle_graph(5).edges, weights={0: 2})
    report = certify(g, CertifyOptions(skip_montecarlo=True, tolerance=SDP_TOL))
    d = report.data

    # independent oracles: brute-force weighted alpha and the SDP on a
    # hand-built blow-up (two copies of vertex 0 at indices 0 and 1)
    manual_blowup = build_graph(
        6, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 5)]
    )
    alpha_ok = (
        d["alpha_g"]["alpha"] == brute_force_alpha(g) == brute_force_alpha(manual_blowup) == 3
    )
    th_manual = theta(manual_blowup, tolerance=SDP_TOL).primal_value
    theta_ok = abs(d["theta_g"]["value"] - th_manual) <= 1e-6
    identities_ok = report.all_passed
    expanded, _ = expand_weighted(g)
    expansion_ok = d["expanded"]["n"] == expanded.n == 6
    ok = alpha_ok and theta_ok and identities_ok and expansion_ok
    _report(
        8,
        "weighted extension",
        ok,
        f"alpha={d['alpha_g']['alpha']}, theta={d['theta_g']['value']:.9f} vs blowup {th_manual:.9f}",
    )
    assert ok


def test_criterion_9_certify_determinism(tmp_path):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    argv = [
        "certify", "c5", "--shots", "20000", "--seed", "7", "--format", "json",
    ]
    code1 = main(argv + ["--output", str(out1)])
    code2 = main(argv + ["--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = identical and code1 == code2 == 0
    _report(9, "byte-identical certify output", ok, f"{out1.stat().st_size} bytes")
    assert ok
