"""End-to-end certification pipeline.

For an input graph G the pipeline computes alpha(G) and theta(G), compiles
the two-point event graph G', certifies alpha(G') and theta(G') from G's
certificates, checks the identities alpha(G') = alpha(G) + |E| and
theta(G') = theta(G) + |E|, then extracts an optimal orthogonal representation
of G for the exact witness values and an optional simulated experiment.

theta(G') is certified without a second SDP, from G's X, Y and verified bound
t.  The lower bound is <J, X'> for the Gram matrix X' of the paper's event
vectors, read off X = F F^T; the upper bound is lambda_max(J - Y') for Y
scaled by Lovasz's direct sum over the single events and the |E| pair-event
triangles.  Each is checked on the edges of G' by code that did not build it,
and weak duality pins theta(G') between them, even if extraction then fails.

alpha(G') needs no search: G's witness lifted to the events that occur when it
reads 1 and every other vertex 0, and the cover of G' by G and |E| cliques,
both checked on the edges of G', pin alpha(G') to alpha(G) + |E|.

The exact witness values S and S' of that representation are summed straight
from the exact kernel's table of G's edges, by `simulate.exact_witnesses`.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .graphs import EventGraph, Graph, build_two_point_graph, expand_weighted
from .independence import (
    ALPHA_LIMIT, IndependenceResult, SizeLimitError, independence_number, is_independent
)
from .orthorep import extract_ortho_rep, realisation_gate, verify_ortho_rep
from .serialize import _json_object, dumps_canonical, dumps_record, format_float
from .simulate import (
    SCHEMES,
    ExperimentRecord,
    NoiseModel,
    exact_witnesses,
    run_experiment,
)
# The benchmark tracer patches these names.
from .serialize import epsilon_prime, epsilon_signaling, record_to_jsonable  # noqa: F401
from .simulate import joint_probs_projective  # noqa: F401
from .theta import (
    DEFAULT_TOLERANCE,
    DualReport,
    lift_dual,
    lift_primal,
    multiplier_matrix,
    theta,
    verify_dual,
    verify_feasibility,
)

SCHEMA_VERSION = 3
EXACT_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class CertifyOptions:
    tolerance: float = DEFAULT_TOLERANCE
    shots: int = 100_000
    seed: int = 0
    noise: NoiseModel = field(default_factory=NoiseModel)
    scheme: str = "projective"
    skip_montecarlo: bool = False
    alpha_limit: int = ALPHA_LIMIT
    include_sdp_matrices: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")


# The checks in report order: (name, report section, predicate on the section's stored
# numbers, flags and tolerances).  `certify` stores their values; `CertifyReport` re-evaluates.
CHECKS: tuple[tuple[str, str, Callable[[dict[str, Any]], Any]], ...] = (
    ("theta_g_converged", "theta_g", lambda t: t["status"] == "converged"),
    ("theta_g_feasible", "theta_g", lambda t: t["feasible"]),
    ("theta_g_dual_verified", "theta_g", lambda t: t["dual_verified"]),
    ("alpha_gprime_witness_independent", "alpha_gprime", lambda a: a["witness_independent"]),
    ("alpha_gprime_cover_verified", "alpha_gprime", lambda a: a["cover_verified"]),
    ("theta_gprime_converged", "theta_gprime", lambda t: t["status"] == "converged"),
    ("theta_gprime_feasible", "theta_gprime", lambda t: t["feasible"]),
    ("theta_gprime_dual_verified", "theta_gprime", lambda t: t["dual_verified"]),
    ("alpha_identity", "identities", lambda i: i["alpha_difference"] == 0),
    ("theta_identity", "identities", lambda i: abs(i["theta_difference"]) <= i["theta_tolerance"]),
    ("orthorep_verified", "orthorep", lambda o: all(
        o[k] <= o["tolerance"] for k in ("max_edge_overlap", "max_norm_error", "overlap_error")
    )),
    ("s_prime_consistent", "exact", lambda e: e["consistency_error"] <= EXACT_CONSISTENCY_TOL),
    ("s_matches_theta", "exact", lambda e: e["s_vs_theta_error"] <= e["s_tolerance"]),
)


@dataclass(frozen=True)
class CertifyReport:
    """Pipeline results by section; its checks are the rules of CHECKS.

    Every section is a JSON-ready tree, except that ``data["montecarlo"]["record"]``
    holds the `ExperimentRecord`, which `emit_report` writes with `dumps_record`.
    """

    data: dict[str, Any]

    @property
    def complete(self) -> bool:
        return bool(self.data.get("complete"))

    def checks(self) -> list[list[Any]]:
        """``[name, passed]`` for each rule of CHECKS whose section the report holds."""
        return [[name, bool(ok(self.data[s]))] for name, s, ok in CHECKS if s in self.data]

    @property
    def all_passed(self) -> bool:
        """Complete, every check passes, and the stored "checks" are these checks."""
        checks = self.checks()
        return self.complete and self.data.get("checks") == checks and all(ok for _, ok in checks)


class StageError(RuntimeError):
    """A pipeline stage failed; carries the partial report."""

    def __init__(self, stage: str, cause: Exception, report: CertifyReport):
        self.stage = stage
        self.cause = cause
        self.report = report
        super().__init__(f"certify stage {stage!r} failed: {cause}")


def _bounds_section(
    g: Graph, X, dual: DualReport, tolerance: float, include_matrix: bool
) -> dict[str, Any]:
    """Lower bound <J, X> and upper bound ``dual.bound``, with X's residuals on g."""
    feas = verify_feasibility(g, X, tolerance)
    value = float(X.sum())
    out: dict[str, Any] = {
        "value": value,
        "dual": dual.bound,
        "gap": dual.bound - value,
        "residuals": {
            "min_eigenvalue": feas.min_eigenvalue,
            "trace_error": feas.trace_error,
            "max_edge_entry": feas.max_edge_entry,
        },
        "feasible": feas.passed,
        "dual_verified": dual.passed,
    }
    if include_matrix:
        out["X"] = [[float(x) for x in row] for row in X]
    return out


def _theta_section(g: Graph, sol, include_matrix: bool) -> dict[str, Any]:
    """ϑ's bounds section of ``sol``, judged at the tolerance it was solved to."""
    dual = verify_dual(g, multiplier_matrix(g, sol.y))
    out = _bounds_section(g, sol.X, dual, sol.tolerance, include_matrix)
    out["status"] = sol.status.value
    out["termination"] = sol.termination.value
    out["iterations"] = sol.iterations
    return out


def _alpha_section(res: IndependenceResult) -> dict[str, Any]:
    return {"alpha": res.alpha, "witness": list(res.witness), "node_count": res.node_count}


def _alpha_gprime_section(eg: EventGraph, gp: Graph, alpha_g: dict[str, Any]) -> dict[str, Any]:
    """alpha(G') from G's witness lifted to G' and the cover bound alpha(G) + |E|."""
    reads = np.zeros(eg.source.n, dtype=int)
    reads[alpha_g["witness"]] = 1
    obs, out = eg.events
    lifted = np.flatnonzero((reads[obs] == out).all(axis=1)).tolist()
    singles, triples = eg.blocks()
    blocks = np.concatenate([singles, triples.ravel()])
    partition = np.array_equal(np.sort(blocks), np.arange(gp.n))
    # The cover's cliques: G on the single events, and each edge's triangle.
    # Their pairs must be edges of gp, compared as codes min * n' + max.
    ei, ej = eg.source.edge_index
    a = np.concatenate([singles[ei], triples[:, [0, 0, 1]].ravel()])
    b = np.concatenate([singles[ej], triples[:, [1, 2, 2]].ravel()])
    gi, gj = gp.edge_index
    covered = np.isin(np.minimum(a, b) * gp.n + np.maximum(a, b), gi * gp.n + gj)
    return {
        "alpha": len(lifted),
        "witness": lifted,
        "upper_bound": alpha_g["alpha"] + len(eg.source.edges),
        "method": "constructive",
        "witness_independent": is_independent(gp, lifted),
        "cover_verified": partition and bool(covered.all()),
    }


def _max_significance(record: ExperimentRecord, position: int) -> float:
    """The largest difference / stderr of the ε (position 1) or ε′ (position 0) table."""
    *_, difference, stderr = record.signaling_columns[position]
    return max((difference / stderr).tolist(), default=0.0)


def _montecarlo_section(record: ExperimentRecord) -> dict[str, Any]:
    """The record itself, Ŝ with its standard error, and the largest ε and ε′ significances."""
    s_value, s_err = record.s_estimate()
    return {
        "record": record,
        "s_estimate": s_value,
        "s_stderr": s_err,
        "max_epsilon_significance": _max_significance(record, 1),
        "max_epsilon_prime_significance": _max_significance(record, 0),
    }


def certify(g: Graph, options: Optional[CertifyOptions] = None) -> CertifyReport:
    """Run the full pipeline; stage failures raise StageError with a partial report.

    All pass/fail flags in the report are functions of the numbers stored
    next to them, never of solver-internal state; the checks are CHECKS's rules.
    """
    opts = options or CertifyOptions()
    data: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "complete": False,
        "options": {k: v for k, v in dataclasses.asdict(opts).items()
                    if k not in ("alpha_limit", "include_sdp_matrices")},
        "input": {"n": g.n, "edge_count": len(g.edges), "weighted": g.is_weighted},
    }

    @contextmanager
    def stage(name: str):
        try:
            yield
        except Exception as err:
            data["error"] = {"stage": name, "message": str(err)}
            data["checks"] = CertifyReport(data).checks()
            raise StageError(name, err, CertifyReport(data)) from err

    with stage("expand"):
        if g.is_weighted:
            # alpha_g would refuse the blow-up anyway; refuse it before it is built.
            total = sum(g.weights)
            if total > opts.alpha_limit:
                raise SizeLimitError(
                    f"weighted graph expands to sum of weights = {total} vertices, "
                    f"exceeding the limit of {opts.alpha_limit}"
                )
            work, provenance = expand_weighted(g)
            data["expanded"] = {
                "n": work.n,
                "edge_count": len(work.edges),
                "provenance": list(provenance),
            }
        else:
            work = g

    with stage("alpha_g"):
        data["alpha_g"] = _alpha_section(independence_number(work, limit=opts.alpha_limit))

    with stage("theta_g"):
        sol_g = theta(work, tolerance=opts.tolerance)
        data["theta_g"] = _theta_section(work, sol_g, opts.include_sdp_matrices)
    tolerance = sol_g.tolerance

    with stage("compile"):
        eg = build_two_point_graph(work)
        gp = eg.as_graph()
        data["event_graph"] = {"n": eg.n, "edge_count": len(gp.edge_index[0])}

    with stage("alpha_gprime"):
        data["alpha_gprime"] = _alpha_gprime_section(eg, gp, data["alpha_g"])

    with stage("theta_gprime"):
        X_gp = lift_primal(eg, sol_g.X)
        Y_gp = lift_dual(eg, sol_g.y, data["theta_g"]["dual"])
        section = _bounds_section(
            gp, X_gp, verify_dual(gp, Y_gp), tolerance, opts.include_sdp_matrices
        )
        converged = abs(section["gap"]) <= tolerance and section["feasible"]
        section["method"] = "constructive"
        section["status"] = "converged" if converged else "not_converged"
        data["theta_gprime"] = section

    edge_count = len(work.edges)
    data["identities"] = {
        "edge_count": edge_count,
        "alpha_difference": data["alpha_gprime"]["alpha"] - data["alpha_g"]["alpha"] - edge_count,
        "theta_difference": data["theta_gprime"]["value"] - data["theta_g"]["value"] - edge_count,
        "theta_tolerance": 10 * tolerance,
    }
    gate = realisation_gate(tolerance)

    with stage("orthorep"):
        rep = extract_ortho_rep(work, sol_g)
        rep_report = verify_ortho_rep(work, rep, gate, theta_target=sol_g.primal_value)
        data["orthorep"] = {"dimension": rep.dimension, **rep_report.measures(), "tolerance": gate}

    with stage("exact"):
        s_exact, s_prime = exact_witnesses(rep, work)
        data["exact"] = {
            "s": s_exact,
            "s_prime": s_prime,
            "s_prime_minus_edges": s_prime - edge_count,
            "consistency_error": abs(s_prime - edge_count - s_exact),
            "s_vs_theta_error": abs(s_exact - data["theta_g"]["value"]),
            "s_tolerance": gate,
        }

    if not opts.skip_montecarlo:
        with stage("montecarlo"):
            record = run_experiment(
                rep,
                work,
                shots=opts.shots,
                seed=opts.seed,
                noise=opts.noise,
                scheme=opts.scheme,
            )
            data["montecarlo"] = _montecarlo_section(record)

    data["checks"] = CertifyReport(data).checks()
    data["complete"] = True
    return CertifyReport(data=data)


def _fmt(x: Any) -> str:
    return format_float(float(x))


def _theta_line(t: dict[str, Any], verdict: dict[str, str], section: str) -> str:
    method = f"{t['method']}, " if "method" in t else ""
    return (
        f"{_fmt(t['value'])} (dual {_fmt(t['dual'])}, gap {_fmt(t['gap'])}, {method}"
        f"{t['status']}, feasible {verdict[section + '_feasible']}, "
        f"dual verified {verdict[section + '_dual_verified']})"
    )


def render_text(report: CertifyReport) -> str:
    """Human-readable rendering; every PASS/FAIL, overall included, comes from `report.checks`."""
    d = report.data
    verdict = {name: "PASS" if ok else "FAIL" for name, ok in report.checks()}
    lines = [f"two-point certification report (schema {d['schema']})"]
    inp = d["input"]
    lines.append(
        f"input: n={inp['n']}, |E|={inp['edge_count']}, weighted={'yes' if inp['weighted'] else 'no'}"
    )
    if ex := d.get("expanded"):
        lines.append(f"expanded: n={ex['n']}, |E|={ex['edge_count']}")
    if a := d.get("alpha_g"):
        lines.append(f"α(G) = {a['alpha']} (witness {a['witness']}, nodes {a['node_count']})")
    if "theta_g" in d:
        lines.append(f"ϑ(G) = {_theta_line(d['theta_g'], verdict, 'theta_g')}")
    if egs := d.get("event_graph"):
        lines.append(f"G': {egs['n']} vertices, {egs['edge_count']} edges")
    if a := d.get("alpha_gprime"):
        lines.append(
            f"α(G') = {a['alpha']} (upper bound {a['upper_bound']}, {a['method']}, witness "
            f"independent {verdict['alpha_gprime_witness_independent']}, cover verified "
            f"{verdict['alpha_gprime_cover_verified']})"
        )
    if "theta_gprime" in d:
        lines.append(f"ϑ(G') = {_theta_line(d['theta_gprime'], verdict, 'theta_gprime')}")
    if ident := d.get("identities"):
        lines.append(
            f"identity α(G') − α(G) − |E| = {ident['alpha_difference']}: "
            f"{verdict['alpha_identity']}"
        )
        lines.append(
            f"identity |ϑ(G') − ϑ(G) − |E|| = {_fmt(abs(ident['theta_difference']))} "
            f"≤ {_fmt(ident['theta_tolerance'])}: {verdict['theta_identity']}"
        )
    if o := d.get("orthorep"):
        lines.append(
            f"orthorep: d={o['dimension']}, max edge overlap {_fmt(o['max_edge_overlap'])}, "
            f"overlap sum {_fmt(o['overlap_sum'])} (err {_fmt(o['overlap_error'])}): "
            f"{verdict['orthorep_verified']}"
        )
    if e := d.get("exact"):
        lines.append(
            f"exact: S = {_fmt(e['s'])}, S' = {_fmt(e['s_prime'])}, "
            f"S' − |E| − S = {_fmt(e['consistency_error'])}: {verdict['s_prime_consistent']}, "
            f"|S − ϑ(G)| = {_fmt(e['s_vs_theta_error'])} ≤ {_fmt(e['s_tolerance'])}: "
            f"{verdict['s_matches_theta']}"
        )
    if mc := d.get("montecarlo"):
        lines.append(
            f"montecarlo: Ŝ = {_fmt(mc['s_estimate'])} ± {_fmt(mc['s_stderr'])}, "
            f"max ε significance {_fmt(mc['max_epsilon_significance'])}, "
            f"max ε′ significance {_fmt(mc['max_epsilon_prime_significance'])}"
        )
    if "error" in d:
        lines.append(f"error at stage {d['error']['stage']}: {d['error']['message']}")
    if d.get("checks") != report.checks():
        lines.append("stored checks: differ from the rules evaluated on this report")
    lines.append(f"complete: {'yes' if d.get('complete') else 'NO'}")
    lines.append(f"overall: {'PASS' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _section_json(name: str, section: Any) -> str:
    if name != "montecarlo":
        return dumps_canonical(section)
    return _json_object(
        (key, dumps_record(value) if key == "record" else dumps_canonical(value))
        for key, value in section.items()
    )


def emit_report(report: CertifyReport, fmt: str = "json") -> str:
    """Serialize deterministically; identical reports yield identical bytes.  JSON
    writes each section with `dumps_canonical`, and the record with `dumps_record`."""
    if fmt == "json":
        sections = ((name, _section_json(name, section)) for name, section in report.data.items())
        return _json_object(sections) + "\n"
    if fmt == "text":
        return render_text(report)
    raise ValueError(f"unknown report format {fmt!r}")
