"""Command-line interface.

One subcommand per pipeline stage plus the composite ``certify``.  Exit
codes: 0 when everything passed, 2 when a bound identity or a verification
check failed, 1 on operational errors (bad input, stage failure).
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path
from typing import Optional

from .catalog import catalog, catalog_names
from .certify import (
    CHECKS,
    CertifyOptions,
    StageError,
    _alpha_section,
    _montecarlo_section,
    _theta_section,
    certify,
    emit_report,
)
from .graphs import Graph, build_two_point_graph
from .orthorep import ExtractionError, extract_ortho_rep, realisation_gate, realised, verify_ortho_rep
from .independence import ALPHA_LIMIT, independence_number
from .serialize import (
    ParseError,
    dumps_canonical,
    dumps_record,
    emit_graph,
    event_graph_to_jsonable,
    format_float,
    orthorep_to_jsonable,
    parse_graph,
)
from .simulate import SCHEMES, NoiseModel, run_experiment
from .theta import DEFAULT_TOLERANCE, theta

# The benchmark tracer patches these names.
from .serialize import epsilon_prime, epsilon_signaling, record_to_jsonable  # noqa: F401


def _load_graph(source: str) -> Graph:
    if source == "-":
        return parse_graph(sys.stdin.read())
    path = Path(source)
    if path.exists():
        return parse_graph(path.read_text(encoding="utf-8"))
    try:
        return catalog(source)
    except ValueError as err:
        raise ParseError(f"{source!r} is neither a readable file nor a catalog name ({err})")


def _load_unweighted(args) -> Graph:
    g = _load_graph(args.graph)
    if g.is_weighted:
        hint = "twopoint certify expands vertex weights"
        raise ValueError(f"twopoint {args.command} needs an unweighted graph; {hint}")
    return g


def _write(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph file (JSON or DIMACS), '-' for stdin, or a catalog name")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--output", metavar="PATH", help="write output to PATH instead of stdout")


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    """The experiment's settings, declared once for simulate and certify."""
    p.add_argument("--tolerance", type=float, default=CertifyOptions.tolerance)
    p.add_argument("--shots", type=int, default=CertifyOptions.shots)
    p.add_argument("--seed", type=int, default=CertifyOptions.seed)
    p.add_argument("--scheme", choices=SCHEMES, default=CertifyOptions.scheme)
    p.add_argument("--noise-depol", type=float, default=NoiseModel.depolarizing_p, metavar="P")
    p.add_argument(
        "--noise-angle", type=float, default=NoiseModel.vector_misalignment_angle, metavar="RAD"
    )
    p.add_argument("--noise-flip", type=float, default=NoiseModel.outcome_flip_p, metavar="P")


def _options(args, **flags) -> CertifyOptions:
    """The `CertifyOptions` of `_add_experiment_args`'s flags, plus certify's own ``flags``."""
    noise = NoiseModel(
        depolarizing_p=args.noise_depol,
        vector_misalignment_angle=args.noise_angle,
        outcome_flip_p=args.noise_flip,
    )
    return CertifyOptions(tolerance=args.tolerance, shots=args.shots, seed=args.seed,
                          noise=noise, scheme=args.scheme, **flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twopoint",
        description="classical/quantum bounds of graph inequalities, two-point compilation, and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="exact independence number")
    _add_graph_args(p)
    _add_output_args(p)
    p.add_argument("--limit", type=int, default=ALPHA_LIMIT,
                   help="vertex limit for the exact solver")

    p = sub.add_parser("theta", help="Lovasz number with certificates")
    _add_graph_args(p)
    _add_output_args(p)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--dump-sdp", action="store_true", help="include the primal matrix in JSON output")

    p = sub.add_parser("transform", help="compile the two-point event graph")
    _add_graph_args(p)
    _add_output_args(p)

    p = sub.add_parser("orthorep", help="extract the optimal orthogonal representation")
    _add_graph_args(p)
    _add_output_args(p)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)

    p = sub.add_parser("simulate", help="simulate the two-point experiment")
    _add_graph_args(p)
    _add_output_args(p)
    _add_experiment_args(p)

    p = sub.add_parser("certify", help="full pipeline with identity checks")
    _add_graph_args(p)
    _add_output_args(p)
    _add_experiment_args(p)
    p.add_argument("--skip-montecarlo", action="store_true")
    p.add_argument("--alpha-limit", type=int, default=CertifyOptions.alpha_limit,
                   help="vertex limit for branch and bound on G; alpha(G') needs no search")
    p.add_argument("--dump-sdp", action="store_true")

    p = sub.add_parser("catalog", help="list catalog entries or emit one graph")
    p.add_argument("name", nargs="?", help="catalog entry; omit to list all")
    _add_output_args(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state between calls."""
    return build_parser()


def _cmd_alpha(args) -> int:
    g = _load_unweighted(args)
    res = _alpha_section(independence_number(g, limit=args.limit))
    if args.format == "json":
        out = dumps_canonical(res) + "\n"
    else:
        out = (
            f"α = {res['alpha']}\nwitness = {res['witness']}\n"
            f"search nodes = {res['node_count']}\n"
        )
    _write(out, args.output)
    return 0


def _cmd_theta(args) -> int:
    g = _load_unweighted(args)
    sol = theta(g, tolerance=args.tolerance)
    t = _theta_section(g, sol, args.dump_sdp)
    checks = {name: ok(t) for name, section, ok in CHECKS if section == "theta_g"}
    if args.format == "json":
        out = dumps_canonical(t) + "\n"
    else:
        out = (
            f"ϑ = {format_float(t['value'])}\n"
            f"dual = {format_float(t['dual'])} (gap {format_float(t['gap'])})\n"
            f"status = {t['status']} ({t['termination']}), "
            f"iterations = {t['iterations']}\n"
            f"feasibility = {'PASS' if checks['theta_g_feasible'] else 'FAIL'}\n"
            f"dual verification = {'PASS' if checks['theta_g_dual_verified'] else 'FAIL'}\n"
        )
    _write(out, args.output)
    return 0 if all(checks.values()) else 2


def _cmd_transform(args) -> int:
    g = _load_unweighted(args)
    eg = build_two_point_graph(g)
    if args.format == "json":
        out = dumps_canonical(event_graph_to_jsonable(eg)) + "\n"
    else:
        lines = [f"G: n={g.n}, |E|={len(g.edges)}"]
        lines.append(f"G': n={eg.n}, |E|={len(eg.edges)}")
        for idx, assigns in enumerate(eg.assignments()):
            obs = ",".join(str(o) for o in assigns)
            outs = ",".join(str(assigns[o]) for o in assigns)
            lines.append(f"  vertex {idx}: {outs}|{obs}")
        out = "\n".join(lines) + "\n"
    _write(out, args.output)
    return 0


def _cmd_orthorep(args) -> int:
    g = _load_unweighted(args)
    sol = theta(g, tolerance=args.tolerance)
    rep = extract_ortho_rep(g, sol)
    measures = verify_ortho_rep(g, rep, theta_target=sol.primal_value)
    passed = realised(measures, realisation_gate(sol.tolerance))
    if args.format == "json":
        payload = orthorep_to_jsonable(rep)
        payload["verification"] = {**measures, "passed": passed}
        out = dumps_canonical(payload) + "\n"
    else:
        out = (
            f"d = {rep.dimension}\n"
            f"overlap sum = {format_float(measures['overlap_sum'])} "
            f"(ϑ error {format_float(measures['overlap_error'])})\n"
            f"max edge overlap = {format_float(measures['max_edge_overlap'])}\n"
            f"verification = {'PASS' if passed else 'FAIL'}\n"
        )
    _write(out, args.output)
    return 0 if passed else 2


def _cmd_simulate(args) -> int:
    opts = _options(args)
    g = _load_unweighted(args)
    rep = extract_ortho_rep(g, theta(g, tolerance=opts.tolerance))
    record = run_experiment(
        rep, g, shots=opts.shots, seed=opts.seed, noise=opts.noise, scheme=opts.scheme
    )
    if args.format == "json":
        out = dumps_record(record) + "\n"
    else:
        mc = _montecarlo_section(record)
        # each comparison of an ε table is two entries, outcome 0 and outcome 1
        entries = [2 * len(record.signaling_columns[position][0]) for position in (1, 0)]
        out = (
            f"scheme = {record.scheme}, shots = {record.shots}, seed = {record.seed}\n"
            f"Ŝ = {format_float(mc['s_estimate'])} ± {format_float(mc['s_stderr'])}\n"
            f"ε entries = {entries[0]}, "
            f"max |ε|/σ = {format_float(mc['max_epsilon_significance'])}\n"
            f"ε′ entries = {entries[1]}, "
            f"max |ε′|/σ = {format_float(mc['max_epsilon_prime_significance'])}\n"
        )
    _write(out, args.output)
    return 0


def _cmd_certify(args) -> int:
    g = _load_graph(args.graph)
    opts = _options(args, skip_montecarlo=args.skip_montecarlo, alpha_limit=args.alpha_limit,
                    include_sdp_matrices=args.dump_sdp)
    try:
        report = certify(g, opts)
    except StageError as err:
        _write(emit_report(err.report, args.format), args.output)
        print(f"error: {err}", file=sys.stderr)
        return 1
    _write(emit_report(report, args.format), args.output)
    return 0 if report.all_passed else 2


def _cmd_catalog(args) -> int:
    if args.name is None:
        entries = catalog_names()
        if args.format == "json":
            out = dumps_canonical(entries) + "\n"
        else:
            width = max(len(k) for k in entries)
            out = "\n".join(f"{k:<{width}}  {v}" for k, v in sorted(entries.items())) + "\n"
        _write(out, args.output)
        return 0
    g = catalog(args.name)
    _write(emit_graph(g, "json" if args.format == "json" else "dimacs"), args.output)
    return 0


_COMMANDS = {
    "alpha": _cmd_alpha,
    "theta": _cmd_theta,
    "transform": _cmd_transform,
    "orthorep": _cmd_orthorep,
    "simulate": _cmd_simulate,
    "certify": _cmd_certify,
    "catalog": _cmd_catalog,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    with warnings.catch_warnings():
        # One "warning: <message>" line, without the source path and line of the default format
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return _COMMANDS[args.command](args)
        except (ParseError, ValueError, OSError, ExtractionError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
