"""Output checks that share no code with the package under test.

Every check returns a list of problems, outputs that are wrong although
the program presented them as valid; an empty list means the output
passed.  Where the program itself reports a failure (an incomplete report,
a check that FAILs, a nonzero exit code) the check raises ProgramFailure
instead.  The checks work from plain edge lists and from the numbers in
the emitted reports, so a bug in the package cannot hide itself by also
breaking the check.
"""

from __future__ import annotations

import math
from itertools import combinations

# Tolerance for ϑ against a closed form and for the ϑ transfer identity;
# certify's own identity check uses 10 × its 1e-7 solver tolerance.
THETA_TOL = 1e-6


class ProgramFailure(Exception):
    """The program reported that the operation failed."""


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def brute_force_alpha(n: int, edges, weights=None) -> int:
    """Maximum (weighted) independent set by enumerating all 2^n subsets."""
    if n > 12:
        raise ValueError(f"brute force is for n <= 12, got n={n}")
    adj = adjacency(n, edges)
    w = weights or [1] * n
    best = 0
    for mask in range(1 << n):
        total = 0
        for v in range(n):
            if mask >> v & 1:
                if adj[v] & mask:
                    break
                total += w[v]
        else:
            best = max(best, total)
    return best


def exact_alpha(n: int, edges) -> int:
    """Exact α for sparse graphs too large to enumerate.

    Plain recursion on bitmasks: a vertex of degree at most one is always
    taken, otherwise the search branches on a vertex of maximum degree.
    Memoised on the remaining vertex set.
    """
    adj = adjacency(n, edges)
    memo: dict[int, int] = {}

    def best(mask: int) -> int:
        if not mask:
            return 0
        if mask in memo:
            return memo[mask]
        verts = [v for v in range(n) if mask >> v & 1]
        degs = [(bin(adj[v] & mask).count("1"), v) for v in verts]
        low_deg, low = min(degs)
        if low_deg <= 1:
            out = 1 + best(mask & ~(adj[low] | 1 << low))
        else:
            _, high = max(degs)
            out = max(best(mask & ~(1 << high)), 1 + best(mask & ~(adj[high] | 1 << high)))
        memo[mask] = out
        return out

    return best((1 << n) - 1)


def is_independent(edges, vertices) -> bool:
    chosen = set(vertices)
    return not any(i in chosen and j in chosen for i, j in edges)


def odd_cycle_theta(n: int) -> float:
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def expanded_edges(edges, provenance) -> list[tuple[int, int]]:
    """Edges of a weighted blow-up, rebuilt from the report's provenance map."""
    eset = {(min(i, j), max(i, j)) for i, j in edges}
    return [
        (a, b)
        for a, b in combinations(range(len(provenance)), 2)
        if (min(provenance[a], provenance[b]), max(provenance[a], provenance[b])) in eset
    ]


def check_record(rec: dict, n: int, edges, shots: int) -> list[str]:
    """Counts of a Monte Carlo record: totals, context set, ε table sizes, Ŝ."""
    problems = []
    if rec["shots"] != shots:
        problems.append(f"record has {rec['shots']} shots, asked for {shots}")
    for v, s in rec["singles"].items():
        if s["n0"] + s["n1"] != shots:
            problems.append(f"single {v}: counts sum to {s['n0'] + s['n1']}")
    expected = {f"{i},{j}" for i, j in edges} | {f"{j},{i}" for i, j in edges}
    if set(rec["pairs"]) != expected:
        problems.append(f"{len(rec['pairs'])} pair contexts, expected {len(expected)}")
    for key, entry in rec["pairs"].items():
        total = sum(entry["counts"].values())
        if total != shots:
            problems.append(f"pair {key}: counts sum to {total}")
    degree = [0] * n
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    entries = sum(2 * d * (d - 1) // 2 for d in degree)
    for table in ("epsilon", "epsilon_prime"):
        if len(rec[table]) != entries:
            problems.append(f"{table} has {len(rec[table])} entries, expected {entries}")
    s_value = sum(s["n1"] for s in rec["singles"].values()) / shots
    for i, j in edges:
        c = rec["pairs"][f"{i},{j}"]["counts"]["11"] + rec["pairs"][f"{j},{i}"]["counts"]["11"]
        s_value -= c / (2 * shots)
    if abs(s_value - rec["s_estimate"]) > 1e-9 * max(1.0, abs(s_value)):
        problems.append(f"Ŝ recomputed {s_value}, reported {rec['s_estimate']}")
    return problems


def check_certify_report(
    report: dict, n: int, edges, weights=None, theta_exact=None, shots=None
) -> list[str]:
    """A certify JSON report against the input graph and known values.

    Checks completeness and every PASS flag, then α(G) against the benchmark's
    own exact α, the α(G) witness, both transfer identities from the
    report's numbers, ϑ(G) against a closed form where one is given, and
    the Monte Carlo counts.
    """
    if not report.get("complete"):
        raise ProgramFailure(f"incomplete report: {report.get('error')}")
    failed = [name for name, ok in report["checks"] if not ok]
    if failed:
        raise ProgramFailure(f"report checks FAIL: {failed}")
    problems = []

    work_n, work_edges = n, list(edges)
    if weights is not None:
        provenance = report["expanded"]["provenance"]
        work_n, work_edges = len(provenance), expanded_edges(edges, provenance)
    own_alpha = (
        brute_force_alpha(n, edges, weights) if n <= 12 else exact_alpha(work_n, work_edges)
    )
    alpha = report["alpha_g"]["alpha"]
    witness = report["alpha_g"]["witness"]
    if alpha != own_alpha:
        problems.append(f"α(G) = {alpha}, benchmark's own α = {own_alpha}")
    if len(witness) != alpha or not is_independent(work_edges, witness):
        problems.append(f"α(G) witness {witness} is not an independent set of size {alpha}")
    edge_count = len(work_edges)
    if report["alpha_gprime"]["alpha"] != alpha + edge_count:
        problems.append(f"α(G') = {report['alpha_gprime']['alpha']}, expected {alpha + edge_count}")
    if len(report["alpha_gprime"]["witness"]) != report["alpha_gprime"]["alpha"]:
        problems.append("α(G') witness size differs from α(G')")
    theta_g = report["theta_g"]["value"]
    theta_gp = report["theta_gprime"]["value"]
    if abs(theta_gp - theta_g - edge_count) > THETA_TOL:
        problems.append(f"ϑ(G') − ϑ(G) − |E| = {theta_gp - theta_g - edge_count}")
    if not alpha - THETA_TOL <= theta_g <= work_n + THETA_TOL:
        problems.append(f"ϑ(G) = {theta_g} outside [α, n] = [{alpha}, {work_n}]")
    if theta_exact is not None and abs(theta_g - theta_exact) > THETA_TOL:
        problems.append(f"ϑ(G) = {theta_g}, closed form {theta_exact}")
    if shots is not None:
        problems += check_record(report["montecarlo"]["record"], work_n, work_edges, shots)
    return problems
