"""Certify the two seeded random-graph sweeps and print one summary line each.

Run from the repository root with one BLAS thread:

    PYTHONPATH=src python tests/sweep.py [sweep-400] [probe-sweep]

Each sweep draws 400 graphs from one ``random.Random(name)``: for graph k
(counting from 0), n = randint(12, 40), then m = randint(2n, 3n), then the
edges ``sorted(sample(all pairs, m))``.  Every graph goes through
``certify(g, CertifyOptions(skip_montecarlo=True))`` in this process.  The
line gives the failed checks by name, the stage errors by stage and graph
index, the total ϑ(G) iterations, the solver's exits by termination, how many
realisations have d = n and the median d, the largest |gap′| of ϑ(G′), and
how many graphs have a verified dual bound within 1e-6 of α(G).  Nothing is
timed.  The file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
from collections import Counter, defaultdict

# One BLAS thread unless the caller sets another, before numpy is first imported:
# the iteration counts are those of one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from twopoint import CertifyOptions, StageError, build_graph, certify  # noqa: E402

STREAMS = ("sweep-400", "probe-sweep")
GRAPHS = 400


def draw(name: str) -> list:
    """The sweep's graphs, in draw order."""
    rng = random.Random(name)
    graphs = []
    for _ in range(GRAPHS):
        n = rng.randint(12, 40)
        m = rng.randint(2 * n, 3 * n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs.append(build_graph(n, sorted(rng.sample(pairs, m))))
    return graphs


def _counts(counter: Counter) -> str:
    return ", ".join(f"{k} {v}" for k, v in sorted(counter.items())) or "none"


def summarise(name: str) -> str:
    options = CertifyOptions(skip_montecarlo=True)
    failed: Counter = Counter()
    errors: dict[str, list[int]] = defaultdict(list)
    exits: Counter = Counter()
    iterations = 0
    dimensions = []
    full_dimension = 0
    max_gap_prime = 0.0
    theta_is_alpha = 0
    for k, g in enumerate(draw(name)):
        try:
            data = certify(g, options).data
        except StageError as err:
            data = err.report.data
            errors[data["error"]["stage"]].append(k)
        failed.update(check for check, ok in data["checks"] if not ok)
        if t := data.get("theta_g"):
            iterations += t["iterations"]
            exits[t["termination"]] += 1
            if t["dual_verified"] and abs(t["dual"] - data["alpha_g"]["alpha"]) <= 1e-6:
                theta_is_alpha += 1
        if tp := data.get("theta_gprime"):
            max_gap_prime = max(max_gap_prime, abs(tp["gap"]))
        if o := data.get("orthorep"):
            dimensions.append(o["dimension"])
            full_dimension += o["dimension"] == g.n
    stage_errors = "; ".join(f"{s} at {ks}" for s, ks in sorted(errors.items())) or "none"
    return (
        f"{name}: failed checks {_counts(failed)}; stage errors {stage_errors}; "
        f"ϑ iterations {iterations}; exits {_counts(exits)}; "
        f"d = n on {full_dimension}, median d {statistics.median(dimensions):g}; "
        f"max |gap′| {max_gap_prime:.2g}; ϑ = α on {theta_is_alpha}"
    )


def main(names: list[str]) -> None:
    for name in names or STREAMS:
        if name not in STREAMS:
            raise SystemExit(f"unknown sweep {name!r}; choose from {STREAMS}")
        print(summarise(name), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
