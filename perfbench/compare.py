"""Compare two benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json
    python3 perfbench/compare.py RESULTS.json

For every workload and metric it prints each side's median and quartiles
over the runs in the file, the relative change of the median, the bound
from BENCHMARK.json and a verdict:

- better / worse: the quartile ranges do not overlap;
- unresolved: they overlap, but a side's spread (quartile distance over
  median) is wider than the bound, so no change can be ruled out;
- unchanged: otherwise.

Metrics counted in ``count`` units repeat exactly for a seed, so they are
compared exactly, summed over the runs, and only when both files hold the
same seeds.  With one file, the medians and spreads alone are printed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_specs() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def group(path: str) -> dict:
    """{(workload, metric): {seed: value}} over the runs of one result file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    out: dict = {}
    for run in data["runs"]:
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = m["value"]
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(q) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def verdict(spec: dict, base: dict, new: dict) -> tuple[str, float]:
    lower_better = spec.get("better", "lower") == "lower"
    if spec["unit"] == "count":
        if set(base) != set(new):
            return "unresolved", float("nan")
        b, n = sum(base.values()), sum(new.values())
        delta = (n - b) / b if b else 0.0
        if n == b:
            return "unchanged", delta
        return ("better" if (n < b) == lower_better else "worse"), delta
    qb, qn = quartiles(list(base.values())), quartiles(list(new.values()))
    delta = (qn[1] - qb[1]) / qb[1] if qb[1] else 0.0
    if qn[0] > qb[2] or qn[2] < qb[0]:
        return ("better" if (qn[1] < qb[1]) == lower_better else "worse"), delta
    bound = spec.get("bound")
    if bound is not None and max(spread(qb), spread(qn)) > bound:
        return "unresolved", delta
    return "unchanged", delta


def fmt_q(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = load_specs()
    sides = [group(p) for p in argv]
    keys = sorted(set().union(*sides), key=lambda k: (k[0], list(specs).index(k[1])
                                                       if k[1] in specs else len(specs)))
    for workload, name in keys:
        spec = specs.get(name, {"unit": "?", "better": "lower"})
        vals = [side.get((workload, name)) for side in sides]
        if len(sides) == 1:
            q = quartiles(list(vals[0].values()))
            print(f"{workload:<15} {name:<28} {fmt_q(q):<40} spread {spread(q):.3f} "
                  f"({len(vals[0])} runs) {spec['unit']}")
            continue
        if vals[0] is None or vals[1] is None:
            print(f"{workload:<15} {name:<28} present in one file only")
            continue
        result, delta = verdict(spec, vals[0], vals[1])
        bound = spec.get("bound")
        print(f"{workload:<15} {name:<28} {fmt_q(quartiles(list(vals[0].values()))):<38} -> "
              f"{fmt_q(quartiles(list(vals[1].values()))):<38} {delta:+8.2%} "
              f"bound {'-' if bound is None else f'{bound:.0%}':>4}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
