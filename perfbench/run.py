"""Benchmark of the twopoint pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seeds 1,2,3 --out BENCH.json
    python3 perfbench/run.py --self-check

Each run starts the workload in a fresh process (worker.py) with the BLAS
thread count pinned to 1, measures set-up as the median over that process
and SETUP_PROBES set-up-only processes, and checks every output.  It prints
a table of every metric with its unit and, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
Results, with the run environment, go to perfbench/results/ or ``--out``;
compare two result files with perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (stdlib only; the package loads in the worker)

SETUP_PROBES = 2
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
KILL_AFTER_S = 150


def git_commit() -> str | None:
    """HEAD of the repository at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    src = ROOT / "src" / "twopoint"
    return {
        **{k: os.environ.get(k) for k in PINNED_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src.lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def start_worker(args: list[str], env: dict, workdir: Path, setup_only: bool):
    """Start a worker; returns (process, set-up seconds) once it is ready."""
    read_fd, write_fd = os.pipe()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--ready-fd", str(write_fd),
           "--workdir", str(workdir)] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, pass_fds=(write_fd,), stdout=sys.stderr)
    os.close(write_fd)
    with os.fdopen(read_fd) as ready:
        waited = select.select([ready], [], [], KILL_AFTER_S)[0]
        line = ready.readline() if waited else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        if not waited:
            proc.kill()
        finish(proc)
        raise RuntimeError(f"worker exited with code {proc.returncode} before it was ready")
    return proc, setup


def finish(proc) -> int:
    try:
        return proc.wait(timeout=KILL_AFTER_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not finish in time; killed")


def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    env = {**os.environ, **PINNED_ENV}
    workdir = HERE / ".work" / f"{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--result", str(result_path)] + (["--tiny"] if tiny else [])
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, setup = start_worker(args, env, workdir, setup_only=True)
            if finish(proc) != 0:
                raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
            setups.append(setup)
        proc, setup = start_worker(args, env, workdir, setup_only=False)
        setups.append(setup)
        if finish(proc) != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        out = json.loads(result_path.read_text(encoding="utf-8"))
        spans = result_path.with_suffix(".spans.jsonl")
        if spans.exists():
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            shutil.move(str(spans), results / f"{workload}-seed{seed}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace == 0:
        out["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    out["detail"]["setup_samples_s"] = setups
    out["detail"]["fail_ratio"] = out["failed"] / out["attempted"]
    out.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    return out


def print_run(run: dict) -> None:
    d = run["detail"]
    print(f"{run['workload']} seed={run['seed']} trace={run['trace']}: "
          f"{run['attempted']} operations, {d['cycles']} cycles, "
          f"fail_ratio = {d['fail_ratio']:g} ({run['failed']}/{run['attempted']}), "
          f"{run['wrong']} wrong outputs")
    for name, m in run["metrics"].items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    if run["trace"] == 0:
        print(f"  slot times: mean of {d['cycles']} repetitions, at the reference speed; "
              f"op_p50_s/op_p90_s over {d['percentile_samples']} slots")
    for p in run["problems"]:
        print(f"  problem: {p}")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def self_check() -> int:
    """Every workload on tiny inputs; every metric must appear with its unit."""
    bench = load_benchmark()
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for wl in WORKLOADS:
        for trace in (0, 1):
            run = run_one(wl, seed=1, seconds=0.5, trace=trace, tiny=True)
            got = {k: m["unit"] for k, m in run["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{wl} trace={trace}: metrics {got} != {expected[trace]}")
            if run["wrong"]:
                errors.append(f"{wl} trace={trace}: {run['failed']} failed, {run['problems']}")
            print(f"{wl} trace={trace}: {len(got)} metrics, {run['attempted']} operations")
    for e in errors:
        print(f"self-check: {e}", file=sys.stderr)
    print("self-check " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", help="comma-separated seeds; overrides --seed")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (default perfbench/results/...)")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "twopoint" / "__init__.py").is_file():
        print(f"error: no twopoint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in workloads):
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    seconds = args.seconds or bench["run_seconds"]

    runs = []
    for wl in workloads:
        for seed in seeds:
            run = run_one(wl, seed, seconds, args.trace)
            print_run(run)
            runs.append(run)
    out = Path(args.out) if args.out else (
        HERE / "results" / f"{args.workload}-seed{seeds[0]}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"schema": 1, "env": environment(), "runs": runs}, indent=1),
                   encoding="utf-8")
    print(f"results: {out}")
    if len(runs) == 1:
        run = runs[0]
        print(json.dumps({"correct": run["wrong"] == 0, "attempted": run["attempted"],
                          "failed": run["failed"], "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
