"""One workload in one fresh process; started by run.py.

The process imports the package, generates the inputs of every slot,
runs one untimed warm-up operation and then writes ``ready`` to the pipe
the parent passed, which stops the parent's set-up clock.  Unless
``--setup-only`` is given it then runs whole cycles of operations
closed-loop (the next starts when the previous returns) until ``--seconds``
have passed, and writes its measurements to ``--result``.
With ``--trace 1`` the first half of the time runs without spans and the
second half with them, followed by one cycle that counts work and ϑ's
allocations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# Fastest time of reference() on the 2-core Xeon host the benchmark was
# written on, in a quiet spell; the reported times are scaled to it.
REFERENCE_S = 0.0051
_REFERENCE_MATRICES: list = []


def load_api():
    for var in PINNED:
        if os.environ.get(var) != "1":
            raise SystemExit(f"{var} must be 1 before numpy is imported")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import scipy

    import twopoint.cli

    cert = sys.modules["twopoint.certify"]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "openblas_config": blas.get("openblas configuration"),
    }
    api = SimpleNamespace(
        build_graph=twopoint.build_graph,
        CertifyOptions=cert.CertifyOptions,
        certify=cert.certify,
        emit_report=cert.emit_report,
        build_two_point_graph=twopoint.build_two_point_graph,
        independence_number=twopoint.independence_number,
        cli_main=twopoint.cli.main,
    )
    return api, env


def reference(runs: int = 1) -> float:
    """Time a fixed computation that shares no code with the package.

    Interpreted dict and integer work, a Cholesky factorisation and a
    matrix product of order 300, and multinomial sampling: the kinds of
    work the workloads do.  Run right after an operation, it measures how
    fast the host ran at that time.  It runs once untimed and then
    ``runs`` times, with the garbage collector off, and returns the median
    of the timed runs, so that neither the caches the operation left cold
    nor the number of objects it left alive move the time.
    """
    import numpy

    if not _REFERENCE_MATRICES:
        a = numpy.random.default_rng(0).standard_normal((300, 300))
        _REFERENCE_MATRICES[:] = [a, a @ a.T + 300 * numpy.eye(300)]
    a, spd = _REFERENCE_MATRICES
    collecting = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(runs + 1):
            t0 = time.perf_counter()
            table: dict[int, int] = {}
            for i in range(20_000):
                key = i * 7919 % 1009
                table[key] = table.get(key, 0) + i
            numpy.linalg.cholesky(spd)
            a @ a
            numpy.random.default_rng(0).multinomial(1000, [0.25] * 4, size=500)
            times.append(time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times[1:])


def reference_runs(op_s: float) -> int:
    """Timed reference() runs after an operation of ``op_s`` seconds.

    About 5% of the operation's time, from 1 to 9 runs: one 5 ms sample
    says little about the host during a 5 s operation.
    """
    return min(9, max(1, round(0.05 * op_s / REFERENCE_S)))


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class Runner:
    def __init__(self, workload, inputs):
        self.wl = workload
        self.inputs = inputs
        self.problems: list[str] = []

    def one(self, inp, call) -> tuple[float, str]:
        """Run and check one operation; returns its wall time and status.

        The status is "ok"; "failed" when the operation raised or the
        program reported a failure; or "wrong" when its output failed one
        of the benchmark's checks.  Both count as failed operations; only
        "wrong" makes the run incorrect.
        """
        from checks import ProgramFailure

        self.wl.prepare(inp)
        t0 = time.perf_counter()
        try:
            out = call(inp)
        except Exception:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            self.note(inp, traceback.format_exc(limit=3))
            return dt, "failed"
        dt = time.perf_counter() - t0
        try:
            problems = self.wl.check(inp, out)
        except ProgramFailure as err:
            self.note(inp, str(err))
            return dt, "failed"
        except Exception:  # output too malformed to check
            problems = [traceback.format_exc(limit=3)]
        for p in problems:
            self.note(inp, p)
        return dt, "wrong" if problems else "ok"

    def note(self, inp, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{inp.label}: {problem}")
        print(f"[{self.wl.name}] {inp.label}: {problem}", file=sys.stderr)

    def measure(self, seconds: float, tracer=None) -> list[tuple[int, float, str, float]]:
        """Closed loop over whole cycles of the inputs for about ``seconds``.

        At least one cycle runs; another starts only if it would end less
        than half a cycle past ``seconds``.  Each entry is (slot, wall
        time, status, time of reference() right after the operation).
        """
        ops: list[tuple[int, float, str, float]] = []
        call = self.wl.run
        start = now = time.perf_counter()
        cycle_s = 0.0
        while not ops or now - start + cycle_s / 2 < seconds:
            for slot, inp in enumerate(self.inputs):
                if tracer is None:
                    dt, status = self.one(inp, call)
                else:
                    tracer.begin_op(len(ops))
                    dt, status = self.one(inp, lambda i: tracer.run_op(call, i))
                ops.append((slot, dt, status, reference(reference_runs(dt))))
            cycle_s, now = time.perf_counter() - now, time.perf_counter()
        return ops


def timing_metrics(ops, slots: int) -> tuple[dict, dict]:
    """ops_per_s, op_p50_s and op_p90_s from one phase's whole cycles.

    Every cycle repeats the same inputs, so each slot is timed once a
    cycle.  A shared host slows spells of seconds to minutes by up to
    half, whole runs included.  So each operation's wall time is divided
    by the time of the reference() run right after it, which the same
    spell slows alike, and a slot's time is the mean of these ratios times
    REFERENCE_S: seconds at the host's reference speed.  The wall times
    and reference times are kept in the detail.  ops_per_s is the number
    of slots over the sum of their times, the throughput of a cycle; the
    percentiles are over the slot times, the same basis whatever the
    number of cycles that fit.
    """
    slot_ops = [[(dt, ref) for s, dt, _, ref in ops if s == k] for k in range(slots)]
    times = [REFERENCE_S * statistics.fmean(dt / ref for dt, ref in pairs) for pairs in slot_ops]
    metrics = {
        "ops_per_s": (slots / sum(times), "1/s"),
        "op_p50_s": (quantile(times, 0.5), "s"),
        "op_p90_s": (quantile(times, 0.9), "s"),
    }
    detail = {
        "operations": len(ops),
        "cycles": len(ops) // slots,
        "percentile_samples": slots,
        "slot_times_s": [[dt for dt, _ in pairs] for pairs in slot_ops],
        "slot_reference_s": [[ref for _, ref in pairs] for pairs in slot_ops],
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--ready-fd", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    api, env = load_api()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](api, args.seed, Path(args.workdir), tiny=args.tiny)
    inputs = [wl.make_input(k) for k in range(wl.slots)]
    runner = Runner(wl, inputs)
    runner.one(inputs[0], wl.run)  # warm-up, untimed
    with os.fdopen(args.ready_fd, "w") as ready:
        ready.write("ready\n")
    if args.setup_only:
        return 0

    out: dict = {"env": env, "slots": wl.slots}
    if args.trace == 0:
        ops = runner.measure(args.seconds)
        metrics, detail = timing_metrics(ops, wl.slots)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mib"] = (peak_kib / 1024, "MiB")
        all_ops = ops
    else:
        import spans

        plain = runner.measure(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            # The benchmark's own calls into the package get spans too.
            wl.api = SimpleNamespace(**vars(api))
            for key, name in (("certify", "certify"), ("cli_main", "main"),
                              ("build_two_point_graph", "build_two_point_graph"),
                              ("independence_number", "independence_number")):
                setattr(wl.api, key, tracer.wrap(getattr(api, key), name))
            traced = runner.measure(args.seconds / 2, tracer)
            timed = tracer.take()
            # One more cycle, for exact counts and the ϑ allocation peak;
            # tracemalloc would distort the times above.
            tracer.trace_alloc = True
            counted_ops = runner.measure(0, tracer)
            counted = tracer.take()
        finally:
            wl.api = api
            tracer.uninstall()
        plain_metrics, detail = timing_metrics(plain, wl.slots)
        traced_metrics, _ = timing_metrics(traced, wl.slots)
        metrics = spans.layer_metrics(timed, counted)
        overhead = plain_metrics["ops_per_s"][0] / traced_metrics["ops_per_s"][0] - 1
        metrics["trace.overhead"] = (overhead, "fraction")
        detail["traced_operations"] = len(traced)
        spans.write_spans(Path(args.result).with_suffix(".spans.jsonl"),
                          {"timed": timed, "counted": counted})
        all_ops = plain + traced + counted_ops
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out["detail"] = detail
    out["attempted"] = len(all_ops)
    out["failed"] = sum(1 for _, _, status, _ in all_ops if status != "ok")
    out["wrong"] = sum(1 for _, _, status, _ in all_ops if status == "wrong")
    out["problems"] = runner.problems
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
