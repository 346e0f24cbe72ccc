"""The workloads: seeded inputs, the timed operation and its output checks.

A workload is a cycle of ``slots`` inputs.  The input of a slot is made
from ``(workload, seed, slot)`` alone and every cycle repeats the same
inputs, so a seed fixes every input and each slot's repetitions time the
same operation.  ``run`` is the timed operation; ``check`` runs after the
timer stops and returns the wrong outputs it found, or raises
checks.ProgramFailure.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import checks

NOISE_ARGS = ["--noise-depol", "0.05", "--noise-angle", "0.02", "--noise-flip", "0.01"]
SCHEMES = ("projective", "demolition")


@dataclass
class Input:
    label: str
    n: int
    edges: list
    weights: Optional[list] = None
    theta_exact: Optional[float] = None
    alpha_exact: Optional[int] = None
    args: list = field(default_factory=list)  # CLI arguments after the graph file
    graph: Any = None  # the package's Graph, for workloads that call the API
    fmt: str = "json"  # file format, for workloads that call the CLI
    options: Any = None  # CertifyOptions, for certify_ladder


def random_graph(rng: random.Random, n: int, m: int) -> list:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sorted(rng.sample(pairs, m))


def relabel(rng: random.Random, n: int, edges) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges)


def cycle_edges(n: int) -> list:
    return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def graph_text(inp: Input, fmt: str) -> str:
    """The input as a JSON or DIMACS file, written without the package."""
    if fmt == "json":
        data: dict[str, Any] = {"n": inp.n, "edges": [list(e) for e in inp.edges]}
        if inp.weights:
            data["weights"] = {str(v): w for v, w in enumerate(inp.weights) if w != 1}
        return json.dumps(data) + "\n"
    lines = [f"p edge {inp.n} {len(inp.edges)}"]
    if inp.weights:
        lines += [f"n {v + 1} {w}" for v, w in enumerate(inp.weights) if w != 1]
    lines += [f"e {i + 1} {j + 1}" for i, j in inp.edges]
    return "\n".join(lines) + "\n"


class Workload:
    name = ""
    slots = 1

    def __init__(self, api, seed: int, workdir: Path, tiny: bool = False):
        self.api = api
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.graph_path = workdir / "graph.txt"
        self.out_path = workdir / "out.json"

    def rng(self, slot: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{slot}")

    def make_input(self, slot: int) -> Input:
        raise NotImplementedError

    def prepare(self, inp: Input) -> None:
        """Untimed work just before the operation."""

    def run(self, inp: Input) -> Any:
        raise NotImplementedError

    def check(self, inp: Input, out: Any) -> list[str]:
        raise NotImplementedError


class CertifyLadder(Workload):
    """certify + emit_report(json) on a fixed ladder, relabelled per seed."""

    name = "certify_ladder"
    # ϑ(G) of the rungs with a closed form; α(G) comes from the benchmark's
    # own exact search.  The random rung is drawn once from seed 0 of
    # random.Random: n=10, |E|=22, giving n'=76 and m' = 1+|E(G')| = 1089.
    RUNGS = ("c5", "c7", "chsh-circulant", "petersen", "c21", "k6", "random-10-22")
    TINY_RUNGS = ("c5", "c7")

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.rungs = self.TINY_RUNGS if self.tiny else self.RUNGS
        self.slots = len(self.rungs)
        rng = random.Random(f"{self.name}/{self.seed}")
        self.inputs = []
        for rung in self.rungs:
            n, edges, theta_exact = self._rung(rung)
            edges = relabel(rng, n, edges)
            inp = Input(rung, n, edges, theta_exact=theta_exact)
            inp.graph = self.api.build_graph(n, edges)
            # Default options, except that the default alpha_limit of 64
            # refuses G' of c21 (n'=84) and of the random rung (n'=76):
            # those rungs get alpha_limit = n'.
            n_prime = n + 3 * len(edges)
            inp.options = self.api.CertifyOptions(seed=self.seed, alpha_limit=max(64, n_prime))
            self.inputs.append(inp)

    @staticmethod
    def _rung(rung: str):
        if rung in ("c5", "c7", "c21"):
            n = int(rung[1:])
            return n, cycle_edges(n), checks.odd_cycle_theta(n)
        if rung == "k6":
            return 6, [(i, j) for i in range(6) for j in range(i + 1, 6)], 1.0
        if rung == "petersen":
            outer = [(i, (i + 1) % 5) for i in range(5)]
            spokes = [(i, i + 5) for i in range(5)]
            inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            edges = sorted((min(e), max(e)) for e in outer + spokes + inner)
            return 10, edges, 4.0
        if rung == "chsh-circulant":
            edges = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
            return 8, sorted((min(e), max(e)) for e in edges), 2 + math.sqrt(2)
        if rung == "random-10-22":
            return 10, random_graph(random.Random(0), 10, 22), None
        raise ValueError(rung)

    def make_input(self, slot):
        return self.inputs[slot]

    def run(self, inp):
        report = self.api.certify(inp.graph, inp.options)
        return self.api.emit_report(report, "json")

    def check(self, inp, out):
        report = json.loads(out)
        return checks.check_certify_report(
            report, inp.n, inp.edges, theta_exact=inp.theta_exact, shots=inp.options.shots
        )


class CliWorkload(Workload):
    """Writes each input as a graph file, then calls twopoint.cli.main on it."""

    def run(self, inp):
        return self.api.cli_main(
            [self.command, str(self.graph_path), "--format", "json",
             "--output", str(self.out_path)] + inp.args
        )

    def prepare(self, inp):
        self.graph_path.write_text(graph_text(inp, inp.fmt), encoding="utf-8")
        self.out_path.unlink(missing_ok=True)  # never check a previous output

    def read_output(self, rc) -> dict:
        if rc != 0:
            raise checks.ProgramFailure(f"exit code {rc}")
        return json.loads(self.out_path.read_text(encoding="utf-8"))


class SweepSmall(CliWorkload):
    """`twopoint certify` over a stream of small G(n, 0.3) graphs.

    Stratified, so that every seed gives the same mix: slot k fixes
    n = 3 + k mod 5, the edge count at quantile (k div 5 + 1/2)/4 of
    Binomial(n(n-1)/2, 0.3), and, from k mod 4, the scheme and whether
    noise is on.  Slots 7 and 18 (two in twenty) give one vertex weight 2.
    Edges, the weighted vertex and the file format are random.
    """

    name = "sweep_small"
    command = "certify"
    slots = 20
    WEIGHTED_SLOTS = (7, 18)

    @staticmethod
    def edge_count(n: int, quantile: float) -> int:
        pairs = n * (n - 1) // 2
        cdf = 0.0
        for m in range(pairs + 1):
            cdf += math.comb(pairs, m) * 0.3**m * 0.7 ** (pairs - m)
            if cdf >= quantile:
                return m
        return pairs

    def make_input(self, slot):
        rng = self.rng(slot)
        n = 3 + slot % (2 if self.tiny else 5)
        edges = random_graph(rng, n, self.edge_count(n, (slot // 5 + 0.5) / 4))
        weights = None
        if slot in self.WEIGHTED_SLOTS:
            weights = [1] * n
            weights[rng.randrange(n)] = 2
        combo = slot % 4
        args = ["--scheme", SCHEMES[combo % 2], "--seed", str(rng.randrange(2**31))]
        if combo >= 2:
            args += NOISE_ARGS
        return Input(f"n{n}", n, edges, weights=weights, args=args,
                     fmt=rng.choice(("json", "dimacs")))

    def check(self, inp, out):
        return checks.check_certify_report(
            self.read_output(out), inp.n, inp.edges, weights=inp.weights, shots=100_000
        )


class CompileLarge(Workload):
    """build_two_point_graph then independence_number(G', limit=n').

    The graphs are fixed (odd cycles, and random graphs drawn once per
    slot from a fixed stream); the seed relabels their vertices.  Fresh
    graphs per seed would make the branch-and-bound work, and so the
    run's time, differ by seed.
    """

    name = "compile_large"
    # (n, |E|) per slot; |E| = n marks the odd cycle C_n.
    SHAPES = ((21, 21), (24, 48), (31, 31), (30, 75), (41, 41), (40, 120), (36, 96), (28, 60))
    TINY_SHAPES = ((21, 21), (24, 48))

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.shapes = self.TINY_SHAPES if self.tiny else self.SHAPES
        self.slots = len(self.shapes)

    def make_input(self, slot):
        n, m = self.shapes[slot]
        if m == n:
            base = cycle_edges(n)
            alpha = (n - 1) // 2
        else:
            base = random_graph(random.Random(f"{self.name}/pool/{slot}"), n, m)
            alpha = checks.exact_alpha(n, base)
        edges = relabel(self.rng(slot), n, base)
        inp = Input(f"n{n}-m{m}", n, edges, alpha_exact=alpha)
        inp.graph = self.api.build_graph(n, edges)
        return inp

    def run(self, inp):
        eg = self.api.build_two_point_graph(inp.graph)
        return eg, self.api.independence_number(eg.as_graph(), limit=eg.n)

    def check(self, inp, out):
        eg, res = out
        problems = []
        m = len(inp.edges)
        if eg.n != inp.n + 3 * m:
            problems.append(f"G' has {eg.n} vertices, expected {inp.n + 3 * m}")
        if res.alpha != inp.alpha_exact + m:
            problems.append(f"α(G') = {res.alpha}, expected α(G) + |E| = {inp.alpha_exact + m}")
        if len(res.witness) != res.alpha or not checks.is_independent(eg.edges, res.witness):
            problems.append("α(G') witness is not an independent set of size α(G')")
        return problems


class SimulateNoisy(CliWorkload):
    """`twopoint simulate --shots 1000000` on sparse random graphs.

    Slot k fixes the size and, from k mod 4, the scheme and whether noise
    is on, so each cycle runs every scheme with and without noise.  The
    seed sets the simulation seed and the file format of every slot.

    The graphs are fixed: slot k's graph is draw ``POOL_DRAWS[k]`` of the
    stream ``simulate_noisy/pool/<k>/<draw>``, the first draw on which the
    package succeeds under 20 relabellings and 30 simulation seeds.  The
    package fails on about 3% of such graphs (see ``SimulateRandom``); the
    skipped draws 0 of slots 1 and 7 are two of them.
    """

    name = "simulate_noisy"
    command = "simulate"
    SHOTS = 1_000_000
    SHAPES = ((24, 48), (28, 66), (32, 84), (36, 102), (40, 120), (26, 57), (34, 93), (38, 111))
    TINY_SHAPES = ((8, 12), (10, 16))
    POOL_DRAWS = (0, 1, 0, 0, 0, 0, 0, 1)

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self.shapes = self.TINY_SHAPES if self.tiny else self.SHAPES
        self.slots = len(self.shapes)

    def graph(self, rng, slot):
        n, m = self.shapes[slot]
        return random_graph(random.Random(f"{self.name}/pool/{slot}/{self.POOL_DRAWS[slot]}"), n, m)

    def make_input(self, slot):
        rng = self.rng(slot)
        n, m = self.shapes[slot]
        combo = slot % 4
        args = ["--shots", str(self.SHOTS), "--scheme", SCHEMES[combo % 2],
                "--seed", str(rng.randrange(2**31))]
        if combo >= 2:
            args += NOISE_ARGS
        return Input(f"n{n}-m{m}", n, self.graph(rng, slot), args=args,
                     fmt=rng.choice(("json", "dimacs")))

    def check(self, inp, out):
        rec = self.read_output(out)
        problems = checks.check_record(rec, inp.n, inp.edges, self.SHOTS)
        scheme = inp.args[inp.args.index("--scheme") + 1]
        if rec["scheme"] != scheme:
            problems.append(f"record scheme {rec['scheme']}, asked for {scheme}")
        return problems


class SimulateRandom(SimulateNoisy):
    """`simulate_noisy` on fresh random graphs drawn from the seed.

    Not in BENCHMARK.json: on about 3% of these graphs the package fails
    (ϑ stops at max_iterations, the extracted representation fails
    verification, or the demolition scheme builds a density matrix that is
    not positive semidefinite).  Run it by name to reproduce those
    failures; they count as failed operations.
    """

    name = "simulate_random"

    def graph(self, rng, slot):
        return random_graph(rng, *self.shapes[slot])


WORKLOADS = {w.name: w for w in (CertifyLadder, SweepSmall, CompileLarge, SimulateNoisy,
                                 SimulateRandom)}
