"""Regression guards: the exact kernel near a zero-probability branch, the
cached edge set, G' handed from the compiler to its readers as index arrays,
parser robustness, byte determinism across processes, SciPy left
unloaded by everything that runs no SDP, and a public API that resolves."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twopoint
from twopoint import (
    CertifyOptions,
    Graph,
    OrthoRep,
    ParseError,
    build_two_point_graph,
    certify,
    cycle_graph,
    independence_number,
    joint_probs_demolition,
    joint_probs_projective,
    parse_graph,
    pure_state,
)
from twopoint.certify import _montecarlo_section
from twopoint.cli import main
from twopoint.serialize import dumps_record
from oracles import builtin_kcbs_rep, kcbs_graph

certify_mod = importlib.import_module("twopoint.certify")


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        missing = [name for name in twopoint.__all__ if not hasattr(twopoint, name)]
        assert not missing
        assert len(set(twopoint.__all__)) == len(twopoint.__all__)

    def test_star_import_runs(self):
        namespace: dict = {}
        exec("from twopoint import *", namespace)
        assert set(twopoint.__all__) <= set(namespace)

    @pytest.mark.parametrize("name", ["joint_probs_table", "evaluate_s", "evaluate_s_prime"])
    def test_dict_witness_path_is_gone(self, name):
        # The dict-shaped references live in tests/oracles.py; the package
        # computes S and S' with simulate.exact_witnesses.
        assert name not in twopoint.__all__
        assert not hasattr(twopoint, name)
        assert not hasattr(importlib.import_module("twopoint.simulate"), name)


class TestTinyFirstOutcome:
    """P(first = 0) = 6e-10: dividing by it leaves roundoff that a density
    matrix check rejects, yet the joint probability itself is well defined."""

    EPS = 6e-10

    @pytest.mark.parametrize("kernel", [joint_probs_projective, joint_probs_demolition])
    def test_joint_probability_of_tiny_branch(self, kernel):
        for seed in range(20):
            q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
            psi = q @ np.array([np.sqrt(1 - self.EPS), np.sqrt(self.EPS), 0.0, 0.0])
            vectors = np.array([q[:, 0], q @ np.array([0.0, 0.6, 0.8, 0.0])])
            rep = OrthoRep(dimension=4, psi=psi, vectors=vectors)
            probs = kernel(pure_state(psi), (0, 1), rep)
            assert probs[(0, 1)] == pytest.approx(0.36 * self.EPS, rel=0, abs=1e-15)


class TestEdgeSetCache:
    def test_equality_and_hash_unchanged(self):
        g = cycle_graph(7)
        _ = g.adjacency
        assert g == cycle_graph(7) and hash(g) == hash(cycle_graph(7))


class TestCountArrayCache:
    @staticmethod
    def _record():
        return twopoint.run_experiment(builtin_kcbs_rep(), kcbs_graph(), shots=500, seed=1)

    def test_built_once_read_only_and_equal_to_the_counts(self):
        record = self._record()
        counts = record.count_array
        assert record.count_array is counts
        assert counts.dtype == np.int64 and counts.shape == (10, 4)
        assert counts.tolist() == [list(row) for row in record.pair_counts]
        with pytest.raises(ValueError, match="read-only"):
            counts[0, 0] = 1

    def test_equality_and_hash_unchanged(self):
        record = self._record()
        _ = record.count_array
        assert record == self._record() and hash(record) == hash(self._record())


class TestSignalingColumnsCache:
    @staticmethod
    def _record():
        return twopoint.run_experiment(builtin_kcbs_rep(), kcbs_graph(), shots=500, seed=1)

    @staticmethod
    def _count_builds(monkeypatch) -> list[int]:
        positions: list[int] = []
        build = twopoint.simulate._signaling

        def counted(record, position):
            positions.append(position)
            return build(record, position)

        monkeypatch.setattr(twopoint.simulate, "_signaling", counted)
        return positions

    def test_built_once_read_only_and_equal_to_a_fresh_build(self, monkeypatch):
        positions = self._count_builds(monkeypatch)
        record = self._record()
        columns = record.signaling_columns
        assert record.signaling_columns is columns
        dumps_record(record)
        twopoint.epsilon_signaling(record)
        twopoint.epsilon_prime(record)
        _montecarlo_section(record)
        assert sorted(positions) == [0, 1]
        for position in (0, 1):
            fresh = twopoint.simulate._signaling(record, position)
            assert len(columns[position]) == len(fresh) == 5
            for column, expected in zip(columns[position], fresh):
                assert column.tolist() == expected.tolist() and column.dtype == expected.dtype
                assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                columns[position][3][0] = 1.0

    @pytest.mark.parametrize("command", [
        ["simulate", "c5", "--shots", "1000", "--format", "text"],
        ["simulate", "c5", "--shots", "1000", "--format", "json"],
        ["certify", "c5", "--shots", "1000", "--format", "json"],
        ["certify", "c5", "--shots", "1000", "--format", "text"],
    ])
    def test_one_build_per_position_per_command(self, monkeypatch, capsys, command):
        positions = self._count_builds(monkeypatch)
        assert main(command) == 0
        capsys.readouterr()
        assert sorted(positions) == [0, 1]

    def test_equality_and_hash_unchanged(self):
        record = self._record()
        _ = record.signaling_columns
        assert record == self._record() and hash(record) == hash(self._record())


class TestAdjacencyCache:
    @staticmethod
    def _random_graphs():
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 12, 30):
            for p in (0.0, 0.2, 0.6, 1.0):
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
                yield twopoint.build_graph(n, pairs)

    def test_neighbors_and_degree_match_the_edge_scan(self):
        for g in self._random_graphs():
            for v in range(g.n):
                scan = [j for (i, j) in g.edges if i == v] + [i for (i, j) in g.edges if j == v]
                assert g.neighbors(v) == tuple(sorted(scan))
            assert g.adjacency is g.adjacency

    def test_edge_index_is_read_only_and_matches_the_edges(self):
        for g in self._random_graphs():
            ei, ej = g.edge_index
            assert g.edge_index[0] is ei
            assert list(zip(ei.tolist(), ej.tolist())) == list(g.edges)
            assert ei.dtype == ej.dtype == np.dtype(int)
            for arr in (ei, ej):
                with pytest.raises(ValueError, match="read-only"):
                    arr[:1] = 0

    def test_equality_and_hash_unchanged(self):
        g = cycle_graph(7)
        _ = g.adjacency, g.edge_index
        assert g == cycle_graph(7) and hash(g) == hash(cycle_graph(7))


def _tuples_built(g: Graph) -> bool:
    # `edges` is a cached property: its value lands in the instance dict when built.
    return "edges" in vars(g)


class TestEventGraphHandOff:
    """G' goes from the compiler to the alpha search and to certify's checks as
    the compiler's endpoint arrays; its edge tuple is built only when read."""

    def test_as_graph_is_one_instance(self):
        eg = build_two_point_graph(cycle_graph(7))
        assert eg.as_graph() is eg.as_graph()
        assert eg.edges is eg.edges and eg.edges is eg.as_graph().edges

    def test_edge_index_holds_the_compilers_arrays(self, monkeypatch):
        made = []
        real = Graph.from_edge_index.__func__

        def recording(cls, n, ei, ej):
            made.append((ei, ej))
            return real(cls, n, ei, ej)

        monkeypatch.setattr(Graph, "from_edge_index", classmethod(recording))
        eg = build_two_point_graph(cycle_graph(7))
        [(ei, ej)] = made
        got = eg.as_graph().edge_index
        assert got[0] is ei and got[1] is ej
        assert not ei.flags.writeable and not ej.flags.writeable

    def test_alpha_search_leaves_the_tuples_unbuilt(self):
        eg = build_two_point_graph(cycle_graph(21))
        res = independence_number(eg.as_graph(), limit=eg.n)
        assert res.alpha == 10 + 21
        assert not _tuples_built(eg.as_graph())

    def test_certify_leaves_the_tuples_unbuilt(self, monkeypatch):
        compiled = []

        def recording(g):
            compiled.append(build_two_point_graph(g))
            return compiled[-1]

        monkeypatch.setattr(certify_mod, "build_two_point_graph", recording)
        report = certify(cycle_graph(5), CertifyOptions(skip_montecarlo=True))
        assert report.all_passed
        [eg] = compiled
        assert not _tuples_built(eg.as_graph())
        assert report.data["event_graph"]["edge_count"] == len(eg.edges) == 75


class TestMalformedGraphJson:
    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "edges": [1, 2]}',
            '{"n": 3, "edges": 5}',
            '{"n": 3, "edges": [[0, 1]], "weights": [2, 1, 1]}',
            '{"n": 3, "edges": [[0, "a"]]}',
            '{"n": 3, "edges": null}',
            '{"n": 3, "edges": [{"a": 0, "b": 1}]}',
        ],
    )
    def test_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_graph(text)

    def test_cli_reports_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "edges": 5}', encoding="utf-8")
        assert main(["alpha", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


# Every integer stays small: a huge n with a weight line would allocate an
# n-long weight list, which is a memory-budget question, not a parse one.
_small_int = st.integers(-100, 100)
_scalar = (
    st.none()
    | st.booleans()
    | _small_int
    | st.floats(-100, 100)
    | st.text(alphabet="abn -", max_size=4)
    | _small_int.map(str)
)
_key = st.text(alphabet="abn", max_size=3) | _small_int.map(str)
_json_value = st.recursive(
    _scalar,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_key, children, max_size=4),
    max_leaves=12,
)
_graph_like = st.fixed_dictionaries(
    {}, optional={"n": _json_value, "edges": _json_value, "weights": _json_value}
)
_dimacs_line = st.builds(
    lambda head, rest: " ".join([head] + rest),
    st.sampled_from(["p", "p edge", "p col", "e", "n", "c", "x", ""]),
    st.lists(_small_int.map(str) | st.sampled_from(["edge", "col", "a"]), max_size=4),
)


def _parses_or_refuses(text: str, fmt: str) -> None:
    try:
        g = parse_graph(text, fmt)
    except ParseError:
        return
    assert isinstance(g, Graph)


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_graph_like, _json_value))
    def test_json_value(self, value):
        text = json.dumps(value)
        _parses_or_refuses(text, "json")
        _parses_or_refuses(text, "auto")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_dimacs_line, max_size=8))
    def test_dimacs_lines(self, lines):
        _parses_or_refuses("\n".join(lines), "dimacs")


def _fresh_env(**variables: str) -> dict[str, str]:
    """The environment of a fresh process that imports this checkout's twopoint."""
    src = str(Path(twopoint.__file__).resolve().parent.parent)
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _certify_bytes(graph: str, threads: str, hash_seed: str) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "twopoint.cli", "certify", graph,
         "--format", "json", "--shots", "2000", "--alpha-limit", "80"],
        env=_fresh_env(OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed),
        capture_output=True, check=True,
    )
    return proc.stdout


def test_certify_bytes_identical_across_hash_seeds():
    """The determinism promise: same machine, same numpy/BLAS build and the
    same BLAS thread count give identical bytes, whatever the hash seed."""
    outputs = [_certify_bytes("petersen", "1", hash_seed) for hash_seed in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["complete"] is True


@pytest.mark.parametrize("graph", ["petersen", "k6"])
def test_certify_bytes_identical_across_blas_threads(graph):
    """Measured beyond the promise: with theta(G') certified from G's
    certificates, one and two BLAS threads give identical bytes here."""
    outputs = [_certify_bytes(graph, threads, "0") for threads in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["complete"] is True


_NO_SDP_PATHS = """
import contextlib, json, math, sys
from pathlib import Path

from twopoint import build_two_point_graph, cycle_graph, independence_number, theta
from twopoint.cli import main

tmp = Path(sys.argv[1])
assert independence_number(build_two_point_graph(cycle_graph(5)).as_graph()).alpha == 7
with open(tmp / "catalog.txt", "w") as out, contextlib.redirect_stdout(out):
    assert main(["catalog"]) == 0
assert main(["transform", "c5", "--format", "json", "--output", str(tmp / "gp.json")]) == 0
assert main(["alpha", "c5", "--output", str(tmp / "alpha.txt")]) == 0
assert main(["alpha", str(tmp / "gp.json"), "--format", "json", "--output", str(tmp / "a.json")]) == 0
assert json.loads((tmp / "a.json").read_text())["alpha"] == 7
assert "scipy" not in sys.modules
assert abs(theta(cycle_graph(5)).primal_value - math.sqrt(5)) <= 1e-7
assert "scipy" in sys.modules
assert main(["certify", "c5", "--format", "json", "--output", str(tmp / "certify.json")]) == 0
assert main(["simulate", "c5", "--shots", "1000", "--format", "json",
             "--output", str(tmp / "simulate.json")]) == 0
assert json.loads((tmp / "certify.json").read_text())["complete"] is True
unloaded = ("scipy.linalg", "scipy.linalg._flapack", "numpy.f2py", "numpy.testing")
assert not [name for name in unloaded if name in sys.modules], sorted(sys.modules)
"""


def test_scipy_loads_on_the_first_sdp_only(tmp_path):
    """Compiling G', alpha and the catalog, transform and alpha commands
    leave SciPy unimported; the first theta loads its LAPACK extension, and
    neither it nor the certify and simulate commands import scipy.linalg."""
    proc = subprocess.run([sys.executable, "-c", _NO_SDP_PATHS, str(tmp_path)],
                          env=_fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_IMPORT_ORDER = """
import sys

from twopoint import cycle_graph, theta

if sys.argv[1] == "before":
    import scipy.linalg
X = theta(cycle_graph(7)).X
import scipy.linalg

assert scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
assert scipy.linalg.lapack.dpotrf is sys.modules["twopoint.theta"]._lapack().dpotrf
sys.stdout.write(X.tobytes().hex())
"""


def test_scipy_linalg_imports_normally_either_side_of_the_first_sdp():
    """Loading the extension on its own leaves a later `import scipy.linalg`
    whole: its `_flapack` attribute is set, its `lapack` wrappers are the
    ones the SDP calls, and theta's X is the same bits whichever came first."""
    outputs = []
    for order in ("after", "before"):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_ORDER, order], env=_fresh_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_lapack_kernel_tests_pass_alone():
    """Each helper binds the LAPACK wrappers itself, so the kernel tests pass
    in a process where theta has never run."""
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_theta.py"), "-k", "TestLapackKernels"],
        cwd=tests.parent, env=_fresh_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
