"""Regression guards: the exact kernel near a zero-probability branch, the
cached edge set, parser robustness, and byte determinism across processes."""

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
    Graph,
    OrthoRep,
    ParseError,
    cycle_graph,
    joint_probs_demolition,
    joint_probs_projective,
    parse_graph,
    pure_state,
)
from twopoint.cli import main


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
    def test_built_once(self):
        g = cycle_graph(5)
        assert g.edge_set is g.edge_set
        assert g.edge_set == frozenset(g.edges)

    def test_equality_and_hash_unchanged(self):
        g = cycle_graph(7)
        _ = g.edge_set
        assert g == cycle_graph(7) and hash(g) == hash(cycle_graph(7))


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


def _certify_bytes(graph: str, threads: str, hash_seed: str) -> bytes:
    src = str(Path(twopoint.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "twopoint.cli", "certify", graph,
         "--format", "json", "--shots", "2000", "--alpha-limit", "80"],
        env=env, capture_output=True, check=True,
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
