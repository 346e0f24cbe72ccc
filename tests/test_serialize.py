import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopoint import (
    OrthoRep,
    ParseError,
    build_graph,
    build_two_point_graph,
    cycle_graph,
    emit_graph,
    parse_graph,
    run_experiment,
)
from twopoint import cli
from twopoint import serialize
from twopoint.simulate import OUTCOMES
from twopoint.serialize import (
    dumps_canonical,
    event_graph_from_jsonable,
    event_graph_to_jsonable,
    format_float,
    orthorep_from_jsonable,
    orthorep_to_jsonable,
    record_to_jsonable,
)
from oracles import builtin_kcbs_rep, kcbs_graph, recursive_canonical_json


class TestFloatFormat:
    def test_integral_floats_keep_a_decimal_point(self):
        assert format_float(2.0) == "2.0"
        assert format_float(-1.0) == "-1.0"

    def test_shortest_digits_round_trip(self):
        for x in (math.sqrt(5), 1 / 3, 2.2360679774997896, 1e-17, -math.pi, 0.1):
            assert float(format_float(x)) == x
            assert format_float(x) == repr(x)
        assert format_float(0.1) == "0.1"

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                format_float(bad)


class TestCanonicalJson:
    def test_keys_sorted(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_deterministic(self):
        obj = {"x": [1.5, 2, True, None], "y": {"nested": math.sqrt(2)}}
        assert dumps_canonical(obj) == dumps_canonical(obj)

    def test_output_is_valid_json(self):
        obj = {"values": [0.1, 1.0, 7], "name": "c5", "flag": False}
        assert json.loads(dumps_canonical(obj)) == obj

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_canonical(object())

    def test_numpy_scalars_as_python_numbers(self):
        assert dumps_canonical([np.int64(7), np.float64(0.1), np.float32(0.5)]) == "[7,0.1,0.5]"
        assert dumps_canonical({"x": np.float32(0.1)}) == '{"x":%r}' % float(np.float32(0.1))
        for bad in (np.arange(3), np.zeros(()), object()):
            with pytest.raises(TypeError):
                dumps_canonical({"x": [bad]})

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf)):
            with pytest.raises(ValueError):
                dumps_canonical([bad])


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=25,
)


def _ordered(text: str):
    """Parsed JSON with every object as its list of (key, value) pairs."""
    return json.loads(text, object_pairs_hook=list)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_writer_matches_recursive_oracle(tree):
    # Floats compare by ==, so a value must read back as the same double;
    # objects compare as pair lists, so the key order must agree too.
    assert _ordered(dumps_canonical(tree)) == _ordered(recursive_canonical_json(tree))


def test_every_emitted_tree_has_string_keys(tmp_path, monkeypatch):
    # The encoder sorts int keys numerically where str(k) order would
    # differ, so every tree the package writes must use string keys only.
    trees = []

    class Recording:
        def encode(self, obj):
            trees.append(obj)
            return encoder.encode(obj)

    path = tmp_path / "c5.json"
    path.write_text(emit_graph(cycle_graph(5), "json"))
    encoder = serialize._CANONICAL
    monkeypatch.setattr(serialize, "_CANONICAL", Recording())
    runs = (
        ["certify", str(path), "--shots", "200", "--dump-sdp"],
        ["simulate", str(path), "--shots", "200", "--scheme", "demolition"],
        ["orthorep", str(path)],
        ["transform", str(path)],
        ["theta", str(path), "--dump-sdp"],
        ["alpha", str(path)],
        ["catalog"],
        ["catalog", "petersen"],
    )
    for argv in runs:
        assert cli.main(argv + ["--format", "json", "--output", str(tmp_path / "out")]) == 0
    assert len(trees) == len(runs)

    def keys(node):
        if isinstance(node, dict):
            yield from node
            nodes = node.values()
        elif isinstance(node, (list, tuple)):
            nodes = node
        else:
            return
        for child in nodes:
            yield from keys(child)

    assert all(isinstance(k, str) for tree in trees for k in keys(tree))


class TestGraphFormats:
    def test_json_round_trip(self, c5):
        assert parse_graph(emit_graph(c5, "json"), "json") == c5

    def test_json_round_trip_weighted(self):
        g = build_graph(3, [(0, 1), (1, 2)], weights={1: 4})
        assert parse_graph(emit_graph(g, "json"), "json") == g

    def test_dimacs_round_trip(self, c5):
        assert parse_graph(emit_graph(c5, "dimacs"), "dimacs") == c5

    def test_dimacs_round_trip_weighted(self):
        g = build_graph(3, [(0, 1), (1, 2)], weights={1: 4})
        assert parse_graph(emit_graph(g, "dimacs"), "dimacs") == g

    def test_dimacs_pentagon(self):
        text = "c pentagon\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
        assert parse_graph(text, "dimacs") == kcbs_graph()

    def test_auto_detection(self, c5):
        assert parse_graph(emit_graph(c5, "json")) == c5
        assert parse_graph(emit_graph(c5, "dimacs")) == c5

    def test_duplicate_edge_warns_and_dedupes(self):
        text = '{"n": 3, "edges": [[0, 1], [1, 0]]}'
        with pytest.warns(UserWarning, match="duplicate"):
            g = parse_graph(text, "json")
        assert g.edges == ((0, 1),)

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph('{"n": 3, "edges": [[1, 1]]}', "json")

    def test_dimacs_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("p edge 3 1\ne 1 9\n", "dimacs")
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("e 1 2\n", "dimacs")

    def test_dimacs_second_problem_line_refused(self):
        with pytest.raises(ParseError, match="^line 2: second problem line 'p edge 5 0'$"):
            parse_graph("p edge 3 0\np edge 5 0\ne 1 5\n", "dimacs")

    def test_dimacs_weight_before_problem_line_refused(self):
        with pytest.raises(ParseError, match="^line 2: weight line before problem line$"):
            parse_graph("c weights first\nn 1 2\np edge 3 1\ne 1 2\n", "dimacs")

    @pytest.mark.parametrize("vertex", [0, 4])
    def test_dimacs_weight_vertex_out_of_range(self, vertex):
        with pytest.raises(
            ParseError, match=f"^line 3: weight for vertex {vertex} out of range for n=3$"
        ):
            parse_graph(f"p edge 3 1\ne 1 2\nn {vertex} 5\n", "dimacs")

    @pytest.mark.parametrize("weight", [0, -4])
    def test_dimacs_weight_below_one_refused(self, weight):
        with pytest.raises(
            ParseError, match=f"^line 2: weight of vertex 1 must be >= 1, got {weight}$"
        ):
            parse_graph(f"p edge 3 0\nn 1 {weight}\n", "dimacs")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": 3.9, "edges": []}', "'n' must be an integer, got 3.9$"),
            ('{"n": 3, "edges": [[0, 1.7]]}', r"endpoint of edge \[0, 1.7\] must be an integer"),
            ('{"n": true, "edges": []}', "'n' must be an integer, got True$"),
            ('{"n": 3, "edges": [[0, "2"]]}', r"endpoint of edge \[0, '2'\] .* got '2'$"),
            (
                '{"n": 3, "edges": [], "weights": {"0": 2.5}}',
                "'weights' value of vertex 0 must be an integer, got 2.5$",
            ),
        ],
        ids=["float-n", "float-endpoint", "bool-n", "string-endpoint", "float-weight"],
    )
    def test_json_non_integer_refused(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_graph(text, "json")

    @pytest.mark.parametrize(
        "weights, key",
        [
            ({"1_0": 2, " 3 ": 4}, "1_0"),
            ({"0": 2, " 3 ": 4}, " 3 "),
            ({"+3": 2}, "+3"),
            ({"3": 2, "03": 5}, "03"),
            ({"\u0663": 2}, "\u0663"),
            ({"\u00b2": 2}, "\u00b2"),
            ({"": 2}, ""),
            ({"-1": 2}, "-1"),
            ({"3.0": 2}, "3.0"),
        ],
        ids=["underscore", "spaces", "plus", "leading-zero", "arabic-indic", "superscript",
             "empty", "minus", "decimal-point"],
    )
    def test_json_weight_key_not_canonical_refused(self, weights, key):
        # int() reads the first five as vertices 10, 3, 3, 3 and 3.
        text = json.dumps({"n": 12, "edges": [], "weights": weights})
        message = f"'weights' key {re.escape(repr(key))} is not a canonical vertex number$"
        with pytest.raises(ParseError, match=message):
            parse_graph(text, "json")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"n": 5, "n": 3, "edges": []}', "n"),
            ('{"n": 5, "edges": [], "weights": {"3": 2, "3": 5}}', "3"),
        ],
        ids=["n", "weight"],
    )
    def test_json_repeated_key_refused(self, text, key):
        # json.loads alone keeps the last value: n = 3, or weight 5 for vertex 3.
        with pytest.raises(ParseError, match=f"^repeated key '{key}' in JSON object$"):
            parse_graph(text, "json")

    def test_json_canonical_weight_keys_read(self):
        g = parse_graph('{"n": 12, "edges": [], "weights": {"0": 2, "3": 4, "10": 5}}', "json")
        assert g.weights == (2, 1, 1, 4, 1, 1, 1, 1, 1, 1, 5, 1)
        assert parse_graph(json.dumps(serialize.graph_to_jsonable(g)), "json") == g

    def test_invalid_json_reported(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_graph("{oops", "json")

    def test_unknown_format(self, c5):
        with pytest.raises(ValueError, match="format"):
            parse_graph("x", "yaml")


class TestEventGraphSerialization:
    def test_round_trip(self, k2):
        eg = build_two_point_graph(k2)
        data = event_graph_to_jsonable(eg)
        assert data["n"] == 5
        assert data["labels"][0] == {"kind": "single", "obs": [0], "out": [1]}
        assert data["labels"][3] == {"kind": "pair", "obs": [0, 1], "out": [0, 1]}
        assert event_graph_from_jsonable(json.loads(dumps_canonical(data))) == eg


class TestOrthoRepSerialization:
    def test_real_round_trip(self):
        rep = builtin_kcbs_rep()
        data = json.loads(dumps_canonical(orthorep_to_jsonable(rep)))
        back = orthorep_from_jsonable(data)
        assert back.dimension == 3
        assert np.allclose(back.psi, rep.psi)
        assert np.allclose(back.vectors, rep.vectors)

    def test_complex_entries_as_re_im_pairs(self):
        vec = np.array([1 / math.sqrt(2), 1j / math.sqrt(2)])
        rep = OrthoRep(dimension=2, psi=vec, vectors=np.array([vec, vec.conj()]))
        data = orthorep_to_jsonable(rep)
        assert data["psi"][1] == [0.0, pytest.approx(1 / math.sqrt(2))]
        back = orthorep_from_jsonable(json.loads(dumps_canonical(data)))
        assert np.allclose(back.vectors, rep.vectors)


class TestRecordSerialization:
    def test_record_jsonable_is_consistent(self):
        record = run_experiment(builtin_kcbs_rep(), kcbs_graph(), shots=300, seed=21)
        data = json.loads(dumps_canonical(record_to_jsonable(record)))
        assert data["shots"] == 300
        assert data["seed"] == 21
        assert len(data["pairs"]) == 10
        for (first, second), row in zip(record.contexts, record.pair_counts):
            counts = data["pairs"][f"{first},{second}"]["counts"]
            assert [counts[f"{a}{b}"] for a, b in OUTCOMES] == list(row)
            assert sum(row) == 300
        for v, n1 in enumerate(record.single_counts):
            assert (data["singles"][str(v)]["n0"], data["singles"][str(v)]["n1"]) == (300 - n1, n1)
        assert len(data["epsilon"]) == 10
        assert len(data["epsilon_prime"]) == 10
        assert (data["s_estimate"], data["s_stderr"]) == record.s_estimate()
