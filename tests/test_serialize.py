import dataclasses
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
    catalog,
    cycle_graph,
    emit_graph,
    extract_ortho_rep,
    parse_graph,
    run_experiment,
    theta,
)
from twopoint import cli
from twopoint import serialize
from twopoint.simulate import OUTCOMES, NoiseModel, binomial_estimates
from twopoint.serialize import (
    dumps_canonical,
    dumps_record,
    event_graph_to_jsonable,
    format_float,
    orthorep_from_jsonable,
    orthorep_to_jsonable,
    record_to_jsonable,
)
from oracles import (
    builtin_kcbs_rep,
    event_graph_from_jsonable,
    isolated_and_leaf_case,
    kcbs_graph,
    record_tree,
    recursive_canonical_json,
)


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
    written = []
    for argv in runs:
        before = len(trees)
        assert cli.main(argv + ["--format", "json", "--output", str(tmp_path / "out")]) == 0
        written.append(len(trees) - before)
    # certify encodes its report section by section, and both certify and
    # simulate write the record through dumps_record's templates, encoding its
    # graph, noise and scalar fields one by one; every other run is one tree.
    assert written[0] >= 1 and written[1] >= 1
    assert written[2:] == [1] * (len(runs) - 2)

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
            ("p edge 3 1\nn 2 2\nn 2 5\ne 1 2\n", "^line 3: second weight line for vertex 2$"),
            ("p edge 3 1\nn 2 2\nn 2 2\n", "^line 3: second weight line for vertex 2$"),
            ("p edge 3 1\ne 1 2 7\n", "^line 2: malformed edge line 'e 1 2 7'$"),
            ("p edge 3 0\nn 2 5 1\n", "^line 2: malformed weight line 'n 2 5 1'$"),
            ("p edge 3 1\ne 1\n", "^line 2: malformed edge line 'e 1'$"),
        ],
        ids=["repeated-weight", "repeated-equal-weight", "edge-extra-number",
             "weight-extra-number", "edge-one-number"],
    )
    def test_dimacs_line_misread_refused(self, text, message):
        # The parser kept the last of two weights, and read e/n lines by their first two numbers.
        with pytest.raises(ParseError, match=message):
            parse_graph(text, "dimacs")

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

    @pytest.mark.parametrize("text", ['{"n": 5, "edge": [[0, 1], [1, 2]]}', '{"n": 5}'])
    def test_json_missing_edges_refused(self, text):
        # A missing key read as no edges: the graph was edgeless and certify passed it trivially.
        with pytest.raises(ParseError, match="^graph JSON has no 'edges' list$"):
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

    def test_transform_output_reads_back(self, tmp_path, capsys):
        path = tmp_path / "c5.json"
        path.write_text(emit_graph(cycle_graph(5)))
        assert cli.main(["transform", str(path), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert event_graph_from_jsonable(data) == build_two_point_graph(cycle_graph(5))

    @pytest.mark.parametrize(
        "field,value",
        [("obs", [0.9]), ("out", [True]), ("obs", ["1"])],
        ids=["float-obs", "bool-out", "string-obs"],
    )
    def test_label_numbers_must_be_integers(self, k2, field, value):
        data = event_graph_to_jsonable(build_two_point_graph(k2))
        data["labels"][0][field] = value
        with pytest.raises(ParseError, match="must be an integer"):
            event_graph_from_jsonable(data)

    @pytest.mark.parametrize(
        "index,label",
        [
            (2, {"kind": "pair", "obs": [1, 0], "out": [0, 0]}),
            (3, {"kind": "pair", "obs": [0, 1], "out": [0, 3]}),
            (0, {"kind": "single", "obs": [0], "out": [2]}),
            (4, {"kind": "pair", "obs": [0, 1], "out": [1, 1]}),
            (0, {"kind": "triple", "obs": [0], "out": [1]}),
        ],
        ids=["unsorted-obs", "non-bit-out", "non-bit-single", "one-one-pair", "unknown-kind"],
    )
    def test_bad_label_refused(self, k2, index, label):
        data = event_graph_to_jsonable(build_two_point_graph(k2))
        data["labels"][index] = label
        with pytest.raises(ParseError):
            event_graph_from_jsonable(data)

    @pytest.mark.parametrize("n", [4, 6, 5.0, None], ids=["low", "high", "float", "missing"])
    def test_n_must_be_the_compiled_count(self, k2, n):
        data = event_graph_to_jsonable(build_two_point_graph(k2))
        data["n"] = n
        if n is None:
            del data["n"]
        with pytest.raises(ParseError):
            event_graph_from_jsonable(data)

    @pytest.mark.parametrize("short", [True, False], ids=["short", "long"])
    def test_label_list_of_wrong_length_refused(self, k2, short):
        data = event_graph_to_jsonable(build_two_point_graph(k2))
        labels = data["labels"]
        data["labels"] = labels[:-1] if short else labels + labels[-1:]
        with pytest.raises(ParseError, match="labels differ"):
            event_graph_from_jsonable(data)

    def test_edge_between_non_exclusive_singles_refused(self):
        # On the path 0-1-2 the single events of 0 and 2 are not exclusive.
        data = event_graph_to_jsonable(build_two_point_graph(build_graph(3, [(0, 1), (1, 2)])))
        assert [0, 2] not in data["edges"]
        data["edges"] = sorted(data["edges"] + [[0, 2]])
        with pytest.raises(ParseError, match="exclusive label pairs"):
            event_graph_from_jsonable(data)

    def test_missing_edge_refused(self, k2):
        data = event_graph_to_jsonable(build_two_point_graph(k2))
        del data["edges"][0]
        with pytest.raises(ParseError, match="exclusive label pairs"):
            event_graph_from_jsonable(data)


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

    VALID = {"d": 2, "psi": [1, 0], "vectors": [[1, 0], [0, 1]]}

    @pytest.mark.parametrize(
        "change,error",
        [
            ({"d": 2.9}, "'d' must be an integer, got 2.9"),
            ({"d": True}, "'d' must be an integer, got True"),
            ({"d": "2"}, "'d' must be an integer"),
            ({"d": 0, "psi": [], "vectors": []}, "'d' must be positive"),
            ({"psi": ["1", 0]}, "'psi' must be a finite number, got '1'"),
            ({"psi": [1, False]}, "'psi' must be a finite number, got False"),
            ({"psi": [1, float("nan")]}, "'psi' must be a finite number, got nan"),
            ({"vectors": [[1, 0], [0, True]]}, "vector 1 must be a finite number"),
            ({"psi": [[1, 0], [0]]}, r"'psi' entry \[0\] is not an \[re, im\] pair"),
            ({"psi": [[1, 0], 1]}, r"'psi' entry 1 is not an \[re, im\] pair"),
            ({"psi": [[1, 0], ["0", 1]]}, "'psi' must be a finite number, got '0'"),
            ({"d": 5}, "'psi' must be a list of d = 5 entries"),
            ({"vectors": [[1, 0], [1, 0, 0]]}, "vector 1 must be a list of d = 2 entries"),
            ({"psi": 1}, "'psi' must be a list"),
            ({"vectors": {"0": [1, 0]}}, "'vectors' must be a list"),
        ],
    )
    def test_malformed_field_named(self, change, error):
        with pytest.raises(ParseError, match=error):
            orthorep_from_jsonable({**self.VALID, **change})

    def test_missing_field_named(self):
        for field in self.VALID:
            data = {k: v for k, v in self.VALID.items() if k != field}
            with pytest.raises(ParseError, match=f"'{field}'"):
                orthorep_from_jsonable(data)

    def test_non_object_refused(self):
        with pytest.raises(ParseError, match="must be an object"):
            orthorep_from_jsonable([2, [1, 0], [[1, 0]]])


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


def _writer_cases():
    """(label, record) pairs: both schemes with noise off and on, the shot
    counts at the edges of the estimators' exact paths, the exact KCBS
    realisation, vertices with no or one neighbour, no edges at all, and
    complex vectors."""
    noisy = NoiseModel(depolarizing_p=0.05, vector_misalignment_angle=0.02, outcome_flip_p=0.01)
    kcbs, kcbs_rep = kcbs_graph(), builtin_kcbs_rep()
    leafy, leafy_rep = isolated_and_leaf_case()
    rng = np.random.default_rng(12)
    g12 = build_graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.4])
    vecs = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
    rep12 = OrthoRep(
        dimension=5,
        psi=vecs[0] / np.linalg.norm(vecs[0]),
        vectors=vecs / np.linalg.norm(vecs, axis=1, keepdims=True),
    )
    edgeless = build_graph(3, [])
    cases = []
    for scheme in ("projective", "demolition"):
        for noise in (None, noisy):
            for shots in (1, 10**6, 2**53 + 1, 2**63 - 1):
                label = f"kcbs-{scheme}-{'noisy' if noise else 'exact'}-{shots}"
                cases.append((label, run_experiment(kcbs_rep, kcbs, shots, 5, noise, scheme)))
        cases.append((f"leafy-{scheme}", run_experiment(leafy_rep, leafy, 5_000, 2, noisy, scheme)))
        cases.append((f"random-12-{scheme}", run_experiment(rep12, g12, 10**6, 3, noisy, scheme)))
    cases.append(("edgeless", run_experiment(OrthoRep(3, np.eye(3)[0], np.eye(3)), edgeless, 100, 1)))
    return cases


WRITER_CASES = _writer_cases()


class TestRecordWriter:
    """dumps_record writes the canonical bytes of the oracle's record tree from
    the count arrays, and the two outcome rows of every ε comparison share
    their numbers."""

    @pytest.mark.parametrize("record", [r for _, r in WRITER_CASES], ids=[k for k, _ in WRITER_CASES])
    def test_bytes_equal_tree(self, record):
        assert dumps_record(record) == dumps_canonical(record_tree(record))
        assert record_to_jsonable(record) == record_tree(record)

    def test_cases_reach_the_floor_and_the_empty_tables(self):
        cases = dict(WRITER_CASES)
        exact = cases["kcbs-projective-exact-1000000"]
        assert all(row[OUTCOMES.index((1, 1))] == 0 for row in exact.pair_counts)
        edgeless = json.loads(dumps_record(cases["edgeless"]))
        assert (edgeless["pairs"], edgeless["epsilon"], edgeless["epsilon_prime"]) == ({}, [], [])

    @pytest.mark.parametrize("record", [r for _, r in WRITER_CASES], ids=[k for k, _ in WRITER_CASES])
    def test_outcome_rows_are_equal(self, record):
        data = record_to_jsonable(record)
        for table in ("epsilon", "epsilon_prime"):
            rows = data[table]
            assert [r["outcome"] for r in rows] == [0, 1] * (len(rows) // 2)
            for zero, one in zip(rows[::2], rows[1::2]):
                assert {**zero, "outcome": 1} == one

    def test_fields_go_through_the_encoder(self):
        record = dict(WRITER_CASES)["leafy-projective"]
        odd = dataclasses.replace(record, scheme='quote " slash \\ \u00e9 \u2028', seed=np.int64(2**40))
        assert dumps_record(odd) == dumps_canonical(record_tree(odd))
        assert '"scheme":"quote \\" slash \\\\ \\u00e9 \\u2028"' in dumps_record(odd)

    def test_non_finite_values_refused(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="not JSON compliant"):
                serialize._json_texts(np.array([0.5, bad]))
            with pytest.raises(ValueError):
                dumps_canonical([0.5, bad])

    def test_templates_are_the_encoders_rows(self):
        """Each row template, filled slot by slot with distinct markers, is the
        encoder's text of the same row built as a dict; the ε pair is the
        two-row list without its brackets."""
        marks = iter(range(100, 200))
        single = {key: next(marks) for key in ("n0", "n1", "p1", "stderr")}
        pair = {table: {f"{a}{b}": next(marks) for a, b in OUTCOMES}
                for table in ("counts", "p", "stderr")}
        epsilon = {key: next(marks) for key in ("difference", "fixed", "stderr", "varied_a", "varied_b")}
        pair_slots = [value for outcomes in pair.values() for value in outcomes.values()]
        assert serialize._SINGLE_ROW % tuple(single.values()) == dumps_canonical(single)
        assert serialize._PAIR_ROW % tuple(pair_slots) == dumps_canonical(pair)
        rows = [{**epsilon, "outcome": outcome} for outcome in (0, 1)]
        assert "[" + serialize._EPSILON_PAIR % (*epsilon.values(), *epsilon.values()) + "]" == dumps_canonical(rows)

    def test_cli_simulate_writes_the_tree(self, tmp_path, capsys):
        path = tmp_path / "petersen.json"
        path.write_text(emit_graph(catalog("petersen")))
        argv = ["simulate", str(path), "--shots", "20000", "--seed", "6", "--scheme", "demolition",
                "--noise-flip", "0.01", "--format", "json"]
        assert cli.main(argv) == 0
        g = catalog("petersen")
        rep = extract_ortho_rep(g, theta(g))
        record = run_experiment(rep, g, 20_000, 6, NoiseModel(outcome_flip_p=0.01), "demolition")
        assert capsys.readouterr().out == dumps_canonical(record_tree(record)) + "\n"


class TestBinomialSymmetry:
    @pytest.mark.parametrize("shots", [1, 7, 10**6, 2**53 - 1, 2**53 + 1, 2**63 - 1])
    def test_complementary_counts_share_the_stderr(self, shots):
        rng = np.random.default_rng(shots % 1000)
        counts = sorted({0, 1, shots // 2, shots - 1, shots, *(int(x) for x in rng.integers(0, shots, 50, endpoint=True))})
        p, se = binomial_estimates(counts, shots)
        p_c, se_c = binomial_estimates([shots - c for c in counts], shots)
        assert se.tobytes() == se_c.tobytes()
        assert p.tolist() == [c / shots for c in counts]
