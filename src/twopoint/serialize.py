"""Parsing and deterministic serialization of the file formats.

Graphs travel as JSON ``{"n": int, "edges": [[i,j],...], "weights": {...}?}``
or DIMACS edge lists, told apart by the text's first non-blank character;
event graphs, representations, and experiment records have JSON forms of
their own.  Output is canonical JSON: sorted keys, no whitespace and shortest
round-trip floats, so identical inputs produce byte-identical output.
`dumps_canonical` runs the standard library's C encoder over a tree of dicts
and lists, and every emitter uses it, except for the experiment record.  The
record has one writer, `dumps_record`, which writes its text straight from
its count arrays into three fixed row templates, each a row's canonical JSON
with a slot per value; `twopoint simulate --format json` and `certify`'s JSON
report both write the record with it.  The record's tree,
`record_to_jsonable`, is the parse of that text, and its ε and ε′ tables,
`epsilon_signaling` and `epsilon_prime`, are the parses of the two tables'
text.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import warnings
from typing import Any, Iterable, Optional

import numpy as np

from .graphs import EventGraph, Graph, build_graph
from .orthorep import OrthoRep
from .simulate import ExperimentRecord, binomial_estimates


class ParseError(ValueError):
    """Malformed input; carries a line number when one is known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _plain_number(obj: Any) -> Any:
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, default=_plain_number
)


def format_float(x: float) -> str:
    """Shortest decimal that reads back as the same double; NaN and inf raise ValueError."""
    return _CANONICAL.encode(float(x))


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON: sorted keys (which must be strings: int keys would sort
    numerically), no whitespace, floats as :func:`format_float` writes them, and
    numpy scalars as Python numbers.  Other types raise TypeError."""
    return _CANONICAL.encode(obj)


# -- graphs -------------------------------------------------------------

def graph_to_jsonable(g: Graph) -> dict:
    out: dict[str, Any] = {"n": g.n, "edges": [[i, j] for (i, j) in g.edges]}
    if g.weights is not None:
        out["weights"] = {str(v): w for v, w in enumerate(g.weights) if w != 1}
    return out


def _json_int(x: Any, field: str) -> int:
    """``x`` if it is a JSON integer; ``int()`` would read 3.9, true and "2" as one."""
    if type(x) is not int:
        raise TypeError(f"{field} must be an integer, got {x!r}")
    return x


def _json_vertex(key: str) -> int:
    """A weight key as `graph_to_jsonable` writes it; ``int()`` reads "1_0", " 3 " and "03"."""
    if key.isascii() and key.isdigit() and str(int(key)) == key:
        return int(key)
    raise ValueError(f"'weights' key {key!r} is not a canonical vertex number")


def graph_from_jsonable(data: Any) -> Graph:
    if not isinstance(data, dict):
        raise ParseError("graph JSON must be an object")
    if "edges" not in data:
        raise ParseError("graph JSON has no 'edges' list")
    raw_edges = data["edges"]
    raw_weights = data.get("weights")
    if not isinstance(raw_edges, list):
        raise ParseError("graph JSON 'edges' must be a list")
    for e in raw_edges:
        if not isinstance(e, list) or len(e) != 2:
            raise ParseError(f"edge {e!r} is not a pair")
    if raw_weights is not None and not isinstance(raw_weights, dict):
        raise ParseError("graph JSON 'weights' must be an object")
    try:
        n = _json_int(data["n"], "'n'")
        edges = [tuple(_json_int(x, f"endpoint of edge {e}") for x in e) for e in raw_edges]
        weights = None
        if raw_weights is not None:
            weights = {_json_vertex(v): _json_int(w, f"'weights' value of vertex {v}")
                       for v, w in raw_weights.items()}
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"bad graph JSON: {err}") from err
    return _parsed_graph(n, edges, weights)


def _parsed_graph(n: int, edges: list[tuple[int, int]], weights: Optional[dict]) -> Graph:
    """`build_graph` on parsed input: a repeated edge warns, an error is a ParseError."""
    seen = set()
    for (i, j) in edges:
        key = (min(i, j), max(i, j))
        if key in seen:
            warnings.warn(f"duplicate edge {key} in input; deduplicated")
        seen.add(key)
    try:
        return build_graph(n, edges, weights)
    except ValueError as err:
        raise ParseError(str(err)) from err


def graph_to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {len(g.edges)}"]
    if g.weights is not None:
        lines += [f"n {v + 1} {w}" for v, w in enumerate(g.weights) if w != 1]
    lines += [f"e {i + 1} {j + 1}" for (i, j) in g.edges]
    return "\n".join(lines) + "\n"


def graph_from_dimacs(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    weights: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"second problem line {line!r}", lineno)
            if len(parts) < 4 or parts[1] not in ("edge", "col"):
                raise ParseError(f"malformed problem line {line!r}", lineno)
            try:
                n = int(parts[2])
            except ValueError as err:
                raise ParseError(f"bad vertex count in {line!r}", lineno) from err
        elif parts[0] in ("e", "n"):
            kind = "edge" if parts[0] == "e" else "weight"
            if n is None:
                raise ParseError(f"{kind} line before problem line", lineno)
            try:
                i, j = map(int, parts[1:])  # exactly two numbers: unpacking refuses more
            except ValueError as err:
                raise ParseError(f"malformed {kind} line {line!r}", lineno) from err
            if kind == "weight":
                if not 1 <= i <= n:
                    raise ParseError(f"weight for vertex {i} out of range for n={n}", lineno)
                if j < 1:
                    raise ParseError(f"weight of vertex {i} must be >= 1, got {j}", lineno)
                if i - 1 in weights:
                    raise ParseError(f"second weight line for vertex {i}", lineno)
                weights[i - 1] = j
            elif not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"edge ({i},{j}) out of range for n={n}", lineno)
            elif i == j:
                raise ParseError(f"self-loop at vertex {i}", lineno)
            else:
                edges.append((i - 1, j - 1))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise ParseError("missing problem line")
    return _parsed_graph(n, edges, weights)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object whose keys all differ; ``json.loads`` alone keeps the last of two."""
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"repeated key {key!r} in JSON object")
        out[key] = value
    return out


def parse_graph(text: str) -> Graph:
    """Parse a graph from JSON text, which starts with ``{`` or ``[`` after any
    whitespace, or else from DIMACS text, no line of which starts with either."""
    if not text.lstrip().startswith(("{", "[")):
        return graph_from_dimacs(text)
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", err.lineno) from err
    return graph_from_jsonable(data)


def emit_graph(g: Graph, fmt: str = "json") -> str:
    if fmt == "json":
        return dumps_canonical(graph_to_jsonable(g)) + "\n"
    if fmt == "dimacs":
        return graph_to_dimacs(g)
    raise ValueError(f"unknown graph format {fmt!r}")


# -- event graphs -------------------------------------------------------

def event_graph_to_jsonable(eg: EventGraph) -> dict:
    """The source graph, n, edges and one label per event: the event's kind,
    its observables and their outcomes."""
    labels = [
        {"kind": "single" if len(a) == 1 else "pair", "obs": list(a), "out": list(a.values())}
        for a in eg.assignments()
    ]
    return {
        "source": graph_to_jsonable(eg.source),
        "labels": labels,
        "n": eg.n,
        "edges": [[i, j] for (i, j) in eg.edges],
    }


# -- representations ----------------------------------------------------

def _vector_to_jsonable(vec: np.ndarray) -> list:
    if np.iscomplexobj(vec):
        return [[float(x.real), float(x.imag)] for x in vec]
    return [float(x) for x in vec]


def _json_number(x: Any, field: str) -> float:
    """``x`` if it is a finite JSON number; ``float()`` would read true and "1" as one."""
    # nan fails the comparison; an int too large for a float exceeds the bound
    if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
        raise TypeError(f"{field} must be a finite number, got {x!r}")
    return float(x)


def _vector_from_jsonable(data: Any, d: int, field: str) -> np.ndarray:
    """d numbers, or d [re, im] pairs of numbers for a complex vector."""
    if not isinstance(data, list) or len(data) != d:
        raise ValueError(f"{field} must be a list of d = {d} entries, got {data!r}")
    if data and isinstance(data[0], list):
        for x in data:
            if not isinstance(x, list) or len(x) != 2:
                raise ValueError(f"{field} entry {x!r} is not an [re, im] pair")
        return np.array([complex(_json_number(re, field), _json_number(im, field))
                         for re, im in data])
    return np.array([_json_number(x, field) for x in data])


def orthorep_to_jsonable(rep: OrthoRep) -> dict:
    return {
        "d": rep.dimension,
        "psi": _vector_to_jsonable(rep.psi),
        "vectors": [_vector_to_jsonable(rep.vectors[v]) for v in range(rep.n)],
    }


def orthorep_from_jsonable(data: Any) -> OrthoRep:
    """The representation of ``orthorep_to_jsonable``: ``psi`` and every vector
    hold exactly d coordinates."""
    if not isinstance(data, dict):
        raise ParseError("representation JSON must be an object")
    try:
        d = _json_int(data["d"], "'d'")
        if d < 1:
            raise ValueError(f"'d' must be positive, got {d}")
        psi = _vector_from_jsonable(data["psi"], d, "'psi'")
        raw_vectors = data["vectors"]
        if not isinstance(raw_vectors, list):
            raise TypeError(f"'vectors' must be a list, got {raw_vectors!r}")
        vectors = np.array([_vector_from_jsonable(v, d, f"vector {k}")
                            for k, v in enumerate(raw_vectors)])
        return OrthoRep(psi, vectors)
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"bad representation JSON: {err}") from err


# -- experiment records -------------------------------------------------
#
# One writer.  Each table row is a fixed %-template, the row's canonical JSON
# with keys in the order `dumps_canonical` sorts them and one %s slot per
# value, so no dict is built per row; `dumps_record` and `_epsilon_json` pass
# the value columns in slot order.

_SINGLE_ROW = '{"n0":%s,"n1":%s,"p1":%s,"stderr":%s}'
_PAIR_ROW = (
    '{"counts":{"00":%s,"01":%s,"10":%s,"11":%s},'
    '"p":{"00":%s,"01":%s,"10":%s,"11":%s},'
    '"stderr":{"00":%s,"01":%s,"10":%s,"11":%s}}'
)
_EPSILON_PAIR = (
    '{"difference":%s,"fixed":%s,"outcome":0,"stderr":%s,"varied_a":%s,"varied_b":%s},'
    '{"difference":%s,"fixed":%s,"outcome":1,"stderr":%s,"varied_a":%s,"varied_b":%s}'
)


def _json_object(members: Iterable[tuple[str, str]]) -> str:
    """The JSON object of (key, JSON text) members, keys sorted as `dumps_canonical` sorts them."""
    return "{" + ",".join(f"{dumps_canonical(key)}:{text}" for key, text in sorted(members)) + "}"


def _json_texts(column: np.ndarray) -> list[str]:
    """A column's values as the encoder writes them: ints and floats by their
    ``repr``, and NaN or an infinity refused as ``allow_nan=False`` refuses it."""
    if column.dtype.kind == "f":
        if not np.isfinite(column).all():
            raise ValueError("Out of range float values are not JSON compliant")
        return list(map(float.__repr__, column.tolist()))
    return list(map(int.__repr__, column.tolist()))


def _table_json(template: str, keys: list[str], columns: list[np.ndarray]) -> str:
    """A table object: one row per key, from the row template and its value
    columns in slot order."""
    rows = map(template.__mod__, zip(*map(_json_texts, columns)))
    return _json_object(zip(keys, rows))


def _epsilon_json(record: ExperimentRecord, position: int) -> str:
    """An ε table: each comparison of `_signaling` gives the rows of outcome 0
    and 1, whose numbers are formatted once and written into both."""
    fixed, varied_a, varied_b, difference, stderr = map(
        _json_texts, record.signaling_columns[position]
    )
    texts = (difference, fixed, stderr, varied_a, varied_b)
    return "[" + ",".join(map(_EPSILON_PAIR.__mod__, zip(*texts, *texts))) + "]"


def dumps_record(record: ExperimentRecord) -> str:
    """The record's canonical JSON: its fields, every count with its estimate
    and standard error from :func:`binomial_estimates`, the witness estimate,
    and the ε and ε′ tables.  Written from the count arrays: each table row
    from a template, each ε comparison formatted once for both outcomes' rows."""
    ones = np.array(record.single_counts, dtype=np.int64)
    p1, se1 = binomial_estimates(ones, record.shots)
    counts = record.count_array
    p, se = binomial_estimates(counts, record.shots)
    s_value, s_err = record.s_estimate()
    scalars = {
        "graph": graph_to_jsonable(record.graph),
        "scheme": record.scheme,
        "seed": record.seed,
        "shots": record.shots,
        "noise": dataclasses.asdict(record.noise),
        "s_estimate": s_value,
        "s_stderr": s_err,
    }
    return _json_object([
        *((key, dumps_canonical(value)) for key, value in scalars.items()),
        ("singles", _table_json(
            _SINGLE_ROW, [str(v) for v in range(len(ones))], [record.shots - ones, ones, p1, se1]
        )),
        ("pairs", _table_json(
            _PAIR_ROW, [f"{first},{second}" for first, second in record.contexts],
            [*counts.T, *p.T, *se.T],
        )),
        ("epsilon", _epsilon_json(record, 1)),
        ("epsilon_prime", _epsilon_json(record, 0)),
    ])


def record_to_jsonable(record: ExperimentRecord) -> dict:
    """The record as a tree of dicts and lists: the parse of :func:`dumps_record`."""
    return json.loads(dumps_record(record))


def epsilon_signaling(record: ExperimentRecord) -> list[dict[str, Any]]:
    """Influence of the first setting on the second measurement's marginal: the
    record's ``epsilon`` table, parsed from the text `dumps_record` writes.

    For every observable B and every pair of first settings A, A' measured
    before B, and each outcome b, a row reports |P(.,b|A,B) - P(.,b|A',B)|
    with propagated standard error.  Zero for perfectly compatible
    measurements; sensitive to measurement imperfections.
    """
    return json.loads(_epsilon_json(record, 1))


def epsilon_prime(record: ExperimentRecord) -> list[dict[str, Any]]:
    """Influence of the later setting on the first measurement's marginal: the
    record's ``epsilon_prime`` table, parsed as `epsilon_signaling` is.

    Zero by causality in any sampling scheme; its empirical spread is the
    yardstick against which the epsilon table is judged.
    """
    return json.loads(_epsilon_json(record, 0))
