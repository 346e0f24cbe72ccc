"""Parsing and deterministic serialization of the file formats.

Graphs travel as JSON ``{"n": int, "edges": [[i,j],...], "weights": {...}?}``
or DIMACS edge lists; event graphs, representations, and experiment records
have JSON forms of their own.  All emitters go through the standard library's
C encoder with sorted keys and shortest round-trip floats, so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from typing import Any, Optional

import numpy as np

from .graphs import (
    EventGraph,
    EventLabel,
    Graph,
    PairEvent,
    SingleEvent,
    build_graph,
)
from .orthorep import OrthoRep
from .simulate import (
    OUTCOMES,
    ExperimentRecord,
    binomial_estimates,
    epsilon_prime,
    epsilon_signaling,
)


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
    raw_edges = data.get("edges", [])
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
                i, j = int(parts[1]), int(parts[2])
            except (IndexError, ValueError) as err:
                raise ParseError(f"malformed {kind} line {line!r}", lineno) from err
            if kind == "weight":
                if not 1 <= i <= n:
                    raise ParseError(f"weight for vertex {i} out of range for n={n}", lineno)
                if j < 1:
                    raise ParseError(f"weight of vertex {i} must be >= 1, got {j}", lineno)
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


def parse_graph(text: str, fmt: str = "auto") -> Graph:
    """Parse a graph from JSON or DIMACS text; ``auto`` sniffs the format."""
    if fmt == "auto":
        stripped = text.lstrip()
        fmt = "json" if stripped.startswith("{") else "dimacs"
    if fmt == "json":
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as err:
            raise ParseError(f"invalid JSON: {err.msg}", err.lineno) from err
        return graph_from_jsonable(data)
    if fmt == "dimacs":
        return graph_from_dimacs(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def emit_graph(g: Graph, fmt: str = "json") -> str:
    if fmt == "json":
        return dumps_canonical(graph_to_jsonable(g)) + "\n"
    if fmt == "dimacs":
        return graph_to_dimacs(g)
    raise ValueError(f"unknown graph format {fmt!r}")


# -- event graphs -------------------------------------------------------

def _label_to_jsonable(label: EventLabel) -> dict:
    if isinstance(label, SingleEvent):
        return {"kind": "single", "obs": [label.obs], "out": [label.outcome]}
    return {
        "kind": "pair",
        "obs": [label.obs_a, label.obs_b],
        "out": [label.outcome_a, label.outcome_b],
    }


def _label_from_jsonable(data: dict) -> EventLabel:
    kind = data.get("kind")
    obs = data.get("obs", [])
    out = data.get("out", [])
    if kind == "single":
        return SingleEvent(int(obs[0]), int(out[0]))
    if kind == "pair":
        return PairEvent(int(obs[0]), int(obs[1]), int(out[0]), int(out[1]))
    raise ParseError(f"unknown label kind {kind!r}")


def event_graph_to_jsonable(eg: EventGraph) -> dict:
    return {
        "source": graph_to_jsonable(eg.source),
        "labels": [_label_to_jsonable(lab) for lab in eg.labels],
        "n": eg.n,
        "edges": [[i, j] for (i, j) in eg.edges],
    }


def event_graph_from_jsonable(data: dict) -> EventGraph:
    source = graph_from_jsonable(data["source"])
    labels = tuple(_label_from_jsonable(lab) for lab in data["labels"])
    edges = tuple((int(i), int(j)) for i, j in data["edges"])
    return EventGraph(source=source, labels=labels, edges=edges)


# -- representations ----------------------------------------------------

def _vector_to_jsonable(vec: np.ndarray) -> list:
    if np.iscomplexobj(vec):
        return [[float(x.real), float(x.imag)] for x in vec]
    return [float(x) for x in vec]


def _vector_from_jsonable(data: list) -> np.ndarray:
    if data and isinstance(data[0], list):
        return np.array([complex(re, im) for re, im in data])
    return np.array([float(x) for x in data])


def orthorep_to_jsonable(rep: OrthoRep) -> dict:
    return {
        "d": rep.dimension,
        "psi": _vector_to_jsonable(rep.psi),
        "vectors": [_vector_to_jsonable(rep.vectors[v]) for v in range(rep.n)],
    }


def orthorep_from_jsonable(data: dict) -> OrthoRep:
    psi = _vector_from_jsonable(data["psi"])
    vectors = np.array([_vector_from_jsonable(v) for v in data["vectors"]])
    return OrthoRep(dimension=int(data["d"]), psi=psi, vectors=vectors)


# -- experiment records -------------------------------------------------

_OUTCOME_KEYS = tuple(f"{a}{b}" for a, b in OUTCOMES)


def record_to_jsonable(record: ExperimentRecord) -> dict:
    """The record with every count's estimate and standard error, from
    :func:`binomial_estimates`, the witness estimate, and both ε tables."""
    p, se = binomial_estimates(record.single_counts, record.shots)
    singles = {
        str(v): {"n0": record.shots - c, "n1": c, "p1": pv, "stderr": sv}
        for v, (c, pv, sv) in enumerate(zip(record.single_counts, p.tolist(), se.tolist()))
    }
    counts = np.array(record.pair_counts, dtype=np.int64).reshape(-1, 4)
    p, se = binomial_estimates(counts, record.shots)
    rows = zip(record.contexts, record.pair_counts, p.tolist(), se.tolist())
    pairs = {
        f"{first},{second}": {
            "counts": dict(zip(_OUTCOME_KEYS, c)),
            "p": dict(zip(_OUTCOME_KEYS, pv)),
            "stderr": dict(zip(_OUTCOME_KEYS, sv)),
        }
        for (first, second), c, pv, sv in rows
    }
    s_value, s_err = record.s_estimate()
    return {
        "graph": graph_to_jsonable(record.graph),
        "scheme": record.scheme,
        "seed": record.seed,
        "shots": record.shots,
        "noise": dataclasses.asdict(record.noise),
        "singles": singles,
        "pairs": pairs,
        "s_estimate": s_value,
        "s_stderr": s_err,
        "epsilon": epsilon_signaling(record),
        "epsilon_prime": epsilon_prime(record),
    }
