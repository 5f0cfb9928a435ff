"""JSON wire formats for graphs, decompositions and reports, plus CSV traces.

Graph files:          {"vertices": [...], "edges": [{"src", "dst", "w"}]}, plus an
                      optional boolean "substochastic" for a killed kernel
Decomposition files:  {"cycles": [{"vertices": [...], "weight": "p/q"}]}

Weights are exact fraction strings ("2/3") when rational, JSON numbers when
not.  Vertex labels are ints, strings, or (nested) lists of labels standing
for tuples; any other JSON value (a boolean, null, a float, an object) is an
``InputParseError``, and so is a label nested deeper than ``MAX_LABEL_DEPTH``
lists or a file nested too deep to decode.  The package orders labels by
Python's own ``<``, so the labels of one graph or flow, edge endpoints
included, must compare (no int and string in the same place):
:func:`kernel_from_obj` and :func:`flow_from_obj` sort them once to check it,
after which no sort fails.
Report payloads serialize canonically (sorted keys, fixed separators) so
identical runs produce byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence

from .errors import InputParseError
from .markov_graph import Cycle, CycleDecomposition, Kernel
from .weights import format_weight, parse_weight

ARTIFACT_VERSION = "0.1.0"

#: deepest list nesting of a vertex label, far below the interpreter's recursion
#: limit so that sorting, hashing and encoding a label cannot reach it
MAX_LABEL_DEPTH = 100


def encode_vertex(v):
    if isinstance(v, tuple):
        return [encode_vertex(x) for x in v]
    return v


def decode_vertex(v):
    return _decode_vertex(v, 0)


def _decode_vertex(v, depth: int):
    if isinstance(v, list):
        if depth == MAX_LABEL_DEPTH:
            raise InputParseError(f"vertex label nested deeper than {MAX_LABEL_DEPTH} lists")
        return tuple(_decode_vertex(x, depth + 1) for x in v)
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        return v
    raise ValueError(f"vertex label {v!r} is not an int, a string or a list of labels")


def kernel_to_obj(kernel: Kernel) -> dict:
    edges = [
        {"src": encode_vertex(x), "dst": encode_vertex(y), "w": format_weight(w)}
        for x, y, w in kernel.edges()
    ]
    vertices = [encode_vertex(v) for v in kernel.sorted_vertices()]
    obj = {"vertices": vertices, "edges": edges}
    if kernel.substochastic:
        obj["substochastic"] = True
    return obj


def kernel_from_obj(obj: Mapping) -> Kernel:
    try:
        vertices = [decode_vertex(v) for v in obj["vertices"]]
        rows: Dict[object, Dict[object, object]] = {v: {} for v in vertices}
        for e in obj["edges"]:
            src = decode_vertex(e["src"])
            dst = decode_vertex(e["dst"])
            w = parse_weight(e["w"])
            if src not in rows:
                raise InputParseError(f"edge source {e['src']!r} not among the vertices")
            rows[src][dst] = rows[src].get(dst, 0) + w
        sorted(set(rows).union(*rows.values()))  # TypeError unless every label compares
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"malformed graph object: {exc!r}") from exc
    substochastic = obj.get("substochastic", False)
    if not isinstance(substochastic, bool):
        raise InputParseError(f"graph field 'substochastic' must be true or false, got {substochastic!r}")
    return Kernel(rows, substochastic=substochastic)


def decomposition_to_obj(dec: CycleDecomposition) -> dict:
    return {
        "cycles": [
            {"vertices": [encode_vertex(v) for v in cycle.vertices], "weight": format_weight(w)}
            for cycle, w in dec
        ]
    }


def decomposition_from_obj(obj: Mapping) -> CycleDecomposition:
    from .errors import StructuralError

    try:
        entries = tuple(
            (Cycle(tuple(decode_vertex(v) for v in c["vertices"])), parse_weight(c["weight"]))
            for c in obj["cycles"]
        )
        return CycleDecomposition(entries)
    except (KeyError, TypeError, ValueError, StructuralError) as exc:
        raise InputParseError(f"malformed decomposition object: {exc!r}") from exc


def flow_from_obj(obj: Mapping) -> Dict[tuple, object]:
    try:
        flow = {
            (decode_vertex(e["src"]), decode_vertex(e["dst"])): parse_weight(e["w"])
            for e in obj["edges"]
        }
        sorted(set().union(*flow))  # TypeError unless every label compares
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"malformed flow object: {exc!r}") from exc
    return flow


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, UTF-8 or an int too long
        raise InputParseError(f"cannot read JSON file {path}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {_key(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return repr(obj)
    return obj


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, tuple):
        return json.dumps([_jsonable(x) for x in k])
    return json.dumps(_jsonable(k))


def canonical_json_bytes(obj) -> bytes:
    """Deterministic serialization: sorted keys, fixed separators, UTF-8."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":")).encode()


def make_report(command: str, config: Mapping, results, wall_time_s: float) -> dict:
    return {
        "command": command,
        "config": _jsonable(dict(config)),
        "results": _jsonable(results),
        "version": ARTIFACT_VERSION,
        "wall_time_s": wall_time_s,
    }


def csv_bytes(header: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_weight(v) if isinstance(v, Fraction) else v for v in row])
    return buf.getvalue().encode()
