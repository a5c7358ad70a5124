"""Document serialization: JSON in, JSON out, rationals as "p/q" strings.

Every scalar is serialized in canonical lowest-terms "p/q" form, so emitted
documents are byte-stable across runs and backends.  Standalone files are
recognized by their key shape ("pieces" for functions, "vertices" for
polytopes, and so on); witness documents tag every embedded object with a
"kind" field so they replay without guessing.
"""

import json

from .errors import CapabilityLimit, ParseError
from .linalg import RationalMatrix
from .lifted import LiftedPolytope, POS_INF
from .maxaffine import MaxAffineFn
from .polytopes import Polytope
from .rational import format_rational, parse_rational, rat
from .valuations import DiscreteMeasure, ValuationSpec

__all__ = [
    "function_to_doc",
    "function_from_doc",
    "polytope_to_doc",
    "polytope_from_doc",
    "lifted_to_doc",
    "lifted_from_doc",
    "matrix_to_doc",
    "matrix_from_doc",
    "measure_to_doc",
    "measure_from_doc",
    "valuation_spec_to_doc",
    "valuation_spec_from_doc",
    "value_to_doc",
    "value_from_doc",
    "witness_doc",
    "parse_document",
    "load_path",
    "dump_json",
]


def _vec_doc(vec):
    return [format_rational(v) for v in vec]


def _vec_parse(items, where):
    if not isinstance(items, list) or not items:
        raise ParseError("expected a nonempty list of rationals", where)
    return tuple(parse_rational(v, where) for v in items)


def _dim_parse(doc, where):
    """The "dim" field: a JSON integer, never a float, bool or string."""
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseError(f"expected an integer dimension, got {dim!r}", f"{where}.dim")
    return dim


def _points_parse(items, dim, where):
    """Points of length dim, each located at where[i] when malformed."""
    points = []
    for i, v in enumerate(items):
        point = _vec_parse(v, f"{where}[{i}]")
        if len(point) != dim:
            raise ParseError(f"point has length {len(point)}, expected {dim}", f"{where}[{i}]")
        points.append(point)
    return points


def function_to_doc(f):
    return {
        "dim": f.dim,
        "pieces": [{"a": _vec_doc(a), "b": format_rational(b)} for a, b in f.pieces],
    }


def function_from_doc(doc, where="function"):
    try:
        dim = _dim_parse(doc, where)
        pieces = [
            (_vec_parse(p["a"], f"{where}.pieces[{i}].a"), parse_rational(p["b"], f"{where}.pieces[{i}].b"))
            for i, p in enumerate(doc["pieces"])
        ]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed function document: {exc}", where)
    try:
        return MaxAffineFn(dim, pieces)
    except ValueError as exc:
        raise ParseError(str(exc), where)


def polytope_to_doc(K):
    return {"dim": K.dim, "vertices": [_vec_doc(v) for v in K.vertices]}


def polytope_from_doc(doc, where="polytope"):
    try:
        dim = _dim_parse(doc, where)
        verts = _points_parse(doc["vertices"], dim, f"{where}.vertices")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed polytope document: {exc}", where)
    try:
        return Polytope(dim, verts)
    except CapabilityLimit:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), where)


def lifted_to_doc(g):
    return {"dim": g.dim, "lifted_vertices": [_vec_doc(v) for v in g.vertices]}


def lifted_from_doc(doc, where="lifted"):
    try:
        dim = _dim_parse(doc, where)
        verts = _points_parse(doc["lifted_vertices"], dim + 1, f"{where}.lifted_vertices")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed lifted polytope document: {exc}", where)
    try:
        return LiftedPolytope(dim, verts)
    except CapabilityLimit:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), where)


def matrix_to_doc(g):
    return {"rows": [_vec_doc(row) for row in g.rows]}


def matrix_from_doc(doc, where="matrix"):
    try:
        rows = [_vec_parse(r, f"{where}.rows[{i}]") for i, r in enumerate(doc["rows"])]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed matrix document: {exc}", where)
    return RationalMatrix(rows)


def measure_to_doc(nu):
    return {"atoms": [{"s": format_rational(s), "w": format_rational(w)} for s, w in nu.atoms]}


def measure_from_doc(doc, where="measure"):
    try:
        atoms = [
            (parse_rational(a["s"], f"{where}.atoms[{i}].s"), parse_rational(a["w"], f"{where}.atoms[{i}].w"))
            for i, a in enumerate(doc["atoms"])
        ]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed measure document: {exc}", where)
    for i, (s, w) in enumerate(atoms):
        if s == 0:
            raise ParseError("measure atoms must sit at nonzero scale points", f"{where}.atoms[{i}].s")
        if w < 0:
            raise ParseError("measure weights must be nonnegative", f"{where}.atoms[{i}].w")
    try:
        return DiscreteMeasure(atoms)
    except ValueError as exc:
        raise ParseError(str(exc), where)


def valuation_spec_to_doc(spec):
    return {
        "variant": spec.variant,
        "dim": spec.dim,
        "c": format_rational(spec.c),
        "nu": measure_to_doc(spec.nu),
    }


def valuation_spec_from_doc(doc, where="valuation"):
    try:
        variant = doc["variant"]
        dim = _dim_parse(doc, where)
        c = parse_rational(doc["c"], f"{where}.c")
        nu = measure_from_doc(doc["nu"], f"{where}.nu")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed valuation document: {exc}", where)
    try:
        return ValuationSpec(variant, dim, c, nu)
    except ValueError as exc:
        raise ParseError(str(exc), where)


_TO_DOC = (
    (MaxAffineFn, "function", function_to_doc),
    (Polytope, "polytope", polytope_to_doc),
    (LiftedPolytope, "lifted", lifted_to_doc),
    (RationalMatrix, "matrix", matrix_to_doc),
    (DiscreteMeasure, "measure", measure_to_doc),
    (ValuationSpec, "valuation", valuation_spec_to_doc),
)


def value_to_doc(value):
    """Tagged document for any serializable object, scalar or structured."""
    if value is POS_INF:
        return {"kind": "posinf"}
    for cls, kind, encode in _TO_DOC:
        if isinstance(value, cls):
            doc = encode(value)
            doc["kind"] = kind
            return doc
    if isinstance(value, bool):
        return {"kind": "bool", "value": value}
    if isinstance(value, int):
        return {"kind": "int", "value": value}
    if isinstance(value, str):
        return {"kind": "str", "value": value}
    if isinstance(value, (tuple, list)):
        return {"kind": "vector", "value": _vec_doc(value)}
    if value is None:
        return {"kind": "none"}
    return {"kind": "rational", "value": format_rational(rat(value))}


def value_from_doc(doc, where="value"):
    if not isinstance(doc, dict):
        raise ParseError("expected a tagged value object", where)
    kind = doc.get("kind")
    if kind == "function":
        return function_from_doc(doc, where)
    if kind == "polytope":
        return polytope_from_doc(doc, where)
    if kind == "lifted":
        return lifted_from_doc(doc, where)
    if kind == "matrix":
        return matrix_from_doc(doc, where)
    if kind == "measure":
        return measure_from_doc(doc, where)
    if kind == "valuation":
        return valuation_spec_from_doc(doc, where)
    if kind == "none":
        return None
    if kind == "posinf":
        return POS_INF
    if kind not in ("bool", "int", "str", "vector", "rational"):
        raise ParseError(f"unknown document kind {kind!r}", where)
    where = f"{where}.value"
    if "value" not in doc:
        raise ParseError(f"missing value for a {kind} document", where)
    value = doc["value"]
    if kind == "vector":
        return _vec_parse(value, where)
    if kind == "rational":
        return parse_rational(value, where)
    # Exactly a JSON bool, integer or string: no float, string or bool as an int.
    if type(value) is not {"bool": bool, "int": int, "str": str}[kind]:
        raise ParseError(f"expected a {kind} value, got {value!r}", where)
    return value


def witness_doc(check, inputs, lhs, rhs, note=""):
    """Replayable record of one exact comparison that (or whose target) failed."""
    return {
        "check": check,
        "inputs": {key: value_to_doc(val) for key, val in inputs.items()},
        "lhs": value_to_doc(lhs),
        "rhs": value_to_doc(rhs),
        "note": note,
    }


def parse_document(doc, where="input"):
    """Recognize a standalone document by its key shape."""
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object", where)
    if "check" in doc:
        return doc
    if "pieces" in doc:
        return function_from_doc(doc, where)
    if "lifted_vertices" in doc:
        return lifted_from_doc(doc, where)
    if "vertices" in doc:
        return polytope_from_doc(doc, where)
    if "variant" in doc:
        return valuation_spec_from_doc(doc, where)
    if "atoms" in doc:
        return measure_from_doc(doc, where)
    if "rows" in doc:
        return matrix_from_doc(doc, where)
    raise ParseError("unrecognized document shape", where)


def load_path(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror or exc}", str(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", str(path))
    return parse_document(doc, where=str(path))


def dump_json(doc, path=None):
    """Stable serialization: sorted keys, two-space indent, trailing newline."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
