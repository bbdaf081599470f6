"""JSON serialization of tuples, reports and dilation models.

Every document is written compact (no whitespace, sorted keys) and carries a
``schema_version``: 1 for tuples and reports, 8 for models.  Python's float
repr is shortest-exact, so every round trip is bit-faithful.  Matrix entries
must be finite JSON numbers; booleans, strings, NaN and infinities are input
errors.

Tuple documents, which are also written by hand, store each matrix as nested
rows of [re, im] pairs, all read in one pass.  A model file holds exactly
``MODEL_FIELDS``: the tuple, N, the sizes record ``dims`` with the padding
``dims.aux``, and the completion U as a flat row-major matrix ``{"shape":
[dim D, dim D], "re": [...], "im": [...]}``, what the tuple does not fix, so
its size does not grow with N.  On load the tuple passes the class gate,
whose one Szego recursion also gives the defects (``build_defects``), the
layout is rebuilt from them and ``dims.aux``, U's shape is checked against it
before any list is converted, and the rest is derived as for a built model:
U1, Un and the construction residuals by ``measure_transfer``, then, past N's
cell budget, the tails, Pi and the dilated isometries.
"""

from __future__ import annotations

import json
from math import comb
from typing import Any

import numpy as np

from .builder import (MAX_PAD, CoefficientLayout, DilationModel, build_defects,
                      coefficient_layout, defect_frames, effective_algebra, measure_transfer)
from .errors import MalformedSpec
from .tuples import AlgebraStructure, TupleSpec

SCHEMA_VERSION = 1
MODEL_SCHEMA_VERSION = 8
MODEL_FIELDS = {"schema_version", "kind", "tuple", "N", "dims", "U"}
_NUMBER_TYPES = {int, float}  # what json reads a JSON number as; bool is not among them


def _floats(values: list, path: str) -> np.ndarray:
    """A float array of finite JSON numbers."""
    kinds = set(map(type, values)) - _NUMBER_TYPES
    if kinds:
        raise MalformedSpec(f"{path}: entries must be numbers, got "
                            f"{', '.join(sorted(k.__name__ for k in kinds))}")
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:  # an integer beyond the float range
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise MalformedSpec(f"{path}: entries must be finite")
    return arr


def complex_to_json(arr: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, row-major: each part's Python float,
    signed zeros included."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    return arr.view(float).reshape(*arr.shape, 2).tolist()


def json_to_complex(data, path: str, shape: tuple) -> np.ndarray:
    """A finite complex array of ``shape`` from nested [re, im] number pairs,
    their nesting checked before any entry is converted."""
    nested = np.array(data, dtype=object)  # ragged nesting stops at a list entry
    if nested.shape != (*shape, 2):
        raise MalformedSpec(f"{path}: expected {' x '.join(map(str, shape))} [re, im] pairs")
    return _floats(nested.ravel().tolist(), path).view(complex).reshape(shape)


def matrix_to_json(arr: np.ndarray) -> dict:
    """A flat model-file matrix: its shape and the row-major real and imaginary parts."""
    return {"shape": list(arr.shape), "re": arr.real.ravel().tolist(),
            "im": arr.imag.ravel().tolist()}


def json_to_matrix(doc: dict, key: str, shape: tuple) -> np.ndarray:
    """The complex matrix of the model-file field ``key``, whose declared shape
    must be ``shape``; the shape is checked before any list is converted."""
    enc, path = _require(doc, key, dict, "$"), f"$.{key}"
    declared = _require(enc, "shape", list, path)
    if declared != list(shape) or any(type(v) is not int for v in declared):
        raise MalformedSpec(f"{path}.shape: expected {list(shape)}, got {declared}")
    size = shape[0] * shape[1]
    parts = []
    for part in ("re", "im"):
        values = _require(enc, part, list, path)
        if len(values) != size:
            raise MalformedSpec(f"{path}.{part}: expected {size} numbers, got {len(values)}")
        parts.append(_floats(values, f"{path}.{part}"))
    return np.column_stack(parts).view(complex).reshape(shape)


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise MalformedSpec(f"{path}.{key}: missing required field")
    value = doc[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise MalformedSpec(f"{path}.{key}: expected an integer, got {type(value).__name__}")
    if kind is list and not isinstance(value, list):
        raise MalformedSpec(f"{path}.{key}: expected a list, got {type(value).__name__}")
    if kind is dict and not isinstance(value, dict):
        raise MalformedSpec(f"{path}.{key}: expected an object, got {type(value).__name__}")
    return value


def tuple_to_dict(spec: TupleSpec) -> dict:
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "n": spec.n,
        "dimH": spec.dimH,
        "d": spec.d,
        "matrices": complex_to_json(spec.blocks),
    }
    if not np.allclose(spec.phases, 1.0, atol=0, rtol=0):
        doc["phases"] = complex_to_json(spec.phases)
    if spec.algebra is not None:
        doc["algebra"] = {"k": spec.algebra.k,
                          "block_of": spec.algebra.block_of.tolist(),
                          "automorphisms": spec.algebra.automorphisms.tolist()}
    return doc


def tuple_from_dict(doc: dict, path: str = "$") -> TupleSpec:
    if not isinstance(doc, dict):
        raise MalformedSpec(f"{path}: tuple document must be a JSON object")
    n = _require(doc, "n", int, path)
    dim = _require(doc, "dimH", int, path)
    d = _require(doc, "d", int, path) if "d" in doc else 1
    if min(n, dim, d) < 1:
        raise MalformedSpec(f"{path}: n, dimH and d must be positive")
    mats = _require(doc, "matrices", list, path)
    try:  # every matrix in one pass
        blocks = json_to_complex(mats, f"{path}.matrices", (n, d, dim, dim))
    except MalformedSpec:  # name the first matrix at fault, if one is
        for i, row in enumerate(mats):
            if not isinstance(row, list) or len(row) != d:
                raise MalformedSpec(f"{path}.matrices[{i}]: expected {d} matrices")
            for j, m in enumerate(row):
                json_to_complex(m, f"{path}.matrices[{i}][{j}]", (dim, dim))
        raise
    phases = None
    if "phases" in doc and doc["phases"] is not None:
        phases = json_to_complex(doc["phases"], f"{path}.phases", (n, n))
    algebra = None
    if "algebra" in doc and doc["algebra"] is not None:
        alg = _require(doc, "algebra", dict, path)
        algebra = AlgebraStructure(
            k=_require(alg, "k", int, f"{path}.algebra"),
            block_of=_require(alg, "block_of", list, f"{path}.algebra"),
            automorphisms=_require(alg, "automorphisms", list, f"{path}.algebra"))
    return TupleSpec(n=n, dimH=dim, d=d, blocks=blocks, phases=phases, algebra=algebra)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedSpec(f"{path}: invalid JSON: {exc}")


def load_tuple(path: str) -> TupleSpec:
    return tuple_from_dict(_read_json(path), path="$")


def dump_json(doc: dict, path: str | None):
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    if path is None:
        return text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return text


def _dims(layout: CoefficientLayout, defects: dict, cells: int) -> dict:
    """The sizes record of a model file."""
    return {"coeff": layout.dim, "cells": cells, "aux": layout.mult1.tolist(),
            "ranks": {name: d.basis.shape[1] for name, d in defects.items()}}


def model_to_dict(model: DilationModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": "dilation_model",
        "tuple": tuple_to_dict(model.spec),
        "N": model.N,
        "dims": _dims(model.layout, model.defects, model.fock.cell_count),
        "U": matrix_to_json(model.transfer.U),
    }


def model_from_dict(doc: dict) -> DilationModel:
    """Rebuild a verifiable model from its JSON document.

    The document holds exactly ``MODEL_FIELDS``.  The tuple passes the class
    gate and the merged-purity check again, and its defect data, the merged
    square included, come from the gate's one Szego recursion
    (``build_defects``, as in a build); the coefficient layout comes from them
    and ``dims.aux``, and ``dims`` must then equal the rebuilt sizes.  U is
    read and checked, and ``measure_transfer`` forms U1 and Un from it and
    measures the construction residuals with the rebuilt defects' frames, so
    a corrupted U shows there; Pi and the tails come from the tuple.
    """
    if not isinstance(doc, dict) or doc.get("kind") != "dilation_model":
        raise MalformedSpec("$.kind: expected 'dilation_model'")
    version = _require(doc, "schema_version", int, "$")
    if version != MODEL_SCHEMA_VERSION:
        raise MalformedSpec(f"$.schema_version: expected {MODEL_SCHEMA_VERSION}, got {version}")
    unknown = sorted(set(doc) - MODEL_FIELDS)
    if unknown:
        raise MalformedSpec(f"$.{unknown[0]}: unknown field")
    spec = tuple_from_dict(_require(doc, "tuple", dict, "$"), "$.tuple")
    N = _require(doc, "N", int, "$")
    if N < 1:
        raise MalformedSpec(f"$.N: truncation degree must be at least 1, got {N}")
    dims = _require(doc, "dims", dict, "$")
    aux = _require(dims, "aux", list, "$.dims")
    alg = effective_algebra(spec)
    if len(aux) != alg.k or any(type(v) is not int or not 0 <= v <= MAX_PAD for v in aux):
        raise MalformedSpec(f"$.dims.aux: expected {alg.k} integers in 0..{MAX_PAD}")
    defects, merged, eq_resid = build_defects(spec, alg)
    layout = coefficient_layout(spec, defects, aux, alg)
    expected = _dims(layout, defects, comb(merged.n + N, merged.n))
    if dims != expected:
        raise MalformedSpec(f"$.dims: expected {expected} for this tuple and N")
    u = json_to_matrix(doc, "U", (layout.dim, layout.dim))
    transfer = measure_transfer(spec, layout, u, defect_frames(spec, defects), eq_resid)
    return DilationModel(spec=spec, merged=merged, N=N, defects=defects, layout=layout,
                         transfer=transfer)


def load_model(path: str) -> DilationModel:
    return model_from_dict(_read_json(path))


def class_report_doc(report) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "class_report", **report.to_dict()}


def verification_report_doc(report) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "verification_report", **report.to_dict()}
