"""JSON serialization of tuples, reports and dilation models.

Every document is written compact (no whitespace, sorted keys) and carries a
``schema_version``: 1 for tuples and reports, 4 for models.  Python's float
repr is shortest-exact, so every round trip is bit-faithful.  Matrix entries
must be finite JSON numbers; booleans, strings, NaN and infinities are input
errors.

Tuple documents, which are also written by hand, store each matrix as nested
rows of [re, im] pairs.  A model file stores U1, Un and Pi as flat row-major
matrices ``{"shape": [rows, cols], "re": [...], "im": [...]}``, beside the
tuple, N, the sizes record ``dims``, the tails and the construction
self-check residuals.  On load the coefficient layout is rebuilt from the
tuple and ``dims.aux``, each declared shape is checked against it before any
list is converted, and the dilated isometries are rebuilt from the file's U1
and Un.
"""

from __future__ import annotations

import json
from math import comb
from typing import Any

import numpy as np

from .builder import (MAX_PAD, CoefficientLayout, DilationModel, TransferData, build_defects,
                      coefficient_layout, dilated_isometries, effective_algebra)
from .errors import MalformedSpec
from .fock import FockModel
from .tuples import AlgebraStructure, TupleSpec

SCHEMA_VERSION = 1
MODEL_SCHEMA_VERSION = 4
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
    """Nested lists of [re, im] pairs, row-major."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in arr]
    return [complex_to_json(row) for row in arr]


def json_to_complex(data, path: str = "$") -> np.ndarray:
    """A finite complex matrix from rows of [re, im] number pairs."""
    try:
        shape = np.shape(data)
    except ValueError as exc:
        raise MalformedSpec(f"{path}: expected nested [re, im] number pairs ({exc})")
    if len(shape) != 3 or shape[-1] != 2:
        raise MalformedSpec(f"{path}: expected a matrix of [re, im] pairs")
    values = _floats([v for row in data for pair in row for v in pair], path)
    return values.view(complex).reshape(shape[:2])


def matrix_to_json(arr: np.ndarray) -> dict:
    """A flat model-file matrix: its shape and the row-major real and imaginary parts."""
    return {"shape": list(arr.shape), "re": arr.real.ravel().tolist(),
            "im": arr.imag.ravel().tolist()}


def json_to_matrix(doc: dict, key: str, shape: tuple, path: str = "$") -> np.ndarray:
    """The complex matrix of the flat matrix field ``key``, whose declared shape
    must be ``shape``; the shape is checked before any list is converted."""
    enc = _require(doc, key, dict, path)
    path = f"{path}.{key}"
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
        "matrices": [[complex_to_json(m) for m in row] for row in spec.blocks],
    }
    if not np.allclose(spec.phases, 1.0, atol=0, rtol=0):
        doc["phases"] = complex_to_json(spec.phases)
    if spec.algebra is not None:
        doc["algebra"] = {"k": spec.algebra.k,
                          "block_of": list(spec.algebra.block_of),
                          "automorphisms": [list(a) for a in spec.algebra.automorphisms]}
    return doc


def tuple_from_dict(doc: dict, path: str = "$") -> TupleSpec:
    if not isinstance(doc, dict):
        raise MalformedSpec(f"{path}: tuple document must be a JSON object")
    n = _require(doc, "n", int, path)
    dim = _require(doc, "dimH", int, path)
    d = _require(doc, "d", int, path) if "d" in doc else 1
    mats = _require(doc, "matrices", list, path)
    if len(mats) != n:
        raise MalformedSpec(f"{path}.matrices: expected {n} rows, got {len(mats)}")
    blocks = []
    for i, row in enumerate(mats):
        if not isinstance(row, list) or len(row) != d:
            raise MalformedSpec(f"{path}.matrices[{i}]: expected {d} matrices")
        blocks.append([json_to_complex(m, f"{path}.matrices[{i}][{j}]") for j, m in enumerate(row)])
    phases = None
    if "phases" in doc and doc["phases"] is not None:
        phases = json_to_complex(doc["phases"], f"{path}.phases")
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
        "U1": matrix_to_json(model.transfer.U1),
        "Un": matrix_to_json(model.transfer.Un),
        "Pi": matrix_to_json(model.Pi),
        "tails": [float(t) for t in model.tails],
        "construction_residuals": {k: float(v) for k, v in model.transfer.residuals.items()},
    }


def model_from_dict(doc: dict) -> DilationModel:
    """Rebuild a verifiable model from its JSON document.

    The tuple passes the class gate again and its defect data are recomputed
    (``build_defects``), the coefficient layout from them and ``dims.aux``;
    ``dims`` must then equal the rebuilt sizes.  U1, Un, Pi, the tails and the
    construction residuals are taken from the file and the dilated isometries
    rebuilt from its U1 and Un, so file-level corruption is caught by the
    verifier.  A loaded model has no coupling data.
    """
    if not isinstance(doc, dict) or doc.get("kind") != "dilation_model":
        raise MalformedSpec("$.kind: expected 'dilation_model'")
    version = _require(doc, "schema_version", int, "$")
    if version != MODEL_SCHEMA_VERSION:
        raise MalformedSpec(f"$.schema_version: expected {MODEL_SCHEMA_VERSION}, got {version}")
    spec = tuple_from_dict(_require(doc, "tuple", dict, "$"), "$.tuple")
    N = _require(doc, "N", int, "$")
    if N < 1:
        raise MalformedSpec(f"$.N: truncation degree must be at least 1, got {N}")
    dims = _require(doc, "dims", dict, "$")
    aux = _require(dims, "aux", list, "$.dims")
    alg = effective_algebra(spec)
    if len(aux) != alg.k or any(type(v) is not int or not 0 <= v <= MAX_PAD for v in aux):
        raise MalformedSpec(f"$.dims.aux: expected {alg.k} integers in 0..{MAX_PAD}")
    defects, merged, _ = build_defects(spec, alg)
    layout = coefficient_layout(spec, defects, aux, alg)
    cells = comb(merged.n + N, merged.n)
    expected = _dims(layout, defects, cells)
    if dims != expected:
        raise MalformedSpec(f"$.dims: expected {expected} for this tuple and N")
    tails = _require(doc, "tails", list, "$")
    if len(tails) != spec.dimH:
        raise MalformedSpec(f"$.tails: expected {spec.dimH} finite numbers")
    tails = _floats(tails, "$.tails")
    residuals = _require(doc, "construction_residuals", dict, "$")
    values = _floats(list(residuals.values()), "$.construction_residuals")
    size1, sizen = layout.U1_labels[0].size, layout.Un_labels[0].size
    transfer = TransferData(U1=json_to_matrix(doc, "U1", (size1, size1)),
                            Un=json_to_matrix(doc, "Un", (sizen, sizen)),
                            residuals=dict(zip(residuals, values.tolist())))
    pi = json_to_matrix(doc, "Pi", (cells * layout.dim, spec.dimH))
    fock = FockModel(m=merged.n, N=N, coeff_dim=layout.dim, merged_phases=merged.phases)
    return DilationModel(spec=spec, merged=merged, fock=fock, N=N, defects=defects,
                         layout=layout, coupling=None, transfer=transfer, Pi=pi,
                         isometries=dilated_isometries(spec, transfer, layout, fock),
                         tails=tails)


def load_model(path: str) -> DilationModel:
    return model_from_dict(_read_json(path))


def class_report_doc(report) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "class_report", **report.to_dict()}


def verification_report_doc(report) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "verification_report", **report.to_dict()}
