"""JSON serialization of tuples, reports and dilation models.

Complex entries are stored as [re, im] pairs of JSON numbers; Python's float
repr is shortest-exact, so round-trips are bit-faithful.  Every document
carries a ``schema_version``: 1 for tuples and reports, 2 for models.  A
model file holds no dim x dim matrix: the dilated isometries are rebuilt on
load from the file's own U1, Un and U.
"""

from __future__ import annotations

import json
from math import comb
from typing import Any

import numpy as np

from .builder import (CouplingData, DilationModel, SumSpace, TransferData, build_defects,
                      dilated_isometries)
from .errors import MalformedSpec
from .fock import FockModel
from .tuples import AlgebraStructure, TupleSpec, merge_1n

SCHEMA_VERSION = 1
MODEL_SCHEMA_VERSION = 2


def complex_to_json(arr: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, row-major."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in arr]
    return [complex_to_json(row) for row in arr]


def json_to_complex(data, path: str = "$") -> np.ndarray:
    """A finite complex matrix from rows of [re, im] pairs."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedSpec(f"{path}: expected nested [re, im] number pairs ({exc})")
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise MalformedSpec(f"{path}: expected a matrix of [re, im] pairs")
    if not np.isfinite(arr).all():
        raise MalformedSpec(f"{path}: entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


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


def load_tuple(path: str) -> TupleSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedSpec(f"{path}: invalid JSON: {exc}")
    return tuple_from_dict(doc, path="$")


def dump_json(doc: dict, path: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is None:
        return text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return text


def model_to_dict(model: DilationModel) -> dict:
    c = model.coupling
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": "dilation_model",
        "tuple": tuple_to_dict(model.spec),
        "N": model.N,
        "dims": {"coeff": model.fock.coeff_dim,
                 "cells": model.fock.cell_count,
                 "aux1": c.aux1_dim, "aux2": c.aux2_dim,
                 "parts_D": [list(p) for p in c.Dspace.parts],
                 "parts_Udom": [list(p) for p in c.Udom.parts],
                 "parts_Dprime": [list(p) for p in c.Dprime.parts]},
        "labels": {"D": c.Dspace.labels.tolist(),
                   "Udom": c.Udom.labels.tolist(),
                   "Dprime": c.Dprime.labels.tolist(),
                   "Q1": model.defects["hat1"].labels.tolist(),
                   "Qn": model.defects["hatn"].labels.tolist(),
                   "Q1n": model.defects["hat1n"].labels.tolist()},
        "index_list": [list(a) for a in model.fock.index_list],
        "U": complex_to_json(c.U),
        "V": complex_to_json(c.V),
        "U1": complex_to_json(model.transfer.U1),
        "Un": complex_to_json(model.transfer.Un),
        "Pi": complex_to_json(model.Pi),
        "tails": [float(t) for t in model.tails],
        "equality_residual": float(model.equality_residual),
        "defect_bases": {name: complex_to_json(d.space.basis)
                         for name, d in model.defects.items()},
        "defect_roots": {name: complex_to_json(d.root) for name, d in model.defects.items()},
    }


def _matrix(doc: dict, key: str, shape: tuple, path: str) -> np.ndarray:
    mat = json_to_complex(_require(doc, key, list, path), f"{path}.{key}")
    if mat.shape != shape:
        raise MalformedSpec(f"{path}.{key}: expected shape {shape}, got {mat.shape}")
    return mat


def _labels(doc: dict, key: str, size: int, k: int, path: str) -> np.ndarray:
    values = _require(doc, key, list, path)
    if len(values) != size or any(type(v) is not int or not 0 <= v < k for v in values):
        raise MalformedSpec(f"{path}.{key}: expected {size} algebra labels in 0..{k - 1}")
    return np.asarray(values, dtype=int)


def model_from_dict(doc: dict) -> DilationModel:
    """Rebuild a verifiable model from its JSON document.

    The matrices are taken from the file and the dilated isometries are
    rebuilt from its U1, Un and U (so file-level corruption is caught by the
    verifier), while the defect data are recomputed from the tuple.  Every
    field is checked against the tuple's defect ranks and the declared sizes.
    """
    if not isinstance(doc, dict) or doc.get("kind") != "dilation_model":
        raise MalformedSpec("$.kind: expected 'dilation_model'")
    version = _require(doc, "schema_version", int, "$")
    if version != MODEL_SCHEMA_VERSION:
        raise MalformedSpec(f"$.schema_version: expected {MODEL_SCHEMA_VERSION}, got {version}")
    spec = tuple_from_dict(_require(doc, "tuple", dict, "$"), "$.tuple")
    merged = merge_1n(spec)
    N = _require(doc, "N", int, "$")
    if N < 0:
        raise MalformedSpec("$.N: truncation degree must be non-negative")
    defects, _, _, eq_resid = build_defects(spec)

    dims = _require(doc, "dims", dict, "$")
    rn, r1 = defects["hatn"].space.dim, defects["hat1"].space.dim
    aux1 = _require(dims, "aux1", int, "$.dims")
    aux2 = _require(dims, "aux2", int, "$.dims")
    coeff = rn + r1 + aux1
    parts = {"parts_D": [["Dn", rn], ["E1xD1", r1], ["aux1", aux1]],
             "parts_Udom": [["D1", r1], ["EnxDn", rn], ["aux2", aux2]],
             "parts_Dprime": [["Dn", rn], ["aux1", aux1]]}
    for key, expected in parts.items():
        if _require(dims, key, list, "$.dims") != expected:
            raise MalformedSpec(f"$.dims.{key}: expected {expected} for this tuple")
    if aux2 != aux1 or _require(dims, "coeff", int, "$.dims") != coeff:
        raise MalformedSpec(f"$.dims: coefficient dimension must be {coeff} with aux2 = aux1")
    # compare counts before enumerating cells: the file's own list bounds the work
    index_list = _require(doc, "index_list", list, "$")
    if not _require(dims, "cells", int, "$.dims") == len(index_list) == comb(merged.n + N, N):
        raise MalformedSpec("$.index_list: cells do not match N and the tuple")
    fock = FockModel(m=merged.n, N=N, coeff_dim=coeff, merged_phases=merged.phases)
    if index_list != [list(a) for a in fock.index_list]:
        raise MalformedSpec("$.index_list: cells do not match N and the tuple")

    labels = _require(doc, "labels", dict, "$")
    k = 1 if spec.algebra is None else spec.algebra.k
    lab_d = _labels(labels, "D", coeff, k, "$.labels")
    lab_udom = _labels(labels, "Udom", coeff, k, "$.labels")
    lab_dp = _labels(labels, "Dprime", rn + aux1, k, "$.labels")
    tails = _require(doc, "tails", list, "$")
    if len(tails) != spec.dimH or any(type(t) not in (int, float) for t in tails):
        raise MalformedSpec(f"$.tails: expected {spec.dimH} numbers")

    coupling = CouplingData(
        V0=np.zeros((0, 0)), D1=None, D2=None, M1=None, M2=None,  # type: ignore[arg-type]
        amb1_labels=lab_d[:rn + r1], amb2_labels=lab_udom[:r1 + rn],
        M1_labels=np.zeros(0, dtype=int), M2_labels=np.zeros(0, dtype=int),
        aux1_dim=aux1, aux2_dim=aux2,
        U=_matrix(doc, "U", (coeff, coeff), "$"),
        V=_matrix(doc, "V", (coeff, defects["hat1n"].space.dim), "$"),
        Dspace=SumSpace([tuple(p) for p in parts["parts_D"]], lab_d),
        Udom=SumSpace([tuple(p) for p in parts["parts_Udom"]], lab_udom),
        Dprime=SumSpace([tuple(p) for p in parts["parts_Dprime"]], lab_dp))
    size1, sizen = coeff + rn + aux1, coeff + r1
    transfer = TransferData(U1=_matrix(doc, "U1", (size1, size1), "$"),
                            Un=_matrix(doc, "Un", (sizen, sizen), "$"),
                            blocks={}, residuals={})
    return DilationModel(spec=spec, merged=merged, fock=fock, N=N,
                         defects=defects, coupling=coupling, transfer=transfer,
                         Pi=_matrix(doc, "Pi", (fock.dim, spec.dimH), "$"),
                         isometries=dilated_isometries(spec, transfer, coupling, fock),
                         tails=np.asarray(tails, dtype=float),
                         equality_residual=eq_resid)


def load_model(path: str) -> DilationModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MalformedSpec(f"{path}: invalid JSON: {exc}")
    return model_from_dict(doc)


def class_report_doc(report) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "class_report", **report.to_dict()}


def verification_report_doc(report) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "verification_report", **report.to_dict()}
