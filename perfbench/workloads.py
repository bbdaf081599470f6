"""Workload inputs and the three measured operations.

A workload is a fixed list of cases (style, n, dimH, N).  The seed changes
only the random matrices drawn by ``generators.random_tuple``, never the
grid, so runs with different seeds do the same amount of work.

Every case goes through the same three operations, in a closed loop with one
client:

* solve: ``classify`` + ``assemble_model`` + ``full_report`` in memory;
* model file: ``model_to_dict`` + ``dump_json`` to a file, then ``load_model``;
* CLI round trip: ``main(["dilate", ...])``, ``main(["verify", "-m", ...])``
  and ``main(["classify", ...])`` in-process.

The file and CLI operations use the case's own degree, except on workloads
with a ``file_degree``: there the dense model would make JSON encoding swamp
the run, so those two operations use the same tuple at that lower degree.
Where they are short next to the solve, they run ``file_repeats`` times per
case, so that their medians rest on as many samples as the solve's.

Layer functions are called through their modules (``tuples.classify``, not
an imported name) so that the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import os
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Optional

import numpy as np

from dilation_forge import builder, cli, generators, tuples, verifier
from dilation_forge import io as dfio

RESIDUAL_MATCH_TOL = 1e-12

# Reference kernels and their times on a quiet 2-vCPU Xeon VM.  On the shared
# machine the benchmark was sized on, the speed of the CPU drifted over
# minutes, and not alike for all code: pure Python slowed by up to 2x while
# complex BLAS slowed by about 1.2x.  So each timed operation is scaled by the
# kernel that tracked it best there: "blas" (a complex matrix product, as in
# the verifier on large models) or "mixed" (that product plus json.dumps of
# nested lists, for everything else).
KERNEL_NOMINAL_S = {"mixed": 0.016, "blas": 0.0095}
_PYTHON_DOC = [[[((i * 7919 + j * 104729) % 1000003) / 1000003.0, float(i - j)]
                for j in range(200)] for i in range(12)]
_BLAS_MATRIX = np.exp(2j * np.pi * np.arange(448 * 448).reshape(448, 448) / 977.0)


@dataclass(frozen=True)
class Case:
    style: str
    n: int
    dimH: int  # requested; the covariant style always builds dimH = 4
    N: int


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    file_degree: Optional[int] = None  # degree for the file and CLI operations; None: case N
    file_repeats: int = 1  # file and CLI round trips per case
    solve_kernel: str = "mixed"  # the reference kernel that tracks this workload's solves


# Sizes were chosen from timings on 2 cores with one BLAS thread;
# BENCHMARK.json states why each workload exists.
WORKLOADS = {w.name: w for w in (
    # Dense dim x dim Fock matrices dominate: verify_isometric_representation
    # and verify_moments take most of each solve.  Model dims 336-448.
    Workload("deep-fock", (
        Case("jointly-nilpotent", 5, 3, 4),
        Case("scaled-commuting", 4, 3, 5),
        Case("u-commuting", 3, 4, 9),
        Case("covariant", 4, 4, 5),
    ), file_degree=2, file_repeats=3, solve_kernel="blas"),
    # Many indices, low degree: szego_operator's 2^n subset sums and the
    # truncation tails' 2^m / (N+1)^m sums dominate; Fock matrices are tiny.
    # n stays at 9-10 because set-up classifies every tuple several times.
    Workload("wide-tuple", (
        Case("jointly-nilpotent", 10, 2, 2),
        Case("scaled-commuting", 9, 3, 1),
        Case("covariant", 9, 4, 1),
        Case("jointly-nilpotent", 9, 3, 1),
    ), file_degree=1),
    # Medium models whose JSON encoding and decoding dominate the CLI path.
    Workload("cli-roundtrip", (
        Case("jointly-nilpotent", 3, 3, 8),
        Case("scaled-commuting", 3, 4, 5),
        Case("u-commuting", 3, 4, 5),
        Case("covariant", 3, 4, 5),
    )),
)}


@dataclass
class Input:
    case: Case
    seed: int
    spec: tuples.TupleSpec
    tuple_path: str
    file_degree: int
    file_repeats: int
    solve_kernel: str


def generate(workload: Workload, seed: int, workdir: str) -> list[Input]:
    """Draw every case's tuple from the seed and write its tuple JSON file."""
    inputs = []
    for i, case in enumerate(workload.cases):
        case_seed = seed * 1000 + i
        spec = generators.random_tuple(case.style, case.n, case.dimH, case_seed)
        path = os.path.join(workdir, f"tuple{i}.json")
        dfio.dump_json(dfio.tuple_to_dict(spec), path)
        degree = case.N if workload.file_degree is None else workload.file_degree
        inputs.append(Input(case, case_seed, spec, path, degree, workload.file_repeats,
                            workload.solve_kernel))
    return inputs


def inputs_hash(inputs: list[Input]) -> str:
    """SHA-256 of the cases, their seeds and the exact generated tuples."""
    doc = [{"case": asdict(x.case), "seed": x.seed, "file_degree": x.file_degree,
            "tuple": dfio.tuple_to_dict(x.spec)} for x in inputs]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def kernel_seconds() -> dict:
    """Time of one run of each reference kernel ("blas" is the first half of "mixed")."""
    t0 = perf_counter()
    _BLAS_MATRIX @ _BLAS_MATRIX
    t1 = perf_counter()
    json.dumps(_PYTHON_DOC, indent=2)
    return {"blas": t1 - t0, "mixed": perf_counter() - t0}


def solve(spec, N: int):
    """Library path; returns (model, report, passed, seconds)."""
    t0 = perf_counter()
    in_class = tuples.classify(spec).in_T1n
    model = builder.assemble_model(spec, N)
    report = verifier.full_report(model)
    seconds = perf_counter() - t0
    return model, report, in_class and report.passed, seconds


def _same_matrices(a, b) -> bool:
    pairs = [(a.Pi, b.Pi), (a.tails, b.tails), (a.transfer.U1, b.transfer.U1),
             (a.transfer.Un, b.transfer.Un)] + list(zip(a.isometries, b.isometries))
    return len(a.isometries) == len(b.isometries) and all(
        np.array_equal(x, y) for x, y in pairs)


def model_file_roundtrip(model, path: str):
    """Returns (exact round trip, dump seconds, load seconds, file bytes)."""
    t0 = perf_counter()
    dfio.dump_json(dfio.model_to_dict(model), path)
    t1 = perf_counter()
    loaded = dfio.load_model(path)
    t2 = perf_counter()
    return _same_matrices(model, loaded), t1 - t0, t2 - t1, os.path.getsize(path)


def report_mismatch(path: str, reference) -> Optional[str]:
    """Why the CLI's report file differs from the in-memory report, or None."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if set(doc["residuals"]) != set(reference.residuals):
        return f"residual names differ: {sorted(set(doc['residuals']) ^ set(reference.residuals))}"
    if doc["verdicts"] != {k: bool(v) for k, v in reference.verdicts.items()}:
        return "verdicts differ"
    for name, value in reference.residuals.items():
        if abs(doc["residuals"][name] - value) > RESIDUAL_MATCH_TOL * max(1.0, abs(value)):
            return f"residual {name} differs: {doc['residuals'][name]!r} vs {value!r}"
    return None


def cli_roundtrip(inp: Input, model_path: str, report_path: str, reference):
    """dilate -> verify -m -> classify through cli.main.

    Returns (problem or None, seconds).  Output files are removed first so a
    failed command cannot leave a stale file for the next one to pass on.
    """
    for path in (model_path, report_path):
        if os.path.exists(path):
            os.remove(path)
    argvs = [
        ["dilate", "-i", inp.tuple_path, "--degree", str(inp.file_degree), "-o", model_path],
        ["verify", "-m", model_path, "-o", report_path],
        ["classify", "-i", inp.tuple_path],
    ]
    errors = _stdio.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(errors):
        t0 = perf_counter()
        codes = [cli.main(argv) for argv in argvs]
        seconds = perf_counter() - t0
    if codes != [0, 0, 0]:
        return f"exit codes {codes}: {errors.getvalue().strip()[-300:]}", seconds
    return report_mismatch(report_path, reference), seconds
