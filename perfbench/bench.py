"""Set-up, measurement, metrics and the run record of one benchmark run.

Imported by run.py once BLAS threads are pinned and ``src/`` is on the path.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from dilation_forge import builder, generators, verifier
from dilation_forge import io as dfio
from spans import LAYER_METRICS, Tracer, breakdown, layer_totals
from workloads import (KERNEL_NOMINAL_S, WORKLOADS, Case, Input, cli_roundtrip, generate,
                       inputs_hash, kernel_seconds, model_file_roundtrip, solve)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3
MAX_MEASURE_S = 120.0  # stop after the pass that crosses this, to end well inside 180 s

END_TO_END_UNITS = {
    "solve_per_s": "tuples/s",
    "solve_p50_ms": "ms",
    "cli_per_s": "roundtrips/s",
    "model_dump_ms": "ms",
    "model_load_ms": "ms",
    "model_bytes": "bytes",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Stats:
    """Samples and outcomes of the operations of one kind of pass."""

    cases: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    # operation -> case index -> [seconds, kernel, index of the kernel runs just after]
    samples: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(list)))
    kernels_s: dict = field(default_factory=lambda: defaultdict(list))  # kernel -> times
    sizes: dict = field(default_factory=lambda: defaultdict(dict))  # case index -> sizes
    residual_counts: list = field(default_factory=list)

    def timed(self, op: str, index: int, seconds: float, kernel: str = "mixed"):
        """Record a sample, scaled later by ``kernel``, and run the kernels after it."""
        for name, kernel_s in kernel_seconds().items():
            self.kernels_s[name].append(kernel_s)
        self.samples[op][index].append([seconds, kernel, len(self.kernels_s[kernel]) - 1])

    def scaled(self, op: str) -> list:
        """Each case's samples at the reference speed, in case order.

        A sample is scaled by its kernel's nominal time over the median of
        the six runs of that kernel around it (three before it, three after).
        """
        return [[seconds * KERNEL_NOMINAL_S[kernel]
                 / statistics.median(self.kernels_s[kernel][max(0, i - 3):i + 3])
                 for seconds, kernel, i in entries]
                for _, entries in sorted(self.samples[op].items())]

    def per_case(self, op: str) -> list:
        """The median of each case's scaled samples, in case order."""
        return [statistics.median(times) for times in self.scaled(op)]

    def check(self, ok: bool, op: str, inp, detail: str = ""):
        if not ok:
            self.failures.append({"op": op, "case": asdict(inp.case), "seed": inp.seed,
                                  "detail": detail})


def run_case(index: int, inp, stats: Stats, workdir: str, tracer=None):
    """Solve, then model-file and CLI round trips, of the index-th input.

    Every operation started counts as attempted; one that raises counts as
    failed and ends the case, and the run goes on.
    """
    span = tracer.root if tracer is not None else (lambda name: nullcontext())
    stats.cases += 1
    op = "solve"
    try:
        stats.attempted += 1
        with span("solve"):
            model, report, ok, seconds = solve(inp.spec, inp.case.N)
        stats.timed("solve", index, seconds, inp.solve_kernel)
        stats.sizes[index].update(cells=model.fock.cell_count, dim_D=model.fock.coeff_dim,
                                  model_dim=model.fock.dim)
        stats.residual_counts.append(len(report.residuals))
        stats.check(ok, "solve", inp, f"failing residuals {report.failures()}")

        if inp.file_degree != inp.case.N:
            with span("reference"):
                model = builder.assemble_model(inp.spec, inp.file_degree)
                report = verifier.full_report(model)
        for _ in range(inp.file_repeats):
            op = "model_file"
            stats.attempted += 1
            with span("model_file"):
                exact, dump_s, load_s, nbytes = model_file_roundtrip(
                    model, os.path.join(workdir, "model.json"))
            stats.timed("model_dump", index, dump_s)
            stats.timed("model_load", index, load_s)
            stats.sizes[index]["file_bytes"] = nbytes
            stats.check(exact, op, inp, "loaded matrices differ from the dumped ones")

            op = "cli"
            stats.attempted += 1
            with span("cli"):
                problem, seconds = cli_roundtrip(inp, os.path.join(workdir, "cli_model.json"),
                                                 os.path.join(workdir, "cli_report.json"), report)
            stats.timed("cli", index, seconds)
            stats.check(problem is None, op, inp, problem or "")
    except Exception:  # recorded as this operation's failure, with its traceback
        stats.check(False, op, inp, traceback.format_exc(limit=-3))


def setup(workload, seed: int, workdir: str):
    """Generate the inputs and warm up, SETUP_REPS times.

    Returns the last inputs, each repetition's (seconds, scale to the
    reference speed of the "mixed" kernel) and each repetition's input hash.
    """
    reps, hashes = [], []
    for _ in range(SETUP_REPS):
        ref = statistics.median(kernel_seconds()["mixed"] for _ in range(3))
        t0 = perf_counter()
        inputs = generate(workload, seed, workdir)
        warm = os.path.join(workdir, "warmup_tuple.json")
        spec = generators.scalar_triple()
        dfio.dump_json(dfio.tuple_to_dict(spec), warm)
        run_case(0, Input(Case("scalar-triple", 3, 1, 2), 0, spec, warm, 2, 1, "mixed"),
                 Stats(), workdir)
        seconds = perf_counter() - t0
        ref = statistics.median([ref] + [kernel_seconds()["mixed"] for _ in range(3)])
        reps.append((seconds, KERNEL_NOMINAL_S["mixed"] / ref))
        hashes.append(inputs_hash(inputs))
    return inputs, reps, hashes


def measure(inputs, seconds: float, trace: bool, workdir: str):
    """Whole passes over the inputs until ``seconds`` have elapsed.

    With tracing, passes alternate untraced / traced, so the two kinds see
    the same mix of inputs and their difference is the tracing overhead.
    """
    plain, traced = Stats(), Stats()
    tracer = Tracer() if trace else None
    passes, start = 0, perf_counter()
    while True:
        traced_pass = trace and passes % 2 == 1
        if traced_pass:
            tracer.install()
        try:
            for index, inp in enumerate(inputs):
                run_case(index, inp, traced if traced_pass else plain, workdir,
                         tracer if traced_pass else None)
        finally:
            if traced_pass:
                tracer.uninstall()
        passes += 1
        elapsed = perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and (not trace or passes >= 2)):
            return plain, traced, tracer, passes, elapsed


def end_to_end(plain: Stats, setup_s: float) -> dict:
    """Rates over the grid and medians over its cases, from each case's median sample."""
    solves, clis = plain.per_case("solve"), plain.per_case("cli")
    values = {
        "solve_per_s": len(solves) / sum(solves),
        "solve_p50_ms": 1e3 * statistics.median(solves),
        "cli_per_s": len(clis) / sum(clis),
        "model_dump_ms": 1e3 * statistics.median(plain.per_case("model_dump")),
        "model_load_ms": 1e3 * statistics.median(plain.per_case("model_load")),
        "model_bytes": statistics.median(s["file_bytes"] for s in plain.sizes.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(plain: Stats, traced: Stats, tracer) -> dict:
    """Per-case layer totals from the traced passes, plus the tracing overhead."""
    per_case = {k: v / traced.cases for k, v in layer_totals(tracer.spans).items()}
    out = {}
    for name, value in per_case.items():
        kind = LAYER_METRICS[name][1]
        unit = {"self": "ms/case", "wall": "ms/case", "calls": "calls/case"}.get(kind, "count/case")
        out[name] = {"value": value, "unit": unit}
    traced_solves = traced.per_case("solve")
    out.update({
        "fock.cells": {"value": statistics.fmean(s["cells"] for s in traced.sizes.values()),
                       "unit": "cells/case"},
        "fock.dim": {"value": statistics.fmean(s["model_dim"] for s in traced.sizes.values()),
                     "unit": "dim/case"},
        "verifier.residual_count": {"value": statistics.fmean(traced.residual_counts),
                                    "unit": "count/case"},
        "trace.solve_per_s": {"value": len(traced_solves) / sum(traced_solves),
                              "unit": "tuples/s"},
        "trace.overhead_frac": {"value": sum(traced_solves) / sum(plain.per_case("solve")) - 1.0,
                                "unit": "share"},
        "trace.spans": {"value": len(tracer.spans) / traced.cases, "unit": "spans/case"},
    })
    return out


def _openblas():
    """(threads in effect, runtime config) of the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                config = None
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    config = get_config().decode()
                return int(get_threads()), config
    return None, None


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    toplevel, commit = lines
    return commit if os.path.realpath(toplevel) == os.path.realpath(ROOT) else None


def _source_sha256():
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "dilation_forge"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    threads, config = _openblas()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": threads,
        "openblas": config or blas.get("version"),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def input_sizes(inputs, stats: Stats) -> list:
    """Actual sizes of each case's tuple, library model and model file."""
    return [{**asdict(inp.case), "dimH_actual": inp.spec.dimH, "seed": inp.seed,
             "file_degree": inp.file_degree, "file_repeats": inp.file_repeats,
             **stats.sizes.get(i, {})}
            for i, inp in enumerate(inputs)]


def print_table(title: str, metrics: dict):
    print(title, file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g}  {m['unit']}", file=sys.stderr)


def run(workload_name: str, seed: int, seconds: float, trace: int, import_s: float) -> int:
    """One run: set-up, measurement, record file, metric table and result line."""
    workload = WORKLOADS[workload_name]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs, setup_reps, hashes = setup(workload, seed, workdir)
        plain, traced, tracer, passes, elapsed = measure(inputs, seconds, bool(trace), workdir)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    # one set-up = the imports (timed once) + one repetition, at the reference speed
    setup_s = statistics.median((import_s + rep_s) * scale for rep_s, scale in setup_reps)
    failures = plain.failures + traced.failures
    if len(set(hashes)) != 1:
        failures.append({"op": "setup", "detail": f"inputs differ between set-ups: {hashes}"})
    attempted = plain.attempted + traced.attempted
    metrics = per_layer(plain, traced, tracer) if trace else end_to_end(plain, setup_s)
    correct = not failures
    solve_samples = [t for times in plain.scaled("solve") for t in times]

    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": passes, "measured_s": elapsed,
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "metrics": metrics,
        "samples_s": {op: plain.scaled(op) for op in plain.samples},
        "raw_samples_s": plain.samples,
        "kernels_s": plain.kernels_s,
        "solve_p90_ms": (1e3 * statistics.quantiles(solve_samples, n=10)[-1]
                         if len(solve_samples) >= 100 else None),
        "breakdown": breakdown(tracer.spans) if tracer is not None else None,
        "setup": {"import_s": import_s, "reps": setup_reps, "inputs_sha256": hashes[-1]},
        "inputs": input_sizes(inputs, plain),
        "environment": environment(),
        "failures": failures,
    }
    stem = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "trace", "name", "start", "end", "work"],
                       "spans": tracer.spans}, fh)

    print_table(f"{workload.name} seed={seed} trace={trace}: {passes} passes, "
                f"{len(solve_samples)} untraced solves, fail_frac "
                f"{record['fail_frac']:.3g} ({len(failures)}/{attempted}), "
                f"inputs {hashes[-1][:12]}", metrics)
    for failure in failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1
