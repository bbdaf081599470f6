"""In-memory span tracing of dilation-forge's public functions.

The tracer wraps each layer function in every module namespace that holds a
reference to it, so a call through ``builder.szego_operator`` is recorded as
well as one through ``tuples.szego_operator``.  Each span records its name,
start, end, parent span and trace id; the benchmark opens one root span per
operation (a solve, a model-file round trip, a CLI round trip), and every span
below it shares its trace id.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import dilation_forge
from dilation_forge import builder, cli, fock, linalg, tuples, verifier
from dilation_forge import io as dfio

# span fields
ID, PARENT, TRACE, NAME, START, END, WORK = range(7)


def _subset_products(args, kwargs):
    """Products formed by one szego_operator call: 2^|S|."""
    return 2 ** len(set(kwargs.get("S", args[1] if len(args) > 1 else ())))


def _box_cells(args, kwargs):
    """Cells of the (N+1)^m box memo in one truncation_tails call."""
    merged = args[0]
    N = kwargs.get("N", args[2] if len(args) > 2 else None)
    return (N + 1) ** merged.n


# span name -> (function, optional work counter over the call's arguments)
LAYERS = {
    "tuples.classify": (tuples.classify, None),
    "tuples.szego": (tuples.szego_operator, _subset_products),
    "tuples.is_pure": (tuples.is_pure, None),
    "tuples.power_products": (tuples.ordered_power_products, None),
    "builder.defects": (builder.build_defects, None),
    "builder.V0": (builder.build_V0, None),
    "builder.aux": (builder.solve_aux, None),
    "builder.U": (builder.build_U, None),
    "builder.transfer": (builder.build_transfer, None),
    "builder.tau": (builder.transfer_tau, None),
    "builder.Pi": (builder.build_Pi, None),
    "builder.tails": (builder.truncation_tails, _box_cells),
    "builder.assemble": (builder.assemble_model, None),
    "fock.creation": (fock.creation_matrix, None),
    "fock.interior_projector": (fock.interior_projector, None),
    "verifier.pi": (verifier.verify_pi, None),
    "verifier.intertwining": (verifier.verify_intertwining, None),
    "verifier.isometry_commutation": (verifier.verify_isometric_representation, None),
    "verifier.factorization": (verifier.verify_factorization, None),
    "verifier.equivariance": (verifier.verify_equivariance, None),
    "verifier.moments": (verifier.verify_moments, None),
    "verifier.report": (verifier.full_report, None),
    "io.model_to_dict": (dfio.model_to_dict, None),
    "io.dump_json": (dfio.dump_json, None),
    "io.load_model": (dfio.load_model, None),
    "io.model_from_dict": (dfio.model_from_dict, None),
    "cli.main": (cli.main, None),
    "cli.dilate": (cli.cmd_dilate, None),
    "cli.verify": (cli.cmd_verify, None),
    "linalg.psd_sqrt": (linalg.psd_sqrt, None),
    "linalg.range_basis": (linalg.range_basis, None),
    "linalg.isometry_from_frames": (linalg.isometry_from_frames, None),
}

# Per-layer metric -> (span names, what is summed).  "self" is span duration
# minus its child spans, "wall" the whole span duration, "calls" the span
# count and "work" the per-call work counter.
LAYER_METRICS = {
    "tuples.classify_ms": (("tuples.classify",), "self"),
    "tuples.szego_ms": (("tuples.szego",), "self"),
    "tuples.szego_calls": (("tuples.szego",), "calls"),
    "tuples.subset_products": (("tuples.szego",), "work"),
    "tuples.is_pure_ms": (("tuples.is_pure",), "self"),
    "tuples.power_products_ms": (("tuples.power_products",), "self"),
    "builder.defects_self_ms": (("builder.defects",), "self"),
    "builder.V0_ms": (("builder.V0",), "self"),
    "builder.aux_ms": (("builder.aux",), "self"),
    "builder.U_ms": (("builder.U",), "self"),
    "builder.transfer_ms": (("builder.transfer",), "self"),
    "builder.tau_ms": (("builder.tau",), "self"),
    "builder.Pi_self_ms": (("builder.Pi",), "self"),
    "builder.tails_ms": (("builder.tails",), "self"),
    "builder.tails_box_cells": (("builder.tails",), "work"),
    "builder.assemble_self_ms": (("builder.assemble",), "self"),
    "fock.creation_ms": (("fock.creation",), "self"),
    "fock.creation_calls": (("fock.creation",), "calls"),
    "fock.interior_projector_ms": (("fock.interior_projector",), "self"),
    "fock.interior_projector_calls": (("fock.interior_projector",), "calls"),
    "verifier.pi_ms": (("verifier.pi",), "self"),
    "verifier.intertwining_ms": (("verifier.intertwining",), "self"),
    "verifier.isometry_commutation_ms": (("verifier.isometry_commutation",), "self"),
    "verifier.factorization_ms": (("verifier.factorization",), "self"),
    "verifier.equivariance_ms": (("verifier.equivariance",), "self"),
    "verifier.moments_ms": (("verifier.moments",), "self"),
    "verifier.report_self_ms": (("verifier.report",), "self"),
    "io.model_to_dict_ms": (("io.model_to_dict",), "self"),
    "io.dump_json_ms": (("io.dump_json",), "self"),
    "io.json_decode_ms": (("io.load_model",), "self"),
    "io.model_from_dict_ms": (("io.model_from_dict",), "self"),
    "cli.dilate_ms": (("cli.dilate",), "wall"),
    "cli.verify_ms": (("cli.verify",), "wall"),
    "cli.self_ms": (("cli.main", "cli.dilate", "cli.verify"), "self"),
    "linalg.ms": (("linalg.psd_sqrt", "linalg.range_basis", "linalg.isometry_from_frames"), "self"),
    "linalg.calls": (("linalg.psd_sqrt", "linalg.range_basis", "linalg.isometry_from_frames"),
                     "calls"),
}


def _namespaces():
    prefix = dilation_forge.__name__ + "."
    return [dilation_forge] + [m for name, m in sorted(sys.modules.items())
                               if name.startswith(prefix) and m is not None]


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch the layers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._traces = 0
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, work: int, new_trace: bool) -> list:
        parent = self._stack[-1] if self._stack else None
        if new_trace or parent is None:
            self._traces += 1
            trace_id, parent_id = self._traces, None
        else:
            trace_id, parent_id = parent[TRACE], parent[ID]
        span = [len(self.spans), parent_id, trace_id, name, 0.0, 0.0, work]
        self.spans.append(span)
        self._stack.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list):
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A benchmark operation: the root of a new trace."""
        span = self._open(name, 1, new_trace=True)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, counter(args, kwargs) if counter else 1, new_trace=False)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def install(self):
        """Replace every module-level reference to a layer function by its wrapper."""
        wrappers = {id(fn): self._wrap(name, fn, counter)
                    for name, (fn, counter) in LAYERS.items()}
        for module in _namespaces():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over all spans: ms for times, plain sums for counts."""
    selfs = self_times(spans)
    by_name: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0, 0])
    for s, own in zip(spans, selfs):
        acc = by_name[s[NAME]]
        acc[0] += own
        acc[1] += s[END] - s[START]
        acc[2] += 1
        acc[3] += s[WORK]
    out = {}
    for metric, (names, kind) in LAYER_METRICS.items():
        accs = [by_name[n] for n in names if n in by_name]
        if kind == "self":
            out[metric] = 1e3 * sum(a[0] for a in accs)
        elif kind == "wall":
            out[metric] = 1e3 * sum(a[1] for a in accs)
        elif kind == "calls":
            out[metric] = float(sum(a[2] for a in accs))
        else:
            out[metric] = float(sum(a[3] for a in accs))
    return out


def breakdown(spans: list[list]) -> dict:
    """Per root operation: its total wall ms and the self ms of each span name in it."""
    selfs = self_times(spans)
    root_name = {s[TRACE]: s[NAME] for s in spans if s[PARENT] is None}
    out: dict = {}
    for s, own in zip(spans, selfs):
        entry = out.setdefault(root_name[s[TRACE]], {"wall_ms": 0.0, "self_ms": defaultdict(float)})
        if s[PARENT] is None:
            entry["wall_ms"] += 1e3 * (s[END] - s[START])
        entry["self_ms"][s[NAME]] += 1e3 * own
    return out
