"""Smoke test of the benchmark: each workload once, at a tiny size, traced.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import os
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Case  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

# One small case per workload; each workload keeps its own file_degree.
TINY = {
    "deep-fock": (Case("covariant", 3, 4, 3),),
    "wide-tuple": (Case("scaled-commuting", 5, 2, 2),),
    "cli-roundtrip": (Case("u-commuting", 3, 3, 2),),
}


def orphans(recorded: list) -> list:
    """Spans whose parent is missing, in another trace, or not around them."""
    bad = []
    for s in recorded:
        if s[spans.PARENT] is None:
            continue
        p = recorded[s[spans.PARENT]] if 0 <= s[spans.PARENT] < len(recorded) else None
        if (p is None or p[spans.TRACE] != s[spans.TRACE]
                or p[spans.START] > s[spans.START] or p[spans.END] < s[spans.END]):
            bad.append(s)
    return bad


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, best of three."""
    def noop():
        return None
    tracer = spans.Tracer()
    wrapped = tracer._wrap("noop", noop, None)
    costs = []
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        with tracer.root("calibrate"):
            for _ in range(calls):
                wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
        tracer.spans.clear()
    return max(min(costs), 0.0)


def test_workload_names_agree():
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert names == set(WORKLOADS) == set(run.WORKLOAD_NAMES) == set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload(name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], cases=TINY[name])
    inputs, _, hashes = bench.setup(workload, 5, str(tmp_path))
    assert len(set(hashes)) == 1
    plain, traced, tracer, passes, _ = bench.measure(inputs, 0.0, True, str(tmp_path))
    assert passes == 2
    assert plain.failures == [] and traced.failures == []

    # every end-to-end and per-layer metric is present, with its unit
    e2e = bench.end_to_end(plain, 1.0)
    layers = bench.per_layer(plain, traced, tracer)
    assert {k: m["unit"] for k, m in e2e.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in layers.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

    # the span tree has no orphans and one root per trace
    recorded = tracer.spans
    assert recorded and orphans(recorded) == []
    roots = [s for s in recorded if s[spans.PARENT] is None]
    assert len({s[spans.TRACE] for s in roots}) == len(roots)
    assert {s[spans.TRACE] for s in recorded} == {s[spans.TRACE] for s in roots}

    # layer self times add up to each traced solve's wall time, short of it
    # by no more than the tracing overhead measured for that many spans
    span_cost = span_cost_s()
    selfs = spans.self_times(recorded)
    solves = [s for s in roots if s[spans.NAME] == "solve"]
    assert len(solves) == len(inputs)
    for root in solves:
        members = [s for s in recorded if s[spans.TRACE] == root[spans.TRACE]]
        layer_sum = sum(selfs[s[spans.ID]] for s in members if s is not root)
        wall = root[spans.END] - root[spans.START]
        assert 0.0 < layer_sum <= wall
        assert wall - layer_sum <= len(members) * span_cost, (wall, layer_sum, len(members))
