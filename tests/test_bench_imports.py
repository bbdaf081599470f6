"""The benchmark's tracer resolves every layer function it wraps at import.

Renaming or deleting one of them must fail here rather than crash a
benchmark run.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_spans_resolve_every_layer():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import spans
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    assert spans.LAYERS
    for name, (fn, _) in spans.LAYERS.items():
        module, attr = fn.__module__, fn.__name__
        assert getattr(sys.modules[module], attr) is fn, name
