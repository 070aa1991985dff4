"""The benchmark's spans still name functions of the library.

perfbench/spans.py wraps library functions by (module, name) and skips a
name it cannot find, so a rename in src/ silently zeroes a per-layer
metric.  This test runs its instrument() against a stub that only
records what would be wrapped, and pins the names that are missing.
"""

import collections
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (module, name) pairs instrument() wraps that the library no longer has;
# the benchmark change that repairs spans.py empties this set
STALE = {
    ("ma", "spsolve"),
    ("dynamics", "fill_lma_residuals"),
    ("dynamics", "holder_fit"),
    ("polar", "holder_fit"),
    ("dynamics", "DivergenceFormOperator"),
    ("regularity", "DivergenceFormOperator"),
}


class RecordingTracer:
    """Stand-in for spans.Tracer: records each wrap, patches nothing."""

    def __init__(self):
        self.counts = collections.Counter()
        self.wrapped = []

    def wrap(self, module, attr, name, **hooks):
        self.wrapped.append((module, attr))


def test_instrument_wraps_only_existing_names_but_the_stale_ones():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = RecordingTracer()
    spans.instrument(tracer)
    assert tracer.wrapped
    missing = {(module.__name__.rsplit(".", 1)[-1], attr)
               for module, attr in tracer.wrapped
               if getattr(module, attr, None) is None}
    assert missing == STALE
