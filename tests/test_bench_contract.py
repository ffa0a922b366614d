"""The benchmark's tracer still fits the package.

`perfbench/tracer.py` wraps layer functions by their attribute names and
pins exact call counts for one analytic joint-measurement trial. A change
that renames a traced attribute or moves a pinned count fails here, not
only in the benchmark.
"""

import importlib.util
from pathlib import Path

# the tracer wraps layers in every cavityq module, the CLI included
import cavityq.cli  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_selftest_repeats_without_problems():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # the benchmark runs the self-test twice in one process
    first = tracer.selftest()
    second = tracer.selftest()
    assert first == []
    assert second == first
