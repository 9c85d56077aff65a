"""The benchmark's traced run wraps klscope functions by module attribute;
a rename in ``src/`` must fail here rather than at ``--trace 1``."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def test_benchmark_trace_targets_resolve():
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import layers

    targets = layers.targets()
    assert targets
    for module, attr, span, _, _ in targets:
        assert callable(getattr(module, attr, None)), span
