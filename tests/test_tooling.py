"""The benchmark's traced run binds package functions when it imports.

`perfbench/layers.py` names the functions it wraps, and its tracer
rebinds them in every module that imported them.  A refactor that
drops or renames one of them should fail here, not crash the benchmark
at import.
"""

import importlib.util
import sys
from pathlib import Path

from horolattice import fundamental, orbits

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_benchmark_traced_functions_stay_bound():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # an AttributeError here names the missing function
    for fn, span, _, owner in layers.TRACED:
        home = owner if owner is not None else sys.modules[fn.__module__]
        assert getattr(home, fn.__name__, None) is fn, span
    # the tracer wraps the reductions where orbits calls them, too
    assert orbits._reduce_core is fundamental._reduce_core
    assert orbits.reduce_batch_2x2 is fundamental.reduce_batch_2x2
